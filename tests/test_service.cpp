// The counter-service daemon, end to end over the deterministic
// loopback transport: wire-protocol round trips and malformed-input
// handling, session lifecycle, shared-subscription coalescing (the
// backend-reads-per-tick oracle), backpressure and idle-timeout drops,
// graceful shutdown with the fd ledger as leak oracle, byte-identical
// streams across encode thread counts, exact read and delivery counts
// over the 1..1024-client load table, and a seeded chaos soak with the
// fault injector behind the daemon. The unix-socket transport gets a
// real-socket smoke test in the ServiceLinuxHost suite (runs in the
// linux-host CI shard).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/proto.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

#include "load_cell.hpp"

namespace hetpapi {
namespace {

using papi::FaultInjectingBackend;
using papi::FaultProfile;
using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;
using namespace hetpapi::service;

// --- wire protocol ---------------------------------------------------------

TEST(ServiceProto, ScalarAndStringRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.25);
  w.str("hello");
  w.str_list({"a", "", "bc"});
  w.i64_list({-1, 0, 7});
  w.u8_list({1, 0, 1});
  Reader r(w.bytes());
  EXPECT_EQ(*r.u8(), 0xab);
  EXPECT_EQ(*r.u32(), 0xdeadbeefu);
  EXPECT_EQ(*r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(*r.i64(), -42);
  EXPECT_EQ(*r.f64(), 3.25);
  EXPECT_EQ(*r.str(), "hello");
  EXPECT_EQ(*r.str_list(), (std::vector<std::string>{"a", "", "bc"}));
  EXPECT_EQ(*r.i64_list(), (std::vector<long long>{-1, 0, 7}));
  EXPECT_EQ(*r.u8_list(), (std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_TRUE(r.exhausted());
}

TEST(ServiceProto, ReaderRejectsTruncationAndStaysPoisoned) {
  Writer w;
  w.str("truncate me");
  std::vector<std::uint8_t> bytes = w.take();
  bytes.erase(bytes.end() - 3, bytes.end());
  Reader r(bytes);
  auto s = r.str();
  ASSERT_FALSE(s.has_value());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
  // Poisoned: even a 1-byte read now fails although bytes remain.
  EXPECT_FALSE(r.u8().has_value());
}

TEST(ServiceProto, MessagesRoundTripThroughFrames) {
  Subscribe sub;
  sub.target_kind = TargetKind::kThread;
  sub.target = 17;
  sub.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  sub.period_ticks = 4;
  sub.qualified = 1;
  FrameReader reader;
  reader.feed(encode_frame(MsgType::kSubscribe, sub.encode()));
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, MsgType::kSubscribe);
  auto decoded = Subscribe::decode(*frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->target_kind, TargetKind::kThread);
  EXPECT_EQ(decoded->target, 17);
  EXPECT_EQ(decoded->events, sub.events);
  EXPECT_EQ(decoded->period_ticks, 4u);
  EXPECT_EQ(decoded->qualified, 1);

  WireSample sample;
  sample.subscription_id = 3;
  sample.tick = 99;
  sample.t_seconds = 1.5;
  sample.values = {100, 200};
  sample.degraded = {0, 1};
  sample.counters_ok = 1;
  sample.package_temp_c = 55.0;
  sample.package_power_w = 12.5;
  sample.parts = {{{"INST_RETIRED[P-core]", 60}, {"INST_RETIRED[E-core]", 40}},
                  {}};
  reader.feed(encode_frame(MsgType::kSample, sample.encode()));
  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  auto ds = WireSample::decode(*frame);
  ASSERT_TRUE(ds.has_value());
  EXPECT_EQ(ds->subscription_id, 3u);
  EXPECT_EQ(ds->tick, 99u);
  EXPECT_EQ(ds->values, sample.values);
  EXPECT_EQ(ds->degraded, sample.degraded);
  EXPECT_EQ(ds->parts, sample.parts);

  WireError err;
  err.code = static_cast<std::int32_t>(StatusCode::kNoEventSet);
  err.in_reply_to = static_cast<std::uint8_t>(MsgType::kRead);
  err.message = "no such session";
  reader.feed(encode_frame(MsgType::kError, err.encode()));
  frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  auto de = WireError::decode(*frame);
  ASSERT_TRUE(de.has_value());
  EXPECT_EQ(de->to_status().code(), StatusCode::kNoEventSet);
  EXPECT_EQ(de->message, "no such session");
}

TEST(ServiceProto, SampleRoundTripsThreePerCoreTypeParts) {
  // The qualified frame is N-part by construction (length-prefixed
  // slots): three per-core-type constituents — a P/E/LP-E breakdown —
  // survive the wire byte-exactly, including an uncore slot with a
  // single unattributed part.
  WireSample sample;
  sample.subscription_id = 7;
  sample.tick = 12;
  sample.t_seconds = 0.25;
  sample.values = {300, 55};
  sample.degraded = {0, 0};
  sample.counters_ok = 1;
  sample.package_temp_c = 48.0;
  sample.package_power_w = 9.5;
  sample.parts = {{{"INST_RETIRED[intel_core]", 180},
                   {"INST_RETIRED[intel_atom]", 90},
                   {"INST_RETIRED[intel_lowpower]", 30}},
                  {{"UNC_M_CAS_COUNT:RD", 55}}};

  FrameReader reader;
  reader.feed(encode_frame(MsgType::kSample, sample.encode()));
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  auto decoded = WireSample::decode(*frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->parts, sample.parts);
  ASSERT_EQ(decoded->parts[0].size(), 3u);
  long long sum = 0;
  for (const auto& [label, value] : decoded->parts[0]) sum += value;
  EXPECT_EQ(sum, decoded->values[0]);

  // A truncated third part poisons the decode instead of silently
  // yielding a two-part frame.
  auto bytes = sample.encode();
  bytes.erase(bytes.end() - 5, bytes.end());
  Frame cut;
  cut.type = MsgType::kSample;
  cut.payload = std::move(bytes);
  EXPECT_FALSE(WireSample::decode(cut).has_value());
}

TEST(ServiceProto, DecodeRejectsTrailingBytes) {
  Start msg;
  msg.session_id = 5;
  std::vector<std::uint8_t> payload = msg.encode();
  payload.push_back(0x77);  // one stray byte after a complete message
  Frame frame;
  frame.type = MsgType::kStart;
  frame.payload = payload;
  auto decoded = Start::decode(frame);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceProto, FrameReaderReassemblesSingleByteChunks) {
  Hello hello;
  hello.client_name = "chunked";
  const auto f1 = encode_frame(MsgType::kHello, hello.encode());
  const auto f2 = encode_frame(MsgType::kGetStats, GetStats{}.encode());
  std::vector<std::uint8_t> stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  FrameReader reader;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    reader.feed(&byte, 1);
    for (;;) {
      auto frame = reader.next();
      if (!frame) {
        EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
        break;
      }
      frames.push_back(*std::move(frame));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kHello);
  EXPECT_EQ(frames[1].type, MsgType::kGetStats);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ServiceProto, FrameReaderPoisonsOnCorruptLengthPrefix) {
  FrameReader reader;
  // Length prefix of zero is impossible (the type byte is included).
  const std::uint8_t zero_len[4] = {0, 0, 0, 0};
  reader.feed(zero_len, sizeof(zero_len));
  auto frame = reader.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(reader.corrupt());

  FrameReader oversized;
  Writer w;
  w.u32(kMaxFrameBytes + 1);
  oversized.feed(w.bytes());
  frame = oversized.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_TRUE(oversized.corrupt());
}

// --- loopback daemon harness ----------------------------------------------

struct Harness {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<SimBackend> backend;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<Daemon> daemon;
  /// Three measured workload threads (the component lock allows one
  /// running perf EventSet per thread, so distinct subscription specs
  /// need distinct targets). tid aliases tids[0].
  std::vector<Tid> tids;
  Tid tid{};
  /// Machine model the daemon serves; set before init() to exercise
  /// other core-type counts (e.g. the three-PMU hybrids).
  cpumodel::MachineSpec machine = cpumodel::raptor_lake_i7_13700();

  Status init(DaemonConfig dconfig = {},
              LoopbackTransport::Config tconfig = {}) {
    kernel = std::make_unique<SimKernel>(machine);
    backend = std::make_unique<SimBackend>(kernel.get());
    transport = std::make_unique<LoopbackTransport>(tconfig);
    daemon = std::make_unique<Daemon>(kernel.get(), backend.get(),
                                      std::move(dconfig));
    PhaseSpec phase;
    for (int cpu = 0; cpu < 3; ++cpu) {
      tids.push_back(kernel->spawn(
          std::make_shared<FixedWorkProgram>(phase, 4'000'000'000ull),
          CpuSet::of({cpu})));
    }
    tid = tids[0];
    if (Status s = daemon->init(); !s.is_ok()) return s;
    daemon->add_listener(transport->listener());
    transport->set_pump([this] { daemon->poll(); });
    return Status::ok();
  }

  Client connect(const std::string& name) {
    Client client(transport->connect());
    EXPECT_TRUE(client.hello(name).is_ok()) << name;
    return client;
  }

  /// Advance simulated time, then run one daemon sampling tick.
  void advance_and_tick(int ms = 10) {
    kernel->run_for(std::chrono::milliseconds(ms));
    daemon->tick();
  }
};

TEST(ServiceDaemon, HandshakeThenSessionLifecycle) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("lifecycle");

  auto session = client.open_session(TargetKind::kThread, h.tid);
  ASSERT_TRUE(session.has_value()) << session.status().message();
  auto ack = client.add_events(*session, {"papi_tot_ins", "PAPI_TOT_CYC"});
  ASSERT_TRUE(ack.has_value()) << ack.status().message();
  // The daemon canonicalizes spellings on the way in.
  ASSERT_EQ(ack->canonical_names.size(), 2u);
  EXPECT_EQ(ack->canonical_names[0], "PAPI_TOT_INS");
  EXPECT_EQ(ack->canonical_names[1], "PAPI_TOT_CYC");

  ASSERT_TRUE(client.start(*session).is_ok());
  h.kernel->run_for(std::chrono::milliseconds(50));
  auto reading = client.read(*session);
  ASSERT_TRUE(reading.has_value()) << reading.status().message();
  ASSERT_EQ(reading->values.size(), 2u);
  EXPECT_GT(reading->values[0], 0);
  EXPECT_GT(reading->values[1], 0);

  h.kernel->run_for(std::chrono::milliseconds(50));
  auto later = client.read(*session);
  ASSERT_TRUE(later.has_value());
  EXPECT_GT(later->values[0], reading->values[0]);

  EXPECT_TRUE(client.close().is_ok());
  h.daemon->poll();
  EXPECT_EQ(h.daemon->client_count(), 0u);
  EXPECT_EQ(h.backend->open_fd_count(), 0u);
}

TEST(ServiceDaemon, RequestBeforeHelloIsRefused) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  auto conn = h.transport->connect();
  GetStats msg;
  const auto frame = encode_frame(MsgType::kGetStats, msg.encode());
  ASSERT_TRUE(conn->send(frame.data(), frame.size()).has_value());
  h.daemon->poll();

  std::vector<std::uint8_t> bytes;
  (void)conn->receive(bytes);
  FrameReader reader;
  reader.feed(bytes);
  auto reply = reader.next();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  auto err = WireError::decode(*reply);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->to_status().code(), StatusCode::kPermission);
  EXPECT_EQ(h.daemon->stats().protocol_errors, 1u);
}

TEST(ServiceDaemon, VersionMismatchIsRefused) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  // The daemon speaks exactly kProtocolVersion: older and newer offers
  // alike get an Error and a hang-up, never a down-level session.
  for (const std::uint32_t offered : {1u, 2u, 4u, 999u}) {
    SCOPED_TRACE("offered v" + std::to_string(offered));
    const auto errors_before = h.daemon->stats().protocol_errors;
    auto conn = h.transport->connect();
    Hello hello;
    hello.version = offered;
    hello.client_name = "mismatched";
    const auto frame = encode_frame(MsgType::kHello, hello.encode());
    ASSERT_TRUE(conn->send(frame.data(), frame.size()).has_value());
    h.daemon->poll();

    std::vector<std::uint8_t> bytes;
    (void)conn->receive(bytes);
    FrameReader reader;
    reader.feed(bytes);
    auto reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kError);
    auto err = WireError::decode(*reply);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->to_status().code(), StatusCode::kNotSupported);
    EXPECT_EQ(h.daemon->stats().protocol_errors, errors_before + 1);
    // The daemon hangs up on a version mismatch.
    h.daemon->poll();
    EXPECT_EQ(h.daemon->client_count(), 0u);
  }
}

TEST(ServiceDaemon, UnknownEventFailsAtomicallyAndSessionSurvives) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("atomic");
  auto session = client.open_session(TargetKind::kThread, h.tid);
  ASSERT_TRUE(session.has_value());

  auto bad = client.add_events(*session,
                               {"PAPI_TOT_INS", "NOT_AN_EVENT_ANYWHERE"});
  ASSERT_FALSE(bad.has_value());
  // All-or-nothing: the good event was rolled back with the bad one.
  auto good = client.add_events(*session, {"PAPI_TOT_INS"});
  ASSERT_TRUE(good.has_value()) << good.status().message();
  ASSERT_TRUE(client.start(*session).is_ok());
  h.kernel->run_for(std::chrono::milliseconds(10));
  auto reading = client.read(*session);
  ASSERT_TRUE(reading.has_value());
  EXPECT_EQ(reading->values.size(), 1u);
  EXPECT_TRUE(client.close().is_ok());
}

TEST(ServiceDaemon, CorruptStreamDropsTheClient) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client ok_client = h.connect("survivor");
  auto conn = h.transport->connect();
  const std::uint8_t garbage[4] = {0, 0, 0, 0};  // impossible length prefix
  ASSERT_TRUE(conn->send(garbage, sizeof(garbage)).has_value());
  h.daemon->poll();
  EXPECT_EQ(h.daemon->client_count(), 1u);  // corrupt client reaped
  EXPECT_GE(h.daemon->stats().protocol_errors, 1u);
  // The healthy client is unaffected.
  auto stats = ok_client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->active_clients, 1u);
}

// --- coalescing ------------------------------------------------------------

TEST(ServiceCoalescing, SameSpecCoalescesAcrossSpellings) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Client c = h.connect("c");

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  auto sub_a = a.subscribe(spec);
  ASSERT_TRUE(sub_a.has_value()) << sub_a.status().message();

  // Same spec, different case: must land on the same shared EventSet.
  Subscribe lower = spec;
  lower.events = {"papi_tot_ins", "papi_tot_cyc"};
  auto sub_b = b.subscribe(lower);
  ASSERT_TRUE(sub_b.has_value());
  EXPECT_EQ(sub_b->shared_key_id, sub_a->shared_key_id);
  EXPECT_NE(sub_b->subscription_id, sub_a->subscription_id);

  // Different event order = different value-slot order = distinct key
  // (on a different thread — see ConflictOnSameThread below for why).
  Subscribe reordered = spec;
  reordered.target = h.tids[1];
  reordered.events = {"PAPI_TOT_CYC", "PAPI_TOT_INS"};
  auto sub_c = c.subscribe(reordered);
  ASSERT_TRUE(sub_c.has_value()) << sub_c.status().message();
  EXPECT_NE(sub_c->shared_key_id, sub_a->shared_key_id);

  EXPECT_EQ(h.daemon->distinct_subscription_count(), 2u);
  EXPECT_EQ(h.daemon->total_subscriber_count(), 3u);
}

TEST(ServiceCoalescing, SameThreadConflictsCoalesceOnlyOnIdenticalSpecs) {
  // PAPI allows one running EventSet per component per thread — two
  // independent processes measuring the same thread is exactly what
  // raw PAPI cannot do. Through the daemon an *identical* spec joins
  // the existing shared set instead of conflicting; a *different* spec
  // on the same thread still surfaces the honest PAPI_ECNFLCT.
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(a.subscribe(spec).has_value());

  auto joined = b.subscribe(spec);  // identical spec: rides along
  ASSERT_TRUE(joined.has_value()) << joined.status().message();

  Subscribe different = spec;
  different.events = {"PAPI_TOT_CYC"};
  auto conflicted = b.subscribe(different);  // same thread, new set
  ASSERT_FALSE(conflicted.has_value());
  EXPECT_EQ(conflicted.status().code(), StatusCode::kConflict);
  // The failed subscribe leaked nothing daemon-side.
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);
  EXPECT_EQ(h.daemon->total_subscriber_count(), 2u);
}

TEST(ServiceCoalescing, BackendReadsScaleWithDistinctSubscriptionsNotClients) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  std::vector<Client> riders;
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  constexpr std::size_t kRiders = 8;
  for (std::size_t i = 0; i < kRiders; ++i) {
    riders.push_back(h.connect("rider" + std::to_string(i)));
    auto sub = riders.back().subscribe(spec);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->shared_key_id, 1u);  // everyone coalesces onto key 1
  }
  Client loner = h.connect("loner");
  Subscribe other = spec;
  other.target = h.tids[1];
  other.events = {"PAPI_TOT_CYC"};
  ASSERT_TRUE(loner.subscribe(other).has_value());

  const std::uint64_t reads_before = h.daemon->stats().backend_reads;
  const std::uint64_t delivered_before = h.daemon->stats().samples_delivered;
  constexpr std::uint64_t kTicks = 5;
  for (std::uint64_t t = 0; t < kTicks; ++t) h.advance_and_tick();

  // THE coalescing invariant: 2 distinct subscriptions -> 2 reads/tick,
  // while 9 subscribers get 9 samples/tick.
  EXPECT_EQ(h.daemon->stats().backend_reads - reads_before, kTicks * 2);
  EXPECT_EQ(h.daemon->stats().samples_delivered - delivered_before,
            kTicks * (kRiders + 1));

  // Every rider saw every tick, with identical values per tick.
  std::vector<std::vector<WireSample>> streams;
  for (Client& rider : riders) streams.push_back(rider.take_samples());
  for (const auto& stream : streams) {
    ASSERT_EQ(stream.size(), kTicks);
    for (std::size_t i = 0; i < kTicks; ++i) {
      EXPECT_EQ(stream[i].values, streams[0][i].values);
      EXPECT_EQ(stream[i].tick, streams[0][i].tick);
    }
  }
}

TEST(ServiceCoalescing, LastUnsubscribeTearsDownTheSharedEventSet) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  auto sub_a = a.subscribe(spec);
  auto sub_b = b.subscribe(spec);
  ASSERT_TRUE(sub_a.has_value());
  ASSERT_TRUE(sub_b.has_value());
  ASSERT_EQ(h.daemon->distinct_subscription_count(), 1u);
  const std::size_t fds_shared = h.backend->open_fd_count();
  EXPECT_GT(fds_shared, 0u);

  ASSERT_TRUE(a.unsubscribe(sub_a->subscription_id).is_ok());
  // One rider remains: the shared set must survive.
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);
  EXPECT_EQ(h.backend->open_fd_count(), fds_shared);

  ASSERT_TRUE(b.unsubscribe(sub_b->subscription_id).is_ok());
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 0u);
  EXPECT_EQ(h.backend->open_fd_count(), 0u);

  // Re-subscribing builds a fresh shared set under a fresh key.
  auto again = a.subscribe(spec);
  ASSERT_TRUE(again.has_value());
  EXPECT_NE(again->shared_key_id, sub_a->shared_key_id);
}

TEST(ServiceCoalescing, PeriodAndQualifiedStreaming) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client slow = h.connect("slow");
  Client fine = h.connect("fine");

  Subscribe every2;
  every2.target_kind = TargetKind::kThread;
  every2.target = h.tid;
  every2.events = {"PAPI_TOT_INS"};
  every2.period_ticks = 2;
  ASSERT_TRUE(slow.subscribe(every2).has_value());

  Subscribe qualified = every2;
  qualified.target = h.tids[1];
  qualified.period_ticks = 1;
  qualified.qualified = 1;
  {
    auto q = fine.subscribe(qualified);
    ASSERT_TRUE(q.has_value()) << q.status().message();
  }

  for (int t = 0; t < 6; ++t) h.advance_and_tick();

  const auto slow_samples = slow.take_samples();
  ASSERT_EQ(slow_samples.size(), 3u);  // ticks 2, 4, 6
  for (const WireSample& s : slow_samples) EXPECT_EQ(s.tick % 2, 0u);

  const auto fine_samples = fine.take_samples();
  ASSERT_EQ(fine_samples.size(), 6u);
  for (const WireSample& s : fine_samples) {
    ASSERT_EQ(s.values.size(), 1u);
    ASSERT_EQ(s.parts.size(), 1u);
    // Qualified: the per-PMU constituents sum to the derived total, and
    // each is labelled with its core type (hybrid machine -> P and E).
    long long sum = 0;
    for (const auto& [label, value] : s.parts[0]) {
      sum += value;
      EXPECT_NE(label.find('['), std::string::npos) << label;
    }
    EXPECT_EQ(sum, s.values[0]);
    EXPECT_GE(s.parts[0].size(), 2u);
  }
}

TEST(ServiceCoalescing, QualifiedStreamOnTriHybridCarriesThreeParts) {
  // End-to-end on the three-PMU hybrid: a qualified subscription's
  // samples must carry one labelled constituent per core PMU — P, E,
  // and LP-E — whose signed sum reproduces the derived total.
  Harness h;
  h.machine = cpumodel::meteor_lake_like();
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("tri");

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  spec.period_ticks = 1;
  spec.qualified = 1;
  {
    auto sub = client.subscribe(spec);
    ASSERT_TRUE(sub.has_value()) << sub.status().message();
  }

  for (int t = 0; t < 4; ++t) h.advance_and_tick();

  const auto samples = client.take_samples();
  ASSERT_GE(samples.size(), 1u);
  for (const WireSample& s : samples) {
    ASSERT_EQ(s.parts.size(), 1u);
    ASSERT_EQ(s.parts[0].size(), 3u)
        << "three core PMUs -> three qualified parts";
    long long sum = 0;
    std::set<std::string> labels;
    for (const auto& [label, value] : s.parts[0]) {
      sum += value;
      const auto open = label.find('[');
      ASSERT_NE(open, std::string::npos) << label;
      labels.insert(label.substr(open));
    }
    EXPECT_EQ(sum, s.values[0]);
    EXPECT_EQ(labels.size(), 3u) << "each part has a distinct core type";
  }
}

// --- robustness ------------------------------------------------------------

TEST(ServiceRobustness, SlowClientIsDroppedOthersKeepStreaming) {
  Harness h;
  DaemonConfig config;
  config.max_client_queue_frames = 4;
  ASSERT_TRUE(h.init(config).is_ok());
  Client snappy = h.connect("snappy");  // connection index 0
  Client sluggish = h.connect("sluggish");  // connection index 1

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(snappy.subscribe(spec).has_value());
  ASSERT_TRUE(sluggish.subscribe(spec).has_value());
  ASSERT_EQ(h.daemon->client_count(), 2u);

  // Wedge the slow client: daemon writes toward it now report
  // would-block, so its queue grows by one frame per tick.
  h.transport->set_client_paused(1, true);
  for (int t = 0; t < 8; ++t) {
    h.advance_and_tick();
    (void)snappy.take_samples();  // the healthy client keeps draining
  }

  EXPECT_EQ(h.daemon->stats().clients_dropped_slow, 1u);
  EXPECT_EQ(h.daemon->client_count(), 1u);
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);  // snappy's
  EXPECT_EQ(h.daemon->total_subscriber_count(), 1u);

  // The dropped side observes a dead connection.
  h.transport->set_client_paused(1, false);
  EXPECT_FALSE(sluggish.pump_once());

  // And the healthy stream never stalled.
  h.advance_and_tick();
  EXPECT_FALSE(snappy.take_samples().empty());
}

TEST(ServiceRobustness, IdleClientsWithoutSubscriptionsTimeOut) {
  Harness h;
  DaemonConfig config;
  config.idle_timeout_ticks = 3;
  ASSERT_TRUE(h.init(config).is_ok());
  Client idle = h.connect("idle");
  Client busy = h.connect("busy");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(busy.subscribe(spec).has_value());

  for (int t = 0; t < 5; ++t) h.advance_and_tick();

  EXPECT_EQ(h.daemon->stats().clients_closed_idle, 1u);
  EXPECT_EQ(h.daemon->client_count(), 1u);
  // The idle client got a Goodbye explaining the drop.
  (void)idle.pump_once();
  EXPECT_NE(idle.goodbye_reason().find("idle"), std::string::npos)
      << idle.goodbye_reason();
  // Subscribed clients are exempt however quiet their request side is.
  EXPECT_EQ(h.daemon->total_subscriber_count(), 1u);
}

TEST(ServiceRobustness, GracefulShutdownSaysGoodbyeAndLeaksNothing) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client a = h.connect("a");
  Client b = h.connect("b");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  ASSERT_TRUE(a.subscribe(spec).has_value());
  auto session = b.open_session(TargetKind::kThread, h.tids[1]);
  ASSERT_TRUE(session.has_value());
  ASSERT_TRUE(b.add_events(*session, {"PAPI_BR_INS"}).has_value());
  ASSERT_TRUE(b.start(*session).is_ok());
  EXPECT_GT(h.backend->open_fd_count(), 0u);

  h.daemon->shutdown();

  (void)a.pump_once();
  (void)b.pump_once();
  EXPECT_EQ(a.goodbye_reason(), "daemon shutting down");
  EXPECT_EQ(b.goodbye_reason(), "daemon shutting down");
  EXPECT_EQ(h.daemon->client_count(), 0u);
  EXPECT_EQ(h.backend->open_fd_count(), 0u);  // the leak oracle
  // Idempotent.
  h.daemon->shutdown();
}

TEST(ServiceRobustness, ChunkedTransportDeliveryStillWorks) {
  // Force 3-byte delivery chunks: every frame crosses receive() calls,
  // exercising reassembly on both sides of the wire.
  Harness h;
  LoopbackTransport::Config tconfig;
  tconfig.max_chunk_bytes = 3;
  ASSERT_TRUE(h.init({}, tconfig).is_ok());
  Client client = h.connect("chunked");
  auto session = client.open_session(TargetKind::kThread, h.tid);
  ASSERT_TRUE(session.has_value());
  ASSERT_TRUE(client.add_events(*session, {"PAPI_TOT_INS"}).has_value());
  ASSERT_TRUE(client.start(*session).is_ok());
  h.kernel->run_for(std::chrono::milliseconds(20));
  auto reading = client.read(*session);
  ASSERT_TRUE(reading.has_value());
  EXPECT_GT(reading->values[0], 0);
  EXPECT_TRUE(client.close().is_ok());
}

// --- session edges (PR 9: self-healing fabric) ------------------------------

TEST(ServiceRobustness, GoodbyeArrivingMidRpcFailsTheRpcCleanly) {
  Harness h;
  ASSERT_TRUE(h.init().is_ok());
  Client client = h.connect("midrpc");
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(client.subscribe(spec).has_value());

  // Arm the pump: the next time the client touches the transport, the
  // daemon shuts down instead of serving — the RPC's reply slot is
  // filled by a Goodbye.
  bool armed = true;
  h.transport->set_pump([&] {
    if (armed) {
      armed = false;
      h.daemon->shutdown();
      return;
    }
    h.daemon->poll();
  });
  auto st = client.stats();
  ASSERT_FALSE(st.has_value());
  EXPECT_EQ(st.status().code(), StatusCode::kNotRunning);
  EXPECT_NE(st.status().message().find("goodbye"), std::string::npos)
      << st.status().message();
  EXPECT_EQ(client.goodbye_reason(), "daemon shutting down");
  EXPECT_EQ(h.backend->open_fd_count(), 0u);
}

TEST(ServiceRobustness, SlowClientDropReleasesItsAggregateRider) {
  Harness h;
  DaemonConfig config;
  config.max_client_queue_frames = 4;
  ASSERT_TRUE(h.init(config).is_ok());
  Client keeper = h.connect("keeper");  // connection index 0
  Client doomed = h.connect("doomed");  // connection index 1

  AggSubscribe agg;
  agg.target_kind = TargetKind::kThread;
  agg.target = h.tid;
  agg.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  auto keeper_agg = keeper.subscribe_aggregate(agg);
  ASSERT_TRUE(keeper_agg.has_value()) << keeper_agg.status().message();
  auto doomed_agg = doomed.subscribe_aggregate(agg);
  ASSERT_TRUE(doomed_agg.has_value());
  EXPECT_EQ(doomed_agg->shared_key_id, keeper_agg->shared_key_id);
  Subscribe direct;
  direct.target_kind = TargetKind::kThread;
  direct.target = h.tids[1];
  direct.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(doomed.subscribe(direct).has_value());
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 2u);

  h.transport->set_client_paused(1, true);
  for (int t = 0; t < 8; ++t) {
    h.advance_and_tick();
    (void)keeper.pump_once();
  }
  EXPECT_EQ(h.daemon->stats().clients_dropped_slow, 1u);
  EXPECT_EQ(h.daemon->client_count(), 1u);
  // Everything the dropped client held is released: its direct
  // subscription's EventSet torn down, its aggregate ride detached —
  // only the keeper's rider remains on the coalesced aggregate.
  EXPECT_EQ(h.daemon->distinct_subscription_count(), 1u);
  EXPECT_EQ(h.daemon->total_subscriber_count(), 1u);

  // The surviving rider keeps streaming.
  (void)keeper.take_agg_samples();
  h.advance_and_tick();
  (void)keeper.pump_once();
  EXPECT_FALSE(keeper.take_agg_samples().empty());
  EXPECT_TRUE(keeper.goodbye_reason().empty());
}

TEST(ServiceRobustness, LivenessPingsDropAHalfOpenClientButSpareTheResponsive) {
  Harness h;
  DaemonConfig config;
  config.ping_interval_ticks = 2;
  config.ping_max_missed = 2;
  ASSERT_TRUE(h.init(config).is_ok());
  Client responsive = h.connect("responsive");
  Client silent = h.connect("silent");

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(responsive.subscribe(spec).has_value());
  // The half-open peer holds a subscription — liveness must drop it
  // anyway, or a dead connection pins an EventSet forever.
  ASSERT_TRUE(silent.subscribe(spec).has_value());

  for (int t = 0; t < 14; ++t) {
    h.advance_and_tick();
    // Explicit poll: the daemon must drain the Pong answers (the pump
    // hook only fires when the client's pipe is empty, and the sample
    // stream keeps it full).
    h.daemon->poll();
    // The responsive client pumps every tick, which also answers Pings.
    (void)responsive.pump_once();
  }
  EXPECT_EQ(h.daemon->stats().clients_dropped_liveness, 1u);
  EXPECT_GE(h.daemon->stats().pings_missed, 2u);
  EXPECT_EQ(h.daemon->client_count(), 1u);

  // The buffered Goodbye names the cause.
  while (silent.pump_once()) {
  }
  EXPECT_NE(silent.goodbye_reason().find("liveness"), std::string::npos)
      << silent.goodbye_reason();

  // The responsive client never got dropped and still streams.
  EXPECT_TRUE(responsive.goodbye_reason().empty());
  (void)responsive.take_samples();
  h.advance_and_tick();
  h.daemon->poll();
  (void)responsive.pump_once();
  EXPECT_FALSE(responsive.take_samples().empty());
}

TEST(ServiceRobustness, AdmissionRefusesClientsBeyondMaxClients) {
  Harness h;
  DaemonConfig config;
  config.max_clients = 1;
  ASSERT_TRUE(h.init(config).is_ok());
  Client first = h.connect("first");

  Client second(h.transport->connect());
  Status st = second.hello("second");
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_EQ(h.daemon->stats().overload_rejections, 1u);
  EXPECT_EQ(h.daemon->client_count(), 1u);
  while (second.pump_once()) {
  }
  EXPECT_NE(second.goodbye_reason().find("overloaded"), std::string::npos)
      << second.goodbye_reason();

  // The admitted client is unaffected, and its departure frees the slot.
  ASSERT_TRUE(first.stats().has_value());
  EXPECT_TRUE(first.close().is_ok());
  h.daemon->poll();
  Client third = h.connect("third");
  EXPECT_TRUE(third.stats().has_value());
}

TEST(ServiceRobustness, AdmissionRefusesSubscriptionsBeyondMaxSubscriptions) {
  Harness h;
  DaemonConfig config;
  config.max_subscriptions = 1;
  ASSERT_TRUE(h.init(config).is_ok());
  Client client = h.connect("capped");

  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  auto first = client.subscribe(spec);
  ASSERT_TRUE(first.has_value()) << first.status().message();

  Subscribe over = spec;
  over.target = h.tids[1];
  auto refused = client.subscribe(over);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(h.daemon->stats().overload_rejections, 1u);

  // Unsubscribing frees capacity.
  ASSERT_TRUE(client.unsubscribe(first->subscription_id).is_ok());
  EXPECT_TRUE(client.subscribe(over).has_value());
}

TEST(ServiceRobustness, ShutdownFlushIsBoundedForAWedgedClient) {
  Harness h;
  DaemonConfig config;
  config.shutdown_max_flush_ops = 2;
  ASSERT_TRUE(h.init(config).is_ok());
  Client fine = h.connect("fine");      // connection index 0
  Client wedged = h.connect("wedged");  // connection index 1
  Subscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = h.tid;
  spec.events = {"PAPI_TOT_INS"};
  ASSERT_TRUE(wedged.subscribe(spec).has_value());

  // Let frames pile up behind a peer that stops accepting bytes.
  h.transport->set_client_paused(1, true);
  for (int t = 0; t < 4; ++t) h.advance_and_tick();

  // Bounded: shutdown() must return even though the wedged pipe will
  // never drain, and must still leak nothing.
  h.daemon->shutdown();
  EXPECT_EQ(h.daemon->client_count(), 0u);
  EXPECT_EQ(h.backend->open_fd_count(), 0u);

  // The healthy client still got its farewell.
  while (fine.pump_once()) {
  }
  EXPECT_EQ(fine.goodbye_reason(), "daemon shutting down");
}

// --- determinism -----------------------------------------------------------

std::vector<std::vector<std::uint8_t>> run_stream_scenario(
    std::size_t encode_threads, std::size_t shards = 1) {
  Harness h;
  DaemonConfig config;
  config.encode_threads = encode_threads;
  config.shards = shards;
  EXPECT_TRUE(h.init(config).is_ok());

  std::vector<Client> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(h.connect("det" + std::to_string(i)));
    clients.back().set_capture_bytes(true);
  }
  Subscribe shared;
  shared.target_kind = TargetKind::kThread;
  shared.target = h.tid;
  shared.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  Subscribe qualified = shared;
  qualified.target = h.tids[1];
  qualified.qualified = 1;
  EXPECT_TRUE(clients[0].subscribe(shared).has_value());
  EXPECT_TRUE(clients[1].subscribe(shared).has_value());
  EXPECT_TRUE(clients[1].subscribe(qualified).has_value());
  EXPECT_TRUE(clients[2].subscribe(qualified).has_value());

  for (int t = 0; t < 5; ++t) {
    h.advance_and_tick();
    for (Client& c : clients) (void)c.pump_once();
  }
  std::vector<std::vector<std::uint8_t>> streams;
  for (Client& c : clients) streams.push_back(c.captured_bytes());
  return streams;
}

TEST(ServiceDeterminism, ByteIdenticalStreamsAcrossEncodeThreadCounts) {
  const auto serial = run_stream_scenario(1);
  const auto threaded = run_stream_scenario(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], threaded[i]) << "client " << i;
  }
}

TEST(ServiceDeterminism, ByteIdenticalStreamsAcrossShardCounts) {
  // The sharded fan-out is a parallelism knob, not a semantic one: the
  // byte stream every client sees is identical at 1, 4, and 16 shards
  // (and with the encode pool in play on top).
  const auto one = run_stream_scenario(1, 1);
  const auto four = run_stream_scenario(1, 4);
  const auto sixteen = run_stream_scenario(4, 16);
  ASSERT_EQ(one.size(), four.size());
  ASSERT_EQ(one.size(), sixteen.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_FALSE(one[i].empty());
    EXPECT_EQ(one[i], four[i]) << "client " << i;
    EXPECT_EQ(one[i], sixteen[i]) << "client " << i;
  }
}

// --- chaos -----------------------------------------------------------------

/// One seeded soak of the daemon behind the fault injector: randomized
/// client traffic under the "mixed" profile. Invariants: no crash, a
/// clean shutdown, zero leaked fds, and a bit-identical outcome trace
/// for identical seeds.
std::string run_chaos_soak(std::uint64_t seed) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend sim(&kernel);
  auto profile = FaultProfile::named("mixed");
  EXPECT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&sim, *profile, seed);
  PhaseSpec phase;
  std::vector<Tid> tids;
  for (int cpu = 0; cpu < 3; ++cpu) {
    tids.push_back(kernel.spawn(
        std::make_shared<FixedWorkProgram>(phase, 4'000'000'000ull),
        CpuSet::of({cpu})));
  }

  std::ostringstream trace;
  {
    LoopbackTransport transport;
    DaemonConfig config;
    config.max_client_queue_frames = 16;
    config.idle_timeout_ticks = 32;
    Daemon daemon(&kernel, &injector, config);
    const Status init = daemon.init();
    trace << "init=" << (init.is_ok() ? "ok" : to_string(init.code())) << ";";
    if (init.is_ok()) {
      daemon.add_listener(transport.listener());
      transport.set_pump([&daemon] { daemon.poll(); });

      std::mt19937_64 rng(seed * 77 + 1);
      std::vector<std::unique_ptr<Client>> clients;
      std::vector<std::vector<std::uint32_t>> subs;  // per client
      const char* events[] = {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_BR_INS"};
      const auto record = [&trace](std::string_view op, const Status& s) {
        trace << op << "=" << (s.is_ok() ? "ok" : to_string(s.code())) << ";";
      };
      for (int step = 0; step < 400; ++step) {
        const std::uint64_t dice = rng() % 100;
        if (clients.empty() || (dice < 10 && clients.size() < 12)) {
          auto c = std::make_unique<Client>(transport.connect());
          record("hello", c->hello("chaos" + std::to_string(step)));
          clients.push_back(std::move(c));
          subs.emplace_back();
        } else if (dice < 35) {
          const std::size_t i = rng() % clients.size();
          Subscribe spec;
          spec.target_kind = TargetKind::kThread;
          spec.target = tids[rng() % tids.size()];
          spec.events = {events[rng() % 3]};
          spec.period_ticks = 1 + static_cast<std::uint32_t>(rng() % 3);
          spec.qualified = rng() % 2 ? 1 : 0;
          if (auto sub = clients[i]->subscribe(spec)) {
            subs[i].push_back(sub->subscription_id);
            trace << "sub=ok/" << sub->shared_key_id << ";";
          } else {
            record("sub", sub.status());
          }
        } else if (dice < 45) {
          const std::size_t i = rng() % clients.size();
          if (!subs[i].empty()) {
            const std::size_t j = rng() % subs[i].size();
            record("unsub", clients[i]->unsubscribe(subs[i][j]));
            subs[i].erase(subs[i].begin() + static_cast<std::ptrdiff_t>(j));
          }
        } else if (dice < 60) {
          const std::size_t i = rng() % clients.size();
          auto session = clients[i]->open_session(
              TargetKind::kThread, tids[rng() % tids.size()]);
          if (session.has_value()) {
            auto added = clients[i]->add_events(*session, {events[rng() % 3]});
            record("add", added.status());
            if (added.has_value()) {
              record("start", clients[i]->start(*session));
              auto reading = clients[i]->read(*session);
              record("read", reading.status());
            }
          } else {
            record("open", session.status());
          }
        } else if (dice < 70) {
          const std::size_t i = rng() % clients.size();
          record("close", clients[i]->close());
          clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(i));
          subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          kernel.run_for(std::chrono::milliseconds(1 + rng() % 5));
          daemon.tick();
        }
        // Clients the daemon dropped (goodbye or error teardown) are
        // retired from the roster.
        for (std::size_t i = clients.size(); i-- > 0;) {
          if (!clients[i]->connected() ||
              !clients[i]->goodbye_reason().empty()) {
            trace << "retire;";
            clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(i));
            subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(i));
          }
        }
      }
      trace << "ticks=" << daemon.stats().ticks
            << ";dropped=" << daemon.stats().clients_dropped_slow
            << ";idle=" << daemon.stats().clients_closed_idle
            << ";reads=" << daemon.stats().backend_reads << ";";
      daemon.shutdown();
    }
  }
  EXPECT_EQ(injector.open_fd_count(), 0u)
      << "seed " << seed
      << " leaked: " << testing::PrintToString(injector.leaked_fds());
  EXPECT_EQ(sim.open_fd_count(), 0u);
  trace << "faults=" << injector.stats().total_injected() << ";";
  return trace.str();
}

TEST(ServiceChaos, MixedFaultSoakLeaksNothingOnAnySeed) {
  for (const std::uint64_t seed : {1ull, 42ull, 1234ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string trace = run_chaos_soak(seed);
    EXPECT_FALSE(trace.empty());
  }
}

TEST(ServiceChaos, SameSeedSameSoakTrace) {
  EXPECT_EQ(run_chaos_soak(7), run_chaos_soak(7));
  EXPECT_EQ(run_chaos_soak(99), run_chaos_soak(99));
}

// --- the load table: coalescing at scale ------------------------------------

// Every cell of the load table at one (encode threads, shards) setting:
// backend reads are exactly one per distinct spec per tick, deliveries
// exactly one per rider per tick, whatever the client count, shard
// count, encode parallelism or session churn; and teardown leaves no
// fd open. The counts are closed-form, so every setting must produce
// the same table.
void expect_exact_load_table(std::size_t encode_threads,
                             std::size_t shards) {
  const auto ticks = static_cast<std::uint64_t>(ServiceLoadCell::kTicks);
  for (const LoadCellSpec& spec : load_table(shards)) {
    SCOPED_TRACE(spec.label);
    ServiceLoadCell cell(spec, encode_threads);
    cell.run(ServiceLoadCell::kTicks);
    const auto specs = static_cast<std::uint64_t>(spec.specs);
    const auto clients = static_cast<std::uint64_t>(spec.clients);
    EXPECT_EQ(cell.distinct_specs(), specs);
    EXPECT_EQ(cell.backend_reads(), ticks * specs);
    EXPECT_EQ(cell.client_reads(), ticks * clients);
    EXPECT_EQ(cell.samples_taken(), ticks * clients);
    EXPECT_EQ(cell.shutdown(), 0u) << "fd ledger at teardown";
  }
}

TEST(ServiceLoad, ExactCountsAtOneEncodeThread) {
  expect_exact_load_table(1, 1);
}

TEST(ServiceLoad, ExactCountsAtFourEncodeThreads) {
  expect_exact_load_table(4, 1);
}

TEST(ServiceLoad, ExactCountsAtFourEncodeThreadsTwoShards) {
  expect_exact_load_table(4, 2);
}

// --- unix-domain sockets (linux-host shard) --------------------------------

TEST(ServiceLinuxHost, UnixSocketSmoke) {
  const std::string path =
      "/tmp/hetpapid_test_" + std::to_string(::getpid()) + ".sock";
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  Daemon daemon(&kernel, &backend, DaemonConfig{});
  ASSERT_TRUE(daemon.init().is_ok());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 4'000'000'000ull),
      CpuSet::of({0}));
  auto listener = unix_listen(path);
  ASSERT_TRUE(listener.has_value()) << listener.status().message();
  daemon.add_listener(listener->get());

  // The daemon, the kernel and the workload all live on this service
  // thread; the test thread is a real external client on the socket.
  std::atomic<bool> stop{false};
  std::thread service([&] {
    while (!stop.load()) {
      daemon.poll();
      kernel.run_for(std::chrono::milliseconds(1));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    daemon.shutdown();
  });

  {
    auto conn = unix_connect(path);
    ASSERT_TRUE(conn.has_value()) << conn.status().message();
    Client client(std::move(*conn));
    ASSERT_TRUE(client.hello("socket-smoke").is_ok());
    auto session = client.open_session(TargetKind::kThread, tid);
    ASSERT_TRUE(session.has_value()) << session.status().message();
    auto ack = client.add_events(*session, {"papi_tot_ins"});
    ASSERT_TRUE(ack.has_value()) << ack.status().message();
    EXPECT_EQ(ack->canonical_names,
              std::vector<std::string>{"PAPI_TOT_INS"});
    ASSERT_TRUE(client.start(*session).is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto first = client.read(*session);
    ASSERT_TRUE(first.has_value()) << first.status().message();
    ASSERT_EQ(first->values.size(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto second = client.read(*session);
    ASSERT_TRUE(second.has_value());
    EXPECT_GT(second->values[0], first->values[0]);
    EXPECT_TRUE(client.close().is_ok());
  }

  stop.store(true);
  service.join();
  EXPECT_EQ(backend.open_fd_count(), 0u);
}

}  // namespace
}  // namespace hetpapi
