// Activity-driven Daemon::poll: a poll visits only the connections that
// signalled readable since their last drain, the ones that cannot
// signal (polled every time), new ones, and ones with queued output.
// Every check is an exact count, never a time: receive() calls per
// poll do not depend on how many idle clients are connected; fault
// decorators that may report "nothing pending" over pending bytes are
// still polled every time, so every request is answered; closed and
// vanished clients are reaped by the next poll with no ledger left
// over; and a hook that fires while a poll is running is served by the
// next one.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/faulty_transport.hpp"
#include "service/proto.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using workload::FixedWorkProgram;
using workload::PhaseSpec;
using namespace hetpapi::service;

/// A daemon-side connection the test plays the peer of: deliver()
/// queues bytes as if the peer sent them, and receive() calls are
/// counted. With `signals` it implements notify_readable() the way the
/// loopback endpoint does (the hook fires on every delivery).
class CountingConnection final : public Connection {
 public:
  explicit CountingConnection(bool signals) : signals_(signals) {}

  Expected<std::size_t> send(const std::uint8_t* data,
                             std::size_t size) override {
    if (!open_) return make_error(StatusCode::kNotRunning, "closed");
    sent.insert(sent.end(), data, data + size);
    return size;
  }

  Expected<std::size_t> receive(std::vector<std::uint8_t>& out) override {
    ++receives;
    if (on_receive) std::exchange(on_receive, nullptr)();
    if (!open_) return make_error(StatusCode::kNotRunning, "closed");
    const std::size_t n = pending_.size();
    out.insert(out.end(), pending_.begin(), pending_.end());
    pending_.clear();
    return n;
  }

  void close() override {
    open_ = false;
    hook_ = nullptr;
  }
  bool is_open() const override { return open_; }

  bool notify_readable(std::function<void()> hook) override {
    if (!signals_) return false;
    hook_ = std::move(hook);
    return true;
  }

  /// The peer sends one frame.
  void deliver(MsgType type, const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> frame = encode_frame(type, payload);
    pending_.insert(pending_.end(), frame.begin(), frame.end());
    if (hook_) hook_();
  }

  /// The types of the frames the daemon sent so far.
  std::vector<MsgType> sent_types() const {
    FrameReader reader;
    reader.feed(sent);
    std::vector<MsgType> types;
    while (auto frame = reader.next()) types.push_back(frame->type);
    return types;
  }

  std::uint64_t receives = 0;
  std::vector<std::uint8_t> sent;
  /// Runs once, inside the next receive(): the shape of a nested pump.
  std::function<void()> on_receive;

 private:
  bool signals_;
  bool open_ = true;
  std::function<void()> hook_;
  std::vector<std::uint8_t> pending_;
};

/// Hands the daemon whatever connections the test queued.
class QueueListener final : public Listener {
 public:
  Expected<std::unique_ptr<Connection>> accept() override {
    if (pending.empty()) return make_error(StatusCode::kNotFound);
    std::unique_ptr<Connection> conn = std::move(pending.front());
    pending.pop_front();
    return conn;
  }

  /// Queue a connection whose peer has already sent its Hello; the
  /// daemon owns it once accepted, the test keeps the raw pointer.
  CountingConnection* dial(bool signals) {
    auto conn = std::make_unique<CountingConnection>(signals);
    CountingConnection* raw = conn.get();
    raw->deliver(MsgType::kHello, Hello{}.encode());
    pending.push_back(std::move(conn));
    return raw;
  }

  std::deque<std::unique_ptr<Connection>> pending;
};

struct Cell {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<SimBackend> backend;
  std::unique_ptr<Daemon> daemon;
  QueueListener listener;
  simkernel::Tid tid{};

  void init() {
    kernel = std::make_unique<SimKernel>(cpumodel::raptor_lake_i7_13700());
    backend = std::make_unique<SimBackend>(kernel.get());
    tid = kernel->spawn(
        std::make_shared<FixedWorkProgram>(PhaseSpec{}, 4'000'000'000ull),
        CpuSet::of({0}));
    daemon = std::make_unique<Daemon>(kernel.get(), backend.get(),
                                      DaemonConfig{});
    ASSERT_TRUE(daemon->init().is_ok());
    daemon->add_listener(&listener);
  }

  Subscribe spec() const {
    Subscribe s;
    s.target_kind = TargetKind::kThread;
    s.target = tid;
    s.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
    return s;
  }
};

/// `idle` handshaken clients sit still while one more client sends a
/// request: returns the receive() calls of the poll that serves it,
/// after checking that none of them touched an idle connection.
std::uint64_t receives_serving_one_request(int idle) {
  Cell cell;
  cell.init();
  std::vector<CountingConnection*> idlers;
  for (int i = 0; i < idle; ++i) idlers.push_back(cell.listener.dial(true));
  CountingConnection* active = cell.listener.dial(true);
  cell.daemon->poll();  // accept and answer every hello
  EXPECT_EQ(cell.daemon->client_count(), static_cast<std::size_t>(idle + 1));
  for (CountingConnection* conn : idlers) {
    EXPECT_EQ(conn->sent_types(), std::vector<MsgType>{MsgType::kHelloAck});
    conn->receives = 0;
  }
  active->receives = 0;

  active->deliver(MsgType::kGetStats, GetStats{}.encode());
  cell.daemon->poll();
  EXPECT_EQ(active->sent_types(),
            (std::vector<MsgType>{MsgType::kHelloAck, MsgType::kStatsReply}));
  std::uint64_t idle_receives = 0;
  for (const CountingConnection* conn : idlers) idle_receives += conn->receives;
  EXPECT_EQ(idle_receives, 0u) << idle << " idle clients";

  // A poll with nothing to do touches no connection at all.
  const std::uint64_t served = active->receives;
  cell.daemon->poll();
  EXPECT_EQ(active->receives, served);
  return served;
}

// (a) Poll cost follows activity: the same receive() count with 64 and
// with 1024 idle clients, every call on the one connection that spoke.
TEST(ServiceReadiness, ReceiveCallsPerPollDoNotDependOnIdleClients) {
  const std::uint64_t with_64 = receives_serving_one_request(64);
  const std::uint64_t with_1024 = receives_serving_one_request(1024);
  // One receive() returns the request, the next reports nothing left.
  EXPECT_EQ(with_64, 2u);
  EXPECT_EQ(with_1024, with_64);
}

// A connection that cannot signal keeps the old contract: one drain
// per poll, whether or not its peer said anything.
TEST(ServiceReadiness, ConnectionsThatCannotSignalArePolledEveryTime) {
  Cell cell;
  cell.init();
  CountingConnection* quiet = cell.listener.dial(false);
  CountingConnection* signalling = cell.listener.dial(true);
  cell.daemon->poll();
  for (int i = 0; i < 3; ++i) cell.daemon->poll();
  // Accepting poll: drain until empty (2); then one empty drain per poll.
  EXPECT_EQ(quiet->receives, 2u + 3u);
  EXPECT_EQ(signalling->receives, 2u);
}

// (b) The fault decorator may report 0 over pending bytes (an EAGAIN
// burst, a receive stall), so it never forwards the readiness hook and
// is polled every time: every request is answered within a bounded
// number of polls.
TEST(ServiceReadiness, FaultyConnectionsArePolledEveryTimeAndAnswerEveryRequest) {
  for (const std::string profile_name : {"eagain-burst", "stall"}) {
    SCOPED_TRACE(profile_name);
    Cell cell;
    cell.init();
    LoopbackTransport transport;
    auto profile = TransportFaultProfile::named(profile_name);
    ASSERT_TRUE(profile.has_value());
    FaultyTransport faulty(*profile, /*seed=*/7);
    cell.daemon->add_listener(faulty.wrap_listener(transport.listener()));

    constexpr int kClients = 16;
    constexpr int kRequests = 4;
    std::vector<std::unique_ptr<Connection>> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(transport.connect());
      std::vector<std::uint8_t> bytes =
          encode_frame(MsgType::kHello, Hello{}.encode());
      for (int r = 0; r < kRequests; ++r) {
        const auto stats = encode_frame(MsgType::kGetStats, GetStats{}.encode());
        bytes.insert(bytes.end(), stats.begin(), stats.end());
      }
      ASSERT_EQ(*clients.back()->send(bytes.data(), bytes.size()),
                bytes.size());
    }
    for (int i = 0; i < 64; ++i) cell.daemon->poll();

    for (int i = 0; i < kClients; ++i) {
      std::vector<std::uint8_t> got;
      ASSERT_TRUE(clients[static_cast<std::size_t>(i)]->receive(got).has_value());
      FrameReader reader;
      reader.feed(got);
      int acks = 0;
      int replies = 0;
      while (auto frame = reader.next()) {
        acks += frame->type == MsgType::kHelloAck;
        replies += frame->type == MsgType::kStatsReply;
      }
      EXPECT_EQ(acks, 1) << "client " << i;
      EXPECT_EQ(replies, kRequests) << "client " << i;
    }
    EXPECT_GT(faulty.total_injected(), 0u) << "the profile actually fired";
    cell.daemon->shutdown();
    EXPECT_EQ(faulty.open_connection_count(), 0u);
  }
}

// Output a flush could not finish keeps its client on the list: once
// the peer drains again, the next poll sends it, with no new bytes
// from the peer and no tick in between.
TEST(ServiceReadiness, OutputLeftByABlockedFlushGoesOutOnTheNextPoll) {
  Cell cell;
  cell.init();
  LoopbackTransport transport;
  cell.daemon->add_listener(transport.listener());
  auto conn = transport.connect();
  const auto hello = encode_frame(MsgType::kHello, Hello{}.encode());
  ASSERT_EQ(*conn->send(hello.data(), hello.size()), hello.size());
  transport.set_client_paused(0, true);
  cell.daemon->poll();
  std::vector<std::uint8_t> got;
  ASSERT_EQ(*conn->receive(got), 0u) << "the HelloAck would block";

  transport.set_client_paused(0, false);
  cell.daemon->poll();
  ASSERT_GT(*conn->receive(got), 0u);
  FrameReader reader;
  reader.feed(got);
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kHelloAck);
}

// (c) A close fires the hook too: a client that closes politely and
// one that vanishes mid-session are both reaped by the next poll — no
// tick needed — and every ledger ends empty.
TEST(ServiceReadiness, ClosedAndVanishedClientsAreReapedByTheNextPoll) {
  Cell cell;
  cell.init();
  LoopbackTransport transport;
  cell.daemon->add_listener(transport.listener());
  transport.set_pump([&] { cell.daemon->poll(); });
  // The client ends are wrapped (with no faults) for the endpoint
  // ledger; the daemon ends stay bare loopback, so they signal.
  auto profile = TransportFaultProfile::named("none");
  ASSERT_TRUE(profile.has_value());
  FaultyTransport ledger(*profile, /*seed=*/1);
  auto dial = [&](const std::string& name) {
    auto client = std::make_unique<Client>(ledger.wrap(transport.connect()));
    EXPECT_TRUE(client->hello(name).is_ok());
    EXPECT_TRUE(client->subscribe(cell.spec()).has_value());
    return client;
  };
  auto polite = dial("polite");
  auto vanishing = dial("vanishing");
  auto last = dial("last");
  cell.kernel->run_for(std::chrono::milliseconds(10));
  cell.daemon->tick();
  ASSERT_EQ(cell.daemon->client_count(), 3u);

  EXPECT_TRUE(polite->close().is_ok());
  vanishing.reset();
  cell.daemon->poll();
  EXPECT_EQ(cell.daemon->client_count(), 1u);
  EXPECT_EQ(cell.daemon->total_subscriber_count(), 1u);
  EXPECT_GT(cell.backend->open_fd_count(), 0u) << "the last rider still reads";

  // A client that vanishes with a request still unread is reaped by
  // the same poll that drains it.
  const auto stats = encode_frame(MsgType::kGetStats, GetStats{}.encode());
  auto raw = ledger.wrap(transport.connect());
  ASSERT_EQ(*raw->send(stats.data(), stats.size()), stats.size());
  raw.reset();
  last.reset();
  cell.daemon->poll();
  EXPECT_EQ(cell.daemon->client_count(), 0u);
  EXPECT_EQ(cell.daemon->distinct_subscription_count(), 0u);
  EXPECT_EQ(cell.backend->open_fd_count(), 0u);
  polite.reset();
  EXPECT_EQ(ledger.open_connection_count(), 0u);
}

// The daemon closes its end (a request before the handshake) and reaps
// the state its hook pointed at, yet the client end lives on and keeps
// sending; another client end outlives the whole daemon. Closing an
// endpoint drops its hook, so neither send calls into freed state —
// the ASan shard runs this.
TEST(ServiceReadiness, ClientEndsOutlivingTheDaemonSideNeverFireAStaleHook) {
  Cell cell;
  cell.init();
  LoopbackTransport transport;
  cell.daemon->add_listener(transport.listener());
  const auto hello = encode_frame(MsgType::kHello, Hello{}.encode());
  const auto stats = encode_frame(MsgType::kGetStats, GetStats{}.encode());
  auto dropped = transport.connect();
  auto survivor = transport.connect();
  ASSERT_EQ(*dropped->send(stats.data(), stats.size()), stats.size());
  ASSERT_EQ(*survivor->send(hello.data(), hello.size()), hello.size());
  cell.daemon->poll();
  ASSERT_EQ(cell.daemon->client_count(), 1u) << "the unhandshaken one is gone";

  EXPECT_EQ(*dropped->send(stats.data(), stats.size()), stats.size());
  dropped->close();
  cell.daemon->poll();
  EXPECT_EQ(cell.daemon->client_count(), 1u);

  cell.daemon.reset();
  EXPECT_EQ(*survivor->send(stats.data(), stats.size()), stats.size());
  survivor->close();
}

// (d) A hook that fires while poll() walks its list (here: inside
// another client's receive, the shape of an aggregator's nested pump)
// lands in the next pass — served by the next poll, never lost.
TEST(ServiceReadiness, HookFiredDuringAPollIsServedByTheNextPoll) {
  for (const bool later_id : {false, true}) {
    SCOPED_TRACE(later_id ? "signals a later client" : "signals an earlier client");
    Cell cell;
    cell.init();
    CountingConnection* first = cell.listener.dial(true);
    CountingConnection* second = cell.listener.dial(true);
    cell.daemon->poll();
    CountingConnection* talker = later_id ? first : second;
    CountingConnection* woken = later_id ? second : first;
    woken->receives = 0;

    talker->deliver(MsgType::kGetStats, GetStats{}.encode());
    talker->on_receive = [woken] {
      woken->deliver(MsgType::kGetStats, GetStats{}.encode());
    };
    cell.daemon->poll();
    EXPECT_EQ(woken->receives, 0u) << "not part of the running pass";
    EXPECT_EQ(woken->sent_types(), std::vector<MsgType>{MsgType::kHelloAck});

    cell.daemon->poll();
    EXPECT_EQ(woken->receives, 2u);
    EXPECT_EQ(woken->sent_types(),
              (std::vector<MsgType>{MsgType::kHelloAck, MsgType::kStatsReply}));
  }
}

}  // namespace
}  // namespace hetpapi
