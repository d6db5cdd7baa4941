// service_fanout: one Daemon serving 256 steady clients that hold 16
// subscription specs with a seeded skew (a few popular specs, a long
// tail of specs with one or two riders), targeting threads on both core
// types. Every tick a few churn clients also connect, subscribe and
// leave, half politely and half by abandoning the connection.
//
// 256 rather than 1024 clients: at 1024 the daemon's per-client state
// outgrows the core's private caches and the tick time follows the
// shared cache's load from other tenants of the host. Over ten seeds on
// a shared 4-vCPU host the p99 and the throughput spread by 24-25%
// (quartile distance over median) at 1024 clients, and by 10-15% at
// 256.
//
// Fan-out, frame encoding, transport and client decoding dominate while
// the backend does only 16 reads per tick; the churn adds writes beside
// the reads, so a change that makes accept or subscribe dearer shows.
// Clients are in-memory loopback endpoints driven one after another by
// the benchmark's thread.
#include <algorithm>
#include <array>
#include <chrono>

#include "base/rng.hpp"
#include "papi/sim_backend.hpp"
#include "workload/programs.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

constexpr int kSteadyClients = 256;
/// One application thread per spec (PAPI runs one EventSet per thread
/// at a time), half of them on each core type.
constexpr int kSpecs = 16;
constexpr int kPopularSpecs = 6;
constexpr int kTicks = 100;
constexpr auto kTickSim = std::chrono::milliseconds(1);

/// Spec k: thread k on core type k % 2, plain totals (k / 2 even) or the
/// per-core-type breakdown (k / 2 odd).
service::Subscribe make_spec(int k, const std::vector<simkernel::Tid>& tids) {
  service::Subscribe spec;
  spec.target_kind = service::TargetKind::kThread;
  spec.target = tids[static_cast<std::size_t>(k)];
  spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  spec.qualified = static_cast<std::uint8_t>(k / 2 % 2);
  return spec;
}

/// The round's inputs, generated from the seed.
struct Schedule {
  /// Spec of each steady client, in subscribe order.
  std::vector<int> rider_spec;
  /// Per tick: the churn clients' specs.
  std::vector<std::vector<int>> churn;
};

/// The skew: popular rank r takes the Zipf share 1/(r+1) of the riders
/// and a spec of the fixed kind kPopularKinds[r] (core type + 2 x
/// qualified), so every seed serves the same mix of frame shapes on the
/// same core types. The seed picks which spec of each kind is popular,
/// the tail's one or two riders per spec, the subscribe order and the
/// churn.
constexpr std::array<int, kPopularSpecs> kPopularKinds = {0, 3, 1, 2, 0, 3};

Schedule make_schedule(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  std::array<std::vector<int>, 4> by_kind;
  for (int k = 0; k < kSpecs; ++k) by_kind[k % 2 + 2 * (k / 2 % 2)].push_back(k);
  for (std::vector<int>& specs : by_kind) {
    for (std::size_t i = specs.size() - 1; i > 0; --i) {
      std::swap(specs[i], specs[rng.below(i + 1)]);
    }
  }
  std::array<int, kPopularSpecs> popular{};
  for (int r = 0; r < kPopularSpecs; ++r) {
    std::vector<int>& specs = by_kind[kPopularKinds[r]];
    popular[r] = specs.back();
    specs.pop_back();
  }
  Schedule sched;
  // Long tail: one or two riders each.
  for (const std::vector<int>& specs : by_kind) {
    for (const int spec : specs) {
      const int riders = 1 + static_cast<int>(rng.below(2));
      for (int r = 0; r < riders; ++r) sched.rider_spec.push_back(spec);
    }
  }
  const int rest = kSteadyClients - static_cast<int>(sched.rider_spec.size());
  double weight_sum = 0.0;
  for (int r = 0; r < kPopularSpecs; ++r) weight_sum += 1.0 / (r + 1);
  int assigned = 0;
  for (int r = kPopularSpecs - 1; r >= 0; --r) {
    const int riders =
        r == 0 ? rest - assigned
               : static_cast<int>(rest * (1.0 / (r + 1)) / weight_sum);
    assigned += riders;
    for (int i = 0; i < riders; ++i) sched.rider_spec.push_back(popular[r]);
  }
  for (std::size_t i = sched.rider_spec.size() - 1; i > 0; --i) {
    std::swap(sched.rider_spec[i], sched.rider_spec[rng.below(i + 1)]);
  }
  sched.churn.resize(kTicks);
  for (std::vector<int>& churn : sched.churn) {
    churn.resize(2 + rng.below(3));
    for (int& spec : churn) spec = popular[rng.below(kPopularSpecs)];
  }
  return sched;
}

class ServiceFanout final : public Workload {
 public:
  explicit ServiceFanout(bool traced)
      : tick_traced_(traced ? kTickCapacity : 0) {}
  void round(RoundEnv& env) override;
  void end_to_end(Headline& h, std::vector<Metric>& detail) override;
  void per_layer(const Tracer& tracer, Headline& h,
                 std::vector<Metric>& detail) override;
  double trace_overhead_ratio() override {
    return per(tick_traced_.summary().p50, tick_untraced_.summary().p50);
  }

 private:
  Series tick_to_sample_;
  static constexpr std::size_t kTickCapacity = 1 << 16;
  Series tick_untraced_{kTickCapacity};
  Series tick_traced_;
  double busy_ns_ = 0.0;
  std::uint64_t samples_ = 0;
  std::uint64_t traced_ticks_ = 0;
  std::uint64_t traced_samples_ = 0;
  /// Daemon polls inside the traced tick loops: the ones churn RPCs
  /// pump and the explicit reaping polls, not the set-up RPCs' polls.
  double traced_poll_ns_ = 0.0;
};

void ServiceFanout::round(RoundEnv& env) {
  Api& api = env.api;
  const Schedule sched = make_schedule(env.seed);

  const std::int64_t setup_start = now_ns();
  simkernel::SimKernel kernel(paper_machine());
  papi::SimBackend sim(&kernel);
  const cpumodel::MachineSpec& machine = kernel.machine();
  std::vector<simkernel::Tid> tids;
  for (int t = 0; t < kSpecs; ++t) {
    tids.push_back(kernel.spawn(
        std::make_shared<workload::FixedWorkProgram>(workload::PhaseSpec{},
                                                     ~std::uint64_t{0} >> 8),
        simkernel::CpuSet::of(machine.cpus_of_type(t % 2))));
  }
  std::vector<service::Subscribe> specs;
  for (int k = 0; k < kSpecs; ++k) specs.push_back(make_spec(k, tids));

  service::LoopbackTransport transport;
  service::Daemon daemon(&kernel, &api.backend(sim), service::DaemonConfig{});
  if (!env.check(api.init(daemon), "Daemon::init")) return;
  api.listen(daemon, *transport.listener());
  double poll_ns = 0.0;
  transport.set_pump([&] {
    const std::int64_t t0 = now_ns();
    api.poll(daemon);
    poll_ns += static_cast<double>(now_ns() - t0);
  });

  struct Rider {
    std::unique_ptr<service::Client> client;
    int spec = 0;
    std::uint32_t sub_id = 0;
    std::uint64_t seq = 0;
  };
  std::vector<Rider> riders(kSteadyClients);
  std::array<int, kSpecs> first_rider;
  first_rider.fill(-1);
  for (int i = 0; i < kSteadyClients; ++i) {
    Rider& rider = riders[static_cast<std::size_t>(i)];
    rider.spec = sched.rider_spec[static_cast<std::size_t>(i)];
    // The first rider of each spec keeps the frame bytes it receives.
    const bool first = first_rider[rider.spec] < 0;
    if (first) first_rider[rider.spec] = i;
    rider.client = api.connect(transport, first);
    if (!env.check(api.hello(*rider.client, "steady-" + std::to_string(i)),
                   "hello")) {
      return;
    }
    auto ack = api.subscribe(*rider.client, specs[rider.spec]);
    if (!env.check(ack.status(), "subscribe")) return;
    rider.sub_id = ack->subscription_id;
  }
  env.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  poll_ns = 0.0;

  std::vector<double> take_ns(kSteadyClients);
  std::array<std::vector<long long>, kSpecs> ref_values;
  std::array<bool, kSpecs> have_ref{};
  double busy_ns = 0.0;
  for (int tick = 0; tick < kTicks; ++tick) {
    env.advance(kernel, kTickSim);
    const std::int64_t t0 = now_ns();
    api.tick(daemon);
    const auto tick_ns = static_cast<double>(now_ns() - t0);
    busy_ns += tick_ns;

    // Churn: join and leave before the next delivery tick, so churned
    // sessions never receive a sample.
    const std::vector<int>& churn = sched.churn[static_cast<std::size_t>(tick)];
    for (std::size_t c = 0; c < churn.size(); ++c) {
      std::unique_ptr<service::Client> eph = api.connect(transport);
      env.check(api.hello(*eph, "churn-" + std::to_string(tick) + "-" +
                                    std::to_string(c)),
                "churn hello");
      env.check(api.subscribe(*eph, specs[churn[c]]).status(),
                "churn subscribe");
      if (c % 2 == 0) env.check(api.close(*eph), "churn close");
      // Odd churn clients vanish mid-session: the endpoint closes as
      // the client is destroyed and the daemon reaps it.
    }
    {
      const std::int64_t p0 = now_ns();
      api.poll(daemon);
      poll_ns += static_cast<double>(now_ns() - p0);
    }

    for (int i = 0; i < kSteadyClients; ++i) {
      Rider& rider = riders[static_cast<std::size_t>(i)];
      const std::int64_t s0 = now_ns();
      std::vector<service::WireSample> got = api.take_samples(*rider.client);
      take_ns[static_cast<std::size_t>(i)] = static_cast<double>(now_ns() - s0);
      if (!env.check(got.size() == 1, "one sample per rider per tick")) continue;
      const service::WireSample& sample = got.front();
      env.check(sample.subscription_id == rider.sub_id &&
                    sample.seq == rider.seq + 1,
                "contiguous sequence numbers");
      rider.seq = sample.seq;
      if (first_rider[rider.spec] == i) {
        ref_values[rider.spec] = sample.values;
        have_ref[rider.spec] = true;
        env.digest.bytes(sample.values.data(),
                         sample.values.size() * sizeof(long long));
      } else {
        env.check(have_ref[rider.spec] &&
                      sample.values == ref_values[rider.spec],
                  "riders of one spec see identical values");
      }
    }
    have_ref.fill(false);
    for (const double ns : take_ns) busy_ns += ns;
    if (env.measured) {
      if (env.traced()) {
        tick_traced_.add(tick_ns);
      } else {
        tick_untraced_.add(tick_ns);
        for (const double ns : take_ns) tick_to_sample_.add(tick_ns + ns);
      }
    }
  }
  busy_ns += poll_ns;
  if (env.measured && !env.traced()) {
    busy_ns_ += busy_ns;
    samples_ += static_cast<std::uint64_t>(kSteadyClients) * kTicks;
  }
  if (env.measured && env.traced()) {
    traced_poll_ns_ += poll_ns;
    traced_ticks_ += kTicks;
    traced_samples_ += static_cast<std::uint64_t>(kSteadyClients) * kTicks;
  }

  for (const int i : first_rider) {
    if (i < 0) continue;
    const std::vector<std::uint8_t>& bytes =
        api.captured_bytes(*riders[static_cast<std::size_t>(i)].client);
    env.digest.bytes(bytes.data(), bytes.size());
  }
  for (Rider& rider : riders) env.check(api.close(*rider.client), "close");
  riders.clear();
  api.shutdown(daemon);
  env.check(sim.open_fd_count() == 0, "no perf fd left open");
}

void ServiceFanout::end_to_end(Headline& h, std::vector<Metric>& detail) {
  h.op_us = ns_to_us(tick_to_sample_.summary());
  h.throughput_per_s = per(static_cast<double>(samples_), busy_ns_ / 1e9);
  detail.push_back({"tick_to_sample_us_p50", h.op_us.p50, "us", h.op_us.n});
  detail.push_back({"tick_to_sample_us_p99", h.op_us.p99, "us", h.op_us.n});
  detail.push_back({"client_samples_per_s", h.throughput_per_s, "1/s", samples_});
}

void ServiceFanout::per_layer(const Tracer& tracer, Headline& h,
                              std::vector<Metric>& detail) {
  OpAggregate ticks = op_totals(tracer, {"service.daemon.tick"});
  const OpAggregate takes = op_totals(tracer, {"service.client.take_samples"});
  const auto n = static_cast<double>(ticks.ops);
  h.api_self_us_p50 = ticks.program_p50_ns() / 1e3;
  h.backend_us_per_op = per(ticks.layer("backend"), n) / 1e3;
  h.backend_calls_per_op = ticks.per_op(Count::kBackendCalls);
  h.heap_allocs_per_op = ticks.per_op(Count::kAllocs);

  const auto samples = static_cast<double>(traced_samples_);
  const Summary untraced_tick = tick_untraced_.summary();
  detail.push_back({"service.daemon.tick_self_us_p50", h.api_self_us_p50, "us", ticks.ops});
  detail.push_back({"service.daemon.ns_per_client_tick",
                    per(untraced_tick.p50, kSteadyClients), "ns", untraced_tick.n});
  detail.push_back({"service.daemon.poll_us_per_tick",
                    per(traced_poll_ns_, static_cast<double>(traced_ticks_)) / 1e3,
                    "us", traced_ticks_});
  detail.push_back({"service.daemon.allocs_per_tick", h.heap_allocs_per_op, "count", ticks.ops});
  detail.push_back({"backend.reads_per_tick", ticks.per_op(Count::kBackendReads),
                    "count", ticks.ops});
  detail.push_back({"backend.us_per_tick", h.backend_us_per_op, "us", ticks.ops});
  detail.push_back({"service.transport.sends_per_tick",
                    ticks.per_op(Count::kServerSends), "count", ticks.ops});
  detail.push_back({"service.transport.bytes_per_tick",
                    ticks.per_op(Count::kServerBytes), "count", ticks.ops});
  detail.push_back({"service.transport.send_us_per_tick",
                    per(ticks.layer("transport"), n) / 1e3, "us", ticks.ops});
  detail.push_back({"service.client.decode_ns_per_sample",
                    per(takes.program_total_ns, samples), "ns", takes.ops});
  detail.push_back({"service.client.allocs_per_sample",
                    per(static_cast<double>(takes.counts[Count::kAllocs]), samples),
                    "count", takes.ops});
}

}  // namespace

std::unique_ptr<Workload> make_service_fanout(bool traced) {
  return std::make_unique<ServiceFanout>(traced);
}

}  // namespace perfbench
