// sampling_drain: the hetpapi_profile default set-up driven through
// Library directly. SimpleMOC runs on 4 workers pinned round-robin
// across the core types, each sampled by PAPI_TOT_INS overflow at period
// 1,111,111 into a ring of the default capacity. The profiler drains
// every worker's ring at a seeded cadence with occasional long gaps,
// like a profiler thread that falls behind, and symbolises every sample
// into a per-core-type hot-spot table.
//
// The ring write, perf_ring_poll, record decoding and Sample
// construction dominate; the counting and service layers are idle. The
// long gaps overflow the rings, so the share of lost records is
// non-zero and fixed for a seed.
#include <array>
#include <chrono>

#include "base/rng.hpp"
#include "papi/sim_backend.hpp"
#include "workload/simplemoc.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

constexpr int kWorkers = 4;
constexpr std::uint64_t kPeriod = 1'111'111;
constexpr int kShortGaps = 32;
/// Enough segments that no worker finishes within a round.
constexpr std::uint64_t kSegments = 10'000'000;

/// The seeded drain cadence (simulated time between drain passes): 32
/// short gaps spread evenly over 0.2-1.5 s in a seeded order, and at a
/// seeded point one long gap of 45-50 s, longer than a ring of the
/// default capacity lasts on a P core, so records are lost.
std::vector<SimDuration> make_gaps(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  std::vector<SimDuration> gaps;
  for (int i = 0; i < kShortGaps; ++i) {
    gaps.push_back(std::chrono::milliseconds(200 + i * 1300 / (kShortGaps - 1)));
  }
  for (std::size_t i = gaps.size() - 1; i > 0; --i) {
    std::swap(gaps[i], gaps[rng.below(i + 1)]);
  }
  const auto at = static_cast<std::ptrdiff_t>(rng.below(kShortGaps + 1));
  gaps.insert(gaps.begin() + at,
              std::chrono::milliseconds(45'000 + rng.below(5'000)));
  return gaps;
}

class SamplingDrain final : public Workload {
 public:
  explicit SamplingDrain(bool traced)
      : drain_traced_(traced ? Series::kCapacity : 0) {}
  void round(RoundEnv& env) override;
  void end_to_end(Headline& h, std::vector<Metric>& detail) override;
  void per_layer(const Tracer& tracer, Headline& h,
                 std::vector<Metric>& detail) override;
  double trace_overhead_ratio() override {
    return per(drain_traced_.summary().p50, drain_untraced_.summary().p50);
  }

 private:
  Series drain_untraced_;
  Series drain_traced_;
  double busy_ns_ = 0.0;
  std::uint64_t samples_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t crossings_ = 0;
  std::uint64_t traced_samples_ = 0;
  std::uint64_t traced_lost_ = 0;
  int traced_rounds_ = 0;
};

void SamplingDrain::round(RoundEnv& env) {
  Api& api = env.api;
  const std::vector<SimDuration> gaps = make_gaps(env.seed);

  const std::int64_t setup_start = now_ns();
  simkernel::SimKernel kernel(paper_machine());
  papi::SimBackend sim(&kernel);
  const cpumodel::MachineSpec& machine = kernel.machine();
  std::array<simkernel::Tid, kWorkers> tids{};
  for (int w = 0; w < kWorkers; ++w) {
    tids[w] = kernel.spawn(
        std::make_shared<workload::SimpleMocProgram>(
            workload::SimpleMocConfig{kSegments}),
        simkernel::CpuSet::of(machine.cpus_of_type(w % 2)));
  }
  auto lib_or = api.init(api.backend(sim));
  if (!env.check(lib_or.status(), "Library::init")) return;
  papi::Library& lib = **lib_or;
  const std::array<std::string, 2> labels = {
      api.core_type_for_pmu(lib, "adl_glc"),
      api.core_type_for_pmu(lib, "adl_grt")};
  std::array<int, kWorkers> sets{};
  for (int w = 0; w < kWorkers; ++w) {
    auto set = api.create_eventset(lib);
    if (!env.check(set.status(), "create_eventset")) return;
    sets[w] = *set;
    env.check(api.attach(lib, sets[w], tids[w]), "attach");
    env.check(api.add_event(lib, sets[w], "PAPI_TOT_INS"), "add_event");
    env.check(api.set_overflow(lib, sets[w], kPeriod), "set_overflow");
    env.check(api.start(lib, sets[w]), "start");
  }
  env.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  // The hot-spot table: samples per core type and SimpleMOC phase.
  const std::vector<workload::SimpleMocPhase>& phases =
      workload::simplemoc_phases();
  std::array<std::array<std::uint64_t, 3>, 2> table{};
  std::array<std::uint64_t, kWorkers> delivered{};
  std::array<std::uint64_t, kWorkers> lost{};
  std::uint64_t unknown = 0;
  std::uint64_t foreign = 0;
  double busy_ns = 0.0;

  const auto drain = [&](int w) {
    const std::int64_t t0 = now_ns();
    auto batch = api.read_samples(lib, sets[w]);
    const auto drain_ns = static_cast<double>(now_ns() - t0);
    if (!env.check(batch.status(), "read_samples")) return;
    const std::int64_t s0 = now_ns();
    {
      const ScopedSpan span(env.tracer(), "workload.symbolize");
      for (const papi::Sample& sample : batch->samples) {
        const workload::SimpleMocPhase* phase =
            workload::simplemoc_phase_for_ip(sample.ip);
        const int type = sample.core_type == labels[0] ? 0 : 1;
        if (phase == nullptr) {
          ++unknown;
          continue;
        }
        if (sample.core_type != labels[w % 2]) ++foreign;
        ++table[type][static_cast<std::size_t>(phase - phases.data())];
      }
    }
    busy_ns += drain_ns + static_cast<double>(now_ns() - s0);
    delivered[w] += batch->samples.size();
    lost[w] += batch->lost + batch->malformed;
    for (const papi::Sample& sample : batch->samples) {
      env.digest.value(sample.ip);
      env.digest.value(sample.tid);
      env.digest.value(sample.cpu);
      env.digest.value(sample.time_ns);
      env.digest.value(sample.period);
    }
    env.digest.value(batch->lost);
    if (env.measured) {
      (env.traced() ? drain_traced_ : drain_untraced_).add(drain_ns);
    }
  };

  for (const SimDuration gap : gaps) {
    env.advance(kernel, gap);
    for (int w = 0; w < kWorkers; ++w) drain(w);
  }

  // Reconcile: every period crossing became exactly one delivered or
  // lost record, and the counter equals the simulator's ground truth.
  std::uint64_t crossings = 0;
  std::uint64_t round_lost = 0;
  for (int w = 0; w < kWorkers; ++w) {
    auto stopped = api.stop(lib, sets[w]);
    if (!env.check(stopped.status(), "stop")) continue;
    drain(w);
    const auto counter = static_cast<std::uint64_t>((*stopped)[0]);
    const simkernel::ThreadGroundTruth* truth = kernel.ground_truth(tids[w]);
    env.check(truth != nullptr &&
                  truth->per_type[static_cast<std::size_t>(w % 2)].instructions ==
                      counter,
              "sampled counter equals ground truth");
    env.check(delivered[w] + lost[w] == counter / kPeriod,
              "delivered + lost == crossings");
    crossings += counter / kPeriod;
    round_lost += lost[w];
    env.digest.value(counter);
  }
  env.check(unknown == 0, "every sample IP symbolises to a SimpleMOC phase");
  env.check(foreign == 0, "samples carry their worker's core type");
  for (const auto& row : table) {
    for (const std::uint64_t n : row) env.digest.value(n);
  }
  for (const int set : sets) {
    env.check(api.destroy_eventset(lib, set), "destroy_eventset");
  }
  lib_or->reset();
  env.check(sim.open_fd_count() == 0, "no perf fd left open");

  if (!env.measured) return;
  std::uint64_t round_samples = 0;
  for (const std::uint64_t n : delivered) round_samples += n;
  if (env.traced()) {
    traced_samples_ += round_samples;
    traced_lost_ += round_lost;
    ++traced_rounds_;
  } else {
    busy_ns_ += busy_ns;
    samples_ += round_samples;
    lost_ += round_lost;
    crossings_ += crossings;
  }
}

void SamplingDrain::end_to_end(Headline& h, std::vector<Metric>& detail) {
  h.op_us = ns_to_us(drain_untraced_.summary());
  h.throughput_per_s = per(static_cast<double>(samples_), busy_ns_ / 1e9);
  detail.push_back({"drain_us_p50", h.op_us.p50, "us", h.op_us.n});
  detail.push_back({"drain_us_p99", h.op_us.p99, "us", h.op_us.n});
  detail.push_back({"samples_per_s", h.throughput_per_s, "1/s", samples_});
  // Here a failed operation is a lost or malformed sample record, per
  // period crossing. The loss is the designed outcome of the long gap,
  // so it is not counted in the result's "failed".
  detail.push_back({"ops_failed_ratio",
                    per(static_cast<double>(lost_), static_cast<double>(crossings_)),
                    "ratio", crossings_});
}

void SamplingDrain::per_layer(const Tracer& tracer, Headline& h,
                              std::vector<Metric>& detail) {
  OpAggregate drains = op_totals(tracer, {"papi.read_samples"});
  const OpAggregate symbolize = op_totals(tracer, {"workload.symbolize"});
  const auto n = static_cast<double>(drains.ops);
  const auto samples = static_cast<double>(traced_samples_);
  h.api_self_us_p50 = drains.program_p50_ns() / 1e3;
  h.backend_us_per_op = per(drains.layer("backend"), n) / 1e3;
  h.backend_calls_per_op = drains.per_op(Count::kBackendCalls);
  h.heap_allocs_per_op = drains.per_op(Count::kAllocs);

  detail.push_back({"backend.ring_polls_per_drain",
                    drains.per_op(Count::kRingPolls), "count", drains.ops});
  detail.push_back({"backend.poll_us_per_drain", h.backend_us_per_op, "us", drains.ops});
  detail.push_back({"papi.decode_ns_per_sample", per(drains.program_total_ns, samples), "ns",
                    traced_samples_});
  detail.push_back({"papi.allocs_per_sample",
                    per(static_cast<double>(drains.counts[Count::kAllocs]), samples),
                    "count", traced_samples_});
  detail.push_back({"papi.samples_per_drain", per(samples, n), "count", drains.ops});
  detail.push_back({"papi.records_lost",
                    per(static_cast<double>(traced_lost_), traced_rounds_), "count",
                    static_cast<std::uint64_t>(traced_rounds_)});
  detail.push_back({"workload.symbolize_ns_per_sample",
                    per(symbolize.duration_ns, samples), "ns", traced_samples_});
}

}  // namespace

std::unique_ptr<Workload> make_sampling_drain(bool traced) {
  return std::make_unique<SamplingDrain>(traced);
}

}  // namespace perfbench
