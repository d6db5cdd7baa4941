// counting_read: the benchmark thread owns four EventSets and reads them
// in a seeded ~7:1:1:1 mix. Each set measures its own application thread,
// free to migrate across P and E cores (PAPI runs one EventSet per
// component per thread at a time, so one thread cannot host all four):
//
//   derived_hybrid  PAPI_TOT_INS + PAPI_TOT_CYC: one perf group per core
//                   PMU, folded into one value each (read)
//   per_core_type   the same events with the per-core-type breakdown
//                   (read_qualified)
//   sysinfo_mixed   perf_core events plus a sysinfo event, which re-reads
//                   /proc/stat on every read
//   multiplexed     12 events under set_multiplex
//
// The counting path (Library -> EventSetCore -> component -> Backend)
// does almost all the work. The common shape sets the median; the three
// slow shapes set p99.
#include <array>
#include <chrono>

#include "base/rng.hpp"
#include "papi/sim_backend.hpp"
#include "workload/programs.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

enum Shape : std::uint8_t {
  kDerivedHybrid,
  kPerCoreType,
  kSysinfoMixed,
  kMultiplexed,
  kNumShapes,
};
constexpr std::array<const char*, kNumShapes> kShapeNames = {
    "derived_hybrid", "per_core_type", "sysinfo_mixed", "multiplexed"};

/// Simulated time between read bursts, and reads per burst.
constexpr auto kStep = std::chrono::microseconds(500);
constexpr int kSteps = 100;
constexpr int kReadsPerStep = 40;

std::vector<std::vector<std::string>> shape_events() {
  return {
      {"PAPI_TOT_INS", "PAPI_TOT_CYC"},
      {"PAPI_TOT_INS", "PAPI_TOT_CYC"},
      {"PAPI_TOT_INS", "PAPI_TOT_CYC", "sysinfo::SYS_CTX_SWITCHES"},
      {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_REF_CYC", "PAPI_L3_TCA",
       "PAPI_L3_TCM", "PAPI_BR_INS", "PAPI_BR_MSP", "PAPI_RES_STL",
       "adl_glc::TOPDOWN:SLOTS", "adl_glc::TOPDOWN:RETIRING",
       "adl_grt::INST_RETIRED:ANY", "adl_grt::CPU_CLK_UNHALTED:THREAD"},
  };
}

/// The round's inputs, generated from the seed: the read order (exactly
/// 7:1:1:1, shuffled) and, per step, which application threads move to
/// the other core type (the application's own sched_setaffinity). The
/// seed permutes a fixed mix, so every seed does the same amount of
/// each kind of work.
struct Schedule {
  std::vector<std::uint8_t> order;
  std::vector<std::uint8_t> moves;  // bit s: thread s switches core type
};

Schedule make_schedule(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Schedule sched;
  sched.order.resize(kSteps * kReadsPerStep);
  for (std::size_t i = 0; i < sched.order.size(); ++i) {
    const std::size_t tenth = i * 10 / sched.order.size();
    sched.order[i] = tenth < 7 ? std::uint8_t{kDerivedHybrid}
                               : static_cast<std::uint8_t>(tenth - 6);
  }
  for (std::size_t i = sched.order.size() - 1; i > 0; --i) {
    std::swap(sched.order[i], sched.order[rng.below(i + 1)]);
  }
  sched.moves.resize(kSteps);
  for (std::uint8_t& move : sched.moves) {
    for (int s = 0; s < kNumShapes; ++s) {
      if (rng.below(8) == 0) move |= static_cast<std::uint8_t>(1u << s);
    }
  }
  return sched;
}

class CountingRead final : public Workload {
 public:
  explicit CountingRead(bool traced)
      : read_traced_(traced ? Series::kCapacity : 0),
        shape_traced_{Series(traced ? kShapeCapacity : 0),
                      Series(traced ? kShapeCapacity : 0),
                      Series(traced ? kShapeCapacity : 0),
                      Series(traced ? kShapeCapacity : 0)} {}
  void round(RoundEnv& env) override;
  void end_to_end(Headline& h, std::vector<Metric>& detail) override;
  void per_layer(const Tracer& tracer, Headline& h,
                 std::vector<Metric>& detail) override;
  double trace_overhead_ratio() override {
    return per(read_traced_.summary().p50, read_untraced_.summary().p50);
  }

 private:
  Series read_untraced_;
  Series read_traced_;
  static constexpr std::size_t kShapeCapacity = 1 << 18;
  std::array<Series, kNumShapes> shape_traced_;
  double read_busy_ns_ = 0.0;
};

void CountingRead::round(RoundEnv& env) {
  Api& api = env.api;
  const Schedule sched = make_schedule(env.seed);
  const std::vector<std::vector<std::string>> events = shape_events();

  const std::int64_t setup_start = now_ns();
  simkernel::SimKernel kernel(paper_machine());
  papi::SimBackend sim(&kernel);
  const cpumodel::MachineSpec& machine = kernel.machine();
  const std::array<simkernel::CpuSet, 2> core_type_cpus = {
      simkernel::CpuSet::of(machine.cpus_of_type(0)),
      simkernel::CpuSet::of(machine.cpus_of_type(1))};
  std::array<simkernel::Tid, kNumShapes> apps{};
  std::array<int, kNumShapes> on_type{};
  for (int s = 0; s < kNumShapes; ++s) {
    on_type[s] = s % 2;
    apps[s] = kernel.spawn(std::make_shared<workload::FixedWorkProgram>(
                               workload::PhaseSpec{}, ~std::uint64_t{0} >> 8),
                           core_type_cpus[on_type[s]]);
  }
  auto lib_or = api.init(api.backend(sim));
  if (!env.check(lib_or.status(), "Library::init")) return;
  papi::Library& lib = **lib_or;

  std::array<int, kNumShapes> sets{};
  for (int s = 0; s < kNumShapes; ++s) {
    auto set = api.create_eventset(lib);
    if (!env.check(set.status(), "create_eventset")) return;
    sets[s] = *set;
    env.check(api.attach(lib, sets[s], apps[s]), "attach");
    for (const std::string& name : events[static_cast<std::size_t>(s)]) {
      env.check(api.add_event(lib, sets[s], name), "add_event " + name);
    }
    if (s == kMultiplexed) env.check(api.set_multiplex(lib, sets[s]), "set_multiplex");
    env.check(api.start(lib, sets[s]), "start");
  }
  std::vector<long long> values;
  std::vector<papi::QualifiedReading> qualified;
  values.reserve(16);
  env.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  std::size_t next = 0;
  for (int step = 0; step < kSteps; ++step) {
    for (int s = 0; s < kNumShapes; ++s) {
      if ((sched.moves[step] >> s & 1u) == 0) continue;
      on_type[s] ^= 1;
      env.check(kernel.set_affinity(apps[s], core_type_cpus[on_type[s]]),
                "set_affinity");
    }
    env.advance(kernel, kStep);
    for (int r = 0; r < kReadsPerStep; ++r) {
      const std::uint8_t shape = sched.order[next++];
      const std::int64_t t0 = now_ns();
      const Status status = shape == kPerCoreType
                                ? api.read_qualified(lib, sets[shape], qualified)
                                : api.read(lib, sets[shape], values);
      const auto dt = static_cast<double>(now_ns() - t0);
      if (!env.check(status, "read")) continue;
      if (env.measured) {
        if (env.traced()) {
          read_traced_.add(dt);
          shape_traced_[shape].add(dt);
        } else {
          read_untraced_.add(dt);
          read_busy_ns_ += dt;
        }
      }
      if (shape == kPerCoreType) {
        for (const papi::QualifiedReading& q : qualified) {
          long long sum = 0;
          for (const papi::QualifiedValue& part : q.parts) {
            sum += part.sign * part.value;
            env.digest.value(part.value);
          }
          env.check(sum == q.total, "per-core-type parts sum to the total");
          env.digest.value(q.total);
        }
      } else {
        env.digest.bytes(values.data(), values.size() * sizeof(long long));
      }
    }
  }

  // Oracle: every non-multiplexed set counted exactly what the thread
  // executed (the simulator's ground truth).
  std::array<std::vector<long long>, kNumShapes> final_values;
  for (int s = 0; s < kNumShapes; ++s) {
    auto stopped = api.stop(lib, sets[s]);
    if (!env.check(stopped.status(), "stop")) continue;
    final_values[s] = *stopped;
    env.digest.bytes(stopped->data(), stopped->size() * sizeof(long long));
  }
  for (const int s : {int{kDerivedHybrid}, int{kPerCoreType},
                      int{kSysinfoMixed}}) {
    const simkernel::ThreadGroundTruth* truth = kernel.ground_truth(apps[s]);
    if (!env.check(truth != nullptr, "ground truth")) continue;
    const simkernel::ExecCounts total = truth->total();
    const std::vector<long long>& v = final_values[s];
    env.check(v.size() >= 2 &&
                  v[0] == static_cast<long long>(total.instructions) &&
                  v[1] == static_cast<long long>(total.cycles),
              std::string(kShapeNames[s]) + " stop() equals ground truth");
    if (s == kDerivedHybrid) {
      // Both core types must have run the thread, or the derived sum
      // is not exercised.
      env.check(truth->per_type.size() == 2 &&
                    truth->per_type[0].instructions > 0 &&
                    truth->per_type[1].instructions > 0,
                "application thread ran on both core types");
    }
  }
  for (const int set : sets) {
    env.check(api.destroy_eventset(lib, set), "destroy_eventset");
  }
  lib_or->reset();
  env.check(sim.open_fd_count() == 0, "no perf fd left open");
}

void CountingRead::end_to_end(Headline& h, std::vector<Metric>& detail) {
  const Summary s = read_untraced_.summary();
  h.op_us = ns_to_us(s);
  h.throughput_per_s =
      per(static_cast<double>(read_untraced_.seen()), read_busy_ns_ / 1e9);
  detail.push_back({"read_ns_p50", s.p50, "ns", s.n});
  detail.push_back({"read_ns_p99", s.p99, "ns", s.n});
}

void CountingRead::per_layer(const Tracer& tracer, Headline& h,
                             std::vector<Metric>& detail) {
  OpAggregate reads = op_totals(tracer, {"papi.read", "papi.read_qualified"});
  const auto n = static_cast<double>(reads.ops);
  h.api_self_us_p50 = reads.program_p50_ns() / 1e3;
  h.backend_us_per_op = per(reads.layer("backend"), n) / 1e3;
  h.backend_calls_per_op = reads.per_op(Count::kBackendCalls);
  h.heap_allocs_per_op = reads.per_op(Count::kAllocs);

  detail.push_back({"papi.read_self_ns_p50", h.api_self_us_p50 * 1e3, "ns", reads.ops});
  for (int s = 0; s < kNumShapes; ++s) {
    const Summary sum = shape_traced_[s].summary();
    detail.push_back({std::string("papi.read_ns_p50.") + kShapeNames[s],
                      sum.p50, "ns", sum.n});
  }
  detail.push_back({"papi.allocs_per_read", h.heap_allocs_per_op, "count", reads.ops});
  detail.push_back({"backend.calls_per_read", h.backend_calls_per_op, "count", reads.ops});
  detail.push_back({"backend.ns_per_read", h.backend_us_per_op * 1e3, "ns", reads.ops});
  detail.push_back({"pfm.host_reads_per_read", reads.per_op(Count::kHostReads),
                    "count", reads.ops});
}

}  // namespace

std::unique_ptr<Workload> make_counting_read(bool traced) {
  return std::make_unique<CountingRead>(traced);
}

}  // namespace perfbench
