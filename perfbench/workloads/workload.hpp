// The benchmark's workloads and the round loop that runs them.
//
// A run is a sequence of rounds. Each round builds everything from
// scratch (kernel, backend, Library or Daemon, EventSets, clients) from
// the run's seed, drives the workload's fixed, seed-generated schedule,
// checks the outputs against the simulator's exact ground truth and
// tears everything down. Every round of one seed therefore does exactly
// the same work and produces exactly the same outputs, whatever the
// host's speed; the run repeats rounds until its time is up. The round
// digest over the deterministic outputs must be identical across the
// run's rounds, traced and untraced alike.
//
// Timings never include SimKernel::run_for / run_until_idle: the
// simulator stands in for the hardware and the measured application,
// and its host cost is reported only as simkernel.host_ns_per_sim_ms.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hpp"
#include "harness/api.hpp"
#include "harness/stats.hpp"
#include "simkernel/kernel.hpp"

namespace perfbench {

/// One printed metric: a name from the workload's own vocabulary, its
/// value and unit, and how many samples stand behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;
};

/// The values every workload reports under the benchmark's common
/// metric names (BENCHMARK.json); each workload says which operation
/// is its "op".
struct Headline {
  // End to end, from untraced rounds.
  Summary op_us;             // the workload's primary operation
  double throughput_per_s = 0.0;
  // Per layer, from traced rounds.
  double api_self_us_p50 = 0.0;
  double backend_us_per_op = 0.0;
  double backend_calls_per_op = 0.0;
  double heap_allocs_per_op = 0.0;
};

class RoundEnv {
 public:
  RoundEnv(std::uint64_t seed, Api& api, bool measured)
      : seed(seed), api(api), measured(measured) {}

  const std::uint64_t seed;
  Api& api;
  /// False for warm-up rounds: their outputs are checked, their
  /// timings and counts are not reported.
  const bool measured;
  bool traced() const { return api.tracer() != nullptr; }
  Tracer* tracer() const { return api.tracer(); }

  Digest digest;
  double setup_s = 0.0;
  /// Host time spent inside run_for / run_until_idle, and the simulated
  /// time it advanced.
  double sim_host_ns = 0.0;
  double sim_ms = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Count one operation or oracle check; a false `ok` is a failure,
  /// recorded as `what`.
  bool check(bool ok, std::string_view what);
  bool check(const hetpapi::Status& status, std::string_view what) {
    if (status.is_ok()) return check(true, what);
    return check(false, std::string(what) + ": " + status.to_string());
  }

  /// run_for with the host time and simulated time accounted.
  void advance(hetpapi::simkernel::SimKernel& kernel,
               hetpapi::SimDuration duration);
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void round(RoundEnv& env) = 0;
  /// End-to-end values, from the untraced measured rounds.
  virtual void end_to_end(Headline& h, std::vector<Metric>& detail) = 0;
  /// Per-layer values, from the traced measured rounds and `tracer`,
  /// which holds only those rounds' spans.
  virtual void per_layer(const Tracer& tracer, Headline& h,
                         std::vector<Metric>& detail) = 0;
  /// Median traced / untraced duration of the primary operation.
  virtual double trace_overhead_ratio() = 0;
};

/// `traced`: the run has traced rounds; without them the workload
/// allocates none of the series only traced rounds fill.
std::unique_ptr<Workload> make_counting_read(bool traced);
std::unique_ptr<Workload> make_service_fanout(bool traced);
std::unique_ptr<Workload> make_sampling_drain(bool traced);
std::unique_ptr<Workload> make_eventset_churn(bool traced);

/// The aggregates of every operation whose root span has one of a set
/// of names, merged.
OpAggregate op_totals(const Tracer& tracer,
                      const std::vector<std::string>& names);

/// A summary of nanosecond samples, in microseconds.
inline Summary ns_to_us(Summary s) {
  s.p50 /= 1e3;
  s.p99 /= 1e3;
  return s;
}

/// `num / den`, or 0 when den is 0.
inline double per(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The raptorlake preset (the paper's machine) with default config.
hetpapi::cpumodel::MachineSpec paper_machine();

}  // namespace perfbench
