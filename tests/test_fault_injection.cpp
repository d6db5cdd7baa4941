// Chaos suite for the deterministic fault injector: a fault-kind x
// cpu-model x API-surface matrix plus a seeded randomized soak of the
// monitored-run pipeline. The invariants under EVERY profile and seed:
// no crash, zero leaked fds at teardown (the injector's ledger is the
// oracle), a self-consistent health summary, and bit-identical outcomes
// for identical seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "telemetry/monitor.hpp"
#include "workload/hpl.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::FaultInjectingBackend;
using papi::FaultProfile;
using papi::Library;
using papi::LibraryConfig;
using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

cpumodel::MachineSpec machine_by_name(const std::string& name) {
  return name == "orangepi" ? cpumodel::orangepi800_rk3399()
                            : cpumodel::raptor_lake_i7_13700();
}

/// Drive the whole EventSet API surface tolerantly (every call may
/// fail under injection — that is the point) and append a textual
/// outcome of each step to `trace`, the determinism fingerprint.
void exercise_api_surface(Library& lib, SimKernel& kernel, Tid tid,
                          std::ostringstream& trace) {
  const auto record = [&trace](std::string_view step, const Status& s) {
    trace << step << "=" << (s.is_ok() ? "ok" : to_string(s.code())) << ";";
  };
  auto set = lib.create_eventset();
  ASSERT_TRUE(set.has_value());
  record("attach", lib.attach(*set, tid));
  for (const char* event : {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_BR_INS"}) {
    record(event, lib.add_event(*set, event));
  }
  record("start", lib.start(*set));
  kernel.run_for(std::chrono::milliseconds(200));
  std::vector<long long> values;
  const Status strict = lib.read_into(*set, values);
  if (strict.is_ok()) {
    trace << "read=ok[";
    for (const long long v : values) trace << v << ",";
    trace << "];";
  } else {
    record("read", strict);
  }
  std::vector<std::uint8_t> degraded;
  const Status tolerant = lib.read_into(*set, values, &degraded);
  if (tolerant.is_ok()) {
    const bool any_degraded =
        std::find(degraded.begin(), degraded.end(), 1) != degraded.end();
    trace << "read_tolerant=ok degraded=" << any_degraded << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      trace << (degraded[i] != 0 ? -1 : values[i]) << ",";
    }
    trace << "];";
  } else {
    record("read_tolerant", tolerant);
  }
  std::vector<papi::QualifiedReading> qualified;
  const Status qualified_read = lib.read_qualified_into(*set, qualified);
  if (qualified_read.is_ok()) {
    trace << "read_qualified=ok[";
    for (const papi::QualifiedReading& reading : qualified) {
      trace << reading.total << "/" << reading.degraded << ",";
    }
    trace << "];";
  } else {
    record("read_qualified", qualified_read);
  }
  record("reset", lib.reset(*set));
  kernel.run_for(std::chrono::milliseconds(100));
  if (const auto stopped = lib.stop(*set)) {
    trace << "stop=ok[";
    for (const long long v : *stopped) trace << v << ",";
    trace << "];";
  } else {
    record("stop", stopped.status());
  }
  record("destroy", lib.destroy_eventset(*set));
}

/// One full library lifetime under a profile/seed; returns the outcome
/// trace. Asserts the leak invariant at teardown.
std::string run_scenario(const std::string& machine_name,
                         const std::string& profile_name, std::uint64_t seed,
                         bool degrade_presets) {
  SimKernel kernel(machine_by_name(machine_name));
  SimBackend backend(&kernel);
  auto profile = FaultProfile::named(profile_name);
  EXPECT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&backend, *profile, seed);

  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({0}));

  std::ostringstream trace;
  {
    LibraryConfig config;
    config.degrade_partial_presets = degrade_presets;
    auto lib = Library::init(&injector, config);
    if (!lib.has_value()) {
      // Heavy open-failure profiles can refuse even init's probe opens;
      // that must still be a clean, leak-free failure.
      trace << "init=" << to_string(lib.status().code()) << ";";
    } else {
      trace << "init=ok;";
      exercise_api_surface(**lib, kernel, tid, trace);
    }
  }
  EXPECT_EQ(injector.open_fd_count(), 0u)
      << machine_name << "/" << profile_name << " seed " << seed
      << " leaked: " << testing::PrintToString(injector.leaked_fds());
  EXPECT_EQ(backend.open_fd_count(), 0u);
  trace << "faults=" << injector.stats().total_injected() << ";";
  return trace.str();
}

TEST(FaultInjection, NamedProfilesRoundTripAndUnknownIsRejected) {
  const auto names = FaultProfile::profile_names();
  ASSERT_GE(names.size(), 6u);
  for (const std::string& name : names) {
    const auto profile = FaultProfile::named(name);
    ASSERT_TRUE(profile.has_value()) << name;
    EXPECT_EQ(profile->name, name);
  }
  const auto unknown = FaultProfile::named("not-a-profile");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjection, MatrixNoLeaksOnAnyProfileMachineOrSeed) {
  for (const char* machine : {"raptorlake", "orangepi"}) {
    for (const std::string& profile : FaultProfile::profile_names()) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE(std::string(machine) + "/" + profile + "/" +
                     std::to_string(seed));
        (void)run_scenario(machine, profile, seed, /*degrade_presets=*/true);
        (void)run_scenario(machine, profile, seed, /*degrade_presets=*/false);
      }
    }
  }
}

TEST(FaultInjection, SameSeedSameOutcomeTrace) {
  for (const std::string& profile : FaultProfile::profile_names()) {
    for (const std::uint64_t seed : {7ull, 99ull}) {
      const std::string first = run_scenario("raptorlake", profile, seed, true);
      const std::string second =
          run_scenario("raptorlake", profile, seed, true);
      EXPECT_EQ(first, second) << profile << " seed " << seed;
    }
  }
}

TEST(FaultInjection, NoneProfileIsTransparent) {
  const std::string injected = run_scenario("raptorlake", "none", 5, false);
  EXPECT_NE(injected.find("faults=0;"), std::string::npos) << injected;
  EXPECT_NE(injected.find("init=ok;"), std::string::npos);
  EXPECT_NE(injected.find("start=ok;"), std::string::npos) << injected;
}

/// Forwards to a SimBackend; once `dead_type` is set, every read of an
/// fd opened on that PMU type fails the way a stale counter fd does
/// (kSystem) — one dead counter group, chosen deterministically.
class DeadPmuBackend final : public papi::Backend {
 public:
  explicit DeadPmuBackend(SimBackend* inner) : inner_(inner) {}

  std::optional<std::uint32_t> dead_type;

  Expected<int> perf_event_open(const simkernel::PerfEventAttr& attr, Tid tid,
                                int cpu, int group_fd,
                                std::uint64_t flags) override {
    auto fd = inner_->perf_event_open(attr, tid, cpu, group_fd, flags);
    if (fd.has_value()) fd_type_[*fd] = attr.type;
    return fd;
  }
  Status perf_ioctl(int fd, papi::PerfIoctl op, std::uint32_t flags) override {
    return inner_->perf_ioctl(fd, op, flags);
  }
  Expected<papi::PerfValue> perf_read(int fd) override {
    if (dead(fd)) return stale();
    return inner_->perf_read(fd);
  }
  Expected<std::vector<papi::PerfValue>> perf_read_group(int fd) override {
    if (dead(fd)) return stale();
    return inner_->perf_read_group(fd);
  }
  Expected<std::uint64_t> perf_rdpmc(int fd) override {
    return inner_->perf_rdpmc(fd);
  }
  Status perf_close(int fd) override {
    fd_type_.erase(fd);
    return inner_->perf_close(fd);
  }
  const pfm::Host& host() const override { return inner_->host(); }
  Tid default_target() const override { return inner_->default_target(); }

 private:
  bool dead(int fd) const {
    const auto it = fd_type_.find(fd);
    return dead_type.has_value() && it != fd_type_.end() &&
           it->second == *dead_type;
  }
  static Status stale() {
    return make_error(StatusCode::kSystem, "counter fd went stale");
  }

  SimBackend* inner_;
  std::map<int, std::uint32_t> fd_type_;
};

TEST(FaultInjection, ReadIntoIsStrictWithoutDegradedBufferTolerantWithOne) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  DeadPmuBackend killable(&backend);
  // Work on an E core, then on a P core, so both constituents of the
  // derived PAPI_TOT_INS count. Simulated time only moves in run_for,
  // so every read below sees the same counts.
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(PhaseSpec{}, 100'000'000'000ULL),
      CpuSet::of({16}));
  backend.set_default_target(tid);

  LibraryConfig config;
  config.call_overhead_instructions = 0;  // reads charge no work
  {
    auto lib = Library::init(&killable, config);
    ASSERT_TRUE(lib.has_value());
    auto set = (*lib)->create_eventset();
    ASSERT_TRUE(set.has_value());
    ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
    ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
    ASSERT_TRUE(
        (*lib)->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
    ASSERT_TRUE((*lib)->start(*set).is_ok());
    kernel.run_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(kernel.set_affinity(tid, CpuSet::of({0})).is_ok());
    kernel.run_for(std::chrono::milliseconds(20));

    // Healthy: both forms return the same values and no flag is set.
    std::vector<long long> strict;
    std::vector<long long> tolerant;
    std::vector<std::uint8_t> degraded;
    ASSERT_TRUE((*lib)->read_into(*set, strict).is_ok());
    ASSERT_TRUE((*lib)->read_into(*set, tolerant, &degraded).is_ok());
    EXPECT_EQ(tolerant, strict);
    EXPECT_EQ(degraded, (std::vector<std::uint8_t>{0, 0}));
    std::vector<papi::QualifiedReading> qualified;
    ASSERT_TRUE((*lib)->read_qualified_into(*set, qualified).is_ok());
    ASSERT_EQ(qualified.size(), 2u);
    ASSERT_EQ(qualified[0].parts.size(), 2u);
    long long p_part = -1;
    for (const papi::QualifiedValue& part : qualified[0].parts) {
      EXPECT_GT(part.value, 0) << part.native_name;
      if (part.pmu_name == "adl_glc") p_part = part.value;
    }
    ASSERT_GT(p_part, 0);

    // The E-core group dies. Strict: the call fails and `out` is left
    // as it was. Tolerant: the derived slot becomes the partial sum
    // over the live P constituent and is flagged; the slot served
    // wholly by the P group is exact and unflagged.
    killable.dead_type = kernel.pmus().find_by_name("cpu_atom")->type_id;
    std::vector<long long> after = strict;
    EXPECT_EQ((*lib)->read_into(*set, after).code(), StatusCode::kSystem);
    EXPECT_EQ(after, strict);
    ASSERT_TRUE((*lib)->read_into(*set, tolerant, &degraded).is_ok());
    EXPECT_EQ(degraded, (std::vector<std::uint8_t>{1, 0}));
    EXPECT_EQ(tolerant[0], p_part);
    EXPECT_LT(tolerant[0], strict[0]);
    EXPECT_EQ(tolerant[1], strict[1]);
    ASSERT_TRUE((*lib)->read_qualified_into(*set, qualified).is_ok());
    EXPECT_TRUE(qualified[0].degraded);
    EXPECT_EQ(qualified[0].total, tolerant[0])
        << "the qualified total and the tolerant read agree";
    EXPECT_FALSE(qualified[1].degraded);
  }
  EXPECT_EQ(backend.open_fd_count(), 0u) << "fd ledger clean at teardown";
}

TEST(FaultInjection, TransientReadBurstsAreRiddenOutByBoundedRetry) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  auto profile = FaultProfile::named("transient-read");
  ASSERT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&backend, *profile, 11);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 500'000'000), CpuSet::of({0}));

  auto lib = Library::init(&injector);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());

  // The tolerant read path never fails outright on a transient: either
  // the bounded retry rides the burst out, or the slot is marked
  // degraded for that read.
  int degraded_reads = 0;
  std::vector<long long> values;
  std::vector<std::uint8_t> degraded;
  for (int i = 0; i < 200; ++i) {
    kernel.run_for(std::chrono::milliseconds(5));
    const Status read = (*lib)->read_into(*set, values, &degraded);
    ASSERT_TRUE(read.is_ok()) << read.to_string();
    if (std::find(degraded.begin(), degraded.end(), 1) != degraded.end()) {
      ++degraded_reads;
    }
  }
  EXPECT_GT(injector.stats().reads_injected_transient, 0u);
  // Burst (2) < retry budget (4): most transients are absorbed.
  EXPECT_LT(degraded_reads, 200);
  // stop() is strict (it returns the final values), so a burst that
  // outlives the retry budget fails the call and leaves the set
  // running — the PAPI contract is that the caller tries again.
  bool stopped = false;
  for (int i = 0; i < 20 && !stopped; ++i) {
    stopped = (*lib)->stop(*set).has_value();
  }
  ASSERT_TRUE(stopped);
  ASSERT_TRUE((*lib)->destroy_eventset(*set).is_ok());
  lib->reset();
  EXPECT_EQ(injector.open_fd_count(), 0u);
}

TEST(FaultInjection, FdPressureFailsCleanlyAndLedgerMatchesKernel) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  auto profile = FaultProfile::named("fd-pressure");
  ASSERT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&backend, *profile, 3);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({0}));

  auto lib = Library::init(&injector);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
  Status last = Status::ok();
  int added = 0;
  for (int i = 0; i < 12 && last.is_ok(); ++i) {
    last = (*lib)->add_event(*set, "PAPI_TOT_INS");
    if (last.is_ok()) ++added;
  }
  EXPECT_GT(added, 0);
  ASSERT_FALSE(last.is_ok()) << "the 6-fd cap must bite";
  EXPECT_EQ(last.code(), StatusCode::kNoMemory);
  // Rollback left exactly the surviving events' fds: ledger == kernel.
  EXPECT_EQ(injector.open_fd_count(), backend.open_fd_count());
  EXPECT_LE(injector.open_fd_count(), 6u);
  ASSERT_TRUE((*lib)->destroy_eventset(*set).is_ok());
  lib->reset();
  EXPECT_EQ(injector.open_fd_count(), 0u);
}

// ---------------------------------------------------------------------
// Seeded randomized soak of the monitored-run pipeline: the workload
// must finish and the telemetry series must stay complete under every
// profile, with a health summary that adds up and zero leaked fds.

telemetry::RunResult run_chaos_monitor(const std::string& profile,
                                       std::uint64_t seed) {
  SimKernel::Config config;
  config.tick = std::chrono::milliseconds(1);
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  const workload::HplConfig hpl = workload::HplConfig::openblas(4096, 192);
  telemetry::MonitorConfig monitor;
  monitor.sample_period_s = 0.01;
  monitor.sample_events = {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_BR_INS"};
  monitor.fault_profile = profile;
  monitor.fault_seed = seed;
  return telemetry::run_monitored_hpl(kernel, hpl, {0, 2, 16, 17}, monitor);
}

void check_health_consistency(const telemetry::RunResult& result) {
  const telemetry::RunHealth& h = result.health;
  EXPECT_EQ(h.leaked_fds, 0u);
  EXPECT_LE(h.ticks_failed, h.ticks_attempted);
  EXPECT_LE(h.ticks_degraded, h.ticks_attempted);
  EXPECT_EQ(h.counters_dropped, h.dropped_counters.size());
  EXPECT_LE(h.counters_dropped, result.counter_names.size());
  if (!result.counter_names.empty()) {
    // Counters were attached for the whole run: every sample is a tick.
    EXPECT_EQ(h.ticks_attempted, result.samples.size());
  } else {
    EXPECT_EQ(h.ticks_attempted, 0u);
  }
  if (h.sampling_abandoned) {
    EXPECT_GE(h.ticks_failed, 3u);
  }
  for (const telemetry::Sample& sample : result.samples) {
    // Telemetry survives no matter what the counter path does.
    EXPECT_FALSE(sample.core_freq_mhz.empty());
    if (!sample.counters.empty()) {
      EXPECT_EQ(sample.counters.size(), result.counter_names.size());
    }
  }
}

TEST(Chaos, MonitorSoakSurvivesEveryProfileAndSeed) {
  for (const std::string& profile : FaultProfile::profile_names()) {
    for (const std::uint64_t seed : {17ull, 23ull, 41ull}) {
      SCOPED_TRACE(profile + "/" + std::to_string(seed));
      const telemetry::RunResult result = run_chaos_monitor(profile, seed);
      EXPECT_GT(result.gflops, 0.0) << "the run itself must never abort";
      EXPECT_GT(result.samples.size(), 1u);
      check_health_consistency(result);
    }
  }
}

TEST(Chaos, MonitorRunsAreDeterministicPerSeed) {
  const telemetry::RunResult a = run_chaos_monitor("mixed", 1234);
  const telemetry::RunResult b = run_chaos_monitor("mixed", 1234);
  EXPECT_EQ(a.health.ticks_attempted, b.health.ticks_attempted);
  EXPECT_EQ(a.health.ticks_failed, b.health.ticks_failed);
  EXPECT_EQ(a.health.ticks_degraded, b.health.ticks_degraded);
  EXPECT_EQ(a.health.counters_dropped, b.health.counters_dropped);
  EXPECT_EQ(a.health.faults_injected, b.health.faults_injected);
  EXPECT_EQ(a.health.sampling_abandoned, b.health.sampling_abandoned);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    ASSERT_EQ(a.samples[i].counters.size(), b.samples[i].counters.size());
    for (std::size_t c = 0; c < a.samples[i].counters.size(); ++c) {
      const double va = a.samples[i].counters[c];
      const double vb = b.samples[i].counters[c];
      if (std::isnan(va) || std::isnan(vb)) {
        EXPECT_TRUE(std::isnan(va) && std::isnan(vb));
      } else {
        EXPECT_EQ(va, vb);
      }
    }
  }
}

TEST(Chaos, CleanProfileMatchesUninjectedMonitorRun) {
  const telemetry::RunResult clean = run_chaos_monitor("none", 0);
  EXPECT_EQ(clean.health.faults_injected, 0u);
  EXPECT_EQ(clean.health.ticks_failed, 0u);
  EXPECT_EQ(clean.health.ticks_degraded, 0u);
  EXPECT_EQ(clean.health.counters_dropped, 0u);
  EXPECT_FALSE(clean.health.sampling_abandoned);
  for (const telemetry::Sample& sample : clean.samples) {
    EXPECT_TRUE(sample.counters_ok);
    for (const double v : sample.counters) EXPECT_FALSE(std::isnan(v));
  }
}

}  // namespace
}  // namespace hetpapi
