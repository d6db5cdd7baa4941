// Determinism properties: identical seeds reproduce identical runs
// bit-for-bit (the property EXPERIMENTS.md's numbers rely on), and the
// hybrid-multiplexing interplay of §IV-E stays accurate on a migrating
// thread with both PMUs oversubscribed.
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "telemetry/multi_run.hpp"
#include "workload/hpl.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::Library;
using papi::LibraryConfig;
using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

double hpl_gflops(std::uint64_t seed, int n = 13824) {
  const auto machine = cpumodel::raptor_lake_i7_13700();
  SimKernel::Config config;
  config.tick = std::chrono::milliseconds(1);
  config.seed = seed;
  SimKernel kernel(machine, config);
  std::vector<int> cpus = machine.primary_threads_of_type(0);
  const auto e = machine.cpus_of_type(1);
  cpus.insert(cpus.end(), e.begin(), e.end());
  workload::HplSimulation hpl(workload::HplConfig::openblas(n, 192),
                              static_cast<int>(cpus.size()));
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    kernel.spawn(hpl.make_worker(static_cast<int>(i)),
                 CpuSet::of({cpus[i]}));
  }
  const SimDuration elapsed =
      kernel.run_until_idle(std::chrono::seconds(600));
  return hpl.gflops(elapsed).value;
}

TEST(Determinism, SameSeedReproducesHplExactly) {
  const double first = hpl_gflops(42);
  const double second = hpl_gflops(42);
  EXPECT_EQ(first, second) << "bit-for-bit reproducibility";
}

TEST(Determinism, DifferentSeedsVaryOnlySlightly) {
  const double a = hpl_gflops(42);
  const double b = hpl_gflops(1337);
  EXPECT_NE(a, b) << "seeds perturb governor jitter and placement";
  EXPECT_NEAR(a, b, 0.05 * a) << "but the physics dominates";
}

TEST(Determinism, MigratingMeasurementIsSeedStable) {
  const auto run_once = [] {
    SimKernel::Config config;
    config.sched.migration_rate_hz = 50.0;
    SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
    SimBackend backend(&kernel);
    PhaseSpec phase;
    const Tid tid = kernel.spawn(
        std::make_shared<FixedWorkProgram>(phase, 500'000'000),
        CpuSet::all(24));
    backend.set_default_target(tid);
    auto lib = Library::init(&backend);
    auto set = (*lib)->create_eventset();
    (void)(*lib)->add_event(*set, "adl_glc::INST_RETIRED:ANY");
    (void)(*lib)->add_event(*set, "adl_grt::INST_RETIRED:ANY");
    (void)(*lib)->start(*set);
    kernel.run_until_idle(std::chrono::seconds(60));
    return *(*lib)->stop(*set);
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second) << "identical seeds => identical P/E split";
}

TEST(Determinism, MultiRunExecutorIsWorkerCountInvariant) {
  // The parallel-executor guarantee: fanning independent seeded runs
  // across a worker pool changes wall-clock only. Results must be
  // bit-identical to the serial (inline, single-worker) execution for
  // any worker count.
  const std::uint64_t seeds[] = {1, 42, 1337, 0xfeed};
  constexpr std::size_t kCells = std::size(seeds);
  const auto run_all = [&](std::size_t threads) {
    std::vector<double> gflops(kCells, 0.0);
    std::vector<telemetry::RunCell> cells;
    for (std::size_t i = 0; i < kCells; ++i) {
      cells.push_back({"seed " + std::to_string(seeds[i]), [&, i] {
                         gflops[i] = hpl_gflops(seeds[i], 6912);
                       }});
    }
    telemetry::MultiRunExecutor executor(threads);
    const auto timings = executor.execute(cells);
    EXPECT_EQ(timings.size(), kCells);
    return gflops;
  };
  const auto serial = run_all(1);
  const auto parallel = run_all(4);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(serial[i], parallel[i])
        << "seed " << seeds[i] << ": parallel execution must be bit-exact";
  }
}

TEST(Determinism, QualifiedBreakdownIsWorkerCountInvariant) {
  // §V-2 reporting under the parallel executor: the per-core-type
  // breakdown of a derived preset (not just its folded total) must be
  // bit-identical whether the seeded runs execute serially or fanned
  // across 4 workers.
  const std::uint64_t seeds[] = {7, 42, 0xbeef};
  constexpr std::size_t kCells = std::size(seeds);
  const auto measure_once = [](std::uint64_t seed) {
    SimKernel::Config config;
    config.sched.migration_rate_hz = 40.0;
    config.seed = seed;
    SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
    SimBackend backend(&kernel);
    const Tid tid = kernel.spawn(
        std::make_shared<FixedWorkProgram>(PhaseSpec{}, 300'000'000),
        CpuSet::all(24));
    backend.set_default_target(tid);
    auto lib = Library::init(&backend);
    auto set = (*lib)->create_eventset();
    (void)(*lib)->add_event(*set, "PAPI_TOT_INS");
    (void)(*lib)->start(*set);
    kernel.run_until_idle(std::chrono::seconds(60));
    std::vector<papi::QualifiedReading> readings;
    EXPECT_TRUE((*lib)->read_qualified_into(*set, readings).is_ok());
    (void)(*lib)->stop(*set);
    // Flatten the breakdown: total then every per-PMU part, in order.
    std::vector<long long> flat;
    for (const papi::QualifiedReading& reading : readings) {
      flat.push_back(reading.total);
      for (const papi::QualifiedValue& part : reading.parts) {
        flat.push_back(part.sign * part.value);
      }
    }
    return flat;
  };
  const auto run_all = [&](std::size_t threads) {
    std::vector<std::vector<long long>> results(kCells);
    std::vector<telemetry::RunCell> cells;
    for (std::size_t i = 0; i < kCells; ++i) {
      cells.push_back({"seed " + std::to_string(seeds[i]), [&, i] {
                         results[i] = measure_once(seeds[i]);
                       }});
    }
    telemetry::MultiRunExecutor executor(threads);
    (void)executor.execute(cells);
    return results;
  };
  const auto serial = run_all(1);
  const auto parallel = run_all(4);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i])
        << "seed " << seeds[i]
        << ": per-core-type breakdown must be bit-exact for any worker count";
  }
}

TEST(HybridMultiplex, BothPmuContextsRotateIndependently) {
  // The §IV-E caveat, worst case: a single EventSet with oversubscribed
  // GP events on BOTH core PMUs, measured on a thread that migrates
  // between the core types. Each PMU context multiplexes on its own;
  // scaled estimates must still track ground truth.
  SimKernel::Config config;
  config.sched.migration_rate_hz = 30.0;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  SimBackend backend(&kernel);
  PhaseSpec phase;
  phase.llc_refs_per_kinstr = 10.0;
  phase.llc_miss_ratio = 0.4;
  phase.branches_per_kinstr = 100.0;
  phase.branch_miss_ratio = 0.03;
  phase.flops_per_instr = 0.8;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 30'000'000'000ULL),
      CpuSet::all(24));
  backend.set_default_target(tid);
  LibraryConfig lib_config;
  lib_config.call_overhead_instructions = 0;
  auto lib = Library::init(&backend, lib_config);
  auto set = (*lib)->create_eventset();

  const char* stems[] = {
      "LONGEST_LAT_CACHE:REFERENCE", "LONGEST_LAT_CACHE:MISS",
      "BR_INST_RETIRED:ALL_BRANCHES", "BR_MISP_RETIRED:ALL_BRANCHES",
      "RESOURCE_STALLS",
  };
  const simkernel::CountKind kinds[] = {
      simkernel::CountKind::kLlcReferences,
      simkernel::CountKind::kLlcMisses,
      simkernel::CountKind::kBranches,
      simkernel::CountKind::kBranchMisses,
      simkernel::CountKind::kStalledCycles,
  };
  // 10 GP events per PMU vs 8 (P) / 6 (E) counters: both oversubscribed.
  for (const char* pmu : {"adl_glc", "adl_grt"}) {
    for (int copy = 0; copy < 2; ++copy) {
      for (const char* stem : stems) {
        ASSERT_TRUE(
            lib.value()
                ->add_event(*set, std::string(pmu) + "::" + stem)
                .is_ok())
            << pmu << "::" << stem;
      }
    }
  }
  ASSERT_TRUE((*lib)->set_multiplex(*set).is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(60));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());

  const auto* truth = kernel.ground_truth(tid);
  for (std::size_t i = 0; i < 20; ++i) {
    const std::size_t type = i < 10 ? 0 : 1;  // first half P, second E
    const auto kind = kinds[i % 5];
    const double expected =
        static_cast<double>(truth->per_type[type].get(kind));
    const double got = static_cast<double>((*values)[i]);
    EXPECT_NEAR(got, expected, 0.12 * expected + 2000.0)
        << "slot " << i << " (" << (type == 0 ? "P" : "E") << ")";
  }
}

}  // namespace
}  // namespace hetpapi
