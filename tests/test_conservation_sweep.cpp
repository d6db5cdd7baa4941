// The fundamental hybrid-counting invariant, swept across every machine
// model in the catalog: for an unpinned migrating thread, one
// instructions event per core PMU must sum exactly to the instructions
// the simulator actually retired — on 1-, 2- and 3-core-type machines,
// servers included. This is the §IV-F "adds up to 1 million" property
// as a universal law.
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace cpumodel {

// Print a preset as its name, not its raw bytes (which hold heap
// addresses), so the registered ctest names are stable.
void PrintTo(const MachineSpec& machine, std::ostream* os) {
  *os << machine.name;
}

}  // namespace cpumodel

namespace {

using simkernel::CountKind;
using simkernel::CpuSet;
using simkernel::PerfEventAttr;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

class ConservationSweep
    : public ::testing::TestWithParam<cpumodel::MachineSpec> {};

TEST_P(ConservationSweep, PerPmuEventsSumToGroundTruth) {
  SimKernel::Config config;
  config.sched.migration_rate_hz = 120.0;
  SimKernel kernel(GetParam(), config);

  PhaseSpec phase;
  phase.llc_refs_per_kinstr = 5.0;
  phase.llc_miss_ratio = 0.3;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000'000ULL),
      CpuSet::all(kernel.machine().num_cpus()));

  // One instructions event per core PMU, exactly as the patched PAPI
  // EventSet opens them.
  std::vector<int> fds;
  for (const auto* pmu : kernel.pmus().core_pmus()) {
    PerfEventAttr attr;
    attr.type = pmu->type_id;
    attr.config = static_cast<std::uint64_t>(CountKind::kInstructions);
    auto fd = kernel.perf_event_open(attr, tid, -1, -1);
    ASSERT_TRUE(fd.has_value()) << pmu->sysfs_name;
    fds.push_back(*fd);
  }
  ASSERT_EQ(fds.size(), GetParam().core_types.size());

  kernel.run_until_idle(std::chrono::seconds(120));
  ASSERT_FALSE(kernel.thread_alive(tid));

  std::uint64_t sum = 0;
  int pmus_with_counts = 0;
  for (const int fd : fds) {
    const auto value = kernel.perf_read(fd);
    ASSERT_TRUE(value.has_value());
    sum += value->value;
    if (value->value > 0) ++pmus_with_counts;
  }
  EXPECT_EQ(sum, 1'000'000'000u) << "conservation across all core PMUs";
  if (GetParam().is_hybrid()) {
    EXPECT_GT(pmus_with_counts, 1)
        << "a migrating thread must visit more than one core type";
  }
  // Per-PMU values match the per-type ground truth exactly.
  const auto* truth = kernel.ground_truth(tid);
  for (std::size_t i = 0; i < fds.size(); ++i) {
    EXPECT_EQ(kernel.perf_read(fds[i])->value,
              truth->per_type[i].instructions)
        << GetParam().core_types[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, ConservationSweep,
    ::testing::Values(cpumodel::raptor_lake_i7_13700(),
                      cpumodel::alder_lake_i9_12900k(),
                      cpumodel::orangepi800_rk3399(),
                      cpumodel::arm_three_type(),
                      cpumodel::homogeneous_xeon(),
                      cpumodel::sierra_forest_e_only(),
                      cpumodel::granite_rapids_p_only()));

}  // namespace
}  // namespace hetpapi
