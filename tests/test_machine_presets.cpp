// The extended machine catalog: Alder Lake (same PMU tables as Raptor
// Lake), and the paper's §I-A server outlook — Sierra Forest (all
// E-core) and Granite Rapids (all P-core) — which must behave as
// perfectly ordinary homogeneous machines despite their core flavours.
#include <gtest/gtest.h>

#include <ostream>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "pfm/sim_host.hpp"
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

using papi::Library;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

TEST(AlderLake, SharesRaptorLakePmuTables) {
  // "Raptor Lake systems have the same underlying PMU as Alder Lake":
  // the adl_glc/adl_grt tables must bind on both machines.
  SimKernel kernel(cpumodel::alder_lake_i9_12900k());
  pfm::SimHost host(&kernel);
  pfm::PfmLibrary lib;
  ASSERT_TRUE(lib.initialize(host).is_ok());
  EXPECT_NE(lib.find_pmu("adl_glc"), nullptr);
  EXPECT_NE(lib.find_pmu("adl_grt"), nullptr);
}

TEST(AlderLake, HigherPowerEnvelopeSustainsHigherFrequencies) {
  // The 12900K's 125 W PL1 sustains more all-P frequency than the
  // 13700's 65 W budget.
  const auto run_all_p = [](const cpumodel::MachineSpec& machine) {
    SimKernel kernel(machine);
    PhaseSpec phase;
    phase.activity = 1.0;
    for (int cpu = 0; cpu < 16; cpu += 2) {
      kernel.spawn(
          std::make_shared<FixedWorkProgram>(phase, 2'000'000'000'000ULL),
          CpuSet::of({cpu}));
    }
    kernel.run_for(std::chrono::seconds(90));  // past the PL2 burst
    return kernel.governor().frequency(0).value;
  };
  const double adl = run_all_p(cpumodel::alder_lake_i9_12900k());
  const double rpl = run_all_p(cpumodel::raptor_lake_i7_13700());
  EXPECT_GT(adl, rpl + 300.0) << "125 W vs 65 W sustained budgets";
}

class ServerPresetTest
    : public ::testing::TestWithParam<cpumodel::MachineSpec> {};

TEST_P(ServerPresetTest, HomogeneousServersAreNotHybrid) {
  SimKernel kernel(GetParam());
  pfm::SimHost host(&kernel);
  const auto info = papi::get_hardware_info(host);
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->hybrid)
      << "single-core-type servers must not be reported hybrid";
  EXPECT_EQ(info->detection.method,
            papi::DetectionMethod::kHomogeneousFallback);
}

TEST_P(ServerPresetTest, MeasurementWorksThroughTheTraditionalPath) {
  SimKernel kernel(GetParam());
  papi::SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 25'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value()) << lib.status().to_string();
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  auto info = (*lib)->eventset_info(*set);
  EXPECT_EQ((*info)[0].native_names.size(), 1u) << "no derived sum needed";
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_GE((*values)[0], 25'000'000);
}

INSTANTIATE_TEST_SUITE_P(Servers, ServerPresetTest,
                         ::testing::Values(cpumodel::sierra_forest_e_only(),
                                           cpumodel::granite_rapids_p_only()));

TEST(ServerPresets, ModelKeyedTablesBindTheRightFlavour) {
  {
    SimKernel kernel(cpumodel::sierra_forest_e_only());
    pfm::SimHost host(&kernel);
    pfm::PfmLibrary lib;
    ASSERT_TRUE(lib.initialize(host).is_ok());
    EXPECT_NE(lib.find_pmu("srf"), nullptr);
    EXPECT_EQ(lib.find_pmu("gnr"), nullptr);
    EXPECT_EQ(lib.find_pmu("skx"), nullptr);
    // E-core flavour: no topdown, but the Crestmont stall event exists.
    EXPECT_FALSE(lib.encode("srf::TOPDOWN:SLOTS").has_value());
    EXPECT_TRUE(lib.encode("srf::MEM_BOUND_STALLS").has_value());
  }
  {
    SimKernel kernel(cpumodel::granite_rapids_p_only());
    pfm::SimHost host(&kernel);
    pfm::PfmLibrary lib;
    ASSERT_TRUE(lib.initialize(host).is_ok());
    EXPECT_NE(lib.find_pmu("gnr"), nullptr);
    EXPECT_EQ(lib.find_pmu("srf"), nullptr);
    // P-core flavour: topdown exists on the server part.
    EXPECT_TRUE(lib.encode("gnr::TOPDOWN:SLOTS").has_value());
  }
}

TEST(ServerPresets, GraniteRapidsSmtThreadsShareCorePower) {
  // 16 cores x 2 threads: loading both threads of one core must cost
  // much less than loading two separate cores.
  const auto power_with = [](std::vector<int> cpus) {
    SimKernel kernel(cpumodel::granite_rapids_p_only());
    PhaseSpec phase;
    phase.activity = 1.0;
    for (int cpu : cpus) {
      kernel.spawn(
          std::make_shared<FixedWorkProgram>(phase, 1'000'000'000'000ULL),
          CpuSet::of({cpu}));
    }
    kernel.run_for(std::chrono::seconds(1));
    return kernel.governor().package_power().value;
  };
  const double same_core = power_with({0, 1});
  const double two_cores = power_with({0, 2});
  EXPECT_LT(same_core, two_cores - 3.0);
}

TEST(MachinePresets, AllNewPresetsValidate) {
  EXPECT_TRUE(cpumodel::alder_lake_i9_12900k().validate().is_ok());
  EXPECT_TRUE(cpumodel::sierra_forest_e_only().validate().is_ok());
  EXPECT_TRUE(cpumodel::granite_rapids_p_only().validate().is_ok());
  EXPECT_TRUE(cpumodel::granite_rapids_p_only(64).validate().is_ok());
}

}  // namespace
}  // namespace hetpapi
