// The measurement library: multi-PMU EventSets (§IV-E), default PMUs
// (§IV-D), derived presets (§V-2), component rules, multiplexing, and
// the legacy baselines for each.
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::Library;
using papi::LibraryConfig;
using papi::PresetPolicy;
using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

class LibraryTest : public ::testing::Test {
 protected:
  LibraryTest()
      : kernel_(cpumodel::raptor_lake_i7_13700()), backend_(&kernel_) {}

  std::unique_ptr<Library> make_library(LibraryConfig config = {}) {
    auto lib = Library::init(&backend_, config);
    EXPECT_TRUE(lib.has_value()) << lib.status().to_string();
    return std::move(*lib);
  }

  Tid spawn_pinned(std::uint64_t instructions, int cpu) {
    PhaseSpec phase;
    phase.llc_refs_per_kinstr = 6.0;  // some memory traffic for IMC tests
    phase.llc_miss_ratio = 0.4;
    phase.flops_per_instr = 0.5;  // some FP work for the flop counters
    const Tid tid = kernel_.spawn(
        std::make_shared<FixedWorkProgram>(phase, instructions),
        CpuSet::of({cpu}));
    backend_.set_default_target(tid);
    return tid;
  }

  SimKernel kernel_;
  SimBackend backend_;
};

TEST_F(LibraryTest, InitDetectsHybridHardware) {
  auto lib = make_library();
  EXPECT_TRUE(lib->hardware_info().hybrid);
  EXPECT_EQ(lib->hardware_info().total_cpus, 24);
  EXPECT_NE(lib->pfm().find_pmu("adl_glc"), nullptr);
  EXPECT_NE(lib->pfm().find_pmu("adl_grt"), nullptr);
  EXPECT_NE(lib->pfm().find_pmu("rapl"), nullptr);
}

TEST_F(LibraryTest, LegacyEventSetRejectsSecondPmu) {
  spawn_pinned(1'000'000, 0);
  LibraryConfig config;
  config.hybrid_support = false;
  auto lib = make_library(config);
  auto set = lib->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE(lib->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  const Status conflict = lib->add_event(*set, "adl_grt::INST_RETIRED:ANY");
  ASSERT_FALSE(conflict.is_ok());
  EXPECT_EQ(conflict.code(), StatusCode::kConflict);
}

TEST_F(LibraryTest, LegacyEventSetRejectsRaplWithCpuEvents) {
  spawn_pinned(1'000'000, 0);
  LibraryConfig config;
  config.hybrid_support = false;
  auto lib = make_library(config);
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  const Status conflict = lib->add_event(*set, "rapl::RAPL_ENERGY_PKG");
  EXPECT_EQ(conflict.code(), StatusCode::kConflict);
}

TEST_F(LibraryTest, HybridEventSetSplitsIntoGroupPerPmu) {
  spawn_pinned(1'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(set.has_value());
  // The paper's canonical example (§IV-E).
  ASSERT_TRUE(lib->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "adl_grt::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "adl_grt::CPU_CLK_UNHALTED:THREAD").is_ok());
  auto groups = lib->eventset_group_count(*set);
  ASSERT_TRUE(groups.has_value());
  EXPECT_EQ(*groups, 2) << "one perf group per PMU type";
}

TEST_F(LibraryTest, UnprefixedEventResolvesOnDefaultPCorePmu) {
  spawn_pinned(1'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "INST_RETIRED:ANY").is_ok());
  auto info = lib->eventset_info(*set);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->size(), 1u);
  ASSERT_EQ((*info)[0].native_names.size(), 1u);
  EXPECT_EQ((*info)[0].native_names[0], "adl_glc::INST_RETIRED:ANY")
      << "P core is the hard-coded default (§IV-D)";
}

TEST_F(LibraryTest, PresetDerivedSumCoversBothPmus) {
  spawn_pinned(1'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
  auto info = lib->eventset_info(*set);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->size(), 1u);
  EXPECT_TRUE((*info)[0].is_preset);
  ASSERT_EQ((*info)[0].native_names.size(), 2u);
  EXPECT_EQ((*info)[0].native_names[0], "adl_glc::INST_RETIRED:ANY");
  EXPECT_EQ((*info)[0].native_names[1], "adl_grt::INST_RETIRED:ANY");
}

TEST_F(LibraryTest, PresetPolicyErrorOnHybridFails) {
  spawn_pinned(1'000'000, 0);
  LibraryConfig config;
  config.preset_policy = PresetPolicy::kErrorOnHybrid;
  auto lib = make_library(config);
  auto set = lib->create_eventset();
  const Status status = lib->add_event(*set, "PAPI_TOT_INS");
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kNotPreset);
}

TEST_F(LibraryTest, PresetPolicyDefaultPmuOnlyUndercountsMigratedWork) {
  // A thread pinned to an E-core measured with the default-PMU-only
  // policy reads ~zero — the pre-patch failure mode the paper leads
  // with ("you might get 0, 1 million, or something in between").
  const Tid tid = spawn_pinned(2'000'000, 20);  // E-core cpu
  LibraryConfig config;
  config.preset_policy = PresetPolicy::kDefaultPmuOnly;
  auto lib = make_library(config);
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->attach(*set, tid).is_ok());
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_until_idle(std::chrono::seconds(10));
  auto values = lib->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ((*values)[0], 0) << "P-core-only preset misses E-core work";
}

TEST_F(LibraryTest, DerivedPresetSumsAcrossCoreTypes) {
  const Tid tid = spawn_pinned(10'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->attach(*set, tid).is_ok());
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_until_idle(std::chrono::seconds(10));
  auto values = lib->stop(*set);
  ASSERT_TRUE(values.has_value());
  const auto* truth = kernel_.ground_truth(tid);
  const auto total = static_cast<long long>(truth->total().instructions);
  // The preset includes the injected measurement overhead executed
  // before the final stop; allow that margin.
  EXPECT_GE((*values)[0], 10'000'000);
  EXPECT_LE((*values)[0], total);
}

TEST_F(LibraryTest, StartStopStateMachineErrors) {
  spawn_pinned(100'000'000'000ULL, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  EXPECT_EQ(lib->start(*set).code(), StatusCode::kInvalidArgument)
      << "empty EventSet cannot start";
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_CYC").is_ok());
  EXPECT_EQ(lib->stop(*set).status().code(), StatusCode::kNotRunning);
  ASSERT_TRUE(lib->start(*set).is_ok());
  EXPECT_EQ(lib->start(*set).code(), StatusCode::kAlreadyRunning);
  EXPECT_EQ(lib->add_event(*set, "PAPI_TOT_INS").code(),
            StatusCode::kAlreadyRunning);
  EXPECT_EQ(lib->destroy_eventset(*set).code(), StatusCode::kAlreadyRunning);
  ASSERT_TRUE(lib->stop(*set).has_value());
  EXPECT_TRUE(lib->destroy_eventset(*set).is_ok());
  EXPECT_EQ(lib->read(*set).status().code(), StatusCode::kNoEventSet);
}

TEST_F(LibraryTest, OneRunningEventSetPerComponent) {
  spawn_pinned(1'000'000'000, 0);
  auto lib = make_library();
  auto a = lib->create_eventset();
  auto b = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*a, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE(lib->add_event(*b, "PAPI_TOT_CYC").is_ok());
  ASSERT_TRUE(lib->start(*a).is_ok());
  const Status second = lib->start(*b);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.code(), StatusCode::kConflict)
      << "the two-EventSet workaround must fail (§IV-E)";
  // A RAPL EventSet uses a different component and may run concurrently.
  auto rapl = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*rapl, "rapl::RAPL_ENERGY_PKG").is_ok());
  EXPECT_TRUE(lib->start(*rapl).is_ok()) << "separate component is free";
  ASSERT_TRUE(lib->stop(*a).has_value());
  EXPECT_TRUE(lib->start(*b).is_ok()) << "component freed after stop";
}

TEST_F(LibraryTest, RaplEventSetMeasuresEnergy) {
  spawn_pinned(2'000'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "rapl::RAPL_ENERGY_PKG").is_ok());
  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_for(std::chrono::seconds(2));
  auto values = lib->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_GT((*values)[0], 10'000'000) << "at least ~10 J over 2 s, in uJ";
}

TEST_F(LibraryTest, UnifiedUncoreJoinsCombinedEventSet) {
  spawn_pinned(1'000'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "unc_imc_0::UNC_M_CAS_COUNT:RD").is_ok())
      << "§V-3: uncore events join ordinary EventSets";
  auto groups = lib->eventset_group_count(*set);
  EXPECT_EQ(*groups, 3);  // adl_glc + adl_grt + imc
  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_for(std::chrono::seconds(1));
  auto values = lib->read(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_GT((*values)[1], 0) << "memory traffic observed";
}

TEST_F(LibraryTest, MultiplexedEventSetScalesEstimates) {
  const Tid tid = spawn_pinned(30'000'000'000ULL, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->attach(*set, tid).is_ok());
  // 12 GP-consuming P-core events vs 8 GP counters.
  const char* names[] = {
      "adl_glc::LONGEST_LAT_CACHE:REFERENCE",
      "adl_glc::LONGEST_LAT_CACHE:MISS",
      "adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
      "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
      "adl_glc::RESOURCE_STALLS",
      "adl_glc::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
  };
  for (const char* name : names) {
    ASSERT_TRUE(lib->add_event(*set, name).is_ok()) << name;
  }
  for (const char* name : names) {
    ASSERT_TRUE(lib->add_event(*set, name).is_ok()) << name;
  }
  ASSERT_TRUE(lib->set_multiplex(*set).is_ok());
  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_for(std::chrono::seconds(3));
  auto values = lib->stop(*set);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 12u);
  // Duplicate events must agree within multiplexing tolerance.
  for (std::size_t i = 0; i < 6; ++i) {
    const double a = static_cast<double>((*values)[i]);
    const double b = static_cast<double>((*values)[i + 6]);
    EXPECT_GT(a, 0.0) << names[i];
    EXPECT_NEAR(a, b, 0.15 * a + 1000.0) << names[i];
  }
}

TEST_F(LibraryTest, AttachReopensOnNewTarget) {
  const Tid first = spawn_pinned(5'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->attach(*set, first).is_ok());
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());

  PhaseSpec phase;
  const Tid second = kernel_.spawn(
      std::make_shared<FixedWorkProgram>(phase, 7'000'000), CpuSet::of({2}));
  ASSERT_TRUE(lib->attach(*set, second).is_ok());
  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_until_idle(std::chrono::seconds(10));
  auto values = lib->stop(*set);
  ASSERT_TRUE(values.has_value());
  const auto* truth = kernel_.ground_truth(second);
  EXPECT_GE((*values)[0], 7'000'000);
  EXPECT_LE((*values)[0],
            static_cast<long long>(truth->total().instructions));
}

TEST_F(LibraryTest, DestroyClosesAllKernelEvents) {
  spawn_pinned(1'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_CYC").is_ok());
  EXPECT_GT(kernel_.perf().open_event_count(), 0u);
  ASSERT_TRUE(lib->destroy_eventset(*set).is_ok());
  EXPECT_EQ(kernel_.perf().open_event_count(), 0u);
}

TEST_F(LibraryTest, NativeEventListingsIncludeBothCorePmus) {
  auto lib = make_library();
  const auto names = lib->native_event_names();
  const auto contains = [&](std::string_view needle) {
    for (const std::string& name : names) {
      if (name == needle) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("adl_glc::INST_RETIRED:ANY"));
  EXPECT_TRUE(contains("adl_grt::INST_RETIRED:ANY"));
  EXPECT_TRUE(contains("adl_glc::TOPDOWN:SLOTS"));
  EXPECT_FALSE(contains("adl_grt::TOPDOWN:SLOTS"))
      << "topdown is P-core-only";
}

TEST_F(LibraryTest, AccumAddsAndResets) {
  const Tid tid = spawn_pinned(400'000'000, 0);
  LibraryConfig config;
  config.call_overhead_instructions = 0;
  auto lib = make_library(config);
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->attach(*set, tid).is_ok());
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE(lib->start(*set).is_ok());

  std::vector<long long> accumulated(1, 0);
  for (int i = 0; i < 5; ++i) {
    kernel_.run_for(std::chrono::milliseconds(4));
    ASSERT_TRUE(lib->accum(*set, accumulated).is_ok());
  }
  kernel_.run_until_idle(std::chrono::seconds(10));
  auto final_values = lib->stop(*set);
  ASSERT_TRUE(final_values.has_value());
  const auto total = accumulated[0] + (*final_values)[0];
  EXPECT_EQ(total, 400'000'000)
      << "accumulated chunks + remainder = whole workload";
}

TEST_F(LibraryTest, AccumValidatesArguments) {
  spawn_pinned(1'000'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
  std::vector<long long> values(1, 0);
  EXPECT_EQ(lib->accum(*set, values).code(), StatusCode::kNotRunning);
  ASSERT_TRUE(lib->start(*set).is_ok());
  std::vector<long long> wrong_size(3, 0);
  EXPECT_EQ(lib->accum(*set, wrong_size).code(),
            StatusCode::kInvalidArgument);
  std::vector<long long> missing;
  EXPECT_EQ(lib->accum(99, missing).code(), StatusCode::kNoEventSet);
}

TEST_F(LibraryTest, StateTracksLifecycle) {
  spawn_pinned(1'000'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_CYC").is_ok());
  EXPECT_EQ(*lib->state(*set), Library::SetStatePublic::kStopped);
  ASSERT_TRUE(lib->start(*set).is_ok());
  EXPECT_EQ(*lib->state(*set), Library::SetStatePublic::kRunning);
  ASSERT_TRUE(lib->stop(*set).has_value());
  EXPECT_EQ(*lib->state(*set), Library::SetStatePublic::kStopped);
  EXPECT_EQ(lib->state(12345).status().code(), StatusCode::kNoEventSet);
}

TEST_F(LibraryTest, RemoveEventDropsSlotAndSurvivorsKeepCounting) {
  spawn_pinned(1'000'000'000'000ULL, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(lib->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "adl_grt::INST_RETIRED:ANY").is_ok());

  // Removal requires a stopped set and an event that exists.
  ASSERT_TRUE(lib->start(*set).is_ok());
  EXPECT_EQ(lib->remove_event(*set, "adl_glc::INST_RETIRED:ANY").code(),
            StatusCode::kAlreadyRunning);
  kernel_.run_for(std::chrono::milliseconds(50));
  auto before = lib->stop(*set);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->size(), 3u);
  EXPECT_EQ(lib->remove_event(*set, "PAPI_NO_SUCH_EVENT").code(),
            StatusCode::kNotFound);

  // Drop the middle event: survivors keep their relative order and the
  // set reopens transparently (name match is case-insensitive).
  ASSERT_TRUE(
      lib->remove_event(*set, "adl_glc::cpu_clk_unhalted:thread").is_ok());
  const auto info = lib->eventset_info(*set);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->size(), 2u);
  EXPECT_EQ((*info)[0].display_name, "adl_glc::INST_RETIRED:ANY");
  EXPECT_EQ((*info)[1].display_name, "adl_grt::INST_RETIRED:ANY");

  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_for(std::chrono::milliseconds(50));
  auto after = lib->stop(*set);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 2u);
  EXPECT_GT((*after)[0], 0) << "P-core survivor still counts";
  EXPECT_EQ((*after)[1], 0) << "E-core event: thread pinned to a P core";
}

TEST_F(LibraryTest, RemoveEventDropsAllConstituentsOfDerivedPreset) {
  spawn_pinned(1'000'000'000'000ULL, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  // Each preset expands to one native per core-type PMU.
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "PAPI_TOT_CYC").is_ok());
  ASSERT_TRUE(lib->remove_event(*set, "PAPI_TOT_INS").is_ok());

  const auto info = lib->eventset_info(*set);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->size(), 1u);
  EXPECT_EQ((*info)[0].display_name, "PAPI_TOT_CYC");

  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_for(std::chrono::milliseconds(50));
  auto values = lib->stop(*set);
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 1u);
  EXPECT_GT((*values)[0], 0);
}

TEST(LibraryReadPlanTest, CacheSurvivesAddAndRemove) {
  // The cached group-read fan-out must be invalidated whenever the
  // slot layout changes; a read after add/remove has to report one
  // correct value per surviving event. The reference is a twin library
  // on the same kernel that builds a fresh EventSet with the new layout
  // and starts it at the same sim instant. With zero caliper overhead
  // neither library perturbs the thread, so the values must agree.
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000'000'000ULL),
      CpuSet::of({0}));
  backend.set_default_target(tid);
  LibraryConfig config;
  config.call_overhead_instructions = 0;
  auto lib = Library::init(&backend, config);
  auto twin = Library::init(&backend, config);
  ASSERT_TRUE(lib.has_value() && twin.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());

  // Runs `set` and a fresh twin set of `layout` over the same 20 ms and
  // returns both reads: {through the cached plan, fresh reference}.
  const auto read_with_fresh_twin =
      [&](const std::vector<const char*>& layout) {
        auto fresh = (*twin)->create_eventset();
        EXPECT_TRUE(fresh.has_value());
        for (const char* event : layout) {
          EXPECT_TRUE((*twin)->add_event(*fresh, event).is_ok()) << event;
        }
        EXPECT_TRUE((*lib)->start(*set).is_ok());
        EXPECT_TRUE((*twin)->start(*fresh).is_ok());
        kernel.run_for(std::chrono::milliseconds(20));
        auto cached = (*lib)->read(*set);
        auto reference = (*twin)->read(*fresh);
        EXPECT_TRUE((*lib)->stop(*set).has_value());
        EXPECT_TRUE((*twin)->stop(*fresh).has_value());
        EXPECT_TRUE(cached.has_value()) << cached.status().to_string();
        EXPECT_TRUE(reference.has_value());
        return std::make_pair(cached.value_or({}), reference.value_or({}));
      };

  ASSERT_TRUE((*lib)->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  const auto first = read_with_fresh_twin({"adl_glc::INST_RETIRED:ANY"});
  ASSERT_EQ(first.first.size(), 1u);  // builds and caches the plan
  EXPECT_EQ(first.first, first.second);

  ASSERT_TRUE(
      (*lib)->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  ASSERT_TRUE((*lib)->add_event(*set, "adl_grt::INST_RETIRED:ANY").is_ok());
  const auto grown = read_with_fresh_twin(
      {"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
       "adl_grt::INST_RETIRED:ANY"});
  ASSERT_EQ(grown.first.size(), 3u);
  EXPECT_EQ(grown.first, grown.second);

  ASSERT_TRUE((*lib)->remove_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  const auto shrunk = read_with_fresh_twin(
      {"adl_glc::CPU_CLK_UNHALTED:THREAD", "adl_grt::INST_RETIRED:ANY"});
  ASSERT_EQ(shrunk.first.size(), 2u);
  EXPECT_EQ(shrunk.first, shrunk.second);

  EXPECT_GT(grown.first[0], 0) << "P-core instructions";
  EXPECT_GT(grown.first[1], 0) << "P-core cycles";
  EXPECT_EQ(grown.first[2], 0) << "E-core event on a P-pinned thread";
  EXPECT_GT(shrunk.first[0], 0) << "cycles survive the removal";
}

// --- homogeneous control machine ------------------------------------------

TEST(LibraryHomogeneousTest, SinglePmuMachineBehavesTraditionally) {
  SimKernel kernel(cpumodel::homogeneous_xeon());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 5'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);

  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value()) << lib.status().to_string();
  EXPECT_FALSE((*lib)->hardware_info().hybrid);
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  auto info = (*lib)->eventset_info(*set);
  ASSERT_EQ((*info)[0].native_names.size(), 1u)
      << "no derived sum needed on homogeneous machines";
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_GE((*values)[0], 5'000'000);
}

// --- three-core-type machine: nothing hard-codes "two" -----------------------

TEST(LibraryTriTypeTest, EventSetSpansThreeCorePmus) {
  SimKernel kernel(cpumodel::arm_three_type());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 5'000'000),
      CpuSet::all(kernel.machine().num_cpus()));
  backend.set_default_target(tid);

  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value()) << lib.status().to_string();
  ASSERT_EQ((*lib)->hardware_info().detection.core_types.size(), 3u);
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  auto info = (*lib)->eventset_info(*set);
  EXPECT_EQ((*info)[0].native_names.size(), 3u)
      << "derived preset spans all three core PMUs";
  auto groups = (*lib)->eventset_group_count(*set);
  EXPECT_EQ(*groups, 3);
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(30));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  EXPECT_GE((*values)[0], 5'000'000);
}

}  // namespace
}  // namespace hetpapi
