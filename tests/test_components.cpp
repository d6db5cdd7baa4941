// The component layer: registry rules, per-component locks, the caps
// gates, mixed-component EventSets, and the sysinfo software component
// on both simulated machine families (§IV-E's framework/components
// split).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/component.hpp"
#include "papi/components/sysinfo.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::ComponentEnv;
using papi::ComponentRegistry;
using papi::Library;
using papi::LibraryConfig;
using papi::SimBackend;
using papi::SysinfoComponent;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

/// Scope guard for tests with a local backend: when it runs (after the
/// Library is destroyed), zero perf events may still be open.
struct FdLeakGuard {
  explicit FdLeakGuard(const SimBackend* b) : guarded(b) {}
  ~FdLeakGuard() {
    EXPECT_EQ(guarded->open_fd_count(), 0u) << "leaked perf fds at teardown";
  }
  const SimBackend* guarded;
};

TEST(ComponentRegistry, DuplicateRegistrationIsConflict) {
  ComponentRegistry registry;
  ASSERT_TRUE(registry
                  .register_component(
                      std::make_unique<SysinfoComponent>(ComponentEnv{}))
                  .is_ok());
  const Status dup = registry.register_component(
      std::make_unique<SysinfoComponent>(ComponentEnv{}));
  ASSERT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.code(), StatusCode::kConflict);
  EXPECT_NE(dup.message().find("already registered"), std::string::npos);
}

TEST(ComponentRegistry, FindUnregisteredReturnsNull) {
  ComponentRegistry registry;
  EXPECT_EQ(registry.find("sysinfo"), nullptr);
  ASSERT_TRUE(registry
                  .register_component(
                      std::make_unique<SysinfoComponent>(ComponentEnv{}))
                  .is_ok());
  EXPECT_NE(registry.find("sysinfo"), nullptr);
  EXPECT_EQ(registry.find("no_such_component"), nullptr);
}

class ComponentTest : public ::testing::Test {
 protected:
  ComponentTest()
      : kernel_(cpumodel::raptor_lake_i7_13700()), backend_(&kernel_) {}

  std::unique_ptr<Library> make_library(LibraryConfig config = {}) {
    auto lib = Library::init(&backend_, config);
    EXPECT_TRUE(lib.has_value()) << lib.status().to_string();
    return std::move(*lib);
  }

  // Runs after the body (and with it every Library) is gone: whatever
  // the test did, no perf event may outlive its owners.
  void TearDown() override {
    EXPECT_EQ(backend_.open_fd_count(), 0u) << "leaked perf fds at teardown";
  }

  Tid spawn_pinned(std::uint64_t instructions, int cpu) {
    PhaseSpec phase;
    phase.flops_per_instr = 0.5;
    const Tid tid = kernel_.spawn(
        std::make_shared<FixedWorkProgram>(phase, instructions),
        CpuSet::of({cpu}));
    backend_.set_default_target(tid);
    return tid;
  }

  SimKernel kernel_;
  SimBackend backend_;
};

TEST_F(ComponentTest, BuiltinRegistryFoldsUncoreIntoPerfEvent) {
  const auto names = [](const Library& lib) {
    std::vector<std::string> out;
    for (const auto& component : lib.registry().components()) {
      out.emplace_back(component->name());
    }
    return out;
  };

  // §V-3, completed: the legacy exclusive uncore component is retired —
  // perf_event serves the uncore PMUs directly, so there is no
  // perf_event_uncore row and IMC events fold into ordinary EventSets.
  auto lib = make_library();
  EXPECT_EQ(names(*lib),
            (std::vector<std::string>{"perf_event", "rapl", "sysinfo"}));
  EXPECT_EQ(lib->registry().find("perf_event_uncore"), nullptr);

  const pfm::ActivePmu* imc = lib->pfm().find_pmu("unc_imc_0");
  ASSERT_NE(imc, nullptr);
  EXPECT_EQ(lib->registry().component_for(*imc),
            lib->registry().find("perf_event"));
}

TEST_F(ComponentTest, PackageScopeLockSpansCpuAndThreadAttachment) {
  const Tid tid = spawn_pinned(10'000'000, 0);
  auto lib = make_library();

  // RAPL is package-scope: a cpu-attached EventSet and a thread-attached
  // one contend for the same component lock even though their targets
  // differ.
  auto on_cpu = lib->create_eventset();
  ASSERT_TRUE(on_cpu.has_value());
  ASSERT_TRUE(lib->attach_cpu(*on_cpu, 0).is_ok());
  ASSERT_TRUE(lib->add_event(*on_cpu, "rapl::RAPL_ENERGY_PKG").is_ok());
  ASSERT_TRUE(lib->start(*on_cpu).is_ok());

  auto on_thread = lib->create_eventset();
  ASSERT_TRUE(on_thread.has_value());
  ASSERT_TRUE(lib->attach(*on_thread, tid).is_ok());
  ASSERT_TRUE(lib->add_event(*on_thread, "rapl::RAPL_ENERGY_PKG").is_ok());
  const Status conflict = lib->start(*on_thread);
  ASSERT_FALSE(conflict.is_ok());
  EXPECT_EQ(conflict.code(), StatusCode::kConflict);
  EXPECT_NE(conflict.message().find("already has a running EventSet"),
            std::string::npos);

  // Releasing the lock frees the other set.
  ASSERT_TRUE(lib->stop(*on_cpu).has_value());
  EXPECT_TRUE(lib->start(*on_thread).is_ok());
  EXPECT_TRUE(lib->stop(*on_thread).has_value());
}

TEST_F(ComponentTest, MixedComponentEventSetStartsStopsAndReads) {
  // Enough work that /proc/stat's 10 ms jiffy granularity registers it.
  const Tid tid = spawn_pinned(2'000'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE(lib->attach(*set, tid).is_ok());
  // Three components in one EventSet, interleaved with a second core
  // event so component dispatch must preserve add order in the values.
  ASSERT_TRUE(lib->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "rapl::RAPL_ENERGY_PKG").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "sysinfo::SYS_CPU_TIME_MS").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());

  // Only the perf-backed components hold kernel groups; sysinfo charges
  // no per-call overhead.
  auto groups = lib->eventset_group_count(*set);
  ASSERT_TRUE(groups.has_value());
  EXPECT_EQ(*groups, 2);

  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_for(std::chrono::milliseconds(200));
  auto mid = lib->read(*set);
  ASSERT_TRUE(mid.has_value()) << mid.status().to_string();
  ASSERT_EQ(mid->size(), 4u);

  kernel_.run_for(std::chrono::milliseconds(200));
  auto values = lib->stop(*set);
  ASSERT_TRUE(values.has_value()) << values.status().to_string();
  ASSERT_EQ(values->size(), 4u);
  EXPECT_GT((*values)[0], 0) << "instructions retired";
  EXPECT_GT((*values)[1], 0) << "package energy";
  EXPECT_GT((*values)[2], 0) << "busy cpu time (ms)";
  EXPECT_GT((*values)[3], 0) << "core cycles";
  EXPECT_GE((*values)[0], (*mid)[0]) << "counters are monotonic";

  // Stopped counters are frozen: more simulated time changes nothing.
  kernel_.run_for(std::chrono::milliseconds(100));
  auto after = lib->read(*set);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, *values);
}

TEST_F(ComponentTest, SysinfoWorksWithoutAttachment) {
  spawn_pinned(100'000'000, 0);
  auto lib = make_library();
  auto set = lib->create_eventset();
  ASSERT_TRUE(set.has_value());
  // Package-scope software readings need no target thread or cpu.
  ASSERT_TRUE(lib->add_event(*set, "sysinfo::SYS_CTX_SWITCHES").is_ok());
  ASSERT_TRUE(lib->add_event(*set, "sysinfo::PKG_TEMP_MC").is_ok());
  ASSERT_TRUE(lib->start(*set).is_ok());
  kernel_.run_for(std::chrono::milliseconds(200));
  auto values = lib->stop(*set);
  ASSERT_TRUE(values.has_value()) << values.status().to_string();
  EXPECT_GE((*values)[0], 0) << "context switches are a delta";
  EXPECT_GT((*values)[1], 20'000)
      << "package temperature gauge (millidegrees)";
}

TEST_F(ComponentTest, SysinfoRejectsMultiplexAndRaplRejectsOverflow) {
  const Tid tid = spawn_pinned(1'000'000, 0);
  auto lib = make_library();

  auto sys_set = lib->create_eventset();
  ASSERT_TRUE(sys_set.has_value());
  ASSERT_TRUE(lib->add_event(*sys_set, "sysinfo::SYS_CTX_SWITCHES").is_ok());
  const Status mux = lib->set_multiplex(*sys_set);
  ASSERT_FALSE(mux.is_ok());
  EXPECT_EQ(mux.code(), StatusCode::kNotSupported);
  EXPECT_NE(mux.message().find("does not support multiplexing"),
            std::string::npos);

  auto rapl_set = lib->create_eventset();
  ASSERT_TRUE(rapl_set.has_value());
  ASSERT_TRUE(lib->attach(*rapl_set, tid).is_ok());
  ASSERT_TRUE(lib->add_event(*rapl_set, "rapl::RAPL_ENERGY_PKG").is_ok());
  const Status overflow = lib->set_overflow(
      *rapl_set, 0, 1000, [](const papi::OverflowEvent&) {});
  ASSERT_FALSE(overflow.is_ok());
  EXPECT_EQ(overflow.code(), StatusCode::kNotSupported);
  EXPECT_NE(overflow.message().find("does not support overflow sampling"),
            std::string::npos);
}

// Sysinfo readings on a given machine model are a pure function of the
// simulated schedule: two identical runs agree bit-for-bit, and the cpu
// time matches the busy time the kernel actually scheduled.
//
// The parameter prints as its family name, so the registered test names
// carry no function addresses and stay the same across builds and runs.
struct MachineFamily {
  const char* name;
  cpumodel::MachineSpec (*make)();
};

void PrintTo(const MachineFamily& family, std::ostream* os) {
  *os << family.name;
}

class SysinfoMachineTest : public ::testing::TestWithParam<MachineFamily> {};

TEST_P(SysinfoMachineTest, DeterministicAcrossIdenticalRuns) {
  const auto run_once = [&] {
    SimKernel kernel(GetParam().make());
    SimBackend backend(&kernel);
    FdLeakGuard leak_guard(&backend);
    PhaseSpec phase;
    // Enough work that busy time clears /proc/stat's 10 ms jiffy
    // granularity even on the fastest simulated core.
    kernel.spawn(std::make_shared<FixedWorkProgram>(phase, 1'000'000'000),
                 CpuSet::of({0}));
    auto lib = Library::init(&backend);
    EXPECT_TRUE(lib.has_value()) << lib.status().to_string();
    auto set = (*lib)->create_eventset();
    EXPECT_TRUE(set.has_value());
    EXPECT_TRUE(
        (*lib)->add_event(*set, "sysinfo::SYS_CTX_SWITCHES").is_ok());
    EXPECT_TRUE(
        (*lib)->add_event(*set, "sysinfo::SYS_CPU_TIME_MS").is_ok());
    EXPECT_TRUE((*lib)->add_event(*set, "sysinfo::PKG_TEMP_MC").is_ok());
    EXPECT_TRUE((*lib)->start(*set).is_ok());
    kernel.run_for(std::chrono::milliseconds(500));
    auto values = (*lib)->stop(*set);
    EXPECT_TRUE(values.has_value()) << values.status().to_string();
    return values.has_value() ? *values : std::vector<long long>{};
  };

  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first, second) << "sim readings must be deterministic";
  EXPECT_GE(first[0], 0) << "context switches";
  EXPECT_GT(first[1], 0) << "the pinned worker burned cpu time";
  EXPECT_LE(first[1], 510) << "cannot exceed wall time on one core";
  EXPECT_GT(first[2], 20'000) << "package/SoC temperature in millidegrees";
}

INSTANTIATE_TEST_SUITE_P(BothFamilies, SysinfoMachineTest,
                         ::testing::Values(
                             MachineFamily{"intel",
                                           &cpumodel::raptor_lake_i7_13700},
                             MachineFamily{"arm",
                                           &cpumodel::orangepi800_rk3399}));

}  // namespace
}  // namespace hetpapi
