// The userspace rdpmc read plan (§V-5): a Library with use_rdpmc
// serves whole groups from mmap'd user pages and must be
// indistinguishable from the fd path — same values, same scaled
// multiplex estimates, same behaviour across plan rebuilds and
// migrations — with the fd path as a silent fallback whenever a page
// cannot serve. The FaultInjectionRdpmc suites run in the sanitized
// chaos CI shard.
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
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

/// Twin libraries over one simulated kernel: identical call sequences,
/// the only difference being which read path serves them. With zero
/// caliper overhead the reads perturb nothing, so values taken at the
/// same sim instant must agree.
class RdpmcPlanTest : public ::testing::Test {
 protected:
  RdpmcPlanTest()
      : kernel_(cpumodel::raptor_lake_i7_13700()), backend_(&kernel_) {
    LibraryConfig config;
    config.call_overhead_instructions = 0;
    config.use_rdpmc = true;
    rdpmc_lib_ = make_library(config);
    config.use_rdpmc = false;
    fd_lib_ = make_library(config);
  }

  std::unique_ptr<Library> make_library(const LibraryConfig& config) {
    auto lib = Library::init(&backend_, config);
    EXPECT_TRUE(lib.has_value()) << lib.status().to_string();
    return std::move(*lib);
  }

  Tid spawn_pinned(std::uint64_t instructions, int cpu) {
    PhaseSpec phase;
    phase.llc_refs_per_kinstr = 6.0;
    phase.llc_miss_ratio = 0.4;
    phase.flops_per_instr = 0.5;
    const Tid tid = kernel_.spawn(
        std::make_shared<FixedWorkProgram>(phase, instructions),
        CpuSet::of({cpu}));
    backend_.set_default_target(tid);
    return tid;
  }

  /// Build the same EventSet in `lib`, attached to `tid`, started.
  int started_set(Library& lib, Tid tid,
                  const std::vector<const char*>& events,
                  bool multiplex = false) {
    auto set = lib.create_eventset();
    EXPECT_TRUE(set.has_value());
    EXPECT_TRUE(lib.attach(*set, tid).is_ok());
    for (const char* event : events) {
      EXPECT_TRUE(lib.add_event(*set, event).is_ok()) << event;
    }
    if (multiplex) {
      EXPECT_TRUE(lib.set_multiplex(*set).is_ok());
    }
    EXPECT_TRUE(lib.start(*set).is_ok());
    return *set;
  }

  SimKernel kernel_;
  SimBackend backend_;
  std::unique_ptr<Library> rdpmc_lib_;
  std::unique_ptr<Library> fd_lib_;
};

TEST_F(RdpmcPlanTest, HybridGroupValuesMatchFdPathExactly) {
  const Tid tid = spawn_pinned(2'000'000'000, 0);
  const std::vector<const char*> events = {
      "adl_glc::INST_RETIRED:ANY", "adl_grt::INST_RETIRED:ANY",
      "adl_glc::CPU_CLK_UNHALTED:THREAD", "adl_grt::CPU_CLK_UNHALTED:THREAD"};
  const int fast = started_set(*rdpmc_lib_, tid, events);
  const int slow = started_set(*fd_lib_, tid, events);

  std::vector<long long> via_pages;
  std::vector<long long> via_fds;
  for (int step = 0; step < 4; ++step) {
    kernel_.run_for(std::chrono::milliseconds(10));
    const Status read = rdpmc_lib_->read_into(fast, via_pages);
    ASSERT_TRUE(read.is_ok()) << read.to_string();
    ASSERT_TRUE(fd_lib_->read_into(slow, via_fds).is_ok());
    ASSERT_EQ(via_pages.size(), events.size());
    EXPECT_EQ(via_pages, via_fds) << "step " << step;
  }
  // The thread ran on a P core: its P-PMU slots counted, E-PMU stayed 0.
  std::vector<long long> values;
  ASSERT_TRUE(rdpmc_lib_->read_into(fast, values).is_ok());
  EXPECT_GT(values[0], 0);
  EXPECT_EQ(values[1], 0);
}

TEST_F(RdpmcPlanTest, DerivedPresetMatchesFdPathExactly) {
  const Tid tid = spawn_pinned(2'000'000'000, 0);
  const std::vector<const char*> events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  const int fast = started_set(*rdpmc_lib_, tid, events);
  const int slow = started_set(*fd_lib_, tid, events);
  kernel_.run_for(std::chrono::milliseconds(50));

  std::vector<papi::QualifiedReading> via_pages;
  std::vector<papi::QualifiedReading> via_fds;
  ASSERT_TRUE(rdpmc_lib_->read_qualified_into(fast, via_pages).is_ok());
  ASSERT_TRUE(fd_lib_->read_qualified_into(slow, via_fds).is_ok());
  ASSERT_EQ(via_pages.size(), 2u);
  for (std::size_t i = 0; i < via_pages.size(); ++i) {
    EXPECT_EQ(via_pages[i].total, via_fds[i].total);
    ASSERT_EQ(via_pages[i].parts.size(), via_fds[i].parts.size());
    for (std::size_t p = 0; p < via_pages[i].parts.size(); ++p) {
      EXPECT_EQ(via_pages[i].parts[p].value, via_fds[i].parts[p].value);
      EXPECT_EQ(via_pages[i].parts[p].core_type,
                via_fds[i].parts[p].core_type);
    }
  }
}

TEST_F(RdpmcPlanTest, MultiplexedScaledReadsUsePageTimes) {
  // Satellite regression: a page-served read of a multiplexed event
  // must apply the time_enabled/time_running scaling the fd path
  // applies — the user page publishes both. A fast path returning the
  // raw count would undercount rotated events by the rotation factor
  // (~3x here), far outside the multiplex estimation tolerance below.
  const Tid tid = spawn_pinned(30'000'000'000ULL, 0);
  const std::vector<const char*> events = {
      "adl_glc::LONGEST_LAT_CACHE:REFERENCE",
      "adl_glc::LONGEST_LAT_CACHE:MISS",
      "adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
      "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
      "adl_glc::RESOURCE_STALLS",
      "adl_glc::FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
      "adl_glc::INST_RETIRED:ANY",
      "adl_glc::CPU_CLK_UNHALTED:THREAD",
      "adl_glc::LONGEST_LAT_CACHE:REFERENCE",
      "adl_glc::BR_INST_RETIRED:ALL_BRANCHES",
      "adl_glc::INST_RETIRED:ANY",
      "adl_glc::CPU_CLK_UNHALTED:THREAD"};
  const int fast = started_set(*rdpmc_lib_, tid, events, /*multiplex=*/true);
  const int slow = started_set(*fd_lib_, tid, events, /*multiplex=*/true);
  kernel_.run_for(std::chrono::seconds(3));

  std::vector<long long> via_pages;
  std::vector<long long> via_fds;
  ASSERT_TRUE(rdpmc_lib_->read_into(fast, via_pages).is_ok());
  ASSERT_TRUE(fd_lib_->read_into(slow, via_fds).is_ok());
  ASSERT_EQ(via_pages.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double a = static_cast<double>(via_pages[i]);
    const double b = static_cast<double>(via_fds[i]);
    EXPECT_GT(a, 0.0) << events[i];
    // The twin sets rotate independently, so estimates (not raw
    // values) are compared, at the established multiplex tolerance.
    EXPECT_NEAR(a, b, 0.15 * b + 1000.0) << events[i];
  }
}

TEST_F(RdpmcPlanTest, PlanRebuiltAcrossAddAndRemove) {
  const Tid tid = spawn_pinned(4'000'000'000ULL, 0);
  const std::vector<const char*> events = {"adl_glc::INST_RETIRED:ANY"};
  const int fast = started_set(*rdpmc_lib_, tid, events);
  const int slow = started_set(*fd_lib_, tid, events);
  kernel_.run_for(std::chrono::milliseconds(10));
  std::vector<long long> via_pages;
  std::vector<long long> via_fds;
  ASSERT_TRUE(rdpmc_lib_->read_into(fast, via_pages).is_ok());

  // Grow the set: the cached plan must not survive the re-open.
  ASSERT_TRUE(rdpmc_lib_->stop(fast).has_value());
  ASSERT_TRUE(fd_lib_->stop(slow).has_value());
  ASSERT_TRUE(
      rdpmc_lib_->add_event(fast, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  ASSERT_TRUE(
      fd_lib_->add_event(slow, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  ASSERT_TRUE(rdpmc_lib_->start(fast).is_ok());
  ASSERT_TRUE(fd_lib_->start(slow).is_ok());
  kernel_.run_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(rdpmc_lib_->read_into(fast, via_pages).is_ok());
  ASSERT_TRUE(fd_lib_->read_into(slow, via_fds).is_ok());
  ASSERT_EQ(via_pages.size(), 2u);
  EXPECT_EQ(via_pages, via_fds);
  EXPECT_GT(via_pages[1], 0);

  // Shrink it again: one slot, still page-served, still exact.
  ASSERT_TRUE(rdpmc_lib_->stop(fast).has_value());
  ASSERT_TRUE(fd_lib_->stop(slow).has_value());
  ASSERT_TRUE(
      rdpmc_lib_->remove_event(fast, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(fd_lib_->remove_event(slow, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(rdpmc_lib_->start(fast).is_ok());
  ASSERT_TRUE(fd_lib_->start(slow).is_ok());
  kernel_.run_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(rdpmc_lib_->read_into(fast, via_pages).is_ok());
  ASSERT_TRUE(fd_lib_->read_into(slow, via_fds).is_ok());
  ASSERT_EQ(via_pages.size(), 1u);
  EXPECT_EQ(via_pages, via_fds);
}

TEST_F(RdpmcPlanTest, MigrationFallsBackToFdPath) {
  const Tid tid = spawn_pinned(4'000'000'000ULL, 0);
  const std::vector<const char*> events = {"adl_glc::INST_RETIRED:ANY",
                                           "adl_glc::CPU_CLK_UNHALTED:THREAD"};
  const int fast = started_set(*rdpmc_lib_, tid, events);
  const int slow = started_set(*fd_lib_, tid, events);
  kernel_.run_for(std::chrono::milliseconds(10));
  std::vector<long long> before;
  ASSERT_TRUE(rdpmc_lib_->read_into(fast, before).is_ok());
  EXPECT_GT(before[0], 0);

  // On an E core the cpu_core events are off-PMU: pages report
  // not-resident and reads must transparently come from the fds.
  ASSERT_TRUE(kernel_.set_affinity(tid, CpuSet::of({16})).is_ok());
  kernel_.run_for(std::chrono::milliseconds(10));
  std::vector<long long> via_pages;
  std::vector<long long> via_fds;
  ASSERT_TRUE(rdpmc_lib_->read_into(fast, via_pages).is_ok())
      << "migration must degrade to the fd path, not fail the read";
  ASSERT_TRUE(fd_lib_->read_into(slow, via_fds).is_ok());
  EXPECT_EQ(via_pages, via_fds);
  EXPECT_GE(via_pages[0], before[0]) << "count survives the migration";

  // Back on a P core the pages serve again, still agreeing.
  ASSERT_TRUE(kernel_.set_affinity(tid, CpuSet::of({0})).is_ok());
  kernel_.run_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(rdpmc_lib_->read_into(fast, via_pages).is_ok());
  ASSERT_TRUE(fd_lib_->read_into(slow, via_fds).is_ok());
  EXPECT_EQ(via_pages, via_fds);
}

// --- fault profiles: the plan under a hostile kernel (chaos CI shard) -------

TEST(FaultInjectionRdpmc, DeniedMmapsFallBackToFdsAndLeakNothing) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  FaultProfile profile;
  profile.name = "rdpmc-off";
  profile.rdpmc_unavailable = true;  // /sys/devices/cpu/rdpmc = 0
  FaultInjectingBackend injector(&backend, profile, /*seed=*/7);

  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 2'000'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);

  LibraryConfig config;
  config.use_rdpmc = true;  // asked for, denied, must degrade silently
  auto lib = Library::init(&injector, config);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
  ASSERT_TRUE((*lib)->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
  ASSERT_TRUE(
      (*lib)->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_for(std::chrono::milliseconds(20));

  std::vector<long long> values;
  ASSERT_TRUE((*lib)->read_into(*set, values).is_ok())
      << "fd fallback must serve the read";
  EXPECT_GT(values[0], 0);
  EXPECT_GT(values[1], 0);
  EXPECT_GT(injector.stats().mmaps_denied, 0u)
      << "the plan did try to map user pages";
  EXPECT_EQ(injector.stats().total_injected(), 0u)
      << "a denied mmap is a capability report, not an injected failure";

  ASSERT_TRUE((*lib)->stop(*set).has_value());
  ASSERT_TRUE((*lib)->destroy_eventset(*set).is_ok());
  lib->reset();
  EXPECT_EQ(injector.open_fd_count(), 0u) << "fd ledger clean at teardown";
}

TEST(FaultInjectionRdpmc, MixedProfileSoakLeaksNoFds) {
  // The rdpmc plan under the full failure mix (denied mmaps, flaky
  // opens, EINTR bursts, dying counters): reads may fail, values may
  // degrade, but nothing crashes and the fd ledger is empty after every
  // library teardown, for every seed.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SimKernel kernel(cpumodel::raptor_lake_i7_13700());
    SimBackend backend(&kernel);
    auto profile = FaultProfile::named("mixed");
    ASSERT_TRUE(profile.has_value());
    FaultInjectingBackend injector(&backend, *profile, seed);

    PhaseSpec phase;
    const Tid tid = kernel.spawn(
        std::make_shared<FixedWorkProgram>(phase, 2'000'000'000),
        CpuSet::of({0}));
    backend.set_default_target(tid);

    LibraryConfig config;
    config.use_rdpmc = true;
    {
      auto lib = Library::init(&injector, config);
      if (lib.has_value()) {
        auto set = (*lib)->create_eventset();
        ASSERT_TRUE(set.has_value());
        (void)(*lib)->attach(*set, tid);
        for (const char* event :
             {"PAPI_TOT_INS", "PAPI_TOT_CYC", "PAPI_BR_INS"}) {
          (void)(*lib)->add_event(*set, event);
        }
        (void)(*lib)->start(*set);
        std::vector<long long> values;
        std::vector<std::uint8_t> degraded;
        for (int step = 0; step < 6; ++step) {
          kernel.run_for(std::chrono::milliseconds(10));
          (void)(*lib)->read_into(*set, values);
          (void)(*lib)->read_into(*set, values, &degraded);
        }
        (void)(*lib)->stop(*set);
        (void)(*lib)->destroy_eventset(*set);
      }
    }
    EXPECT_EQ(injector.open_fd_count(), 0u)
        << "seed " << seed << " leaked " << injector.open_fd_count()
        << " fd(s)";
  }
}

TEST(FaultInjectionRdpmc, StaleFdProfileDegradesWithoutLeaking) {
  // rdpmc off + counters dying mid-run: strict reads may fail, but
  // a tolerant read_into keeps collecting with degraded slots, and teardown
  // closes every fd the injector ever handed out.
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  auto profile = FaultProfile::named("stale-fd");
  ASSERT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&backend, *profile, /*seed=*/11);

  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 2'000'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);

  LibraryConfig config;
  config.use_rdpmc = true;
  {
    auto lib = Library::init(&injector, config);
    ASSERT_TRUE(lib.has_value());
    auto set = (*lib)->create_eventset();
    ASSERT_TRUE(set.has_value());
    ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
    ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
    ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_CYC").is_ok());
    if ((*lib)->start(*set).is_ok()) {
      std::vector<long long> values;
      std::vector<std::uint8_t> degraded;
      for (int step = 0; step < 20; ++step) {
        kernel.run_for(std::chrono::milliseconds(5));
        if ((*lib)->read_into(*set, values, &degraded).is_ok()) {
          ASSERT_EQ(values.size(), 2u);
          ASSERT_EQ(degraded.size(), 2u);
          for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_GE(values[i], 0) << "no garbage values";
          }
        }
      }
    }
    EXPECT_GT(injector.stats().mmaps_denied, 0u);
  }
  EXPECT_EQ(injector.open_fd_count(), 0u);
}

}  // namespace
}  // namespace hetpapi
