// LIKWID-style marker API (§V-5): per-region counter deltas must match
// what direct reads bracket, regions nest LIFO, and per-thread
// accumulators merge in report().
#include <gtest/gtest.h>

#include <thread>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/marker.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::Library;
using papi::LibraryConfig;
using papi::MarkerManager;
using papi::RegionStats;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

std::uint64_t sim_clock(void* kernel) {
  return static_cast<std::uint64_t>(
      static_cast<SimKernel*>(kernel)->now().since_epoch.count());
}

const RegionStats* find_region(const std::vector<RegionStats>& regions,
                               std::string_view name) {
  for (const RegionStats& r : regions) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

class MarkerTest : public ::testing::Test {
 protected:
  MarkerTest() : kernel_(cpumodel::raptor_lake_i7_13700()), backend_(&kernel_) {
    // No caliper overhead: marker reads must not perturb the counts the
    // delta assertions compare against.
    LibraryConfig config;
    config.call_overhead_instructions = 0;
    config.use_rdpmc = true;  // the path the marker hot loop is built for
    auto lib = Library::init(&backend_, config);
    EXPECT_TRUE(lib.has_value()) << lib.status().to_string();
    lib_ = std::move(*lib);
  }

  /// A started two-event set following `tid`.
  int make_started_set(Tid tid) {
    auto set = lib_->create_eventset();
    EXPECT_TRUE(set.has_value());
    EXPECT_TRUE(lib_->attach(*set, tid).is_ok());
    EXPECT_TRUE(lib_->add_event(*set, "adl_glc::INST_RETIRED:ANY").is_ok());
    EXPECT_TRUE(
        lib_->add_event(*set, "adl_glc::CPU_CLK_UNHALTED:THREAD").is_ok());
    EXPECT_TRUE(lib_->start(*set).is_ok());
    return *set;
  }

  Tid spawn_pinned(std::uint64_t instructions, int cpu) {
    PhaseSpec phase;
    const Tid tid = kernel_.spawn(
        std::make_shared<FixedWorkProgram>(phase, instructions),
        CpuSet::of({cpu}));
    backend_.set_default_target(tid);
    return tid;
  }

  SimKernel kernel_;
  papi::SimBackend backend_;
  std::unique_ptr<Library> lib_;
};

TEST_F(MarkerTest, RegionDeltasMatchBracketingReads) {
  const Tid tid = spawn_pinned(500'000'000, 0);
  const int set = make_started_set(tid);

  MarkerManager markers;
  markers.set_time_source(&sim_clock, &kernel_);
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());

  std::vector<long long> before;
  ASSERT_TRUE(lib_->read_into(set, before).is_ok());
  ASSERT_TRUE(markers.region_begin("work").is_ok());
  kernel_.run_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(markers.region_end("work").is_ok());
  std::vector<long long> after;
  ASSERT_TRUE(lib_->read_into(set, after).is_ok());

  const auto regions = markers.report();
  const RegionStats* work = find_region(regions, "work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->entries, 1u);
  EXPECT_EQ(work->time, 10'000'000u) << "sim clock: exactly the run_for span";
  ASSERT_EQ(work->totals.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(work->totals[i], after[i] - before[i])
        << "slot " << i << ": marker delta must equal the bracketing reads";
    EXPECT_GT(work->totals[i], 0);
  }
}

TEST_F(MarkerTest, NestedRegionsAccountInnerInsideOuter) {
  const Tid tid = spawn_pinned(800'000'000, 0);
  const int set = make_started_set(tid);

  MarkerManager markers;
  markers.set_time_source(&sim_clock, &kernel_);
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());

  ASSERT_TRUE(markers.region_begin("outer").is_ok());
  kernel_.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(markers.region_begin("inner").is_ok());
  kernel_.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(markers.region_end("inner").is_ok());
  kernel_.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(markers.region_end("outer").is_ok());

  const auto regions = markers.report();
  const RegionStats* outer = find_region(regions, "outer");
  const RegionStats* inner = find_region(regions, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->entries, 1u);
  EXPECT_EQ(inner->entries, 1u);
  EXPECT_EQ(outer->time, 15'000'000u);
  EXPECT_EQ(inner->time, 5'000'000u);
  ASSERT_EQ(outer->totals.size(), inner->totals.size());
  for (std::size_t i = 0; i < outer->totals.size(); ++i) {
    EXPECT_GT(inner->totals[i], 0);
    EXPECT_GT(outer->totals[i], inner->totals[i])
        << "outer brackets inner plus extra work";
  }
}

TEST_F(MarkerTest, EndingOuterImplicitlyClosesInnerLifo) {
  const Tid tid = spawn_pinned(500'000'000, 0);
  const int set = make_started_set(tid);

  MarkerManager markers;
  markers.set_time_source(&sim_clock, &kernel_);
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());

  ASSERT_TRUE(markers.region_begin("outer").is_ok());
  ASSERT_TRUE(markers.region_begin("inner").is_ok());
  kernel_.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(markers.region_end("outer").is_ok())
      << "ending the outer region subsumes the open inner one";

  const auto regions = markers.report();
  const RegionStats* outer = find_region(regions, "outer");
  const RegionStats* inner = find_region(regions, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->entries, 1u);
  EXPECT_EQ(inner->entries, 1u) << "implicitly closed, still accounted";

  // Both frames are closed: ending either name again is an error.
  EXPECT_FALSE(markers.region_end("inner").is_ok());
  EXPECT_FALSE(markers.region_end("outer").is_ok());
}

TEST_F(MarkerTest, UnmatchedEndIsAnError) {
  const Tid tid = spawn_pinned(1'000'000, 0);
  const int set = make_started_set(tid);
  MarkerManager markers;
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());
  const Status status = markers.region_end("never-begun");
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(MarkerTest, UnattachedThreadIsAnError) {
  MarkerManager markers;
  EXPECT_FALSE(markers.region_begin("r").is_ok());
  EXPECT_FALSE(markers.region_end("r").is_ok());
  EXPECT_FALSE(markers.detach_thread().is_ok());
}

TEST_F(MarkerTest, NestingDeeperThanLimitIsAnError) {
  const Tid tid = spawn_pinned(1'000'000, 0);
  const int set = make_started_set(tid);
  MarkerManager markers;
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());
  for (int depth = 0; depth < papi::kMaxMarkerDepth; ++depth) {
    ASSERT_TRUE(markers.region_begin("level-" + std::to_string(depth)).is_ok())
        << "depth " << depth;
  }
  const Status status = markers.region_begin("one-too-deep");
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST_F(MarkerTest, ReportMergesThreads) {
  const Tid tid = spawn_pinned(800'000'000, 0);
  const int set = make_started_set(tid);

  MarkerManager markers;
  markers.set_time_source(&sim_clock, &kernel_);

  // Two measuring threads, run back to back (the single-threaded sim
  // kernel advances between them); each brackets the shared "both"
  // region once, and one adds a private region.
  auto run_thread = [&](bool add_private) {
    std::thread worker([&] {
      ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());
      ASSERT_TRUE(markers.region_begin("both").is_ok());
      if (add_private) {
        ASSERT_TRUE(markers.region_begin("private").is_ok());
      }
      kernel_.run_for(std::chrono::milliseconds(5));
      if (add_private) {
        ASSERT_TRUE(markers.region_end("private").is_ok());
      }
      ASSERT_TRUE(markers.region_end("both").is_ok());
      ASSERT_TRUE(markers.detach_thread().is_ok());
    });
    worker.join();
  };
  run_thread(true);
  run_thread(false);

  const auto regions = markers.report();
  const RegionStats* both = find_region(regions, "both");
  const RegionStats* priv = find_region(regions, "private");
  ASSERT_NE(both, nullptr);
  ASSERT_NE(priv, nullptr);
  EXPECT_EQ(both->entries, 2u) << "one entry per thread, merged by name";
  EXPECT_EQ(priv->entries, 1u);
  EXPECT_EQ(both->time, 10'000'000u);
  for (const long long total : both->totals) EXPECT_GT(total, 0);
}

TEST_F(MarkerTest, ResetClearsStatsKeepsRegions) {
  const Tid tid = spawn_pinned(500'000'000, 0);
  const int set = make_started_set(tid);
  MarkerManager markers;
  markers.set_time_source(&sim_clock, &kernel_);
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());

  ASSERT_TRUE(markers.region_begin("r").is_ok());
  kernel_.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(markers.region_end("r").is_ok());
  markers.reset();

  auto regions = markers.report();
  const RegionStats* r = find_region(regions, "r");
  ASSERT_NE(r, nullptr) << "region names survive reset";
  EXPECT_EQ(r->entries, 0u);
  EXPECT_EQ(r->time, 0u);
  for (const long long total : r->totals) EXPECT_EQ(total, 0);

  // The region accumulates again after reset.
  ASSERT_TRUE(markers.region_begin("r").is_ok());
  kernel_.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(markers.region_end("r").is_ok());
  regions = markers.report();
  r = find_region(regions, "r");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->entries, 1u);
  EXPECT_EQ(r->time, 5'000'000u);
}

TEST_F(MarkerTest, DetachDiscardsOpenFrames) {
  const Tid tid = spawn_pinned(500'000'000, 0);
  const int set = make_started_set(tid);
  MarkerManager markers;
  markers.set_time_source(&sim_clock, &kernel_);
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());

  ASSERT_TRUE(markers.region_begin("abandoned").is_ok());
  kernel_.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(markers.detach_thread().is_ok());

  const auto regions = markers.report();
  const RegionStats* abandoned = find_region(regions, "abandoned");
  ASSERT_NE(abandoned, nullptr);
  EXPECT_EQ(abandoned->entries, 0u) << "open frame dropped, not accumulated";
  EXPECT_EQ(abandoned->time, 0u);

  // Re-attaching starts clean: the old frame cannot be ended.
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());
  EXPECT_FALSE(markers.region_end("abandoned").is_ok());
}

TEST_F(MarkerTest, CustomTimeSourceUnitsArePreserved) {
  const Tid tid = spawn_pinned(1'000'000, 0);
  const int set = make_started_set(tid);
  MarkerManager markers;
  // A fake clock that advances 7 units per observation.
  std::uint64_t ticks = 0;
  markers.set_time_source(
      +[](void* ctx) {
        auto* t = static_cast<std::uint64_t*>(ctx);
        return *t += 7;
      },
      &ticks);
  ASSERT_TRUE(markers.attach_thread(lib_.get(), set).is_ok());
  ASSERT_TRUE(markers.region_begin("r").is_ok());  // t0 = 7
  ASSERT_TRUE(markers.region_end("r").is_ok());    // t1 = 14
  const auto regions = markers.report();
  const RegionStats* r = find_region(regions, "r");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->time, 7u);
}

}  // namespace
}  // namespace hetpapi
