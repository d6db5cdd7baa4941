// Wall-time guards, each a ratio between twins timed in one process so
// the bound ties to the code, not the host: the rdpmc read plan costs at
// most 1.5x the read(2) path it replaces, and a counter-service rider's
// take_samples() p99 stays within 2x the same-spec/64 cell in every
// load-table cell of 64+ clients. Both sides of a ratio are measured in
// interleaved rounds and compared by their medians. The suite runs
// RUN_SERIAL, so parallel ctest neighbours cannot load one side of a
// pair, and skips in sanitizer builds, which distort these costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

#include "load_cell.hpp"

namespace hetpapi {
namespace {

using papi::Library;
using papi::LibraryConfig;

class CostGuard : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef HETPAPI_SANITIZED
    GTEST_SKIP() << "wall-time ratios are not meaningful under sanitizers";
#endif
  }
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median wall ns per call of `fast` and of `slow`, over rounds of
/// kCalls calls each; which side goes first alternates by round.
template <typename Fast, typename Slow>
std::pair<double, double> paired_median_ns(Fast fast, Slow slow) {
  constexpr int kRounds = 21;
  constexpr int kCalls = 4000;
  const auto ns_per_call = [](auto& call) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kCalls; ++i) call();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
               .count() /
           kCalls;
  };
  std::vector<double> fast_ns;
  std::vector<double> slow_ns;
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) fast_ns.push_back(ns_per_call(fast));
    slow_ns.push_back(ns_per_call(slow));
    if (round % 2 != 0) fast_ns.push_back(ns_per_call(fast));
  }
  return {median(fast_ns), median(slow_ns)};
}

// --- rdpmc read plan vs read(2) ------------------------------------------------

/// An EventSet of `events` on a thread pinned to cpu 0 of `machine`,
/// started and run for 50 ms, read through the rdpmc plan or through
/// read(2). The sim is deterministic and the caliper overhead zero, so
/// twins that differ only in `use_rdpmc` read equal values.
struct ReadFixture {
  ReadFixture(const char* machine, const std::vector<const char*>& events,
              bool use_rdpmc)
      : kernel(*cpumodel::machine_preset_by_name(machine)), backend(&kernel) {
    backend.set_default_target(kernel.spawn(
        std::make_shared<workload::FixedWorkProgram>(workload::PhaseSpec{},
                                                     1'000'000'000'000ULL),
        simkernel::CpuSet::of({0})));
    LibraryConfig config;
    config.use_rdpmc = use_rdpmc;
    config.call_overhead_instructions = 0;  // measuring, not modelling
    auto created = Library::init(&backend, config);
    EXPECT_TRUE(created.has_value()) << created.status().to_string();
    lib = std::move(*created);
    set = *lib->create_eventset();
    for (const char* event : events) {
      EXPECT_TRUE(lib->add_event(set, event).is_ok()) << event;
    }
    EXPECT_TRUE(lib->start(set).is_ok());
    kernel.run_for(std::chrono::milliseconds(50));
  }

  simkernel::SimKernel kernel;
  papi::SimBackend backend;
  std::unique_ptr<Library> lib;
  int set = -1;
  std::vector<long long> values;
};

/// Times read() (or read_into() when `into`) on rdpmc and fd twins and
/// expects the rdpmc side within 1.5x of the fd side: the guard is
/// against the fast path regressing past read(2), not against jitter.
void expect_rdpmc_keeps_up(const char* machine,
                           const std::vector<const char*>& events, bool into) {
  ReadFixture rdpmc(machine, events, /*use_rdpmc=*/true);
  ReadFixture fd(machine, events, /*use_rdpmc=*/false);
  bool ok = true;
  const auto reader = [&ok, into](ReadFixture& f) {
    return [&ok, into, &f] {
      if (into) {
        ok = f.lib->read_into(f.set, f.values).is_ok() && ok;
        return;
      }
      auto values = f.lib->read(f.set);
      ok = values.has_value() && ok;
      if (values.has_value()) f.values = std::move(*values);
    };
  };
  const auto [rdpmc_ns, fd_ns] = paired_median_ns(reader(rdpmc), reader(fd));
  EXPECT_TRUE(ok);
  EXPECT_EQ(rdpmc.values, fd.values);
  EXPECT_LE(rdpmc_ns, 1.5 * fd_ns)
      << "rdpmc " << rdpmc_ns << " ns/read vs fd " << fd_ns << " ns/read";
}

TEST_F(CostGuard, RdpmcSingletonReadKeepsUpWithFd) {
  expect_rdpmc_keeps_up("raptorlake", {"adl_glc::INST_RETIRED:ANY"},
                        /*into=*/false);
}

TEST_F(CostGuard, RdpmcHybridReadIntoKeepsUpWithFd) {
  expect_rdpmc_keeps_up("raptorlake",
                        {"adl_glc::INST_RETIRED:ANY",
                         "adl_grt::INST_RETIRED:ANY",
                         "adl_glc::CPU_CLK_UNHALTED:THREAD",
                         "adl_grt::CPU_CLK_UNHALTED:THREAD"},
                        /*into=*/true);
}

TEST_F(CostGuard, RdpmcTriHybridReadIntoKeepsUpWithFd) {
  expect_rdpmc_keeps_up("meteorlake",
                        {"mtl_rwc::INST_RETIRED:ANY",
                         "mtl_cmt::INST_RETIRED:ANY",
                         "mtl_lpe::INST_RETIRED:ANY"},
                        /*into=*/true);
}

// --- counter-service rider latency ---------------------------------------------

TEST_F(CostGuard, RiderSampleP99StaysFlatAsClientsAndShardsScale) {
  // Every cell of 64+ clients lives at once, and each round runs every
  // cell's 40 ticks in turn, so all cells see the same host conditions.
  // Four encode threads over two base shards, the busiest setting of
  // the exact-count table.
  constexpr int kRounds = 3;
  std::vector<std::unique_ptr<ServiceLoadCell>> cells;
  for (const LoadCellSpec& spec : load_table(2)) {
    if (spec.clients >= 64) {
      cells.push_back(std::make_unique<ServiceLoadCell>(spec, 4));
    }
  }
  ASSERT_EQ(cells.front()->spec().label, "same-spec/64");
  std::vector<std::vector<double>> p99_us(cells.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::vector<double> latencies_us;
      cells[i]->run(ServiceLoadCell::kTicks, &latencies_us);
      std::sort(latencies_us.begin(), latencies_us.end());
      p99_us[i].push_back(latencies_us[(latencies_us.size() - 1) * 99 / 100]);
    }
  }
  const double baseline_us = median(p99_us[0]);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    EXPECT_LE(median(p99_us[i]), 2.0 * baseline_us)
        << cells[i]->spec().label << " vs same-spec/64 p99 " << baseline_us
        << " us";
  }
  for (auto& cell : cells) EXPECT_EQ(cell->shutdown(), 0u);
}

}  // namespace
}  // namespace hetpapi
