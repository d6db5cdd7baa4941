// Property tests for the figures' physical claims, at reduced problem
// sizes: the telemetry of a monitored run must show the behaviours the
// paper's plots show, for every variant and machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cpumodel/machine.hpp"
#include "simkernel/kernel.hpp"
#include "telemetry/monitor.hpp"
#include "workload/hpl.hpp"

namespace hetpapi {
namespace workload {

// Print a variant by its BLAS flavour, not as raw bytes, so the
// registered ctest names carry no byte dump.
void PrintTo(HplVariant variant, std::ostream* os) {
  *os << (variant == HplVariant::kVendorDynamic ? "intel" : "openblas");
}

}  // namespace workload

namespace {

using simkernel::SimKernel;
using telemetry::MonitorConfig;
using telemetry::RunResult;
using telemetry::Sample;

SimKernel::Config fast_kernel() {
  SimKernel::Config config;
  config.tick = std::chrono::milliseconds(1);
  return config;
}

class RaptorFigureTest : public ::testing::TestWithParam<workload::HplVariant> {
 protected:
  RunResult run_all_core(int n) {
    const auto machine = cpumodel::raptor_lake_i7_13700();
    SimKernel kernel(machine, fast_kernel());
    std::vector<int> cpus = machine.primary_threads_of_type(0);
    const auto e = machine.cpus_of_type(1);
    cpus.insert(cpus.end(), e.begin(), e.end());
    const auto config = GetParam() == workload::HplVariant::kVendorDynamic
                            ? workload::HplConfig::intel(n, 192)
                            : workload::HplConfig::openblas(n, 192);
    return run_monitored_hpl(kernel, config, cpus, MonitorConfig{});
  }
};

TEST_P(RaptorFigureTest, PowerSpikesThenSettlesAtPl1NeverAbovePl2) {
  // Figure 2's claims: an initial burst above PL1, a steady state ON
  // PL1, and nothing above PL2.
  const RunResult run = run_all_core(43008);
  const double total_s =
      std::chrono::duration<double>(run.elapsed).count();
  double peak = 0.0;
  std::vector<double> steady;
  for (const Sample& sample : run.samples) {
    if (std::isnan(sample.package_power_w) || sample.t_seconds <= 1.0) {
      continue;
    }
    peak = std::max(peak, sample.package_power_w);
    ASSERT_LT(sample.package_power_w, 219.0 * 1.03)
        << "PL2 is a hard ceiling (t=" << sample.t_seconds << ")";
    if (sample.t_seconds > 0.5 * total_s && sample.t_seconds < total_s) {
      steady.push_back(sample.package_power_w);
    }
  }
  EXPECT_GT(peak, 80.0) << "the cold-window burst exceeds PL1";
  ASSERT_FALSE(steady.empty());
  double steady_avg = 0.0;
  for (double w : steady) steady_avg += w;
  steady_avg /= static_cast<double>(steady.size());
  EXPECT_NEAR(steady_avg, 65.0, 5.0) << "steady state rides PL1";
}

TEST_P(RaptorFigureTest, TemperatureStaysFarBelowTheJunctionLimit) {
  const RunResult run = run_all_core(30720);
  for (const Sample& sample : run.samples) {
    ASSERT_LT(sample.package_temp_c, 100.0);
  }
}

TEST_P(RaptorFigureTest, FrequenciesSpikeEarlyThenDrop) {
  // Figure 1's envelope: the early P-core frequency (burst) exceeds the
  // late steady frequency.
  const RunResult run = run_all_core(43008);
  const double total_s =
      std::chrono::duration<double>(run.elapsed).count();
  double early = 0.0;
  std::vector<double> late;
  for (const Sample& sample : run.samples) {
    if (sample.t_seconds < 1.0) continue;
    if (sample.t_seconds < 10.0) {
      early = std::max(early, sample.core_freq_mhz[0]);
    } else if (sample.t_seconds > 0.6 * total_s &&
               sample.t_seconds < total_s &&
               sample.core_freq_mhz[0] > 1000.0) {
      late.push_back(sample.core_freq_mhz[0]);
    }
  }
  ASSERT_FALSE(late.empty());
  std::sort(late.begin(), late.end());
  const double late_median = late[late.size() / 2];
  EXPECT_GT(early, late_median + 300.0)
      << "burst frequency clearly above the PL1 steady state";
}

INSTANTIATE_TEST_SUITE_P(
    BothVariants, RaptorFigureTest,
    ::testing::Values(workload::HplVariant::kReferenceStatic,
                      workload::HplVariant::kVendorDynamic));

TEST(OrangePiFigure, BigClusterThrottlesWhileLittleHolds) {
  // Figure 3's claims at reduced N: the big cores start at ~1.8 GHz,
  // throttle within a minute, and end far below max; the LITTLE cores
  // hold their max throughout.
  const auto machine = cpumodel::orangepi800_rk3399();
  SimKernel kernel(machine, fast_kernel());
  const RunResult run =
      run_monitored_hpl(kernel, workload::HplConfig::openblas(13312, 128),
                        {0, 1, 2, 3, 4, 5}, MonitorConfig{});
  double big_early = 0.0;
  std::vector<double> big_late;
  double little_min = 1e9;
  const double total_s =
      std::chrono::duration<double>(run.elapsed).count();
  for (const Sample& sample : run.samples) {
    if (sample.t_seconds < 1.0 || sample.t_seconds >= total_s) continue;
    big_early = std::max(big_early, sample.core_freq_mhz[4]);
    if (sample.t_seconds > 0.6 * total_s) {
      big_late.push_back(sample.core_freq_mhz[4]);
    }
    little_min = std::min(little_min, sample.core_freq_mhz[0]);
  }
  EXPECT_GT(big_early, 1700.0) << "big cores ramp to ~fmax first";
  ASSERT_FALSE(big_late.empty());
  std::sort(big_late.begin(), big_late.end());
  EXPECT_LT(big_late[big_late.size() / 2], 900.0)
      << "late-run big cores sit far below fmax";
  EXPECT_GT(little_min, 1300.0) << "LITTLE cores never throttle";
}

}  // namespace
}  // namespace hetpapi
