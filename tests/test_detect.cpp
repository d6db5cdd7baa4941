// The §IV-B detection ladder: each strategy succeeds on the machines
// that provide its data source, fails cleanly elsewhere, and the ladder
// as a whole degrades in the documented order when sources are removed.
#include <gtest/gtest.h>

#include "cpumodel/machine.hpp"
#include "papi/detect.hpp"
#include "pfm/sim_host.hpp"
#include "simkernel/kernel.hpp"

namespace hetpapi {
namespace cpumodel {

// Print a preset as its name, not its raw bytes (which hold heap
// addresses), so the registered ctest names are stable.
void PrintTo(const MachineSpec& machine, std::ostream* os) {
  *os << machine.name;
}

}  // namespace cpumodel

namespace papi {
namespace {

using simkernel::SimKernel;

/// Host wrapper that hides selected paths / the CPUID leaf, to defeat
/// individual detection strategies.
class FilteredHost final : public pfm::Host {
 public:
  explicit FilteredHost(const pfm::Host* inner) : inner_(inner) {}

  std::vector<std::string> hidden_substrings;
  bool hide_cpuid = false;

  Expected<std::string> read_file(std::string_view path) const override {
    if (hidden(path)) {
      return make_error(StatusCode::kNotFound, "hidden by test");
    }
    return inner_->read_file(path);
  }
  Expected<std::vector<std::string>> list_dir(
      std::string_view path) const override {
    if (hidden(path)) {
      return make_error(StatusCode::kNotFound, "hidden by test");
    }
    return inner_->list_dir(path);
  }
  Expected<cpumodel::IntelCoreKind> cpuid_core_kind(int cpu) const override {
    if (hide_cpuid) {
      return make_error(StatusCode::kNotSupported, "hidden by test");
    }
    return inner_->cpuid_core_kind(cpu);
  }
  int num_cpus() const override { return inner_->num_cpus(); }

 private:
  bool hidden(std::string_view path) const {
    for (const std::string& fragment : hidden_substrings) {
      if (path.find(fragment) != std::string_view::npos) return true;
    }
    return false;
  }
  const pfm::Host* inner_;
};

TEST(Detect, OrangePiUsesCpuCapacity) {
  SimKernel kernel(cpumodel::orangepi800_rk3399());
  pfm::SimHost host(&kernel);
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kCpuCapacity);
  ASSERT_EQ(result.core_types.size(), 2u);
  // Highest capacity first: the A72 pair.
  EXPECT_EQ(result.core_types[0].cpus, (std::vector<int>{4, 5}));
  EXPECT_EQ(result.core_types[0].discriminator, 1024);
  EXPECT_EQ(result.core_types[1].cpus, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Detect, RaptorLakeUsesCpuidLeaf) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  pfm::SimHost host(&kernel);
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kCpuidHybridLeaf);
  ASSERT_EQ(result.core_types.size(), 2u);
  EXPECT_EQ(result.core_types[0].label, "intel_core");
  EXPECT_EQ(result.core_types[0].cpus.size(), 16u);
  EXPECT_EQ(result.core_types[1].label, "intel_atom");
  EXPECT_EQ(result.core_types[1].cpus.size(), 8u);
}

TEST(Detect, RaptorLakeFallsBackToPmuCpusFilesWithoutCpuid) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  pfm::SimHost inner(&kernel);
  FilteredHost host(&inner);
  host.hide_cpuid = true;
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kPmuCpusFiles);
  ASSERT_EQ(result.core_types.size(), 2u);
  // Labels come from the PMU directory names.
  EXPECT_TRUE(result.core_types[0].label == "cpu_core" ||
              result.core_types[1].label == "cpu_core");
}

TEST(Detect, FallsBackToMaxFreqWhenPmuFilesAlsoHidden) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  pfm::SimHost inner(&kernel);
  FilteredHost host(&inner);
  host.hide_cpuid = true;
  host.hidden_substrings = {"/cpus"};  // hides the PMU cpus files
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kMaxFrequency);
  ASSERT_EQ(result.core_types.size(), 2u);
  EXPECT_EQ(result.core_types[0].discriminator, 5100000)
      << "P cores ranked first by max freq (kHz)";
}

TEST(Detect, HomogeneousFallbackWhenNothingDiscriminates) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  pfm::SimHost inner(&kernel);
  FilteredHost host(&inner);
  host.hide_cpuid = true;
  host.hidden_substrings = {"/cpus", "cpufreq"};
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kHomogeneousFallback);
  ASSERT_EQ(result.core_types.size(), 1u);
  EXPECT_EQ(result.core_types[0].cpus.size(), 24u);
}

TEST(Detect, HomogeneousXeonDetectsOneType) {
  SimKernel kernel(cpumodel::homogeneous_xeon());
  pfm::SimHost host(&kernel);
  const DetectionResult result = detect_core_types(host);
  EXPECT_FALSE(result.hybrid());
  // Leaf 0x1A reads zero on this part, cpu_capacity absent, one PMU, one
  // frequency: falls all the way through.
  EXPECT_EQ(result.method, DetectionMethod::kHomogeneousFallback);
}

TEST(Detect, ThreeTypeMachineYieldsThreeGroups) {
  SimKernel kernel(cpumodel::arm_three_type());
  pfm::SimHost host(&kernel);
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kCpuCapacity);
  ASSERT_EQ(result.core_types.size(), 3u);
  // The 250/512/1024-style split the paper mentions, ranked descending.
  EXPECT_EQ(result.core_types[0].discriminator, 1024);
  EXPECT_EQ(result.core_types[1].discriminator, 512);
  EXPECT_EQ(result.core_types[2].discriminator, 250);
}

TEST(Detect, IndividualStrategiesReportAbsentSources) {
  SimKernel intel(cpumodel::raptor_lake_i7_13700());
  pfm::SimHost intel_host(&intel);
  EXPECT_FALSE(detect_by_cpu_capacity(intel_host).has_value())
      << "x86 exposes no cpu_capacity";

  SimKernel arm(cpumodel::orangepi800_rk3399());
  pfm::SimHost arm_host(&arm);
  EXPECT_FALSE(detect_by_cpuid(arm_host).has_value()) << "no CPUID on ARM";
  EXPECT_TRUE(detect_by_cpu_capacity(arm_host).has_value());
  EXPECT_TRUE(detect_by_pmu_cpus(arm_host).has_value());
  EXPECT_TRUE(detect_by_max_freq(arm_host).has_value());
}

TEST(Detect, PmuCpusStrategyRequiresFullCoverage) {
  // Build a host where one PMU's cpus file is hidden: coverage is
  // incomplete and the strategy must refuse to answer.
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  pfm::SimHost inner(&kernel);
  FilteredHost host(&inner);
  host.hidden_substrings = {"cpu_atom/cpus"};
  EXPECT_FALSE(detect_by_pmu_cpus(host).has_value());
}

// --- CPUID + PMU-topology refinement (the LP-E ambiguity) -------------------

TEST(Detect, MeteorLakeRefinesCpuidGroupsAlongPmuBoundaries) {
  // CPUID leaf 0x1A reads 0x20 on both the E-cores and the LP-E island,
  // so the leaf alone finds two groups; the kernel exports three core
  // PMUs whose cpu lists nest inside them, and the refinement rung
  // splits the atom group accordingly.
  SimKernel kernel(cpumodel::meteor_lake_like());
  pfm::SimHost host(&kernel);
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kCpuidPmuRefined);
  EXPECT_EQ(to_string(result.method), "cpuid_leaf_1a+pmu_cpus");
  ASSERT_EQ(result.core_types.size(), 3u);
  EXPECT_EQ(result.core_types[0].label, "intel_core");
  EXPECT_EQ(result.core_types[0].cpus.size(), 12u);
  EXPECT_EQ(result.core_types[1].label, "intel_atom");
  EXPECT_EQ(result.core_types[1].cpus.size(), 8u);
  EXPECT_EQ(result.core_types[2].label, "intel_lowpower");
  EXPECT_EQ(result.core_types[2].cpus, (std::vector<int>{20, 21}));
  // Refined groups keep the CPUID discriminator of their parent: both
  // atom-ish groups carry the shared core-kind byte.
  EXPECT_EQ(result.core_types[1].discriminator,
            result.core_types[2].discriminator);
}

TEST(Detect, MeteorLakeWithoutPmuCpusFallsBackToTwoCpuidGroups) {
  // Hiding the PMU cpus files removes the refinement data; the ladder
  // degrades to the bare CPUID answer, where E and LP-E are one group —
  // exactly the ambiguity the refinement exists to resolve.
  SimKernel kernel(cpumodel::meteor_lake_like());
  pfm::SimHost inner(&kernel);
  FilteredHost host(&inner);
  host.hidden_substrings = {"/cpus"};
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kCpuidHybridLeaf);
  ASSERT_EQ(result.core_types.size(), 2u);
  EXPECT_EQ(result.core_types[0].label, "intel_core");
  EXPECT_EQ(result.core_types[1].label, "intel_atom");
  EXPECT_EQ(result.core_types[1].cpus.size(), 10u)
      << "E and LP-E cpus collapse into one CPUID group";
}

TEST(Detect, RaptorLakeDoesNotClaimRefinementWithoutExtraPmus) {
  // Two CPUID groups and two core PMUs: the refinement rung must stay
  // silent so the reported method (and every golden report) is the
  // plain CPUID leaf.
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  pfm::SimHost host(&kernel);
  const auto cpuid = detect_by_cpuid(host);
  ASSERT_TRUE(cpuid.has_value());
  EXPECT_FALSE(refine_cpuid_with_pmu_topology(host, *cpuid).has_value());
  EXPECT_EQ(detect_core_types(host).method,
            DetectionMethod::kCpuidHybridLeaf);
}

TEST(Detect, DynamiqUsesCpuCapacityForThreeArmTypes) {
  SimKernel kernel(cpumodel::arm_dynamiq());
  pfm::SimHost host(&kernel);
  const DetectionResult result = detect_core_types(host);
  EXPECT_EQ(result.method, DetectionMethod::kCpuCapacity);
  ASSERT_EQ(result.core_types.size(), 3u);
  EXPECT_EQ(result.core_types[0].discriminator, 1024);
  EXPECT_EQ(result.core_types[0].cpus, (std::vector<int>{7}));
  EXPECT_EQ(result.core_types[1].discriminator, 744);
  EXPECT_EQ(result.core_types[2].discriminator, 286);
  EXPECT_EQ(result.core_types[2].cpus, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Detect, UnknownCoreKindGetsDeterministicVendorLabel) {
  EXPECT_EQ(core_kind_label("intel", 0x40), "intel_core");
  EXPECT_EQ(core_kind_label("intel", 0x20), "intel_atom");
  EXPECT_EQ(core_kind_label("intel", 0x33), "intel_kind_0x33");
  EXPECT_EQ(core_kind_label("amd", 0x40), "amd_kind_0x40")
      << "the 0x40/0x20 table entries are Intel-specific";
  EXPECT_EQ(pmu_sysfs_label("cpu_core"), "intel_core");
  EXPECT_EQ(pmu_sysfs_label("cpu_atom"), "intel_atom");
  EXPECT_EQ(pmu_sysfs_label("cpu_lowpower"), "intel_lowpower");
  EXPECT_EQ(pmu_sysfs_label("cpu_mystery"), "cpu_mystery");
}

class HardwareInfoTest
    : public ::testing::TestWithParam<cpumodel::MachineSpec> {};

TEST_P(HardwareInfoTest, ReportsCpuCountHybridFlagAndModel) {
  SimKernel kernel(GetParam());
  pfm::SimHost host(&kernel);
  const auto info = get_hardware_info(host);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->total_cpus, GetParam().num_cpus());
  EXPECT_EQ(info->hybrid, GetParam().is_hybrid());
  EXPECT_FALSE(info->model_string.empty());
}

INSTANTIATE_TEST_SUITE_P(AllMachines, HardwareInfoTest,
                         ::testing::Values(cpumodel::raptor_lake_i7_13700(),
                                           cpumodel::orangepi800_rk3399(),
                                           cpumodel::homogeneous_xeon(),
                                           cpumodel::arm_three_type(),
                                           cpumodel::meteor_lake_like(),
                                           cpumodel::arm_dynamiq()));

}  // namespace
}  // namespace papi
}  // namespace hetpapi
