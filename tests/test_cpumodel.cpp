// Machine presets, spec validation, and the power/thermal/DVFS models'
// physical invariants (energy conservation, RAPL capping, thermal
// equilibria, throttle hysteresis).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "cpumodel/dvfs.hpp"
#include "cpumodel/machine.hpp"
#include "cpumodel/power.hpp"
#include "cpumodel/thermal.hpp"

namespace hetpapi::cpumodel {
namespace {

// --- presets -----------------------------------------------------------------

// A preset factory under its name. It prints as the name, so the test
// names ctest registers for it carry no heap or image addresses (which a
// by-value MachineSpec would dump as raw bytes) and stay the same across
// builds and runs.
struct NamedPreset {
  const char* name;
  MachineSpec (*make)();
};

void PrintTo(const NamedPreset& preset, std::ostream* os) {
  *os << preset.name;
}

class PresetValidationTest : public ::testing::TestWithParam<NamedPreset> {};

TEST_P(PresetValidationTest, Validates) {
  const MachineSpec m = GetParam().make();
  EXPECT_EQ(m.name, GetParam().name);
  EXPECT_TRUE(m.validate().is_ok()) << m.validate().to_string();
}

const NamedPreset kPresets[] = {
    {"raptor_lake_i7_13700", &raptor_lake_i7_13700},
    {"orangepi800_rk3399", &orangepi800_rk3399},
    {"homogeneous_xeon", [] { return homogeneous_xeon(); }},
    {"arm_three_type", &arm_three_type}};

INSTANTIATE_TEST_SUITE_P(AllMachines, PresetValidationTest,
                         ::testing::ValuesIn(kPresets));

class PresetTest : public ::testing::TestWithParam<NamedPreset> {};

TEST_P(PresetTest, CoreTypePartitionCoversAllCpus) {
  const MachineSpec m = GetParam().make();
  std::size_t covered = 0;
  for (std::size_t t = 0; t < m.core_types.size(); ++t) {
    covered += m.cpus_of_type(static_cast<CoreTypeId>(t)).size();
  }
  EXPECT_EQ(covered, static_cast<std::size_t>(m.num_cpus()));
}

INSTANTIATE_TEST_SUITE_P(AllMachines, PresetTest,
                         ::testing::ValuesIn(kPresets));

TEST(RaptorLakePreset, MatchesTableOne) {
  const MachineSpec m = raptor_lake_i7_13700();
  EXPECT_EQ(m.num_cpus(), 24);
  EXPECT_TRUE(m.is_hybrid());
  EXPECT_EQ(m.primary_threads_of_type(0).size(), 8u);  // 8 P cores
  EXPECT_EQ(m.cpus_of_type(0).size(), 16u);            // 16 P threads
  EXPECT_EQ(m.cpus_of_type(1).size(), 8u);             // 8 E cores
  EXPECT_DOUBLE_EQ(m.rapl.pl1.value, 65.0);
  EXPECT_DOUBLE_EQ(m.rapl.pl2.value, 219.0);
  // P/E share family/model/stepping — the detection pitfall of §IV-B.
  EXPECT_EQ(m.core_types[0].ident.model, m.core_types[1].ident.model);
  EXPECT_NE(m.core_types[0].ident.intel_kind,
            m.core_types[1].ident.intel_kind);
}

TEST(OrangePiPreset, MatchesTableFour) {
  const MachineSpec m = orangepi800_rk3399();
  EXPECT_EQ(m.num_cpus(), 6);
  EXPECT_EQ(m.cpus_of_type(0), (std::vector<int>{4, 5}));    // A72 big
  EXPECT_EQ(m.cpus_of_type(1), (std::vector<int>{0, 1, 2, 3}));  // A53
  EXPECT_FALSE(m.rapl.present);
  EXPECT_TRUE(m.exposes_cpu_capacity);
  EXPECT_NE(m.core_types[0].ident.arm_part, m.core_types[1].ident.arm_part);
}

TEST(MachineValidate, RejectsBrokenSpecs) {
  MachineSpec m = homogeneous_xeon(2);
  m.cpus[1].type = 7;  // out of range
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.cpus[1].cpu = 0;  // duplicate id
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.cpus[1].cpu = 5;  // hole in numbering
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.core_types[0].dvfs.freq_max = MegaHertz{100};
  m.core_types[0].dvfs.freq_min = MegaHertz{1000};
  EXPECT_FALSE(m.validate().is_ok());

  m = homogeneous_xeon(2);
  m.core_types.clear();
  EXPECT_FALSE(m.validate().is_ok());
}

// --- power -------------------------------------------------------------------

TEST(CpuPower, MonotonicInFrequencyUtilAndActivity) {
  const CoreTypeSpec type = raptor_lake_i7_13700().core_types[0];
  const Watts base = cpu_power(type, MegaHertz{2000}, 0.5, 0.8);
  EXPECT_GT(cpu_power(type, MegaHertz{3000}, 0.5, 0.8).value, base.value);
  EXPECT_GT(cpu_power(type, MegaHertz{2000}, 0.9, 0.8).value, base.value);
  EXPECT_GT(cpu_power(type, MegaHertz{2000}, 0.5, 1.0).value, base.value);
  // Idle core burns only leakage.
  EXPECT_DOUBLE_EQ(cpu_power(type, MegaHertz{800}, 0.0, 0.0).value,
                   type.power.leakage_w);
}

TEST(RaplModel, AllowsBurstThenSettlesToPl1) {
  RaplModel rapl(raptor_lake_i7_13700().rapl);
  // Cold start: nearly the PL2 budget is available.
  EXPECT_GT(rapl.allowed_power().value, 150.0);
  // Run hot for two long-window time constants.
  for (int i = 0; i < 56000; ++i) {
    rapl.step(std::chrono::milliseconds(1),
              Watts{std::min(rapl.allowed_power().value, 180.0)});
  }
  EXPECT_NEAR(rapl.allowed_power().value, 65.0, 4.0)
      << "long-term average must converge to PL1";
  EXPECT_NEAR(rapl.long_window_average().value, 65.0, 5.0);
}

TEST(RaplModel, EnergyCounterIntegratesAndWraps) {
  RaplSpec spec;
  RaplModel rapl(spec);
  rapl.step(std::chrono::seconds(10), Watts{50.0});
  EXPECT_NEAR(rapl.total_energy().value, 500.0, 1e-6);
  EXPECT_EQ(rapl.energy_status_uj(), 500'000'000u);
  // Push past the 32-bit microjoule wrap (4294.97 J).
  rapl.step(std::chrono::seconds(100), Watts{50.0});
  EXPECT_NEAR(rapl.total_energy().value, 5500.0, 1e-6);
  EXPECT_EQ(rapl.energy_status_uj(),
            static_cast<std::uint32_t>(5'500'000'000ULL & 0xFFFFFFFFULL));
}

TEST(RaplModel, AbsentRaplImposesNoLimit) {
  RaplSpec spec;
  spec.present = false;
  RaplModel rapl(spec);
  EXPECT_TRUE(std::isinf(rapl.allowed_power().value));
}

TEST(BoardPowerMeter, AddsIdleAndPsuLoss) {
  const BoardPowerMeter meter(Watts{3.0}, 0.8);
  EXPECT_NEAR(meter.reading(Watts{5.0}).value, 10.0, 1e-9);
}

// --- thermal ------------------------------------------------------------------

TEST(ThermalNode, ApproachesEquilibrium) {
  ThermalSpec spec;
  spec.ambient = Celsius{25.0};
  spec.idle_settle = Celsius{25.0};
  spec.r_thermal_c_per_w = 0.5;
  spec.c_thermal_j_per_c = 100.0;
  ThermalNode node(spec);
  const Celsius eq = node.equilibrium(Watts{65.0});
  EXPECT_DOUBLE_EQ(eq.value, 25.0 + 65.0 * 0.5);
  for (int i = 0; i < 600'000; ++i) {
    node.step(std::chrono::milliseconds(1), Watts{65.0});
  }
  EXPECT_NEAR(node.temperature().value, eq.value, 0.5);
}

TEST(ThermalNode, CoolsToAmbientWithoutPower) {
  ThermalSpec spec;
  ThermalNode node(spec);
  node.set_temperature(Celsius{80.0});
  for (int i = 0; i < 2'000'000; ++i) {
    node.step(std::chrono::milliseconds(1), Watts{0.0});
  }
  EXPECT_NEAR(node.temperature().value, spec.ambient.value, 1.0);
}

TEST(ThermalThrottle, EngagesAboveTripAndRecoversWithHysteresis) {
  ThermalSpec spec;
  spec.t_junction_max = Celsius{85.0};
  spec.hysteresis_c = 5.0;
  ThermalThrottle throttle(spec);
  EXPECT_FALSE(throttle.throttling());
  // Hot for 2 seconds: level drops.
  for (int i = 0; i < 2000; ++i) {
    throttle.update(std::chrono::milliseconds(1), Celsius{90.0});
  }
  EXPECT_TRUE(throttle.throttling());
  EXPECT_LT(throttle.level(), 0.5);
  // Within the hysteresis band: level holds.
  const double held = throttle.level();
  for (int i = 0; i < 1000; ++i) {
    throttle.update(std::chrono::milliseconds(1), Celsius{82.0});
  }
  EXPECT_DOUBLE_EQ(throttle.level(), held);
  // Cool: level recovers to 1.
  for (int i = 0; i < 10'000; ++i) {
    throttle.update(std::chrono::milliseconds(1), Celsius{60.0});
  }
  EXPECT_DOUBLE_EQ(throttle.level(), 1.0);
  EXPECT_GT(throttle.throttled_time().count(), 0);
}

// --- governor -----------------------------------------------------------------

TEST(PackageGovernor, IdleMachineSitsAtMinFrequencyAndLowPower) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> idle(static_cast<std::size_t>(m.num_cpus()));
  for (int i = 0; i < 1000; ++i) {
    governor.step(std::chrono::milliseconds(1), idle);
  }
  EXPECT_DOUBLE_EQ(governor.frequency(0).value,
                   m.core_types[0].dvfs.freq_min.value);
  EXPECT_LT(governor.package_power().value, 25.0);
}

TEST(PackageGovernor, FullLoadSettlesNearPl1) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> full(static_cast<std::size_t>(m.num_cpus()),
                            CpuLoad{1.0, 1.0});
  for (int i = 0; i < 120'000; ++i) {
    governor.step(std::chrono::milliseconds(1), full);
  }
  EXPECT_NEAR(governor.package_power().value, 65.0, 6.0);
  // Both types still above their minimum but below single-core turbo.
  EXPECT_GT(governor.frequency(0).value, 1500.0);
  EXPECT_LT(governor.frequency(0).value, 4300.0);
  EXPECT_GT(governor.frequency(16).value, 1200.0);
}

TEST(PackageGovernor, SingleBusyCoreMayUseSingleCoreTurbo) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()));
  loads[0] = CpuLoad{1.0, 0.9};
  for (int i = 0; i < 2000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
  }
  // One busy core easily fits the PL2 budget: frequency near fmax 5.1.
  EXPECT_GT(governor.frequency(0).value, 4500.0);
}

TEST(PackageGovernor, MultiCoreTurboCapBindsWhenManyCoresBusy) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  // All 8 E-cores busy, P idle: plenty of power budget, so the binding
  // limit is the multi-core turbo cap (3.5 GHz), not RAPL.
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()));
  for (int cpu = 16; cpu < 24; ++cpu) {
    loads[static_cast<std::size_t>(cpu)] = CpuLoad{1.0, 1.0};
  }
  for (int i = 0; i < 2000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
  }
  EXPECT_LT(governor.frequency(16).value, 3700.0);
  EXPECT_GT(governor.frequency(16).value, 3200.0);
}

TEST(PackageGovernor, OrangePiBigClusterThermallyThrottles) {
  const MachineSpec m = orangepi800_rk3399();
  PackageGovernor governor(m);
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()),
                             CpuLoad{1.0, 1.0});
  // Early: bigs at max.
  for (int i = 0; i < 3000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
  }
  const double early_big = governor.frequency(4).value;
  EXPECT_GT(early_big, 1600.0) << "bigs ramp to ~1.8 GHz first";
  // Two minutes in: throttled well below max (Figure 3).
  for (int i = 0; i < 120'000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
  }
  EXPECT_TRUE(governor.cluster_throttling(1));
  EXPECT_LT(governor.frequency(4).value, 1100.0);
  // LITTLE cluster keeps (close to) its max.
  EXPECT_GT(governor.frequency(0).value, 1300.0);
}

TEST(PackageGovernor, ResetRestoresColdState) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> full(static_cast<std::size_t>(m.num_cpus()),
                            CpuLoad{1.0, 1.0});
  for (int i = 0; i < 50'000; ++i) {
    governor.step(std::chrono::milliseconds(1), full);
  }
  governor.reset();
  EXPECT_DOUBLE_EQ(governor.package_temperature().value,
                   m.thermal.idle_settle.value);
  EXPECT_DOUBLE_EQ(governor.rapl().total_energy().value, 0.0);
  EXPECT_GT(governor.rapl().allowed_power().value, 150.0);
}

// Property: package energy equals the integral of reported power.
TEST(PackageGovernor, EnergyEqualsIntegralOfPower) {
  const MachineSpec m = raptor_lake_i7_13700();
  PackageGovernor governor(m);
  std::vector<CpuLoad> loads(static_cast<std::size_t>(m.num_cpus()),
                             CpuLoad{0.7, 0.8});
  double integral = 0.0;
  for (int i = 0; i < 20'000; ++i) {
    governor.step(std::chrono::milliseconds(1), loads);
    integral += governor.package_power().value * 1e-3;
  }
  EXPECT_NEAR(governor.rapl().total_energy().value, integral,
              0.01 * integral);
}

}  // namespace
}  // namespace hetpapi::cpumodel
