// End-to-end sampling & overflow mode: the PAPI drain loop over the
// simkernel's ABI-faithful sample rings, exact period reconciliation
// against ground truth on hybrid presets, per-core-type attribution,
// transactional arming, chaos degradation, and the per-core-type
// profiler's golden report.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "simkernel/kernel.hpp"
#include "simkernel/perf_abi.hpp"
#include "telemetry/profiler.hpp"
#include "workload/programs.hpp"
#include "workload/simplemoc.hpp"

namespace hetpapi {
namespace {

using papi::FaultInjectingBackend;
using papi::FaultProfile;
using papi::Library;
using papi::SampleBatch;
using papi::SimBackend;
using simkernel::CountKind;
using simkernel::CpuSet;
using simkernel::PerfEventAttr;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

PerfEventAttr sampling_attr(std::uint32_t type, std::uint64_t period) {
  PerfEventAttr attr;
  attr.type = type;
  attr.config = static_cast<std::uint64_t>(CountKind::kInstructions);
  attr.sample_period = period;
  return attr;
}

// ---------------------------------------------------------------------
// Acceptance sweep: on hybrid presets, delivered + lost reconciles the
// stopped counter exactly, sample counts track ground truth within one
// period, and attribution is exact (a worker pinned to one core type
// never produces a sample labelled with — or landing on a cpu of —
// another type).
// ---------------------------------------------------------------------

TEST(Sampling, PeriodReconciliationIsExactOnHybridPresets) {
  constexpr std::uint64_t kPeriod = 2'000'000;
  for (const char* machine : {"raptorlake", "dynamiq"}) {
    SCOPED_TRACE(machine);
    const auto spec = cpumodel::machine_preset_by_name(machine);
    ASSERT_TRUE(spec.has_value());
    SimKernel kernel(*spec);
    SimBackend backend(&kernel);

    const int num_types = static_cast<int>(spec->core_types.size());
    ASSERT_GE(num_types, 2) << "sweep wants hybrid presets";
    std::vector<Tid> tids;
    for (int t = 0; t < num_types; ++t) {
      PhaseSpec phase;
      tids.push_back(kernel.spawn(
          std::make_shared<FixedWorkProgram>(phase, 50'000'000),
          CpuSet::of(
              spec->cpus_of_type(static_cast<cpumodel::CoreTypeId>(t)))));
    }

    auto lib = Library::init(&backend);
    ASSERT_TRUE(lib.has_value());
    std::vector<int> sets;
    for (int t = 0; t < num_types; ++t) {
      auto set = (*lib)->create_eventset();
      ASSERT_TRUE(set.has_value());
      ASSERT_TRUE(
          (*lib)->attach(*set, tids[static_cast<std::size_t>(t)]).is_ok());
      ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
      ASSERT_TRUE((*lib)
                      ->set_overflow(*set, 0, kPeriod,
                                     [](const Library::OverflowEvent&) {})
                      .is_ok());
      ASSERT_TRUE((*lib)->start(*set).is_ok());
      sets.push_back(*set);
    }
    kernel.run_until_idle(std::chrono::seconds(60));

    std::set<std::string> labels_seen;
    for (int t = 0; t < num_types; ++t) {
      SCOPED_TRACE("core type " + std::to_string(t));
      auto values = (*lib)->stop(sets[static_cast<std::size_t>(t)]);
      ASSERT_TRUE(values.has_value());
      auto batch = (*lib)->read_samples(sets[static_cast<std::size_t>(t)]);
      ASSERT_TRUE(batch.has_value());

      const auto counter = static_cast<std::uint64_t>((*values)[0]);
      const std::uint64_t crossings = counter / kPeriod;
      EXPECT_EQ(batch->samples.size() + batch->lost, crossings)
          << "every period crossing is exactly one delivered or lost record";

      const auto* truth =
          kernel.ground_truth(tids[static_cast<std::size_t>(t)]);
      ASSERT_NE(truth, nullptr);
      const std::uint64_t truth_ins =
          truth->per_type[static_cast<std::size_t>(t)].instructions;
      EXPECT_EQ(counter, truth_ins)
          << "pinned worker's counter equals its exact ground truth";
      const long long drift =
          static_cast<long long>(batch->samples.size() * kPeriod) -
          static_cast<long long>(truth_ins);
      EXPECT_LE(drift, 0);
      EXPECT_LE(-drift, static_cast<long long>(kPeriod))
          << "samples x period tracks ground truth within one period";

      const std::vector<int> my_cpus =
          spec->cpus_of_type(static_cast<cpumodel::CoreTypeId>(t));
      const std::set<int> cpu_set(my_cpus.begin(), my_cpus.end());
      std::set<std::string> my_labels;
      for (const papi::Sample& sample : batch->samples) {
        EXPECT_EQ(cpu_set.count(sample.cpu), 1u)
            << "sample landed on a foreign cpu " << sample.cpu;
        EXPECT_FALSE(sample.core_type.empty());
        my_labels.insert(sample.core_type);
        EXPECT_EQ(sample.period, kPeriod);
      }
      EXPECT_LE(my_labels.size(), 1u)
          << "a pinned worker's samples carry one core-type label";
      for (const std::string& label : my_labels) {
        EXPECT_EQ(labels_seen.count(label), 0u)
            << "label " << label << " already claimed by another core type";
        labels_seen.insert(label);
      }
    }
  }
}

TEST(Sampling, SamplesCarryPhaseIpsFromTheWorkload) {
  const auto spec = cpumodel::machine_preset_by_name("raptorlake");
  ASSERT_TRUE(spec.has_value());
  SimKernel kernel(*spec);
  SimBackend backend(&kernel);
  workload::SimpleMocConfig moc;
  const Tid tid =
      kernel.spawn(std::make_shared<workload::SimpleMocProgram>(moc),
                   CpuSet::of(spec->cpus_of_type(0)));

  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  // Off-round period (coprime with the 200k-instruction segment) so the
  // crossings spread across phases instead of aliasing onto one.
  ASSERT_TRUE((*lib)
                  ->set_overflow(*set, 0, 1'111'111,
                                 [](const Library::OverflowEvent&) {})
                  .is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(60));
  ASSERT_TRUE((*lib)->stop(*set).has_value());
  auto batch = (*lib)->read_samples(*set);
  ASSERT_TRUE(batch.has_value());
  ASSERT_GT(batch->samples.size(), 0u);

  std::set<std::string> symbols;
  for (const papi::Sample& sample : batch->samples) {
    const workload::SimpleMocPhase* phase =
        workload::simplemoc_phase_for_ip(sample.ip);
    ASSERT_NE(phase, nullptr)
        << "sample ip 0x" << std::hex << sample.ip
        << " maps to no workload phase";
    symbols.insert(phase->symbol);
  }
  EXPECT_GE(symbols.size(), 2u)
      << "an off-round period must hit more than one phase";
}

TEST(Sampling, RepeatedDrainsReturnEachRecordExactlyOnce) {
  const auto spec = cpumodel::machine_preset_by_name("raptorlake");
  ASSERT_TRUE(spec.has_value());
  SimKernel kernel(*spec);
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 200'000'000), CpuSet::of({0}));

  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->attach(*set, tid).is_ok());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  constexpr std::uint64_t kPeriod = 1'000'000;
  ASSERT_TRUE((*lib)
                  ->set_overflow(*set, 0, kPeriod,
                                 [](const Library::OverflowEvent&) {})
                  .is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());

  // Drain while the workload is still running...
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  kernel.run_for(std::chrono::milliseconds(5));
  auto mid = (*lib)->read_samples(*set);
  ASSERT_TRUE(mid.has_value());
  delivered += mid->samples.size();
  lost += mid->lost;

  // ...and again after it finished: the two passes together see every
  // record exactly once.
  kernel.run_until_idle(std::chrono::seconds(60));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  auto tail = (*lib)->read_samples(*set);
  ASSERT_TRUE(tail.has_value());
  delivered += tail->samples.size();
  lost += tail->lost;

  const auto counter = static_cast<std::uint64_t>((*values)[0]);
  EXPECT_EQ(delivered + lost, counter / kPeriod);
  auto empty = (*lib)->read_samples(*set);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->samples.empty()) << "a drained ring stays drained";
  EXPECT_EQ(empty->lost, 0u);
}

TEST(Sampling, ReadSamplesRequiresOverflowMode) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  EXPECT_EQ((*lib)->read_samples(*set).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*lib)->read_samples(99).status().code(),
            StatusCode::kNoEventSet);
}

// ---------------------------------------------------------------------
// Transactional arming: when re-opening the slots in sampling mode
// fails, set_overflow must roll the EventSet back to its counting
// layout instead of leaving it half-armed or empty.
// ---------------------------------------------------------------------

/// Forwards everything to a SimBackend but refuses sampling-mode opens
/// while `deny_sampling` is set — the shape of a kernel that allows
/// counting but rejects the sampling variant of the same event.
class SamplingDeniedBackend final : public papi::Backend {
 public:
  explicit SamplingDeniedBackend(SimBackend* inner) : inner_(inner) {}

  bool deny_sampling = false;

  Expected<int> perf_event_open(const PerfEventAttr& attr, Tid tid, int cpu,
                                int group_fd, std::uint64_t flags) override {
    if (deny_sampling && attr.sample_period > 0) {
      return make_error(StatusCode::kPermission,
                        "sampling mode refused by policy");
    }
    return inner_->perf_event_open(attr, tid, cpu, group_fd, flags);
  }
  Status perf_ioctl(int fd, papi::PerfIoctl op, std::uint32_t flags) override {
    return inner_->perf_ioctl(fd, op, flags);
  }
  Expected<papi::PerfValue> perf_read(int fd) override {
    return inner_->perf_read(fd);
  }
  Expected<std::vector<papi::PerfValue>> perf_read_group(int fd) override {
    return inner_->perf_read_group(fd);
  }
  Expected<std::uint64_t> perf_rdpmc(int fd) override {
    return inner_->perf_rdpmc(fd);
  }
  Status perf_close(int fd) override { return inner_->perf_close(fd); }
  Expected<const simkernel::PerfUserPage*> perf_mmap_user_page(
      int fd) override {
    return inner_->perf_mmap_user_page(fd);
  }
  Status perf_set_overflow_handler(int fd, OverflowHandler handler) override {
    return inner_->perf_set_overflow_handler(fd, std::move(handler));
  }
  Expected<simkernel::PerfRingView> perf_mmap_ring(int fd) override {
    return inner_->perf_mmap_ring(fd);
  }
  Expected<bool> perf_ring_poll(int fd) override {
    return inner_->perf_ring_poll(fd);
  }
  const pfm::Host& host() const override { return inner_->host(); }
  Tid default_target() const override { return inner_->default_target(); }

 private:
  SimBackend* inner_;
};

TEST(SamplingOverflow, ArmingFailureRollsBackToCountingLayout) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  SamplingDeniedBackend denier(&backend);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 500'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);

  auto lib = Library::init(&denier);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_CYC").is_ok());

  denier.deny_sampling = true;
  const Status armed = (*lib)->set_overflow(
      *set, 0, 1'000'000, [](const Library::OverflowEvent&) {});
  EXPECT_FALSE(armed.is_ok());

  // The set must still work in its original counting layout.
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_for(std::chrono::milliseconds(5));
  auto counting = (*lib)->stop(*set);
  ASSERT_TRUE(counting.has_value());
  ASSERT_EQ(counting->size(), 2u);
  EXPECT_GT((*counting)[0], 0);
  EXPECT_GT((*counting)[1], 0);
  EXPECT_EQ((*lib)->read_samples(*set).status().code(),
            StatusCode::kInvalidArgument)
      << "a rolled-back set is a counting set";

  // Once the policy clears, the same set arms and samples flow.
  denier.deny_sampling = false;
  constexpr std::uint64_t kPeriod = 1'000'000;
  ASSERT_TRUE((*lib)
                  ->set_overflow(*set, 0, kPeriod,
                                 [](const Library::OverflowEvent&) {})
                  .is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  kernel.run_until_idle(std::chrono::seconds(60));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  auto batch = (*lib)->read_samples(*set);
  ASSERT_TRUE(batch.has_value());
  EXPECT_GT(batch->samples.size(), 0u);
  EXPECT_EQ(batch->samples.size() + batch->lost,
            static_cast<std::uint64_t>((*values)[0]) / kPeriod);
}

// ---------------------------------------------------------------------
// Ring ABI: the mmap'd ring a tool sees must decode with nothing but
// the kernel's perf_event ABI rules.
// ---------------------------------------------------------------------

TEST(SamplingRing, MappedRingDecodesWithPlainAbiRules) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({2}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  ASSERT_NE(pmu, nullptr);
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, 10'000'000),
                                   tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(10));

  auto view = kernel.perf_mmap_ring(*fd);
  ASSERT_TRUE(view.has_value());
  ASSERT_NE(view->page, nullptr);
  EXPECT_EQ(view->page->data_offset, 4096u)
      << "data area follows the control page, kernel-style";
  EXPECT_EQ(view->page->data_size, view->size);
  EXPECT_EQ(view->sample_type, simkernel::kSampleTypeDefault);

  // Walk the ring by hand — header rules only, no simulator helpers —
  // and leave the tail untouched.
  simkernel::PerfRingCursor cursor(*view);
  simkernel::PerfEventHeader header;
  std::uint8_t body[64];
  std::vector<simkernel::PerfSampleParsed> decoded;
  std::uint64_t last_time = 0;
  while (cursor.next(&header, body, sizeof body)) {
    ASSERT_EQ(header.type, simkernel::kPerfRecordSample);
    EXPECT_EQ(header.misc, simkernel::kPerfRecordMiscUser);
    EXPECT_EQ(header.size,
              sizeof(simkernel::PerfEventHeader) +
                  simkernel::perf_sample_body_size(view->sample_type));
    simkernel::PerfSampleParsed parsed;
    ASSERT_TRUE(simkernel::perf_parse_sample(
        view->sample_type, body, header.size - sizeof header, &parsed));
    EXPECT_EQ(parsed.cpu, 2u);
    EXPECT_EQ(parsed.tid, static_cast<std::uint32_t>(tid));
    EXPECT_EQ(parsed.period, 10'000'000u);
    EXPECT_GE(parsed.time, last_time);
    last_time = parsed.time;
    decoded.push_back(parsed);
  }
  EXPECT_FALSE(cursor.malformed());
  ASSERT_EQ(decoded.size(), 5u) << "50M instructions / 10M period";

  // The simulator's own reader agrees record-for-record — the manual
  // walk did not consume anything (commit() was never called).
  auto samples = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(samples.has_value());
  ASSERT_EQ(samples->size(), decoded.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ((*samples)[i].time_ns, decoded[i].time);
    EXPECT_EQ((*samples)[i].cpu, static_cast<int>(decoded[i].cpu));
  }
}

TEST(SamplingRing, LostRecordsAppearInBandBeforeLaterSamples) {
  SimKernel::Config config;
  config.perf.sample_ring_capacity = 4;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  PhaseSpec phase;
  constexpr std::uint64_t kWork = 10'000'000'000ULL;
  constexpr std::uint64_t kPeriod = 1'000'000;
  const Tid tid = kernel.spawn(std::make_shared<FixedWorkProgram>(phase, kWork),
                               CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, kPeriod), tid,
                                   -1, -1);
  ASSERT_TRUE(fd.has_value());

  // Overflow the capacity-4 ring, drain it, then let the writer refill:
  // the first record of the refill must be the in-band LOST entry
  // covering the drop window.
  kernel.run_for(std::chrono::milliseconds(50));
  auto first = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->size(), 4u) << "capacity-bounded first drain";
  std::uint64_t delivered = first->size();

  kernel.run_until_idle(std::chrono::seconds(60));
  auto view = kernel.perf_mmap_ring(*fd);
  ASSERT_TRUE(view.has_value());
  simkernel::PerfRingCursor cursor(*view);
  simkernel::PerfEventHeader header;
  std::uint8_t body[64];
  ASSERT_TRUE(cursor.next(&header, body, sizeof body));
  EXPECT_EQ(header.type, simkernel::kPerfRecordLost)
      << "drops are announced in-band, ahead of newer samples";
  simkernel::PerfLostParsed lost_record;
  ASSERT_TRUE(simkernel::perf_parse_lost(body, header.size - sizeof header,
                                         &lost_record));
  EXPECT_GT(lost_record.lost, 0u);

  auto tail = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(tail.has_value());
  delivered += tail->size();
  auto lost = kernel.perf_lost_samples(*fd);
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(delivered + *lost, kWork / kPeriod)
      << "delivered + lost covers every period crossing exactly";
}

// One period cell of the loss sweep: PAPI_TOT_INS sampled on a
// capacity-64 ring, drained through the library every 2 ms for 25
// passes, then to completion after stop.
struct LossCell {
  std::uint64_t period = 0;
  std::uint64_t crossings = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
};

void run_loss_cell(LossCell& cell) {
  SimKernel::Config config;
  config.perf.sample_ring_capacity = 64;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  SimBackend backend(&kernel);
  backend.set_default_target(kernel.spawn(
      std::make_shared<FixedWorkProgram>(PhaseSpec{}, 200'000'000),
      CpuSet::of({0})));
  auto lib = Library::init(&backend);
  ASSERT_TRUE(lib.has_value());
  auto set = (*lib)->create_eventset();
  ASSERT_TRUE(set.has_value());
  ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
  ASSERT_TRUE((*lib)
                  ->set_overflow(*set, 0, cell.period,
                                 [](const Library::OverflowEvent&) {})
                  .is_ok());
  ASSERT_TRUE((*lib)->start(*set).is_ok());
  const auto drain = [&] {
    auto batch = (*lib)->read_samples(*set);
    ASSERT_TRUE(batch.has_value());
    cell.delivered += batch->samples.size();
    cell.lost += batch->lost;
  };
  for (int pass = 0; pass < 25; ++pass) {
    kernel.run_for(std::chrono::milliseconds(2));
    drain();
  }
  kernel.run_until_idle(std::chrono::seconds(60));
  auto values = (*lib)->stop(*set);
  ASSERT_TRUE(values.has_value());
  drain();
  drain();  // a drained ring must stay drained
  cell.crossings = static_cast<std::uint64_t>((*values)[0]) / cell.period;
}

TEST(SamplingRing, PeriodSweepReconcilesExactlyAndLossNeverGrowsWithPeriod) {
  // Short periods outrun the capacity-64 ring between drains, long ones
  // never fill it. Either way every crossing is delivered or counted
  // lost, and less ring pressure can only lose less. The counts are
  // pinned: a drain that strands a pending LOST record breaks the sum.
  const LossCell expected[] = {{250'000, 800, 379, 421},
                               {500'000, 400, 361, 39},
                               {1'000'000, 200, 200, 0},
                               {2'000'000, 100, 100, 0},
                               {4'000'000, 50, 50, 0}};
  double last_loss_rate = 1.0;
  for (const LossCell& want : expected) {
    SCOPED_TRACE("period " + std::to_string(want.period));
    LossCell got;
    got.period = want.period;
    run_loss_cell(got);
    EXPECT_EQ(got.delivered + got.lost, got.crossings);
    ASSERT_GT(got.crossings, 0u);
    const double loss_rate = static_cast<double>(got.lost) /
                             static_cast<double>(got.crossings);
    EXPECT_LE(loss_rate, last_loss_rate);
    last_loss_rate = loss_rate;
    EXPECT_EQ(got.crossings, want.crossings);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.lost, want.lost);
  }
}

TEST(SamplingRing, WakeupEventsGateRingPollAsEdgeTrigger) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 10'000'000), CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  PerfEventAttr attr = sampling_attr(pmu->type_id, 1'000'000);
  attr.wakeup_events = 2;
  auto fd = kernel.perf_event_open(attr, tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(10));

  auto armed = kernel.perf_ring_poll(*fd);
  ASSERT_TRUE(armed.has_value());
  EXPECT_TRUE(*armed) << "10 samples at wakeup_events=2 raised wakeups";
  auto consumed = kernel.perf_ring_poll(*fd);
  ASSERT_TRUE(consumed.has_value());
  EXPECT_FALSE(*consumed) << "poll consumes the pending wakeups";
  // The hint being consumed does not affect the data path.
  auto samples = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(samples.has_value());
  EXPECT_EQ(samples->size(), 10u);
}

TEST(SamplingRing, UnknownSampleTypeBitsAreRejected) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000), CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  PerfEventAttr attr = sampling_attr(pmu->type_id, 1'000'000);
  attr.sample_type = 1ULL << 20;  // a bit the ring writer does not encode
  EXPECT_EQ(kernel.perf_event_open(attr, tid, -1, -1).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Chaos: the drain loop under injected sampling faults. Invariants: no
// record is ever lost silently, degraded slots keep counting, and the
// fd ledger drains to zero.
// ---------------------------------------------------------------------

TEST(SamplingChaos, DeniedRingMmapDegradesToCountingMode) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  FaultProfile profile;
  profile.name = "ring-denied";
  profile.ring_mmap_denied = true;
  FaultInjectingBackend injector(&backend, profile, 42);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  {
    auto lib = Library::init(&injector);
    ASSERT_TRUE(lib.has_value());
    auto set = (*lib)->create_eventset();
    ASSERT_TRUE(set.has_value());
    ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
    std::uint64_t callbacks = 0;
    ASSERT_TRUE((*lib)
                    ->set_overflow(*set, 0, 10'000'000,
                                   [&](const Library::OverflowEvent& event) {
                                     callbacks += event.periods;
                                   })
                    .is_ok())
        << "a denied ring must not fail arming — callbacks still work";
    ASSERT_TRUE((*lib)->start(*set).is_ok());
    kernel.run_until_idle(std::chrono::seconds(10));
    auto batch = (*lib)->read_samples(*set);
    ASSERT_TRUE(batch.has_value());
    EXPECT_TRUE(batch->samples.empty()) << "no ring, no samples";
    EXPECT_GT(batch->rings_denied, 0);
    auto values = (*lib)->stop(*set);
    ASSERT_TRUE(values.has_value());
    EXPECT_GE((*values)[0], 50'000'000) << "counting survives the denial";
    EXPECT_EQ(callbacks, 5u) << "overflow delivery survives the denial";
  }
  EXPECT_EQ(injector.open_fd_count(), 0u)
      << "leaked: " << testing::PrintToString(injector.leaked_fds());
  EXPECT_EQ(backend.open_fd_count(), 0u);
}

TEST(SamplingChaos, DroppedWakeupsAndStalledDrainsNeverLoseRecords) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  SimBackend backend(&kernel);
  const auto profile = FaultProfile::named("sampling-chaos");
  ASSERT_TRUE(profile.has_value());
  FaultInjectingBackend injector(&backend, *profile, 7);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 300'000'000), CpuSet::of({0}));
  backend.set_default_target(tid);
  {
    auto lib = Library::init(&injector);
    ASSERT_TRUE(lib.has_value());
    auto set = (*lib)->create_eventset();
    ASSERT_TRUE(set.has_value());
    ASSERT_TRUE((*lib)->add_event(*set, "PAPI_TOT_INS").is_ok());
    constexpr std::uint64_t kPeriod = 1'000'000;
    ASSERT_TRUE((*lib)
                    ->set_overflow(*set, 0, kPeriod,
                                   [](const Library::OverflowEvent&) {})
                    .is_ok());
    ASSERT_TRUE((*lib)->start(*set).is_ok());

    // Periodic drains while faults fire: stalled passes leave records
    // queued, dropped wakeups are drained past anyway.
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    int stalled_passes = 0;
    int missed_wakeups = 0;
    for (int i = 0; i < 30; ++i) {
      kernel.run_for(std::chrono::milliseconds(2));
      auto batch = (*lib)->read_samples(*set);
      ASSERT_TRUE(batch.has_value());
      delivered += batch->samples.size();
      lost += batch->lost;
      stalled_passes += batch->drains_stalled;
      missed_wakeups += batch->wakeups_missed;
    }
    kernel.run_until_idle(std::chrono::seconds(60));
    auto values = (*lib)->stop(*set);
    ASSERT_TRUE(values.has_value());

    // A stalled pass only defers records; bounded retries recover them.
    for (int attempt = 0; attempt < 20; ++attempt) {
      auto batch = (*lib)->read_samples(*set);
      ASSERT_TRUE(batch.has_value());
      delivered += batch->samples.size();
      lost += batch->lost;
      if (batch->samples.empty() && batch->drains_stalled == 0) break;
    }

    const auto counter = static_cast<std::uint64_t>((*values)[0]);
    EXPECT_EQ(delivered + lost, counter / kPeriod)
        << "chaos may delay or drop to LOST, never lose silently"
        << " (stalled passes: " << stalled_passes
        << ", missed wakeups: " << missed_wakeups << ")";
  }
  EXPECT_EQ(injector.open_fd_count(), 0u)
      << "leaked: " << testing::PrintToString(injector.leaked_fds());
  EXPECT_EQ(backend.open_fd_count(), 0u);
}

// ---------------------------------------------------------------------
// The profiler report is a pure function of (machine, options): golden
// byte-for-byte and identical across repeated runs.
// ---------------------------------------------------------------------

TEST(SamplingGolden, ProfilerReportIsDeterministic) {
  telemetry::ProfileOptions options;
  auto first = telemetry::run_simplemoc_profile(options);
  auto second = telemetry::run_simplemoc_profile(options);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(first->validated);
  EXPECT_EQ(first->table, second->table);
}

TEST(SamplingGolden, RaptorlakeProfileMatchesGoldenByteForByte) {
  telemetry::ProfileOptions options;
  options.machine = "raptorlake";
  auto report = telemetry::run_simplemoc_profile(options);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->validated);
  const char* golden =
      R"(hetpapi_profile machine=raptorlake event=PAPI_TOT_INS period=1111111 workers=4 segments=64

function                       ip             intel_core     intel_atom          total
simplemoc_attenuate_fluxes     0x402000               12             12             24
simplemoc_tally_scalar_flux    0x403000                6              6             12
simplemoc_xs_lookup            0x401000                4              4              8
total                          -                      22             22             44

samples=44 lost=0 malformed=0 rings_denied=0 drains_stalled=0 wakeups_missed=0
worker 0 core_type=intel_core samples=11 lost=0 counter=12801800 truth=12801800 foreign=0 ok
worker 1 core_type=intel_atom samples=11 lost=0 counter=12801800 truth=12801800 foreign=0 ok
worker 2 core_type=intel_core samples=11 lost=0 counter=12801800 truth=12801800 foreign=0 ok
worker 3 core_type=intel_atom samples=11 lost=0 counter=12801800 truth=12801800 foreign=0 ok
validation: PASS
)";
  EXPECT_EQ(report->table, golden);
}

TEST(SamplingGolden, DynamiqProfileMatchesGoldenByteForByte) {
  telemetry::ProfileOptions options;
  options.machine = "dynamiq";
  auto report = telemetry::run_simplemoc_profile(options);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->validated);
  const char* golden =
      R"(hetpapi_profile machine=dynamiq event=PAPI_TOT_INS period=1111111 workers=4 segments=64

function                       ip          capacity-1024   capacity-744   capacity-286          total
simplemoc_attenuate_fluxes     0x402000               12              6              6             24
simplemoc_tally_scalar_flux    0x403000                6              3              3             12
simplemoc_xs_lookup            0x401000                4              2              2              8
total                          -                      22             11             11             44

samples=44 lost=0 malformed=0 rings_denied=0 drains_stalled=0 wakeups_missed=0
worker 0 core_type=capacity-1024 samples=11 lost=0 counter=12802700 truth=12802700 foreign=0 ok
worker 1 core_type=capacity-744 samples=11 lost=0 counter=12802700 truth=12802700 foreign=0 ok
worker 2 core_type=capacity-286 samples=11 lost=0 counter=12802700 truth=12802700 foreign=0 ok
worker 3 core_type=capacity-1024 samples=11 lost=0 counter=12802700 truth=12802700 foreign=0 ok
validation: PASS
)";
  EXPECT_EQ(report->table, golden);
}

}  // namespace
}  // namespace hetpapi
