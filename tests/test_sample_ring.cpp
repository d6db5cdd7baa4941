// Sample ring buffers (perf record semantics): record contents, drain
// behaviour, capacity/lost accounting, interaction with core types, and
// a seeded fuzz of the shared ring walk (PerfRingCursor).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "cpumodel/machine.hpp"
#include "simkernel/kernel.hpp"
#include "simkernel/perf_abi.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

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

TEST(SampleRing, RecordsCarryTimeCpuTidAndCoreType) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({2}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, 10'000'000),
                                   tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto samples = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(samples.has_value());
  ASSERT_EQ(samples->size(), 5u) << "50M instructions / 10M period";
  std::uint64_t last_time = 0;
  for (const auto& sample : *samples) {
    EXPECT_EQ(sample.cpu, 2);
    EXPECT_EQ(sample.tid, tid);
    EXPECT_EQ(sample.core_type, 0);
    EXPECT_EQ(sample.period, 10'000'000u);
    EXPECT_GE(sample.time_ns, last_time) << "monotonic timestamps";
    last_time = sample.time_ns;
  }
}

TEST(SampleRing, DrainEmptiesTheRing) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 100'000'000'000ULL),
      CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, 1'000'000),
                                   tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_for(std::chrono::milliseconds(5));
  auto first = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(first.has_value());
  EXPECT_GT(first->size(), 0u);
  auto empty = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty()) << "drain removes delivered records";
  kernel.run_for(std::chrono::milliseconds(5));
  auto second = kernel.perf_read_samples(*fd);
  EXPECT_GT(second->size(), 0u) << "new records keep arriving";
}

TEST(SampleRing, FullRingDropsAndCountsLostRecords) {
  SimKernel::Config config;
  config.perf.sample_ring_capacity = 16;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 500'000'000), CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, 1'000'000),
                                   tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto samples = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(samples.has_value());
  EXPECT_EQ(samples->size(), 16u) << "capacity-bounded";
  auto lost = kernel.perf_lost_samples(*fd);
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(samples->size() + *lost, 500u)
      << "delivered + lost = total periods";
}

TEST(SampleRing, CountingEventsHaveNoRing) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000), CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  PerfEventAttr counting;
  counting.type = pmu->type_id;
  counting.config = static_cast<std::uint64_t>(CountKind::kInstructions);
  auto fd = kernel.perf_event_open(counting, tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  EXPECT_EQ(kernel.perf_read_samples(*fd).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SampleRing, MigratingThreadProducesSamplesFromBothCoreTypes) {
  SimKernel::Config config;
  config.sched.migration_rate_hz = 300.0;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000'000ULL),
      CpuSet::all(24));
  const auto* p_pmu = kernel.pmus().find_by_name("cpu_core");
  const auto* e_pmu = kernel.pmus().find_by_name("cpu_atom");
  auto p_fd = kernel.perf_event_open(sampling_attr(p_pmu->type_id, 5'000'000),
                                     tid, -1, -1);
  auto e_fd = kernel.perf_event_open(sampling_attr(e_pmu->type_id, 5'000'000),
                                     tid, -1, -1);
  ASSERT_TRUE(p_fd.has_value());
  ASSERT_TRUE(e_fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(60));
  auto p_samples = kernel.perf_read_samples(*p_fd);
  auto e_samples = kernel.perf_read_samples(*e_fd);
  EXPECT_GT(p_samples->size(), 0u);
  EXPECT_GT(e_samples->size(), 0u);
  for (const auto& sample : *p_samples) {
    EXPECT_EQ(sample.core_type, 0);
    EXPECT_LT(sample.cpu, 16) << "P samples only from P cpus";
  }
  for (const auto& sample : *e_samples) {
    EXPECT_EQ(sample.core_type, 1);
    EXPECT_GE(sample.cpu, 16) << "E samples only from E cpus";
  }
}

// ---------------------------------------------------------------------
// PerfRingCursor under hostile rings: the walk trusts nothing a writer
// (or a corrupted page) publishes. Oracle for every walk: it ends within
// data_size / 8 records, every record it returns lies inside the unread
// span [data_tail, data_head), and commit() leaves the tail either past
// the consumed records or, after a malformed walk, at the head.
// ---------------------------------------------------------------------

/// A ring data area plus the control page that describes it.
struct FuzzRing {
  explicit FuzzRing(std::size_t size) : data(size, 0) {
    page.data_size = size;
  }
  simkernel::PerfRingView view() {
    simkernel::PerfRingView v;
    v.page = &page;
    v.data = data.data();
    v.size = data.size();
    return v;
  }
  /// Write `n` bytes at free-running position `at`, wrapping.
  void write(std::uint64_t at, const void* src, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(src);
    for (std::size_t i = 0; i < n; ++i) {
      data[(at + i) % data.size()] = bytes[i];
    }
  }
  void write_header(std::uint64_t at, std::uint32_t type, std::uint16_t size) {
    simkernel::PerfEventHeader header;
    header.type = type;
    header.size = size;
    write(at, &header, sizeof header);
  }
  simkernel::PerfUserPage page;
  std::vector<std::uint8_t> data;
};

struct WalkResult {
  std::vector<std::uint16_t> sizes;  // header.size of each returned record
  bool malformed = false;
  std::uint64_t tail_after_commit = 0;
};

/// Walk and commit `ring`, checking the oracle on the way. The walk is
/// capped one record past the bound so a runaway cursor fails the test
/// instead of hanging it.
WalkResult walk_checked(FuzzRing& ring) {
  const std::uint64_t head = ring.page.data_head;
  const std::uint64_t tail = ring.page.data_tail;
  const std::uint64_t span = head - tail;
  const std::size_t bound =
      ring.data.size() / sizeof(simkernel::PerfEventHeader);
  simkernel::PerfRingCursor cursor(ring.view());
  simkernel::PerfEventHeader header;
  std::uint8_t body[64];
  WalkResult result;
  std::uint64_t consumed = 0;
  while (result.sizes.size() <= bound &&
         cursor.next(&header, body, sizeof body)) {
    result.sizes.push_back(header.size);
    EXPECT_GE(header.size, sizeof header);
    consumed += header.size;
    EXPECT_LE(consumed, span) << "record " << result.sizes.size()
                              << " runs past data_head";
  }
  EXPECT_LE(result.sizes.size(), bound)
      << "walk of a " << ring.data.size() << "-byte ring did not end";
  if (span > ring.data.size()) {
    EXPECT_TRUE(result.sizes.empty())
        << "an unread span larger than the ring must not be walked";
  }
  result.malformed = cursor.malformed();
  cursor.commit();
  result.tail_after_commit = ring.page.data_tail;
  EXPECT_EQ(result.tail_after_commit,
            result.malformed ? head : tail + consumed);
  return result;
}

// Powers of two, as the perf ABI requires: only then does the byte
// index (position % data_size) stay continuous across the 64-bit wrap
// of the free-running cursors.
constexpr std::size_t kFuzzRingSizes[] = {64, 128, 256, 4096};

TEST(SampleRingFuzz, WellFormedRecordsWalkExactlyAcrossTheWrap) {
  std::mt19937_64 rng(0x51a9e1);
  for (const std::size_t ring_size : kFuzzRingSizes) {
    for (int round = 0; round < 200; ++round) {
      FuzzRing ring(ring_size);
      // Free-running cursors start anywhere, including just below the
      // 64-bit wrap, so both the data wrap and the counter wrap occur.
      const std::uint64_t start =
          round % 4 == 0 ? ~std::uint64_t{0} - (rng() % 128) : rng();
      std::vector<std::uint16_t> written;
      std::uint64_t at = start;
      for (;;) {
        const auto size =
            static_cast<std::uint16_t>(8 + 8 * (rng() % 9));  // 8..72
        if (at - start + size > ring_size) break;
        ring.write_header(at, simkernel::kPerfRecordSample, size);
        written.push_back(size);
        at += size;
      }
      ring.page.data_tail = start;
      ring.page.data_head = at;
      const WalkResult walked = walk_checked(ring);
      EXPECT_FALSE(walked.malformed);
      EXPECT_EQ(walked.sizes, written);
      EXPECT_EQ(walked.tail_after_commit, at);
    }
  }
}

TEST(SampleRingFuzz, TruncatedHeadersStopTheWalk) {
  std::mt19937_64 rng(0x7a11);
  for (const std::size_t ring_size : kFuzzRingSizes) {
    for (int round = 0; round < 200; ++round) {
      FuzzRing ring(ring_size);
      const std::uint64_t start = rng();
      ring.write_header(start, simkernel::kPerfRecordSample, 16);
      // The last record claims more bytes than were published: either
      // fewer than a header's worth, or a header whose size overruns
      // data_head.
      const std::uint16_t claimed = static_cast<std::uint16_t>(
          16 + 8 * (1 + rng() % 4));
      ring.write_header(start + 16, simkernel::kPerfRecordSample, claimed);
      const std::uint64_t published = 16 + rng() % (claimed - 1u) + 1;
      ring.page.data_tail = start;
      ring.page.data_head = start + published;
      const WalkResult walked = walk_checked(ring);
      ASSERT_EQ(walked.sizes.size(), 1u) << "only the complete record";
      // A partial header is simply not there yet; a header whose size
      // overruns the span is malformed.
      EXPECT_EQ(walked.malformed, published >= 24);
    }
  }
}

TEST(SampleRingFuzz, SizeZeroAndSubHeaderSizesAreMalformed) {
  for (const std::size_t ring_size : kFuzzRingSizes) {
    for (std::uint16_t bad = 0; bad < sizeof(simkernel::PerfEventHeader);
         ++bad) {
      FuzzRing ring(ring_size);
      const std::uint64_t start = ring_size - 4;  // header straddles the wrap
      ring.write_header(start, simkernel::kPerfRecordSample, bad);
      ring.page.data_tail = start;
      ring.page.data_head = start + ring_size;
      const WalkResult walked = walk_checked(ring);
      EXPECT_TRUE(walked.sizes.empty()) << "size " << bad;
      EXPECT_TRUE(walked.malformed) << "size " << bad;
    }
  }
}

TEST(SampleRingFuzz, TailAheadOfHeadIsMalformedAndResyncs) {
  std::mt19937_64 rng(0x7e11);
  for (const std::size_t ring_size : kFuzzRingSizes) {
    for (int round = 0; round < 200; ++round) {
      FuzzRing ring(ring_size);
      // A ring of well-formed 8-byte records: without a span check the
      // wrapped subtraction would let the walk go round forever.
      for (std::size_t at = 0; at < ring_size; at += 8) {
        ring.write_header(at, simkernel::kPerfRecordSample, 8);
      }
      const std::uint64_t head = rng();
      ring.page.data_head = head;
      ring.page.data_tail = head + 1 + rng() % (4 * ring_size);
      const WalkResult walked = walk_checked(ring);
      EXPECT_TRUE(walked.sizes.empty());
      EXPECT_TRUE(walked.malformed);
      EXPECT_EQ(walked.tail_after_commit, head);
    }
  }
}

TEST(SampleRingFuzz, OverrunSpanIsMalformedAndNeverRereadsBytes) {
  std::mt19937_64 rng(0x0e7);
  for (const std::size_t ring_size : kFuzzRingSizes) {
    for (int round = 0; round < 200; ++round) {
      FuzzRing ring(ring_size);
      for (std::size_t at = 0; at < ring_size; at += 8) {
        ring.write_header(at, simkernel::kPerfRecordSample, 8);
      }
      const std::uint64_t tail = rng();
      ring.page.data_tail = tail;
      ring.page.data_head = tail + ring_size + 1 + rng() % (4 * ring_size);
      const WalkResult walked = walk_checked(ring);
      EXPECT_TRUE(walked.sizes.empty())
          << walked.sizes.size() << " records from a ring that holds "
          << ring_size / 8;
      EXPECT_TRUE(walked.malformed);
    }
  }
}

TEST(SampleRingFuzz, RandomBytesAndCursorsKeepTheOracle) {
  std::mt19937_64 rng(0xf022);
  for (const std::size_t ring_size : kFuzzRingSizes) {
    for (int round = 0; round < 500; ++round) {
      FuzzRing ring(ring_size);
      for (std::uint8_t& byte : ring.data) {
        byte = static_cast<std::uint8_t>(rng());
      }
      // Mostly small header sizes so walks get past the first record.
      for (std::size_t at = 0; at + 8 <= ring_size; at += 8) {
        if (rng() % 2 == 0) {
          ring.write_header(at, static_cast<std::uint32_t>(rng() % 12),
                            static_cast<std::uint16_t>(rng() % 40));
        }
      }
      const std::uint64_t tail = rng();
      const std::uint64_t span_pick = rng() % 8;
      const std::uint64_t span =
          span_pick == 0 ? rng()                       // anything
          : span_pick == 1 ? ring_size + rng() % 64    // overrun
                           : rng() % (ring_size + 1);  // plausible
      ring.page.data_tail = tail;
      ring.page.data_head = tail + span;
      walk_checked(ring);
    }
  }
}

}  // namespace
}  // namespace hetpapi
