// Spans and work counts for the benchmark's traced run.
//
// The traced run records a span around every public call the benchmark
// makes (the call adapter, harness/api.hpp) and around every call that
// crosses one of the program's own seams (the probes,
// harness/probes.hpp). A span with no open parent is an operation: when
// it closes, the tracer folds the operation's spans into per-name
// aggregates (self time, layer time, work counts) and keeps the raw
// spans, up to a limit, for the chrome://tracing file written at exit.
//
// Nothing here runs in an untraced run: the adapter skips its spans
// when it has no tracer and the probes are not installed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

/// Work counted at a layer boundary, charged to the open operation.
enum class Count : int {
  kAllocs,         // operator new calls (harness/alloc_count.cpp)
  kBackendCalls,   // every call through papi::Backend
  kBackendOpens,   // perf_event_open
  kBackendCloses,  // perf_close
  kBackendReads,   // perf_read, perf_read_group, perf_rdpmc
  kRingPolls,      // perf_ring_poll
  kHostReads,      // pfm::Host read_file / list_dir
  kServerSends,    // daemon-side Connection::send
  kServerBytes,
  kClientSends,    // client-side Connection::send
  kClientBytes,
  kClientReceives,  // client-side Connection::receive
  kClientReceivedBytes,
  kNum,
};
inline constexpr std::size_t kNumCounts = static_cast<std::size_t>(Count::kNum);

struct Counts {
  std::array<std::uint64_t, kNumCounts> v{};
  std::uint64_t operator[](Count c) const {
    return v[static_cast<std::size_t>(c)];
  }
  Counts& operator+=(const Counts& o) {
    for (std::size_t i = 0; i < kNumCounts; ++i) v[i] += o.v[i];
    return *this;
  }
  bool operator==(const Counts&) const = default;
};

struct Span {
  const char* name = "";  // a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the parent span in the same span vector; -1 for an
  /// operation's root.
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// Self time of every span in `spans` (one operation, parents indexed
/// relative to `base`): its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<std::int64_t> self_times(const Span* spans, std::size_t n,
                                     std::size_t base = 0);
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  return self_times(spans.data(), spans.size());
}

/// The layer a span belongs to when it is a probe span: the name's text
/// before the first '.', for the probe layers "backend", "pfm" and
/// "transport"; empty for every other span.
std::string probe_layer(const char* name);

/// Aggregate over every operation whose root span has one name.
struct OpAggregate {
  std::uint64_t ops = 0;
  /// Summed root durations, and the summed time spent in the called
  /// layer itself: duration minus the time in probe spans.
  double duration_ns = 0.0;
  double program_total_ns = 0.0;
  /// The same program time per operation, for its median.
  std::vector<float> program_ns;
  /// Time in probe spans per layer ("backend", "pfm", "transport") and
  /// per probe span name, summed over the operations.
  std::map<std::string, double> layer_ns;
  std::map<std::string, double> probe_ns;
  Counts counts;

  /// Merge another aggregate into this one (reads and qualified reads
  /// together, say).
  OpAggregate& operator+=(const OpAggregate& o);
  /// Median program time per operation (reorders program_ns).
  double program_p50_ns();
  /// Time in one probe layer ("backend") or probe span
  /// ("backend.perf_close"); 0 when none ran.
  double layer(const std::string& name) const;
  double probe(const std::string& name) const;
  /// One count per operation; 0 when there was no operation.
  double per_op(Count c) const;
};

/// Every non-probe span below a root, by name, at any depth (the
/// papi.add_event calls inside an eventset_churn region, the daemon
/// polls a client RPC pumps).
struct ChildAggregate {
  double duration_ns = 0.0;
  std::vector<float> self_ns;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span as a child of the innermost open span (or as a new
  /// operation). Returns the handle end() takes.
  int begin(const char* name);
  void end(int handle);
  /// Charge work to the open operation (or to the outside bucket).
  void add(Count c, std::uint64_t n = 1);

  /// Fold the operations recorded since the last flush into the
  /// aggregates and the kept spans. Recording only appends; the folding
  /// runs here, between rounds, or when an operation closes with more
  /// than kFlushSpans spans buffered, which bounds the buffer. Call it
  /// with no span open.
  void flush();
  static constexpr std::size_t kFlushSpans = std::size_t{1} << 16;
  /// Raw spans retained for the trace file; each root name may fill at
  /// most an eighth of it, so set-up calls cannot crowd the
  /// steady-state operations out of the file.
  static constexpr std::size_t kKeepSpans = 50000;

  const std::map<std::string, OpAggregate, std::less<>>& ops() const {
    return ops_;
  }
  const std::map<std::string, ChildAggregate, std::less<>>& children() const {
    return children_;
  }
  /// Sum of every flushed operation's counts plus the work counted
  /// while no operation was open.
  Counts total_counts() const;

  /// chrome://tracing "traceEvents" JSON of the kept spans. Returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  /// One recorded operation: its spans are spans_[first, first + size).
  struct OpRecord {
    std::size_t first = 0;
    std::size_t size = 0;
    Counts counts;
  };

  std::vector<Span> spans_;
  std::vector<OpRecord> records_;
  Counts op_counts_;
  std::uint64_t op_alloc_base_ = 0;
  std::size_t op_first_ = 0;
  int current_ = -1;
  std::uint64_t next_op_ = 1;
  std::map<std::string, OpAggregate, std::less<>> ops_;
  std::map<std::string, ChildAggregate, std::less<>> children_;
  Counts outside_;
  std::vector<Span> kept_;
  std::map<std::string, std::size_t, std::less<>> kept_by_root_;
  /// Global index of each kept span's parent (-1 = root).
  std::vector<std::int64_t> kept_parent_;
};

}  // namespace perfbench
