// hetbench: runs one benchmark workload for a fixed time and prints its
// metrics; the last line of stdout is the JSON result.
//
//   hetbench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out PATH]
//
// --trace 0 runs untraced rounds only and reports the end-to-end
// metrics. --trace 1 alternates untraced and traced rounds (probes
// installed, spans recorded, allocations counted) and reports the
// per-layer metrics; its untraced rounds give the base of
// trace.overhead_ratio and the reference outputs the traced rounds must
// reproduce byte for byte. Workloads: counting_read, service_fanout,
// sampling_drain, eventset_churn.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "harness/alloc_count.hpp"
#include "workloads/workload.hpp"

using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload.empty() || o.seconds <= 0) usage(argv[0]);
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool traced) {
  static const std::map<std::string,
                        std::function<std::unique_ptr<Workload>(bool)>>
      kWorkloads = {{"counting_read", make_counting_read},
                    {"service_fanout", make_service_fanout},
                    {"sampling_drain", make_sampling_drain},
                    {"eventset_churn", make_eventset_churn}};
  const auto it = kWorkloads.find(name);
  return it == kWorkloads.end() ? nullptr : it->second(traced);
}

Counts minus(const Counts& a, const Counts& b) {
  Counts d;
  for (std::size_t i = 0; i < kNumCounts; ++i) d.v[i] = a.v[i] - b.v[i];
  return d;
}

/// The process's resident memory, in MB, from /proc/self/status (not
/// getrusage: ru_maxrss also holds the peak of the process that exec'd
/// this one, the Python launcher, which is larger than this program's).
/// -1 when unreadable.
struct Rss {
  double peak_mb = -1.0;  // VmHWM: the high-water mark of all of it
  double anon_mb = -1.0;  // RssAnon: heap and stacks
  double file_mb = -1.0;  // RssFile + RssShmem: mapped files
};
Rss read_rss() {
  Rss rss;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return rss;
  char line[256];
  double file_kb = 0.0;
  int file_fields = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      rss.peak_mb = static_cast<double>(kb) / 1024.0;
    } else if (std::sscanf(line, "RssAnon: %ld kB", &kb) == 1) {
      rss.anon_mb = static_cast<double>(kb) / 1024.0;
    } else if (std::sscanf(line, "RssFile: %ld kB", &kb) == 1 ||
               std::sscanf(line, "RssShmem: %ld kB", &kb) == 1) {
      file_kb += static_cast<double>(kb);
      ++file_fields;
    }
  }
  std::fclose(f);
  if (file_fields == 2) rss.file_mb = file_kb / 1024.0;
  return rss;
}

void print_metric(const Metric& m) {
  std::printf("metric %-44s %16.6f %-6s n=%" PRIu64 "\n", m.name.c_str(),
              m.value, m.unit.c_str(), m.n);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.trace);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }

  // Rounds: the first untraced round (and, traced, the first traced
  // round) warm caches and lazy statics and are not reported.
  Tracer tracer;
  Tracer warmup_tracer;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(opt.seconds * 1e9);
  // A hard stop well inside the 180 s a run may take.
  const std::int64_t hard_stop = start + static_cast<std::int64_t>(150e9);
  // Preallocated, like the workloads' series, so the harness's memory
  // does not grow with the number of rounds.
  Series setup_s(std::size_t{1} << 14);
  double sim_host_ns = 0.0;
  double sim_ms = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  bool digest_mismatch = false;
  Counts round_counts;
  bool counts_mismatch = false;
  int untraced_measured = 0;
  int traced_measured = 0;
  int rounds = 0;
  // peak_rss_mb is the program's own memory: the peak of the process's
  // heap and stacks above what they hold before the first round (the
  // harness's preallocated series). Mapped files are left out: which
  // pages of the binary fault in depends on the host's page cache.
  const Rss base_rss = read_rss();
  for (;; ++rounds) {
    const std::int64_t now = now_ns();
    const bool enough = opt.trace
                            ? traced_measured >= 2 && untraced_measured >= 2
                            : untraced_measured >= 3;
    if ((now >= deadline && enough) || now >= hard_stop) break;

    const bool traced = opt.trace && rounds % 2 == 1;
    const bool measured = rounds >= (opt.trace ? 2 : 1);
    Tracer* t = traced ? (measured ? &tracer : &warmup_tracer) : nullptr;
    const Counts before = t != nullptr ? t->total_counts() : Counts{};
    Api api(t);
    RoundEnv env(opt.seed, api, measured);
    set_alloc_counting(traced);
    workload->round(env);
    set_alloc_counting(false);
    if (t != nullptr) t->flush();

    attempted += env.attempted;
    failed += env.failed;
    for (const std::string& e : env.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
    if (rounds == 0) {
      digest = env.digest.get();
    } else if (env.digest.get() != digest) {
      digest_mismatch = true;
    }
    if (!measured) continue;
    sim_host_ns += env.sim_host_ns;
    sim_ms += env.sim_ms;
    if (traced) {
      // The exact counts must repeat bit for bit from round to round.
      const Counts delta = minus(t->total_counts(), before);
      if (traced_measured > 0 && !(delta == round_counts)) {
        counts_mismatch = true;
      }
      round_counts = delta;
      ++traced_measured;
    } else {
      setup_s.add(env.setup_s);
      ++untraced_measured;
    }
  }

  Headline h;
  std::vector<Metric> detail;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  const auto put = [&](const std::string& name, double value,
                       const std::string& unit) {
    metrics[name] = value;
    units[name] = unit;
  };
  bool trace_written = true;
  bool rss_read = true;
  if (!opt.trace) {
    workload->end_to_end(h, detail);
    const double setup = setup_s.summary().p50;
    const bool own_failed_ratio =
        std::any_of(detail.begin(), detail.end(),
                    [](const Metric& m) { return m.name == "ops_failed_ratio"; });
    if (!own_failed_ratio) {
      detail.insert(detail.begin(),
                    {"ops_failed_ratio",
                     per(static_cast<double>(failed), static_cast<double>(attempted)),
                     "ratio", attempted});
    }
    // Mapped files only grow, so the file part of the high-water mark
    // is at most the file part at the end.
    const Rss end_rss = read_rss();
    const double peak_rss =
        end_rss.peak_mb - end_rss.file_mb - base_rss.anon_mb;
    rss_read = base_rss.anon_mb >= 0 && end_rss.peak_mb >= 0 &&
               end_rss.file_mb >= 0;
    if (!rss_read) errors.push_back("cannot read /proc/self/status");
    detail.insert(detail.begin(), {{"setup_s", setup, "s", setup_s.seen()},
                                   {"peak_rss_mb", peak_rss, "MB", 1}});
    put("setup_s", setup, "s");
    put("peak_rss_mb", peak_rss, "MB");
    put("op_us_p99", h.op_us.p99, "us");
    put("throughput_per_s", h.throughput_per_s, "1/s");
  } else {
    workload->per_layer(tracer, h, detail);
    const double host_ns_per_sim_ms = per(sim_host_ns, sim_ms);
    const double overhead = workload->trace_overhead_ratio();
    detail.push_back({"simkernel.host_ns_per_sim_ms", host_ns_per_sim_ms, "ns",
                      static_cast<std::uint64_t>(sim_ms)});
    detail.push_back({"trace.overhead_ratio", overhead, "ratio",
                      static_cast<std::uint64_t>(traced_measured)});
    put("api.self_us_p50", h.api_self_us_p50, "us");
    put("backend.us_per_op", h.backend_us_per_op, "us");
    put("backend.calls_per_op", h.backend_calls_per_op, "count");
    put("heap.allocs_per_op", h.heap_allocs_per_op, "count");
    put("simkernel.host_ns_per_sim_ms", host_ns_per_sim_ms, "ns");
    put("trace.overhead_ratio", overhead, "ratio");
    if (!opt.trace_out.empty()) {
      trace_written = tracer.write_chrome_json(opt.trace_out);
      if (!trace_written) errors.push_back("cannot write " + opt.trace_out);
    }
  }

  std::printf("perfbench workload=%s seed=%" PRIu64 " trace=%d rounds=%d "
              "measured_untraced=%d measured_traced=%d digest=%016" PRIx64 "\n",
              opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0, rounds,
              untraced_measured, traced_measured, digest);
  for (const Metric& m : detail) print_metric(m);
  if (digest_mismatch) errors.push_back("round outputs differ between rounds");
  if (counts_mismatch) errors.push_back("exact counts differ between rounds");
  const bool p99_ok = opt.trace || h.op_us.p99_reportable;
  if (!p99_ok) errors.push_back("fewer than 10 samples beyond p99");
  for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());

  const bool correct =
      failed == 0 && !digest_mismatch && !counts_mismatch && p99_ok &&
      trace_written && rss_read;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, units[name].c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
