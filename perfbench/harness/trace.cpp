#include "harness/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "harness/alloc_count.hpp"
#include "harness/stats.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times(const Span* spans, std::size_t n,
                                     std::size_t base) {
  std::vector<std::vector<std::size_t>> kids(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) {
      kids[static_cast<std::size_t>(spans[i].parent) - base].push_back(i);
    }
  }
  std::vector<std::int64_t> self(n);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::size_t k : kids[i]) {
      const std::int64_t lo = std::max(spans[k].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[k].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::string probe_layer(const char* name) {
  for (const char* layer : {"backend", "pfm", "transport"}) {
    const std::size_t n = std::strlen(layer);
    if (std::strncmp(name, layer, n) == 0 && name[n] == '.') return layer;
  }
  return {};
}

OpAggregate& OpAggregate::operator+=(const OpAggregate& o) {
  ops += o.ops;
  duration_ns += o.duration_ns;
  program_total_ns += o.program_total_ns;
  program_ns.insert(program_ns.end(), o.program_ns.begin(), o.program_ns.end());
  for (const auto& [layer, ns] : o.layer_ns) layer_ns[layer] += ns;
  for (const auto& [span, ns] : o.probe_ns) probe_ns[span] += ns;
  counts += o.counts;
  return *this;
}

double OpAggregate::program_p50_ns() {
  return percentile(program_ns.begin(), program_ns.end(), 50);
}

double OpAggregate::layer(const std::string& name) const {
  const auto it = layer_ns.find(name);
  return it == layer_ns.end() ? 0.0 : it->second;
}

double OpAggregate::probe(const std::string& name) const {
  const auto it = probe_ns.find(name);
  return it == probe_ns.end() ? 0.0 : it->second;
}

double OpAggregate::per_op(Count c) const {
  return ops == 0 ? 0.0
                  : static_cast<double>(counts[c]) / static_cast<double>(ops);
}

Tracer::Tracer() {
  const AllocPause pause;
  spans_.reserve(2 * kFlushSpans);
  records_.reserve(kFlushSpans);
  kept_.reserve(kKeepSpans);
  kept_parent_.reserve(kKeepSpans);
}

int Tracer::begin(const char* name) {
  const AllocPause pause;
  Span span;
  span.name = name;
  span.parent = current_;
  if (current_ < 0) {
    op_counts_ = Counts{};
    op_first_ = spans_.size();
    op_alloc_base_ = alloc_count();
  }
  span.op = next_op_;
  spans_.push_back(span);
  current_ = static_cast<int>(spans_.size() - 1);
  // Stamped last so the tracer's own bookkeeping stays outside the span.
  spans_.back().start_ns = now_ns();
  return current_;
}

void Tracer::end(int handle) {
  const std::int64_t t = now_ns();
  const std::uint64_t allocs = alloc_count();
  const AllocPause pause;
  Span& span = spans_[static_cast<std::size_t>(handle)];
  span.end_ns = t;
  current_ = span.parent;
  if (current_ < 0) {
    op_counts_.v[static_cast<std::size_t>(Count::kAllocs)] +=
        allocs - op_alloc_base_;
    records_.push_back({op_first_, spans_.size() - op_first_, op_counts_});
    ++next_op_;
    if (spans_.size() >= kFlushSpans) flush();
  }
}

void Tracer::add(Count c, std::uint64_t n) {
  (current_ >= 0 ? op_counts_ : outside_).v[static_cast<std::size_t>(c)] += n;
}

void Tracer::flush() {
  const AllocPause pause;
  for (const OpRecord& rec : records_) {
    const Span* op = spans_.data() + rec.first;
    const std::vector<std::int64_t> self = self_times(op, rec.size, rec.first);
    const Span& root = op[0];
    auto it = ops_.find(std::string_view(root.name));
    if (it == ops_.end()) it = ops_.emplace(root.name, OpAggregate{}).first;
    OpAggregate& agg = it->second;
    ++agg.ops;
    const auto duration = static_cast<double>(root.end_ns - root.start_ns);
    agg.duration_ns += duration;
    agg.counts += rec.counts;
    double probe_total = 0.0;
    for (std::size_t i = 1; i < rec.size; ++i) {
      const Span& s = op[i];
      const std::string layer = probe_layer(s.name);
      if (!layer.empty()) {
        // A probe span below another probe span (a client receive that
        // pumps the daemon into a send) is already covered by it.
        bool covered = false;
        for (std::int32_t p = s.parent; p >= 0 && !covered;
             p = spans_[static_cast<std::size_t>(p)].parent) {
          covered = !probe_layer(spans_[static_cast<std::size_t>(p)].name).empty();
        }
        if (!covered) {
          const auto d = static_cast<double>(s.end_ns - s.start_ns);
          agg.layer_ns[layer] += d;
          agg.probe_ns[s.name] += d;
          probe_total += d;
        }
      } else {
        auto child = children_.find(std::string_view(s.name));
        if (child == children_.end()) {
          child = children_.emplace(s.name, ChildAggregate{}).first;
        }
        child->second.duration_ns += static_cast<double>(s.end_ns - s.start_ns);
        child->second.self_ns.push_back(static_cast<float>(self[i]));
      }
    }
    agg.program_total_ns += duration - probe_total;
    agg.program_ns.push_back(static_cast<float>(duration - probe_total));
    auto kept = kept_by_root_.find(std::string_view(root.name));
    if (kept == kept_by_root_.end()) kept = kept_by_root_.emplace(root.name, 0).first;
    if (kept_.size() + rec.size <= kKeepSpans &&
        kept->second + rec.size <= kKeepSpans / 8) {
      kept->second += rec.size;
      const auto shift = static_cast<std::int64_t>(kept_.size()) -
                         static_cast<std::int64_t>(rec.first);
      for (std::size_t i = 0; i < rec.size; ++i) {
        kept_.push_back(op[i]);
        kept_parent_.push_back(op[i].parent < 0 ? -1 : op[i].parent + shift);
      }
    }
  }
  records_.clear();
  if (current_ < 0) spans_.clear();
}

Counts Tracer::total_counts() const {
  Counts total = outside_;
  for (const auto& [name, agg] : ops_) total += agg.counts;
  for (const OpRecord& rec : records_) total += rec.counts;
  return total;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(kept_parent_[i]),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
