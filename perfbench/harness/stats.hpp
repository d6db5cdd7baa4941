// Sample statistics for the benchmark's reported timings.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The fewest samples that must lie strictly beyond a reported
/// percentile for it to be reported at all.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank rule: the 1-based rank of the p-th percentile of n
/// sorted samples is ceil(p/100 * n), clamped to [1, n]. p is in
/// percent (50, 99). Returns 0 when n is 0.
std::size_t percentile_rank(std::size_t n, double p);

/// Samples strictly above the p-th percentile's rank: n - rank.
std::size_t samples_beyond(std::size_t n, double p);

/// The nearest-rank p-th percentile of [first, last) (reorders it).
/// 0 for an empty range.
template <typename It>
double percentile(It first, It last, double p) {
  if (first == last) return 0.0;
  const std::size_t k =
      percentile_rank(static_cast<std::size_t>(last - first), p) - 1;
  const It kth = first + static_cast<std::ptrdiff_t>(k);
  std::nth_element(first, kth, last);
  return static_cast<double>(*kth);
}
inline double percentile(std::vector<double>& samples, double p) {
  return percentile(samples.begin(), samples.end(), p);
}

/// One timing series: the samples plus the summary the report prints.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// samples_beyond(n, 99) >= kMinBeyond.
  bool p99_reportable = false;
};

/// Summary of [first, last) (reorders it).
template <typename It>
Summary summarize(It first, It last) {
  Summary s;
  s.n = static_cast<std::size_t>(last - first);
  if (s.n == 0) return s;
  s.p50 = percentile(first, last, 50);
  s.p99 = percentile(first, last, 99);
  s.p99_reportable = samples_beyond(s.n, 99) >= kMinBeyond;
  return s;
}
inline Summary summarize(std::vector<double>& samples) {
  return summarize(samples.begin(), samples.end());
}

/// A fixed-size uniform sample of a timing stream (reservoir sampling
/// with a fixed seed). The storage is allocated and zero-filled up
/// front, so the benchmark's own memory does not grow with the number
/// of operations a run happens to make. A series a run does not use is
/// made with capacity 0 and holds no memory.
class Series {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 20;
  explicit Series(std::size_t capacity = kCapacity);
  void add(double value);
  /// Values offered, retained or not.
  std::uint64_t seen() const { return seen_; }
  /// The retained sample (at most `capacity` values), in no order.
  std::vector<double> values() const;
  /// Summary of the retained sample. Computed in place (it reorders
  /// the sample), so reporting needs no memory of its own; add() after
  /// it keeps a uniform sample all the same.
  Summary summary();

 private:
  std::vector<float> buf_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x853c49e6748fea9bULL;
};

/// FNV-1a over the deterministic outputs of a round: the values read,
/// the samples delivered and the frame bytes clients received.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
