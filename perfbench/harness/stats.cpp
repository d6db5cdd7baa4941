#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps an exact product (99/100 * 1000 = 990) from
  // rounding up to the next rank through binary representation error.
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - percentile_rank(n, p);
}

Series::Series(std::size_t capacity) : buf_(capacity, 0.0f) {}

void Series::add(double value) {
  const std::uint64_t i = seen_++;
  if (i < buf_.size()) {
    buf_[i] = static_cast<float>(value);
    return;
  }
  // Algorithm R: the i-th value replaces a random slot with probability
  // capacity / (i + 1). splitmix64 keeps the choice deterministic.
  std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint64_t j = z % (i + 1);
  if (j < buf_.size()) buf_[j] = static_cast<float>(value);
}

std::vector<double> Series::values() const {
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(seen_, buf_.size()));
  return std::vector<double>(buf_.begin(),
                             buf_.begin() + static_cast<std::ptrdiff_t>(n));
}

Summary Series::summary() {
  const auto n =
      static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(seen_, buf_.size()));
  return summarize(buf_.begin(), buf_.begin() + n);
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

}  // namespace perfbench
