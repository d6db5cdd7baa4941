// Heap allocation counting for the traced run: this file's translation
// unit replaces the global operator new with one that counts calls
// while counting is switched on. Only the traced rounds switch it on;
// untraced rounds pay one relaxed load per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);
bool alloc_counting();
/// operator new calls made while counting was on, since process start.
std::uint64_t alloc_count();

/// Switches counting off for its scope (the tracer's own bookkeeping
/// must not count against the operation it records).
class AllocPause {
 public:
  AllocPause() : saved_(alloc_counting()) { set_alloc_counting(false); }
  ~AllocPause() { set_alloc_counting(saved_); }
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool saved_;
};

}  // namespace perfbench
