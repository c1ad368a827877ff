// Reusable scratch for the cmdp counting sort.
//
// The per-step hot loop sorts every step through the counting-sort plan;
// before this arena each call heap-allocated (and freed) its lane tables.  One
// Workspace lives on each ThreadPool: a pool is not reentrant, so primitives
// running on the same pool never overlap and can share these buffers.
// Buffers only grow (resize keeps capacity across steps); release() returns
// the memory to the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cmdsmc::cmdp {

struct Workspace {
  // counting_sort_plan: per-key exclusive starts (key_bound + 1) and the
  // per-lane scatter cursors (lanes x key_bound).
  std::vector<std::uint32_t> sort_starts;
  std::vector<std::uint32_t> sort_cursors;

  // Bytes currently held across all buffers (telemetry's arena gauge).
  std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto* v : {&sort_starts, &sort_cursors}) {
      total += v->capacity() * sizeof(std::uint32_t);
    }
    return total;
  }

  // Frees every buffer (benchmarks use this to measure the cold-arena cost).
  void release() {
    for (auto* v : {&sort_starts, &sort_cursors}) {
      v->clear();
      v->shrink_to_fit();
    }
  }
};

// Grows (never shrinks) `v` to at least n elements and returns its data
// pointer.  Newly exposed contents are unspecified: callers must write
// before reading.
inline std::uint32_t* grown(std::vector<std::uint32_t>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace cmdsmc::cmdp
