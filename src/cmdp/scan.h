// Scan (parallel prefix) primitives, after Hillis & Steele, "Data Parallel
// Algorithms", CACM 29(12).  The paper uses scans to obtain cell densities
// and to allocate space when refilling the plunger void.  The library's one
// caller is the counting sort (inclusive_scan over the key histogram); the
// exclusive and segmented forms are the CM primitives, exercised only by
// their tests and bench/micro_primitives — per-cell sums read the sort's
// starts table instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "cmdp/parallel.h"
#include "cmdp/thread_pool.h"

namespace cmdsmc::cmdp {

// out[i] = op(in[0], ..., in[i]).  Two-pass: per-lane partials, then offset.
// `in` and `out` may alias.
template <class T, class Op>
void inclusive_scan(ThreadPool& pool, std::span<const T> in, std::span<T> out,
                    Op op, T identity) {
  const std::size_t n = in.size();
  if (pool.size() == 1 || n < kSerialCutoff) {
    T acc = identity;
    for (std::size_t i = 0; i < n; ++i) {
      acc = op(acc, in[i]);
      out[i] = acc;
    }
    return;
  }
  const unsigned lanes = pool.size();
  LanePartials<T> partial(lanes, identity);
  pool.parallel([&](unsigned tid) {
    const Range r = lane_range(n, tid, lanes);
    T acc = identity;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      acc = op(acc, in[i]);
      out[i] = acc;
    }
    partial[tid] = acc;
  });
  LanePartials<T> offset(lanes, identity);
  T acc = identity;
  for (unsigned t = 0; t < lanes; ++t) {
    offset[t] = acc;
    acc = op(acc, partial[t]);
  }
  pool.parallel([&](unsigned tid) {
    if (tid == 0) return;
    const Range r = lane_range(n, tid, lanes);
    const T off = offset[tid];
    for (std::size_t i = r.begin; i < r.end; ++i) out[i] = op(off, out[i]);
  });
}

// out[i] = op(in[0], ..., in[i-1]); out[0] = identity.  Returns the total.
template <class T, class Op>
T exclusive_scan(ThreadPool& pool, std::span<const T> in, std::span<T> out,
                 Op op, T identity) {
  const std::size_t n = in.size();
  if (n == 0) return identity;
  // Serial fallback handles aliasing by carrying the previous value.
  if (pool.size() == 1 || n < kSerialCutoff) {
    T acc = identity;
    for (std::size_t i = 0; i < n; ++i) {
      T v = in[i];
      out[i] = acc;
      acc = op(acc, v);
    }
    return acc;
  }
  const unsigned lanes = pool.size();
  LanePartials<T> partial(lanes, identity);
  pool.parallel([&](unsigned tid) {
    const Range r = lane_range(n, tid, lanes);
    T acc = identity;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      T v = in[i];
      out[i] = acc;
      acc = op(acc, v);
    }
    partial[tid] = acc;
  });
  LanePartials<T> offset(lanes, identity);
  T acc = identity;
  for (unsigned t = 0; t < lanes; ++t) {
    offset[t] = acc;
    acc = op(acc, partial[t]);
  }
  pool.parallel([&](unsigned tid) {
    if (tid == 0) return;
    const Range r = lane_range(n, tid, lanes);
    const T off = offset[tid];
    for (std::size_t i = r.begin; i < r.end; ++i) out[i] = op(off, out[i]);
  });
  return acc;
}

// Segmented inclusive scan: the scan restarts wherever segment_start[i] != 0.
// This is the CM "scan with segment bits" used to combine values per cell
// once particles are sorted by cell index.
template <class T, class Op>
void segmented_inclusive_scan(ThreadPool& pool, std::span<const T> in,
                              std::span<const std::uint8_t> segment_start,
                              std::span<T> out, Op op, T identity) {
  const std::size_t n = in.size();
  if (n == 0) return;
  auto serial = [&](std::size_t b, std::size_t e, T carry) {
    T acc = carry;
    for (std::size_t i = b; i < e; ++i) {
      acc = segment_start[i] ? in[i] : op(acc, in[i]);
      out[i] = acc;
    }
    return acc;
  };
  if (pool.size() == 1 || n < kSerialCutoff) {
    serial(0, n, identity);
    return;
  }
  const unsigned lanes = pool.size();
  // Pass 1: scan each lane independently; record whether any segment start
  // occurred in the lane and the lane's trailing accumulated value.
  LanePartials<T> tail(lanes, identity);
  LanePartials<std::uint8_t> sealed(lanes, 0);  // lane has a segment start
  pool.parallel([&](unsigned tid) {
    const Range r = lane_range(n, tid, lanes);
    T acc = identity;
    bool seen = false;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      if (segment_start[i]) {
        acc = in[i];
        seen = true;
      } else {
        acc = op(acc, in[i]);
      }
      out[i] = acc;
    }
    tail[tid] = acc;
    sealed[tid] = seen ? 1 : 0;
  });
  // Carry across lanes: a lane's incoming carry is the previous lanes' scan,
  // reset by the most recent sealed lane.
  LanePartials<T> carry(lanes, identity);
  T acc = identity;
  for (unsigned t = 0; t < lanes; ++t) {
    carry[t] = acc;
    acc = sealed[t] ? tail[t] : op(acc, tail[t]);
  }
  // Pass 2: fold the carry into each lane's prefix before its first segment
  // start.
  pool.parallel([&](unsigned tid) {
    const Range r = lane_range(n, tid, lanes);
    const T c = carry[tid];
    for (std::size_t i = r.begin; i < r.end; ++i) {
      if (segment_start[i]) break;
      out[i] = op(c, out[i]);
    }
  });
}

}  // namespace cmdsmc::cmdp
