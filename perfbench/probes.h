// Machine probes the traced run sets the phase timings against: the
// last-level cache size, a STREAM-triad bandwidth roof and the fork-join
// dispatch cost, all measured on the workload's own thread pool.
#pragma once

#include <cstddef>
#include <string>

#include "cmdp/thread_pool.h"

namespace perfbench {

struct CacheInfo {
  std::size_t bytes = 0;  // size of the highest-level cache of cpu0
  int level = 0;
  std::string source;     // where the size came from
};

// Reads the highest cache level of cpu0 from sysfs.  Falls back to 64 MiB
// (level 0, source says so) where sysfs exposes no cache description.
CacheInfo last_level_cache();

struct TriadResult {
  double gbps = 0.0;            // best of the repetitions, 1e9 bytes/s
  std::size_t array_bytes = 0;  // bytes of each of the three arrays
  bool valid = false;           // every a[i] read back as b[i] + s * c[i]
};

// STREAM triad a[i] = b[i] + s * c[i] over three arrays of at least
// `min_array_bytes` each, split evenly over the pool's lanes and
// first-touched by the lane that later streams them.  Counts 24 bytes per
// element (two reads, one write; write-allocate traffic not counted).
TriadResult triad_roof(cmdsmc::cmdp::ThreadPool& pool,
                       std::size_t min_array_bytes);

// Median wall microseconds of one empty ThreadPool::parallel round trip.
double dispatch_us(cmdsmc::cmdp::ThreadPool& pool);

}  // namespace perfbench
