// Cell-block domain sharding: the dynamic-load-balance counterpart of the
// static lane_range partition in parallel.h.
//
// The domain is cut into contiguous runs of pairing cells in sort-key order
// ("shards"), so after the counting sort each shard is a contiguous run of
// the particle arrays.  Shards are priced by particle count: the sort's
// per-cell first-position table (`starts`) already is the prefix sum of the
// counts, so a lower_bound on it places the boundaries at count quantiles
// and a shard's count is the difference of two entries.  A greedy
// longest-processing-time pass assigns shards to lanes.  Hypersonic runs
// concentrate particles in the shock layer, so equal-cell partitions leave
// lanes idle — the MPI-era cure (Binder et al., space-filling-curve cost
// partitioning) collapses here to binary searches over a table the sort
// already produces.
//
// The plan carries no physics: which lane executes a cell block changes
// neither the RNG streams (keyed by particle index and step) nor any write
// (per-cell work is disjoint), so any assignment is bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cmdp/thread_pool.h"

namespace cmdsmc::cmdp {

struct ShardPlan {
  // Shard s covers pairing cells [bounds[s], bounds[s+1]).  Monotone
  // non-decreasing; a shard may be empty when one hot cell spans several
  // count quantiles (a single cell never splits).
  std::vector<std::uint32_t> bounds;
  // Shard ids grouped by owning lane: lane t executes
  // order[lane_begin[t] .. lane_begin[t+1]).
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> lane_begin;  // lanes + 1 offsets into order
  std::vector<std::uint32_t> shard_cost;  // particles per shard, last evaluation
  unsigned lanes = 0;
  // Predicted max-lane / mean-lane particle count of the assignment at build
  // time (1.0 = perfectly balanced).
  double imbalance = 1.0;

  std::size_t count() const { return bounds.empty() ? 0 : bounds.size() - 1; }
  bool active() const { return lanes > 1 && count() > 0; }
  void clear() {
    bounds.clear();
    order.clear();
    lane_begin.clear();
    shard_cost.clear();
    lanes = 0;
    imbalance = 1.0;
  }
};

// Cuts the cells of a cell-sorted store into `nparts` (>= 1) contiguous runs
// at particle-count quantiles.  starts[c] is the first sorted position of
// cell c and n the particle count; run k begins at the first cell whose
// first particle lies at or past lane_range(n, k, nparts).begin.  Returns
// nparts + 1 monotone bounds from 0 to starts.size().  With no particles
// the cells split equally.
std::vector<std::uint32_t> count_quantile_bounds(
    const std::vector<std::uint32_t>& starts, std::size_t n, unsigned nparts);

// Builds `nshards` shards at count_quantile_bounds, then assigns them to
// `lanes` lanes greedily: heaviest shard first into the least-loaded lane,
// ties to the lowest lane.  Deterministic: identical tables give an
// identical plan.  nshards is clamped to [1, starts.size()].
ShardPlan build_shard_plan(const std::vector<std::uint32_t>& starts,
                           std::size_t n, unsigned nshards, unsigned lanes);

// Re-evaluates an existing plan's assignment against a fresh starts table
// without moving any boundary: refreshes plan.shard_cost and returns the
// predicted max/mean lane-count imbalance (the repartition trigger input).
// O(shards).
double shard_plan_imbalance(ShardPlan& plan,
                            const std::vector<std::uint32_t>& starts,
                            std::size_t n);

// Shard-aware parallel-for: every lane walks its assigned shards, invoking
// fn(cell_begin, cell_end, tid) once per shard.  The caller guarantees
// plan.active() and plan.lanes == pool.size().
template <class Fn>
void parallel_shards(ThreadPool& pool, const ShardPlan& plan, Fn&& fn) {
  pool.parallel([&](unsigned tid) {
    for (std::uint32_t k = plan.lane_begin[tid]; k < plan.lane_begin[tid + 1];
         ++k) {
      const std::uint32_t s = plan.order[k];
      if (plan.bounds[s] < plan.bounds[s + 1])
        fn(plan.bounds[s], plan.bounds[s + 1], tid);
    }
  });
}

}  // namespace cmdsmc::cmdp
