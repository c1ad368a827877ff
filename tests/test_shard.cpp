// The cell-block shard partitioner: count-quantile boundary placement over
// the sort's starts table, greedy LPT lane assignment, degenerate inputs
// (hot cells, no particles), plan re-evaluation, agreement with the static
// split, and the parallel_shards coverage contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cmdp/parallel.h"
#include "cmdp/shard.h"
#include "cmdp/thread_pool.h"

namespace {

using namespace cmdsmc;

// The sort's per-cell first-position table for the given per-cell counts.
std::vector<std::uint32_t> starts_of(const std::vector<std::uint32_t>& counts) {
  std::vector<std::uint32_t> starts(counts.size());
  std::exclusive_scan(counts.begin(), counts.end(), starts.begin(), 0u);
  return starts;
}

std::size_t total(const std::vector<std::uint32_t>& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

// Every cell in [0, ncells) appears in exactly one shard, shards are
// contiguous and ascending, and order/lane_begin index every shard once.
void check_integrity(const cmdp::ShardPlan& plan, std::size_t ncells,
                     unsigned lanes) {
  ASSERT_FALSE(plan.bounds.empty());
  EXPECT_EQ(plan.bounds.front(), 0u);
  EXPECT_EQ(plan.bounds.back(), ncells);
  for (std::size_t s = 0; s + 1 < plan.bounds.size(); ++s)
    EXPECT_LE(plan.bounds[s], plan.bounds[s + 1]);

  EXPECT_EQ(plan.lanes, lanes);
  ASSERT_EQ(plan.lane_begin.size(), lanes + 1);
  EXPECT_EQ(plan.lane_begin.front(), 0u);
  EXPECT_EQ(plan.lane_begin.back(), plan.order.size());
  EXPECT_EQ(plan.order.size(), plan.count());
  std::vector<std::uint32_t> seen(plan.count(), 0);
  for (const std::uint32_t s : plan.order) {
    ASSERT_LT(s, plan.count());
    ++seen[s];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](std::uint32_t c) { return c == 1; }))
      << "order must visit every shard exactly once";
  // Within a lane the shards stay in ascending cell order (the executor
  // walks them front to back; keeps memory access monotone).
  for (unsigned t = 0; t < lanes; ++t)
    for (std::uint32_t k = plan.lane_begin[t];
         k + 1 < plan.lane_begin[t + 1]; ++k)
      EXPECT_LT(plan.order[k], plan.order[k + 1]);
}

TEST(ShardPlan, UniformCostSplitsAtQuantiles) {
  const std::vector<std::uint32_t> counts(64, 1);
  const auto plan = cmdp::build_shard_plan(starts_of(counts), 64, 8, 4);
  check_integrity(plan, 64, 4);
  ASSERT_EQ(plan.count(), 8u);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(plan.bounds[s + 1] - plan.bounds[s], 8u)
        << "uniform counts must give equal-size shards";
    EXPECT_EQ(plan.shard_cost[s], 8u);
  }
  // Equal loads on every lane: perfectly balanced.
  EXPECT_DOUBLE_EQ(plan.imbalance, 1.0);
}

TEST(ShardPlan, BoundariesTrackCostNotCellCount) {
  // All the particles crowd the first quarter (a shock layer): the shards
  // there must be narrow, the downstream ones wide.
  std::vector<std::uint32_t> counts(100, 1);
  for (int c = 0; c < 25; ++c) counts[c] = 1000;
  const auto plan =
      cmdp::build_shard_plan(starts_of(counts), total(counts), 10, 2);
  check_integrity(plan, 100, 2);
  const std::uint32_t first = plan.bounds[1] - plan.bounds[0];
  const std::uint32_t last = plan.bounds[plan.count()] -
                             plan.bounds[plan.count() - 1];
  EXPECT_LT(first, 10u) << "hot region should get narrow shards";
  EXPECT_GT(last, 10u) << "cold region should get wide shards";
}

TEST(ShardPlan, HotCellYieldsEmptyShardsNotASplitCell) {
  // One cell holds ~all the particles across several quantiles.  The cell
  // must not split; the plan absorbs it as empty shards beside one hot
  // shard.
  std::vector<std::uint32_t> counts(16, 1);
  counts[7] = 1000;
  const auto plan =
      cmdp::build_shard_plan(starts_of(counts), total(counts), 8, 4);
  check_integrity(plan, 16, 4);
  std::size_t empties = 0, hot = 0;
  for (std::size_t s = 0; s < plan.count(); ++s) {
    const std::uint32_t w = plan.bounds[s + 1] - plan.bounds[s];
    if (w == 0) ++empties;
    if (plan.bounds[s] <= 7 && 7 < plan.bounds[s + 1]) ++hot;
  }
  EXPECT_EQ(hot, 1u) << "cell 7 must land in exactly one shard";
  EXPECT_GT(empties, 0u);
  // One dominant shard on a 4-lane plan: the assignment is (nearly) all on
  // one lane, imbalance ~ lanes.
  EXPECT_GT(plan.imbalance, 3.0);
}

TEST(ShardPlan, GreedyAssignmentBalancesSkewedShards) {
  // Coarse cells (8, 7, ..., 1 particles) leave the quantile shards unequal
  // (8, 7, 0, 6, 5, 4, 3, 3); greedy LPT on 2 lanes still lands within one
  // shard of even.
  std::vector<std::uint32_t> counts;
  for (std::uint32_t c = 8; c >= 1; --c) counts.push_back(c);
  const auto plan =
      cmdp::build_shard_plan(starts_of(counts), total(counts), 8, 2);
  check_integrity(plan, counts.size(), 2);
  std::vector<std::uint64_t> load(2, 0);
  for (unsigned t = 0; t < 2; ++t)
    for (std::uint32_t k = plan.lane_begin[t]; k < plan.lane_begin[t + 1];
         ++k)
      load[t] += plan.shard_cost[plan.order[k]];
  EXPECT_EQ(load[0] + load[1], 36u);
  EXPECT_LE(std::max(load[0], load[1]) - std::min(load[0], load[1]), 4u)
      << "LPT must not leave more than one shard of spread";
  EXPECT_LE(plan.imbalance, 36.0 / 36.0 + 0.25);
}

TEST(ShardPlan, AllZeroCostFallsBackToEqualCells) {
  // No particles this step: the cells split equally.
  const std::vector<std::uint32_t> starts(40, 0);
  const auto plan = cmdp::build_shard_plan(starts, 0, 4, 2);
  check_integrity(plan, 40, 2);
  ASSERT_EQ(plan.count(), 4u);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_EQ(plan.bounds[s + 1] - plan.bounds[s], 10u);
}

TEST(ShardPlan, ShardCountClampsToCellCount) {
  const std::vector<std::uint32_t> starts = starts_of({1, 1, 1});
  const auto plan = cmdp::build_shard_plan(starts, 3, 64, 2);
  check_integrity(plan, 3, 2);
  EXPECT_LE(plan.count(), 3u);
  const auto one = cmdp::build_shard_plan(starts, 3, 0, 1);
  check_integrity(one, 3, 1);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_FALSE(one.active()) << "single lane never activates sharding";
}

TEST(ShardPlan, DeterministicForIdenticalInput) {
  std::vector<std::uint32_t> counts(128);
  for (std::size_t c = 0; c < counts.size(); ++c)
    counts[c] = static_cast<std::uint32_t>((c * 2654435761u) % 97);
  const auto starts = starts_of(counts);
  const auto a = cmdp::build_shard_plan(starts, total(counts), 12, 3);
  const auto b = cmdp::build_shard_plan(starts, total(counts), 12, 3);
  EXPECT_EQ(a.bounds, b.bounds);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.lane_begin, b.lane_begin);
  EXPECT_EQ(a.shard_cost, b.shard_cost);
  EXPECT_EQ(a.imbalance, b.imbalance);
}

TEST(ShardPlan, OneShardPerLaneCutsWhereTheStaticSplitDoes) {
  // Skewed occupancy with empty cells: the static split gives lane t the
  // cells whose first particle lies in lane_range(n, t, lanes); a plan with
  // one shard per lane must cut at exactly those cells (the static split
  // reads count_quantile_bounds itself; this pins the rule).
  std::vector<std::uint32_t> counts(500);
  for (std::size_t c = 0; c < counts.size(); ++c)
    counts[c] = c % 7 == 3 ? 0 : static_cast<std::uint32_t>(1 + c * c % 61);
  const auto starts = starts_of(counts);
  const std::size_t n = total(counts);
  for (const unsigned lanes : {2u, 3u, 4u, 7u}) {
    const auto plan = cmdp::build_shard_plan(starts, n, lanes, lanes);
    check_integrity(plan, counts.size(), lanes);
    EXPECT_EQ(plan.bounds, cmdp::count_quantile_bounds(starts, n, lanes));
    for (unsigned t = 0; t < lanes; ++t) {
      const cmdp::Range pr = cmdp::lane_range(n, t, lanes);
      const auto lo = std::lower_bound(starts.begin(), starts.end(),
                                       static_cast<std::uint32_t>(pr.begin));
      EXPECT_EQ(plan.bounds[t], static_cast<std::uint32_t>(lo - starts.begin()))
          << "lanes " << lanes << " lane " << t;
    }
    EXPECT_EQ(plan.bounds[lanes], counts.size());
    // Each shard's cost is the particle count of its cells.
    for (unsigned s = 0; s < lanes; ++s) {
      std::uint32_t expect = 0;
      for (std::uint32_t c = plan.bounds[s]; c < plan.bounds[s + 1]; ++c)
        expect += counts[c];
      EXPECT_EQ(plan.shard_cost[s], expect) << "lanes " << lanes;
    }
  }
}

TEST(ShardPlan, ImbalanceReevaluationTracksFreshCosts) {
  std::vector<std::uint32_t> counts(64, 1);
  auto plan = cmdp::build_shard_plan(starts_of(counts), 64, 8, 4);
  EXPECT_DOUBLE_EQ(cmdp::shard_plan_imbalance(plan, starts_of(counts), 64),
                   1.0);
  // Particles drift into the first shard's cells: the stale assignment's
  // predicted imbalance must rise without any boundary moving.
  const auto bounds_before = plan.bounds;
  for (std::uint32_t c = plan.bounds[0]; c < plan.bounds[1]; ++c)
    counts[c] = 50;
  const double imb =
      cmdp::shard_plan_imbalance(plan, starts_of(counts), total(counts));
  EXPECT_GT(imb, 1.5);
  EXPECT_EQ(plan.bounds, bounds_before);
  // shard_cost was refreshed in place.
  EXPECT_EQ(plan.shard_cost[0], 50u * (plan.bounds[1] - plan.bounds[0]));
}

TEST(ShardPlan, ParallelShardsCoversEveryCellOnce) {
  std::vector<std::uint32_t> counts(257);
  for (std::size_t c = 0; c < counts.size(); ++c)
    counts[c] = static_cast<std::uint32_t>(c % 13) + 1;
  cmdp::ThreadPool pool(4);
  const auto plan =
      cmdp::build_shard_plan(starts_of(counts), total(counts), 16, pool.size());
  ASSERT_TRUE(plan.active());
  std::vector<std::atomic<int>> hits(counts.size());
  for (auto& h : hits) h.store(0);
  cmdp::parallel_shards(pool, plan,
                        [&](std::uint32_t cb, std::uint32_t ce, unsigned) {
                          for (std::uint32_t c = cb; c < ce; ++c)
                            hits[c].fetch_add(1);
                        });
  for (std::size_t c = 0; c < hits.size(); ++c)
    ASSERT_EQ(hits[c].load(), 1) << "cell " << c;
}

}  // namespace
