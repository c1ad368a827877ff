#include "cmdp/shard.h"

#include <algorithm>
#include <numeric>

#include "cmdp/parallel.h"

namespace cmdsmc::cmdp {

namespace {

// Particles in each shard: the difference of the starts entries at its
// bounds (a bound past the last cell stands for n).
void fill_shard_counts(ShardPlan& plan, const std::vector<std::uint32_t>& starts,
                       std::size_t n) {
  const auto start_of = [&](std::uint32_t c) {
    return c < starts.size() ? starts[c] : static_cast<std::uint32_t>(n);
  };
  plan.shard_cost.resize(plan.count());
  for (std::size_t s = 0; s < plan.count(); ++s)
    plan.shard_cost[s] = start_of(plan.bounds[s + 1]) - start_of(plan.bounds[s]);
}

// Max-lane / mean-lane particle count of the plan's current assignment.
double lane_imbalance(const ShardPlan& plan) {
  std::uint64_t max_load = 0;
  std::uint64_t sum = 0;
  for (unsigned t = 0; t < plan.lanes; ++t) {
    std::uint64_t load = 0;
    for (std::uint32_t k = plan.lane_begin[t]; k < plan.lane_begin[t + 1]; ++k)
      load += plan.shard_cost[plan.order[k]];
    max_load = std::max(max_load, load);
    sum += load;
  }
  return sum > 0 ? static_cast<double>(max_load) * plan.lanes /
                       static_cast<double>(sum)
                 : 1.0;
}

// Greedy LPT shard -> lane assignment over plan.shard_cost; fills
// plan.order / plan.lane_begin.
void assign_lanes(ShardPlan& plan) {
  const std::size_t nshards = plan.count();
  const unsigned lanes = plan.lanes;
  std::vector<std::uint32_t> by_cost(nshards);
  std::iota(by_cost.begin(), by_cost.end(), 0u);
  // Heaviest first; stable so equal costs keep shard order (determinism).
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return plan.shard_cost[a] > plan.shard_cost[b];
                   });
  std::vector<std::uint64_t> load(lanes, 0);
  std::vector<std::uint32_t> lane_of(nshards, 0);
  for (const std::uint32_t s : by_cost) {
    unsigned best = 0;
    for (unsigned t = 1; t < lanes; ++t)
      if (load[t] < load[best]) best = t;
    lane_of[s] = best;
    load[best] += plan.shard_cost[s];
  }
  // Bucket shard ids by lane, keeping ascending shard order within a lane
  // (contiguous-ish walks help locality).
  plan.lane_begin.assign(lanes + 1, 0);
  for (std::size_t s = 0; s < nshards; ++s) ++plan.lane_begin[lane_of[s] + 1];
  for (unsigned t = 0; t < lanes; ++t)
    plan.lane_begin[t + 1] += plan.lane_begin[t];
  plan.order.resize(nshards);
  std::vector<std::uint32_t> cur(plan.lane_begin.begin(),
                                 plan.lane_begin.end() - 1);
  for (std::size_t s = 0; s < nshards; ++s)
    plan.order[cur[lane_of[s]]++] = static_cast<std::uint32_t>(s);
}

}  // namespace

std::vector<std::uint32_t> count_quantile_bounds(
    const std::vector<std::uint32_t>& starts, std::size_t n, unsigned nparts) {
  const auto ncells = static_cast<std::uint32_t>(starts.size());
  std::vector<std::uint32_t> bounds(nparts + 1, 0);
  bounds[nparts] = ncells;
  for (unsigned k = 1; k < nparts; ++k) {
    if (n == 0) {
      bounds[k] = static_cast<std::uint32_t>(std::uint64_t{ncells} * k / nparts);
      continue;
    }
    const auto target =
        static_cast<std::uint32_t>(lane_range(n, k, nparts).begin);
    bounds[k] = static_cast<std::uint32_t>(
        std::lower_bound(starts.begin(), starts.end(), target) -
        starts.begin());
  }
  return bounds;
}

ShardPlan build_shard_plan(const std::vector<std::uint32_t>& starts,
                           std::size_t n, unsigned nshards, unsigned lanes) {
  ShardPlan plan;
  plan.lanes = lanes;
  if (starts.empty() || lanes == 0) return plan;
  nshards = std::clamp(nshards, 1u, static_cast<unsigned>(starts.size()));
  plan.bounds = count_quantile_bounds(starts, n, nshards);
  fill_shard_counts(plan, starts, n);
  assign_lanes(plan);
  plan.imbalance = lane_imbalance(plan);
  return plan;
}

double shard_plan_imbalance(ShardPlan& plan,
                            const std::vector<std::uint32_t>& starts,
                            std::size_t n) {
  if (!plan.active()) return 1.0;
  fill_shard_counts(plan, starts, n);
  return lane_imbalance(plan);
}

}  // namespace cmdsmc::cmdp
