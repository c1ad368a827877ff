#include "cmdp/sort.h"

#include <algorithm>
#include <cassert>

#include "cmdp/scan.h"
#include "cmdp/workspace.h"

namespace cmdsmc::cmdp {

namespace {

// The scatter lanes counting_sort_plan lays its tables out for: the lanes
// apply_sort_plan will partition the keys over.
unsigned sort_plan_lanes(ThreadPool& pool, std::size_t n) {
  return (pool.size() == 1 || n < kSerialCutoff) ? 1 : pool.size();
}

// Multi-lane tail of counting_sort_plan once the per-lane key counts sit in
// `cursors` (lanes x key_bound, lane-major).  Converts them in place to
// absolute scatter destinations and fills starts[0..key_bound] with the
// per-key exclusive starts.
void finish_plan_tables(ThreadPool& pool, std::uint32_t* starts,
                        std::uint32_t* cursors, unsigned lanes,
                        std::uint32_t key_bound) {
  // Column-wise: cursor(t, k) = prefix of counts within key k across lanes;
  // per-key totals into starts[k + 1].
  starts[0] = 0;
  parallel_for(pool, key_bound, [&](std::size_t k) {
    std::uint32_t running = 0;
    for (unsigned t = 0; t < lanes; ++t) {
      const std::size_t at = static_cast<std::size_t>(t) * key_bound + k;
      const std::uint32_t c = cursors[at];
      cursors[at] = running;
      running += c;
    }
    starts[k + 1] = running;
  });
  // starts[k + 1] = total(k)  ->  inclusive scan turns it into the exclusive
  // per-key starts (starts[0] stays 0).  In-place aliasing is supported.
  inclusive_scan<std::uint32_t>(
      pool, std::span<const std::uint32_t>(starts + 1, key_bound),
      std::span<std::uint32_t>(starts + 1, key_bound),
      [](std::uint32_t a, std::uint32_t b) { return a + b; }, 0u);
  // Make the cursors absolute destinations: cursor(t, k) += starts[k].
  parallel_for(pool, key_bound, [&](std::size_t k) {
    const std::uint32_t base = starts[k];
    for (unsigned t = 0; t < lanes; ++t)
      cursors[static_cast<std::size_t>(t) * key_bound + k] += base;
  });
}

// Lays out a plan over workspace storage.  Single-lane plans alias the
// cursors onto the starts table (the starts ARE the initial cursors), which
// both skips a copy and is why key_starts must be read before apply.
SortPlan lay_out_plan(Workspace& ws, std::size_t n, std::uint32_t key_bound,
                      unsigned lanes) {
  SortPlan plan;
  plan.n = n;
  plan.key_bound = key_bound;
  plan.lanes = lanes;
  std::uint32_t* starts = grown(ws.sort_starts, key_bound + std::size_t{1});
  plan.key_starts = {starts, key_bound + std::size_t{1}};
  std::uint32_t* cursors =
      lanes == 1
          ? starts
          : grown(ws.sort_cursors, static_cast<std::size_t>(lanes) * key_bound);
  plan.cursors = {cursors, static_cast<std::size_t>(lanes) * key_bound};
  return plan;
}

}  // namespace

SortPlan counting_sort_plan(ThreadPool& pool,
                            std::span<const std::uint32_t> keys,
                            std::uint32_t key_bound) {
  assert(key_bound >= 1);
  const std::size_t n = keys.size();
  const unsigned lanes = sort_plan_lanes(pool, n);
  SortPlan plan = lay_out_plan(pool.workspace(), n, key_bound, lanes);
  std::uint32_t* starts = const_cast<std::uint32_t*>(plan.key_starts.data());
  std::uint32_t* cursors = plan.cursors.data();

  if (lanes == 1) {
    // starts doubles as the cursor table: build the exclusive starts shifted
    // by one, then key_starts[k] and cursors[k] coincide.
    std::fill(starts, starts + key_bound + 1, 0u);
    for (std::size_t i = 0; i < n; ++i) ++starts[keys[i] + 1];
    for (std::uint32_t k = 0; k < key_bound; ++k) starts[k + 1] += starts[k];
    return plan;
  }

  // Per-lane key counts, in place in the cursor table.
  pool.parallel([&](unsigned tid) {
    std::uint32_t* h = cursors + static_cast<std::size_t>(tid) * key_bound;
    std::fill(h, h + key_bound, 0u);
    const Range r = lane_range(n, tid, lanes);
    for (std::size_t i = r.begin; i < r.end; ++i) ++h[keys[i]];
  });
  finish_plan_tables(pool, starts, cursors, lanes, key_bound);
  return plan;
}

void counting_sort_index(ThreadPool& pool, std::span<const std::uint32_t> keys,
                         std::uint32_t key_bound,
                         std::span<std::uint32_t> order) {
  assert(order.size() == keys.size());
  const SortPlan plan = counting_sort_plan(pool, keys, key_bound);
  apply_sort_plan(pool, keys, plan, [&](std::size_t src, std::size_t dst) {
    order[dst] = static_cast<std::uint32_t>(src);
  });
}

bool is_permutation_of_iota(std::span<const std::uint32_t> order) {
  std::vector<std::uint8_t> seen(order.size(), 0);
  for (std::uint32_t v : order) {
    if (v >= order.size() || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

}  // namespace cmdsmc::cmdp
