// The one stable key sort: the substrate for the paper's per-step "sort
// particles by (randomized) cell index" — the CM-2 rank-sort.
//
// counting_sort_plan counts the keys once and lays out the stable scatter
// (also exposing the per-key starts table, which phase_sort folds into
// per-cell tables for free), and apply_sort_plan moves every record straight
// to its sorted position in one pass — no intermediate permutation array, no
// per-field gather passes.  Every key space goes through it: the tables cost
// O(lanes * key_bound) words, which for the simulation's keys (8 per pairing
// cell) is the order of the per-cell arrays a run already holds.  All scratch
// lives in the pool's Workspace, so steady-state sorting is allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cmdp/parallel.h"
#include "cmdp/thread_pool.h"

namespace cmdsmc::cmdp {

// A prepared stable counting sort over keys < key_bound.  Spans borrow the
// pool's Workspace: a plan is invalidated by the next counting_sort_plan /
// counting_sort_index call on the same pool.
struct SortPlan {
  std::size_t n = 0;
  std::uint32_t key_bound = 0;
  unsigned lanes = 1;  // scatter lanes the cursors were laid out for
  // key_starts[k] = first sorted position of key k; key_starts[key_bound]
  // = n.  Survives apply_sort_plan.
  std::span<const std::uint32_t> key_starts;
  // lanes x key_bound absolute destination cursors, consumed by apply.
  std::span<std::uint32_t> cursors;
};

// One counting pass over keys plus O(lanes * key_bound) table setup.
// Single-lane plans lay the cursors over the key_starts storage (saving a
// table copy), so read key_starts before applying the plan.
SortPlan counting_sort_plan(ThreadPool& pool,
                            std::span<const std::uint32_t> keys,
                            std::uint32_t key_bound);

// Executes a plan: calls move(src, dst) exactly once per element, where dst
// is the element's stable sorted position (equal keys keep input order).
// Consumes the plan's cursors — apply a plan at most once.
template <class MoveFn>
void apply_sort_plan(ThreadPool& pool, std::span<const std::uint32_t> keys,
                     const SortPlan& plan, MoveFn&& move) {
  const std::size_t n = keys.size();
  auto scatter = [&](Range r, unsigned tid) {
    std::uint32_t* cur =
        plan.cursors.data() + static_cast<std::size_t>(tid) * plan.key_bound;
    constexpr std::size_t kAhead = 16;  // hide the cursor-table load latency
    for (std::size_t i = r.begin; i < r.end; ++i) {
#if defined(__GNUC__) || defined(__clang__)
      if (i + kAhead < r.end) __builtin_prefetch(&cur[keys[i + kAhead]], 1);
#endif
      move(i, static_cast<std::size_t>(cur[keys[i]]++));
    }
  };
  if (plan.lanes == 1) {
    scatter(Range{0, n}, 0);
    return;
  }
  pool.parallel(
      [&](unsigned tid) { scatter(lane_range(n, tid, plan.lanes), tid); });
}

// Stable counting sort.  Fills `order` (size == keys.size()) such that
// keys[order[0]] <= keys[order[1]] <= ... with equal keys in input order.
void counting_sort_index(ThreadPool& pool, std::span<const std::uint32_t> keys,
                         std::uint32_t key_bound,
                         std::span<std::uint32_t> order);

// Verifies `order` is a permutation of [0, n) — used by tests and debug mode.
bool is_permutation_of_iota(std::span<const std::uint32_t> order);

}  // namespace cmdsmc::cmdp
