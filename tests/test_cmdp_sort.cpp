#include "cmdp/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "rng/rng.h"

namespace cmdp = cmdsmc::cmdp;

namespace {

std::vector<std::uint32_t> random_keys(std::size_t n, std::uint32_t bound,
                                       std::uint64_t seed) {
  cmdsmc::rng::SplitMix64 g(seed);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) k = g.next_below(bound);
  return keys;
}

// Reference stable order via std::stable_sort of indices.
std::vector<std::uint32_t> reference_order(
    const std::vector<std::uint32_t>& keys) {
  std::vector<std::uint32_t> idx(keys.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  return idx;
}

struct SortCase {
  std::size_t n;
  std::uint32_t bound;
};

class SortCases : public ::testing::TestWithParam<SortCase> {};

void expect_sort_matches_reference(const SortCase& c, unsigned lanes,
                                   std::uint64_t seed) {
  cmdp::ThreadPool pool(lanes);
  const auto keys = random_keys(c.n, c.bound, seed + c.n);
  std::vector<std::uint32_t> order(c.n);
  cmdp::counting_sort_index(pool, keys, c.bound, order);
  EXPECT_EQ(order, reference_order(keys));
}

}  // namespace

// Multi-lane plans (per-lane cursor tables) once n passes the serial cutoff.
TEST_P(SortCases, CountingSortMatchesStableReference) {
  expect_sort_matches_reference(GetParam(), 6, 1000);
}

// One-lane plans at every n: the cursors alias the key-starts table.
TEST_P(SortCases, StableSortMatchesStableReference) {
  expect_sort_matches_reference(GetParam(), 1, 2000);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortCases,
    ::testing::Values(SortCase{0, 16}, SortCase{1, 16}, SortCase{100, 4},
                      SortCase{5000, 1}, SortCase{10000, 65536},
                      SortCase{100000, 50000}, SortCase{200000, 7},
                      // A key space past 2^21 (8 MiB tables per lane).
                      SortCase{100000, (1u << 21) + 1}));

TEST(Sort, OrderIsPermutation) {
  cmdp::ThreadPool pool(4);
  const auto keys = random_keys(77777, 997, 3);
  std::vector<std::uint32_t> order(keys.size());
  cmdp::counting_sort_index(pool, keys, 997, order);
  EXPECT_TRUE(cmdp::is_permutation_of_iota(order));
}

TEST(Sort, KeysAscendingAfterGather) {
  cmdp::ThreadPool pool(4);
  const auto keys = random_keys(50000, 1234, 4);
  std::vector<std::uint32_t> order(keys.size());
  cmdp::counting_sort_index(pool, keys, 1234, order);
  for (std::size_t i = 1; i < order.size(); ++i)
    ASSERT_LE(keys[order[i - 1]], keys[order[i]]) << "at " << i;
}

TEST(Sort, IsPermutationDetectsCorruption) {
  std::vector<std::uint32_t> good = {2, 0, 1, 3};
  EXPECT_TRUE(cmdp::is_permutation_of_iota(good));
  std::vector<std::uint32_t> dup = {2, 0, 0, 3};
  EXPECT_FALSE(cmdp::is_permutation_of_iota(dup));
  std::vector<std::uint32_t> oob = {2, 0, 1, 4};
  EXPECT_FALSE(cmdp::is_permutation_of_iota(oob));
}

// --- Plan/apply API: the fused one-pass sort the simulation hot loop uses ---

namespace {

// Reference per-key exclusive starts (size bound + 1).
std::vector<std::uint32_t> reference_starts(
    const std::vector<std::uint32_t>& keys, std::uint32_t bound) {
  std::vector<std::uint32_t> starts(bound + 1, 0);
  for (auto k : keys) ++starts[k + 1];
  for (std::uint32_t k = 0; k < bound; ++k) starts[k + 1] += starts[k];
  return starts;
}

}  // namespace

TEST(SortPlan, KeyStartsMatchReference) {
  for (unsigned threads : {1u, 4u}) {
    cmdp::ThreadPool pool(threads);
    const std::uint32_t bound = 777;
    const auto keys = random_keys(60000, bound, 11);
    const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, bound);
    EXPECT_EQ(plan.n, keys.size());
    EXPECT_EQ(plan.key_bound, bound);
    const auto ref = reference_starts(keys, bound);
    // Single-lane plans alias the cursors onto key_starts and apply consumes
    // them, so the table must be checked before any apply.
    ASSERT_EQ(plan.key_starts.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      EXPECT_EQ(plan.key_starts[k], ref[k]) << "key " << k << " @" << threads;
  }
}

TEST(SortPlan, ApplyProducesStableOrder) {
  for (unsigned threads : {1u, 3u, 6u}) {
    cmdp::ThreadPool pool(threads);
    const std::uint32_t bound = 93;
    const auto keys = random_keys(40000, bound, 12);
    const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, bound);
    std::vector<std::uint32_t> order(keys.size());
    cmdp::apply_sort_plan(pool, keys, plan,
                          [&](std::size_t src, std::size_t dst) {
                            order[dst] = static_cast<std::uint32_t>(src);
                          });
    EXPECT_EQ(order, reference_order(keys)) << threads << " threads";
  }
}

TEST(SortPlan, WorkspaceReuseAcrossCalls) {
  // Two different sorts back to back on one pool must not contaminate each
  // other through the shared workspace arena.
  cmdp::ThreadPool pool(4);
  const auto keys_a = random_keys(30000, 400, 14);
  const auto keys_b = random_keys(45000, 90, 15);
  std::vector<std::uint32_t> order_a(keys_a.size());
  std::vector<std::uint32_t> order_b(keys_b.size());
  cmdp::counting_sort_index(pool, keys_a, 400, order_a);
  cmdp::counting_sort_index(pool, keys_b, 90, order_b);
  EXPECT_EQ(order_b, reference_order(keys_b));
  cmdp::counting_sort_index(pool, keys_a, 400, order_a);
  EXPECT_EQ(order_a, reference_order(keys_a));
  // Releasing the arena must be harmless.
  pool.workspace().release();
  cmdp::counting_sort_index(pool, keys_a, 400, order_a);
  EXPECT_EQ(order_a, reference_order(keys_a));
}
