#include "cmdp/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
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

// Key bounds the direct counting sort accepts (<= kDirectSortBound): both
// the counting and the general stable sort run them.
class SortCases : public ::testing::TestWithParam<SortCase> {};
// Key bounds past kDirectSortBound: only stable_sort_index's radix path
// takes them.  Printed by value, which names the tests.
struct RadixCase : SortCase {};
void PrintTo(const RadixCase& c, std::ostream* os) {
  *os << "n" << c.n << "_bound" << c.bound;
}
class RadixSortCases : public ::testing::TestWithParam<RadixCase> {};

void expect_stable_sort_matches_reference(const SortCase& c) {
  cmdp::ThreadPool pool(6);
  const auto keys = random_keys(c.n, c.bound, 2000 + c.n);
  std::vector<std::uint32_t> order(c.n);
  cmdp::stable_sort_index(pool, keys, c.bound, order);
  EXPECT_EQ(order, reference_order(keys));
}

}  // namespace

TEST_P(SortCases, CountingSortMatchesStableReference) {
  const auto [n, bound] = GetParam();
  cmdp::ThreadPool pool(6);
  const auto keys = random_keys(n, bound, 1000 + n);
  std::vector<std::uint32_t> order(n);
  cmdp::counting_sort_index(pool, keys, bound, order);
  EXPECT_EQ(order, reference_order(keys));
}

TEST_P(SortCases, StableSortMatchesStableReference) {
  expect_stable_sort_matches_reference(GetParam());
}

TEST_P(RadixSortCases, StableSortMatchesStableReference) {
  ASSERT_GT(GetParam().bound, cmdp::kDirectSortBound);
  expect_stable_sort_matches_reference(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortCases,
    ::testing::Values(SortCase{0, 16}, SortCase{1, 16}, SortCase{100, 4},
                      SortCase{5000, 1}, SortCase{10000, 65536},
                      SortCase{100000, 50000}, SortCase{200000, 7}));

INSTANTIATE_TEST_SUITE_P(Cases, RadixSortCases,
                         ::testing::Values(RadixCase{{100000, 1u << 24}},
                                           RadixCase{{65536, 0xffffffffu}}));

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
  std::vector<std::uint32_t> sorted(keys.size());
  cmdp::gather<std::uint32_t>(pool, keys, order, sorted);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(Histogram, MatchesDirectCount) {
  cmdp::ThreadPool pool(5);
  const std::uint32_t bound = 321;
  const auto keys = random_keys(98765, bound, 5);
  std::vector<std::uint32_t> counts(bound);
  cmdp::histogram(pool, keys, bound, counts);
  std::vector<std::uint32_t> ref(bound, 0);
  for (auto k : keys) ++ref[k];
  EXPECT_EQ(counts, ref);
}

TEST(Histogram, EmptyInput) {
  cmdp::ThreadPool pool(2);
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> counts(10, 99);
  cmdp::histogram(pool, keys, 10, counts);
  for (auto c : counts) EXPECT_EQ(c, 0u);
}

TEST(GatherScatter, AreInverses) {
  cmdp::ThreadPool pool(4);
  const std::size_t n = 60000;
  cmdsmc::rng::SplitMix64 g(6);
  std::vector<double> data(n);
  for (auto& d : data) d = g.next_double();
  // A random permutation via sorting random keys.
  const auto keys = random_keys(n, 1u << 20, 7);
  std::vector<std::uint32_t> order(n);
  cmdp::counting_sort_index(pool, keys, 1u << 20, order);
  std::vector<double> permuted(n), roundtrip(n);
  cmdp::gather<double>(pool, data, order, permuted);
  cmdp::scatter<double>(pool, permuted, order, roundtrip);
  EXPECT_EQ(roundtrip, data);
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
