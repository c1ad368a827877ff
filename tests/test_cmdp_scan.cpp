#include "cmdp/scan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "rng/rng.h"

namespace cmdp = cmdsmc::cmdp;

namespace {

std::vector<std::int64_t> random_values(std::size_t n, std::uint64_t seed) {
  cmdsmc::rng::SplitMix64 g(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(g.next_below(1000)) - 500;
  return v;
}

struct Add {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const {
    return a + b;
  }
};

class ScanSizes : public ::testing::TestWithParam<std::size_t> {};

}  // namespace

TEST_P(ScanSizes, InclusiveMatchesSerialReference) {
  const std::size_t n = GetParam();
  cmdp::ThreadPool pool(5);
  const auto in = random_values(n, 42 + n);
  std::vector<std::int64_t> out(n), ref(n);
  std::partial_sum(in.begin(), in.end(), ref.begin());
  cmdp::inclusive_scan<std::int64_t>(pool, in, out, Add{}, 0);
  EXPECT_EQ(out, ref);
}

TEST_P(ScanSizes, ExclusiveMatchesSerialReference) {
  const std::size_t n = GetParam();
  cmdp::ThreadPool pool(5);
  const auto in = random_values(n, 99 + n);
  std::vector<std::int64_t> out(n), ref(n);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ref[i] = acc;
    acc += in[i];
  }
  const auto total = cmdp::exclusive_scan<std::int64_t>(pool, in, out, Add{}, 0);
  EXPECT_EQ(out, ref);
  EXPECT_EQ(total, acc);
}

TEST_P(ScanSizes, SegmentedInclusiveMatchesReference) {
  const std::size_t n = GetParam();
  cmdp::ThreadPool pool(5);
  const auto in = random_values(n, 7 + n);
  cmdsmc::rng::SplitMix64 g(1234);
  std::vector<std::uint8_t> seg(n, 0);
  for (std::size_t i = 0; i < n; ++i) seg[i] = g.next_below(10) == 0 ? 1 : 0;
  if (n > 0) seg[0] = 1;
  std::vector<std::int64_t> out(n), ref(n);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc = seg[i] ? in[i] : acc + in[i];
    ref[i] = acc;
  }
  cmdp::segmented_inclusive_scan<std::int64_t>(pool, in, seg, out, Add{}, 0);
  EXPECT_EQ(out, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(0, 1, 2, 100, 4095, 4096, 4097,
                                           50000, 262144));

TEST(Scan, InclusiveInPlaceAliasing) {
  cmdp::ThreadPool pool(4);
  std::vector<std::int64_t> v = random_values(70000, 5);
  std::vector<std::int64_t> ref(v.size());
  std::partial_sum(v.begin(), v.end(), ref.begin());
  cmdp::inclusive_scan<std::int64_t>(
      pool, std::span<const std::int64_t>(v), std::span<std::int64_t>(v),
      Add{}, 0);
  EXPECT_EQ(v, ref);
}

TEST(Scan, SegmentedWithNoSegmentStartsAfterFirstEqualsPlainScan) {
  cmdp::ThreadPool pool(3);
  const std::size_t n = 30000;
  const auto in = random_values(n, 8);
  std::vector<std::uint8_t> seg(n, 0);
  seg[0] = 1;
  std::vector<std::int64_t> out(n), ref(n);
  std::partial_sum(in.begin(), in.end(), ref.begin());
  cmdp::segmented_inclusive_scan<std::int64_t>(pool, in, seg, out, Add{}, 0);
  EXPECT_EQ(out, ref);
}

TEST(Scan, SegmentedEverySlotIsStart) {
  cmdp::ThreadPool pool(3);
  const std::size_t n = 20000;
  const auto in = random_values(n, 9);
  std::vector<std::uint8_t> seg(n, 1);
  std::vector<std::int64_t> out(n);
  cmdp::segmented_inclusive_scan<std::int64_t>(pool, in, seg, out, Add{}, 0);
  EXPECT_EQ(out, in);
}

TEST(Scan, MaxScanWithNonAdditiveOperator) {
  cmdp::ThreadPool pool(4);
  const std::size_t n = 65536;
  const auto in = random_values(n, 10);
  std::vector<std::int64_t> out(n), ref(n);
  std::int64_t acc = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < n; ++i) {
    acc = std::max(acc, in[i]);
    ref[i] = acc;
  }
  cmdp::inclusive_scan<std::int64_t>(
      pool, in, out,
      [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
      std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(out, ref);
}
