#include "core/particles.h"

#include <gtest/gtest.h>

#include <vector>

#include "fixedpoint/fixed32.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
using cmdsmc::fixedpoint::Fixed32;

TEST(ParticleStore, ResizeAndPushBack) {
  core::ParticleStore<double> s;
  s.resize(3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.z.size(), 0u);  // 2D: z not allocated
  s.push_back(1, 2, 0, 3, 4, 5, 6, 7, cmdsmc::rng::identity_perm(), 1);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.flags[3], 1);
  EXPECT_EQ(s.x[3], 1.0);
  EXPECT_EQ(s.r1[3], 7.0);
}

TEST(ParticleStore, HasZAllocatesZ) {
  core::ParticleStore<double> s;
  s.has_z = true;
  s.resize(5);
  EXPECT_EQ(s.z.size(), 5u);
  s.push_back(1, 2, 9, 3, 4, 5, 6, 7, cmdsmc::rng::identity_perm());
  EXPECT_EQ(s.z[5], 9.0);
}

namespace {

// Sorts `s` by descending index (key n-1-i for record i) through the store's
// one reorder, the counting-sort plan plus scatter_sorted.
template <class Real>
void sort_reversed(cmdp::ThreadPool& pool, core::ParticleStore<Real>& s) {
  const std::size_t n = s.size();
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = static_cast<std::uint32_t>(n - 1 - i);
  const cmdp::SortPlan plan =
      cmdp::counting_sort_plan(pool, keys, static_cast<std::uint32_t>(n));
  core::ParticleStore<Real> scratch;
  s.scatter_sorted(pool, keys, plan, scratch);
}

}  // namespace

TEST(ParticleStore, ReorderAppliesPermutationToEveryArray) {
  cmdp::ThreadPool pool(3);
  core::ParticleStore<double> s;
  s.has_z = true;
  s.has_vib = true;
  s.has_weight = true;
  const std::size_t n = 10000;
  s.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<double>(i);
    s.x[i] = v;
    s.y[i] = v + 0.1;
    s.z[i] = v + 0.15;
    s.ux[i] = v + 0.2;
    s.uy[i] = v + 0.3;
    s.uz[i] = v + 0.4;
    s.r0[i] = v + 0.5;
    s.r1[i] = v + 0.6;
    s.v0[i] = v + 0.7;
    s.v1[i] = v + 0.8;
    s.weight[i] = v + 0.9;
    s.perm[i] = static_cast<cmdsmc::rng::PackedPerm>(i & 0x7fff);
    s.cell[i] = static_cast<std::uint32_t>(i);
    s.flags[i] = static_cast<std::uint8_t>(i & 1);
    s.id[i] = static_cast<std::uint32_t>(3 * i + 1);
  }
  sort_reversed(pool, s);
  ASSERT_EQ(s.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = n - 1 - i;
    const auto v = static_cast<double>(src);
    ASSERT_EQ(s.x[i], v);
    ASSERT_EQ(s.y[i], v + 0.1);
    ASSERT_EQ(s.z[i], v + 0.15);
    ASSERT_EQ(s.ux[i], v + 0.2);
    ASSERT_EQ(s.uy[i], v + 0.3);
    ASSERT_EQ(s.uz[i], v + 0.4);
    ASSERT_EQ(s.r0[i], v + 0.5);
    ASSERT_EQ(s.r1[i], v + 0.6);
    ASSERT_EQ(s.v0[i], v + 0.7);
    ASSERT_EQ(s.v1[i], v + 0.8);
    ASSERT_EQ(s.weight[i], v + 0.9);
    ASSERT_EQ(s.perm[i], static_cast<cmdsmc::rng::PackedPerm>(src & 0x7fff));
    ASSERT_EQ(s.cell[i], static_cast<std::uint32_t>(src));
    ASSERT_EQ(s.flags[i], static_cast<std::uint8_t>(src & 1));
    ASSERT_EQ(s.id[i], static_cast<std::uint32_t>(3 * src + 1));
  }
}

TEST(ParticleStore, ReorderWorksForFixed32) {
  cmdp::ThreadPool pool(2);
  core::ParticleStore<Fixed32> s;
  const std::size_t n = 5000;
  s.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    s.x[i] = Fixed32::from_raw(static_cast<std::int32_t>(i));
  sort_reversed(pool, s);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(s.x[i].raw, static_cast<std::int32_t>(n - 1 - i));
}
