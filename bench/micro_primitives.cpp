// Microbenchmarks of the substrate primitives the paper's phase breakdown
// is built from: the counting sort, scans, the collision kernel (double and
// fixed point), selection, and the RNG.
#include <benchmark/benchmark.h>

#include <vector>

#include "cmdp/parallel.h"
#include "cmdp/scan.h"
#include "cmdp/sort.h"
#include "cmdp/thread_pool.h"
#include "fixedpoint/fixed32.h"
#include "physics/collision.h"
#include "physics/selection.h"
#include "rng/permutation.h"
#include "rng/rng.h"

namespace cmdp = cmdsmc::cmdp;
namespace physics = cmdsmc::physics;
namespace rng = cmdsmc::rng;
using cmdsmc::fixedpoint::Fixed32;

namespace {

std::vector<std::uint32_t> random_keys(std::size_t n, std::uint32_t bound) {
  rng::SplitMix64 g(7);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) k = g.next_below(bound);
  return keys;
}

// Warm arena: after the first iteration the pool's Workspace owns every
// scratch buffer, so the steady state is allocation-free.
void BM_CountingSort(benchmark::State& state) {
  auto& pool = cmdp::ThreadPool::global();
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint32_t bound = 98 * 64 * 8;  // the wedge run's key space
  const auto keys = random_keys(n, bound);
  std::vector<std::uint32_t> order(n);
  for (auto _ : state) {
    cmdp::counting_sort_index(pool, keys, bound, order);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CountingSort)->Arg(1 << 16)->Arg(1 << 19);

// Cold arena: releases the Workspace every iteration, measuring what the
// pre-arena code paid in allocation + first-touch per step.  The gap to
// BM_CountingSort is the arena's win — benchmarked, not asserted.
void BM_CountingSortColdArena(benchmark::State& state) {
  auto& pool = cmdp::ThreadPool::global();
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint32_t bound = 98 * 64 * 8;
  const auto keys = random_keys(n, bound);
  std::vector<std::uint32_t> order(n);
  for (auto _ : state) {
    pool.workspace().release();
    cmdp::counting_sort_index(pool, keys, bound, order);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CountingSortColdArena)->Arg(1 << 19);

// The plan/apply pair the simulation's fused sort uses: one counting pass,
// then a single scatter pass moving an 8-array record set (a stand-in for
// the particle store) straight to sorted positions.
void BM_SortPlanScatter(benchmark::State& state) {
  auto& pool = cmdp::ThreadPool::global();
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint32_t bound = 98 * 64 * 8;
  const auto keys = random_keys(n, bound);
  constexpr int kArrays = 8;
  std::vector<double> src[kArrays], dst[kArrays];
  for (int a = 0; a < kArrays; ++a) {
    src[a].assign(n, 1.0);
    dst[a].assign(n, 0.0);
  }
  for (auto _ : state) {
    const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, bound);
    cmdp::apply_sort_plan(pool, keys, plan,
                          [&](std::size_t s, std::size_t d) {
                            for (int a = 0; a < kArrays; ++a)
                              dst[a][d] = src[a][s];
                          });
    benchmark::DoNotOptimize(dst[0].data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SortPlanScatter)->Arg(1 << 19);

void BM_InclusiveScan(benchmark::State& state) {
  auto& pool = cmdp::ThreadPool::global();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int64_t> in(n, 1), out(n);
  for (auto _ : state) {
    cmdp::inclusive_scan<std::int64_t>(
        pool, in, out, [](std::int64_t a, std::int64_t b) { return a + b; },
        0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InclusiveScan)->Arg(1 << 20);

void BM_SegmentedScan(benchmark::State& state) {
  auto& pool = cmdp::ThreadPool::global();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int64_t> in(n, 1), out(n);
  std::vector<std::uint8_t> seg(n, 0);
  for (std::size_t i = 0; i < n; i += 16) seg[i] = 1;
  for (auto _ : state) {
    cmdp::segmented_inclusive_scan<std::int64_t>(
        pool, in, seg, out,
        [](std::int64_t a, std::int64_t b) { return a + b; }, 0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegmentedScan)->Arg(1 << 20);

template <class Real>
void BM_CollisionKernel(benchmark::State& state) {
  rng::SplitMix64 g(9);
  physics::Pair5<Real> p;
  for (int c = 0; c < physics::kDof; ++c) {
    p.a[c] = physics::Num<Real>::from_double(g.next_double() - 0.5);
    p.b[c] = physics::Num<Real>::from_double(g.next_double() - 0.5);
  }
  const auto& table = rng::perm_table();
  std::uint64_t bits = 0x123456789abcdefull;
  std::size_t k = 0;
  for (auto _ : state) {
    physics::collide_pair(p, table[k % rng::kPermCount], bits);
    bits = rng::mix64(bits);
    ++k;
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CollisionKernel<double>);
BENCHMARK(BM_CollisionKernel<Fixed32>);

void BM_SelectionProbability(benchmark::State& state) {
  physics::GasModel gas;
  const auto rule = physics::SelectionRule::make(gas, 0.5, 0.09, 16.0);
  double n_local = 16.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rule.probability(n_local, 0.0));
    n_local += 0.001;
  }
}
BENCHMARK(BM_SelectionProbability);

void BM_Hash4(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::hash4(42, i, 17, 3));
    ++i;
  }
}
BENCHMARK(BM_Hash4);

void BM_RandomTransposition(benchmark::State& state) {
  rng::PackedPerm p = rng::identity_perm();
  std::uint64_t bits = 0xdeadbeefcafef00dull;
  for (auto _ : state) {
    p = rng::random_transposition(p, bits);
    bits = rng::mix64(bits);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_RandomTransposition);

}  // namespace

BENCHMARK_MAIN();
