// Ablation (a): fixed-point rounding of the collision halvings.
//
// Paper: "the consistent truncation after division by 2 can lead to a
// significant loss in total energy in stagnation regions of the flow.  The
// problem is solved by arbitrarily adding with uniform probability either 0
// or 1 to the result of this division."
//
// A cold closed box (small velocity magnitudes, like a stagnation region)
// is evolved with (1) stochastic rounding, (2) truncation, (3) the double
// reference; total energy drift is reported over time.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace cmdsmc;
  core::SimConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.closed_box = true;
  cfg.mach = 0.01;
  cfg.sigma = 0.05;  // cold: stagnation-like magnitudes
  cfg.lambda_inf = 0.0;
  cfg.particles_per_cell = 40.0;
  cfg.reservoir_fraction = 0.0;
  cfg.seed = 4242;

  core::SimulationF stoch(cfg);
  auto cfg_t = cfg;
  cfg_t.rounding = core::Rounding::kTruncate;
  core::SimulationF trunc(cfg_t);
  core::SimulationD ref(cfg);

  const double e_stoch0 = stoch.total_energy();
  const double e_trunc0 = trunc.total_energy();
  const double e_ref0 = ref.total_energy();

  std::printf("Ablation: fixed-point rounding in the collision kernel\n");
  std::printf("cold closed box, sigma = %.2f, %zu particles\n\n", cfg.sigma,
              stoch.total_count());
  std::printf("%8s %22s %22s %22s\n", "step", "fixed+stochastic",
              "fixed+truncate", "double reference");
  const int chunk = 100;
  for (int k = 1; k <= 8; ++k) {
    stoch.run(chunk);
    trunc.run(chunk);
    ref.run(chunk);
    std::printf("%8d %22.3e %22.3e %22.3e\n", k * chunk,
                stoch.total_energy() / e_stoch0 - 1.0,
                trunc.total_energy() / e_trunc0 - 1.0,
                ref.total_energy() / e_ref0 - 1.0);
  }
  std::printf("\n(relative total-energy drift; truncation drifts "
              "systematically negative, the paper's failure mode)\n");
  return 0;
}
