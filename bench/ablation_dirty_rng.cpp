// Ablation (f): the "quick but dirty" random number source.
//
// Paper: the low-order bits of a fixed-point physical state quantity serve
// as a free random number "of limited size and unspecified distribution"
// for low-impact decisions (sort mixing, transposition choice, sign bits,
// truncation correction).  This bench compares the dirty source against the
// counter-based reference on equilibrium quality and the wedge solution.
#include <cstdio>

#include "bench_common.h"
#include "io/shock_analysis.h"

namespace {

using namespace cmdsmc;

void report_equilibrium(const char* name, core::RngMode mode) {
  core::SimConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.closed_box = true;
  cfg.mach = 0.01;
  cfg.sigma = 0.2;
  cfg.lambda_inf = 0.0;
  cfg.particles_per_cell = 30.0;
  cfg.reservoir_fraction = 0.0;
  cfg.rng_mode = mode;
  cfg.seed = 21;
  core::SimulationF sim(cfg);
  const double e0 = sim.total_energy();
  sim.run(150);
  const auto& s = sim.particles();
  double m2 = 0.0, m4 = 0.0, mx = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double v = s.ux[i].to_double();
    mx += v;
    m2 += v * v;
    m4 += v * v * v * v;
  }
  const auto n = static_cast<double>(s.size());
  mx /= n;
  m2 /= n;
  m4 /= n;
  std::printf("%-12s %14.3e %12.4f %12.3f %14.2e\n", name,
              sim.total_energy() / e0 - 1.0, m2 / (0.2 * 0.2),
              m4 / (m2 * m2), mx);
}

}  // namespace

int main() {
  std::printf("Ablation: dirty (state low bits) vs counter-based RNG, "
              "fixed-point engine\n\nequilibrium box after 150 steps:\n");
  std::printf("%-12s %14s %12s %12s %14s\n", "rng", "energy drift",
              "T/T_target", "kurtosis", "mean ux");
  report_equilibrium("counter", core::RngMode::kCounter);
  report_equilibrium("dirty", core::RngMode::kDirty);

  const auto scale = cmdsmc::bench::scale_from_env(
      {8.0, 300, 300});  // lighter than the figure benches
  std::printf("\nwedge solution (reduced scale):\n%-12s %12s %12s\n", "rng",
              "angle", "ratio");
  for (auto [name, mode] :
       {std::pair{"counter", core::RngMode::kCounter},
        std::pair{"dirty", core::RngMode::kDirty}}) {
    auto cfg = cmdsmc::bench::paper_wedge_config(scale, 0.0);
    cfg.rng_mode = mode;
    core::SimulationF sim(cfg);
    const auto f = cmdsmc::bench::run_and_average_fixed(sim, scale);
    const auto fit = io::measure_oblique_shock(
        f, cmdsmc::bench::analysis_wedge(cfg));
    std::printf("%-12s %12.2f %12.2f\n", name, fit.angle_deg,
                fit.density_ratio);
  }
  std::printf("\n(the dirty source is adequate for its low-impact uses -- "
              "the paper's claim)\n");
  return 0;
}
