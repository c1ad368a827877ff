// Ablation (e): upstream boundary treatment.
//
// Paper: on vector/serial machines a *soft source* region is natural; "on
// parallel architectures it is useful to implement a hard boundary in the
// upstream region.  This boundary acts as a plunger ... In this manner the
// introduction of new particles can be delayed an arbitrary number of time
// steps."
//
// Measured: freestream density stability in the inflow strip, injection
// batch statistics, and the resulting shock metrics for both modes.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "io/shock_analysis.h"

namespace {

using namespace cmdsmc;

void run_mode(geom::UpstreamMode mode, const char* name,
              const bench::RunScale& scale) {
  auto cfg = bench::paper_wedge_config(scale, 0.0);
  cfg.upstream = mode;
  core::SimulationD sim(cfg);
  sim.run(scale.steady_steps / 2);
  // Track the inflow-strip density over time.
  double mean = 0.0, m2 = 0.0;
  const int probes = 160;
  const double target = cfg.particles_per_cell * cfg.ny;
  for (int k = 0; k < probes; ++k) {
    sim.run(1);
    const auto& s = sim.particles();
    std::size_t strip = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
      if (s.x[i] >= 2.0 && s.x[i] < 3.0) ++strip;
    }
    const double rho = static_cast<double>(strip) / target;
    mean += rho;
    m2 += rho * rho;
  }
  mean /= probes;
  const double sd = std::sqrt(std::max(0.0, m2 / probes - mean * mean));
  sim.set_sampling(true);
  sim.run(scale.avg_steps / 2);
  const auto fit =
      io::measure_oblique_shock(sim.field(), bench::analysis_wedge(cfg));
  std::printf("%-14s %12.3f %12.3f %14llu %12.2f %12.2f\n", name, mean, sd,
              static_cast<unsigned long long>(sim.counters().injected),
              fit.angle_deg, fit.density_ratio);
}

}  // namespace

int main() {
  const auto scale = cmdsmc::bench::scale_from_env();
  std::printf("Ablation: upstream boundary (plunger vs soft source)\n\n");
  std::printf("%-14s %12s %12s %14s %12s %12s\n", "mode", "strip rho",
              "strip sd", "injected", "angle", "ratio");
  run_mode(cmdsmc::geom::UpstreamMode::kPlunger, "plunger", scale);
  run_mode(cmdsmc::geom::UpstreamMode::kSoftSource, "soft source", scale);
  std::printf("\n(both maintain the freestream; the plunger batches "
              "injections so new particles arrive every few steps)\n");
  return 0;
}
