// Scene-acceleration bench: per-particle step time of a single 72-facet
// cylinder vs two 72-facet cylinders in tandem.
//
// The acceptance bar for the multi-body refactor: the scene's uniform-grid
// acceleration answers inside/nearest-face per cell, never by scanning the
// total facet list, so doubling the body count must not meaningfully change
// the per-particle cost (target: within 10%).  A linear scan over all
// facets would show up here immediately.
#include <cstdio>

#include "bench_common.h"
#include "cmdp/thread_pool.h"

namespace {

using namespace cmdsmc;

core::SimConfig tandem_config(double ppc, bool second_body) {
  core::SimConfig cfg;
  cfg.nx = 140;
  cfg.ny = 64;
  cfg.mach = 10.0;
  cfg.sigma = 0.12;
  cfg.lambda_inf = 0.5;
  cfg.particles_per_cell = ppc;
  cfg.body = geom::Body::Cylinder(36.0, 32.0, 6.0, 72);
  if (second_body)
    cfg.bodies.push_back(geom::Body::Cylinder(92.0, 32.0, 6.0, 72));
  cfg.wall = geom::WallModel::kDiffuseIsothermal;
  cfg.seed = 0x7A2DE3ULL;
  return cfg;
}

struct Timing {
  double usec_per_particle = 0.0;
  double move_share = 0.0;
};

Timing run_case(const core::SimConfig& cfg, int steps,
                cmdp::ThreadPool& pool) {
  core::SimulationD sim(cfg, &pool);
  sim.run(30);  // warm-up: establish the bow shocks
  sim.timers().reset();
  sim.run(steps);
  Timing t;
  const double total = sim.total_seconds();
  t.usec_per_particle =
      1e6 * total / (static_cast<double>(sim.flow_count()) * steps);
  t.move_share =
      100.0 * sim.phase_seconds(core::SimulationD::kPhaseMove) / total;
  return t;
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env({8.0, 200, 200});
  auto& pool = cmdp::ThreadPool::global();
  const int steps = scale.steady_steps / 2 + 50;

  const Timing one =
      run_case(tandem_config(scale.particles_per_cell, false), steps, pool);
  const Timing two =
      run_case(tandem_config(scale.particles_per_cell, true), steps, pool);

  std::printf("multibody scene bench (%u threads, %d timed steps)\n",
              pool.size(), steps);
  bench::print_header("per-particle cost [usec/particle/step]");
  bench::print_row("one 72-facet cylinder", one.usec_per_particle,
                   one.usec_per_particle, "baseline");
  bench::print_row("two 72-facet cylinders", one.usec_per_particle,
                   two.usec_per_particle,
                   "target: within 10% of the baseline");
  bench::print_header("move+bc phase share [%]");
  bench::print_row("one cylinder", one.move_share, one.move_share, "");
  bench::print_row("two cylinders", one.move_share, two.move_share, "");
  const double ratio = two.usec_per_particle / one.usec_per_particle;
  std::printf("\ntwo-body / one-body per-particle ratio: %.3f %s\n", ratio,
              ratio <= 1.10 ? "(PASS: scene queries are O(cell), not "
                              "O(total facets))"
                            : "(FAIL: over the 10%% budget)");
  return ratio <= 1.10 ? 0 : 1;
}
