// End-to-end integration: a reduced-size run of the paper's Mach 4 wedge
// case must reproduce oblique-shock theory (the paper's own validation:
// shock angle 45 deg, post-shock density 3.7x freestream).
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.h"
#include "geom/wedge.h"
#include "io/shock_analysis.h"
#include "physics/theory.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
namespace geom = cmdsmc::geom;
namespace io = cmdsmc::io;

namespace {

constexpr double kRad = std::numbers::pi / 180.0;

// The paper's 30-degree wedge: the shape the shock analysis measures against
// (the simulation sees the same outline as Body::Wedge).
const geom::Wedge kWedge(20.0, 25.0, 30.0 * kRad);

core::SimConfig wedge_config() {
  core::SimConfig cfg;
  cfg.nx = 98;
  cfg.ny = 64;
  cfg.mach = 4.0;
  cfg.sigma = 0.18;  // fast transit for test runtime
  cfg.lambda_inf = 0.0;
  cfg.particles_per_cell = 8.0;
  cfg.body = geom::Body::Wedge(kWedge.x0(), kWedge.base(), kWedge.angle());
  cfg.seed = 2024;
  return cfg;
}

}  // namespace

TEST(WedgeIntegration, ReproducesObliqueShockTheory) {
  cmdp::ThreadPool pool(0);  // all cores: this is the heavy test
  core::SimulationD sim(wedge_config(), &pool);
  sim.run(400);
  sim.set_sampling(true);
  sim.run(400);
  const auto f = sim.field();
  const auto fit = io::measure_oblique_shock(f, kWedge);
  ASSERT_TRUE(fit.valid);
  EXPECT_GT(fit.columns_used, 8);

  namespace th = cmdsmc::physics::theory;
  const double beta_deg =
      th::oblique_shock_angle(30.0 * std::numbers::pi / 180.0, 4.0) * 180.0 /
      std::numbers::pi;
  const double ratio = th::oblique_shock_density_ratio(
      beta_deg * std::numbers::pi / 180.0, 4.0);
  EXPECT_NEAR(fit.angle_deg, beta_deg, 2.5);
  EXPECT_NEAR(fit.density_ratio, ratio, 0.35);
  // Shock thickness of a few cells (paper: 3 for the near-continuum case).
  EXPECT_GT(fit.thickness_normal, 1.0);
  EXPECT_LT(fit.thickness_normal, 7.0);

  // Freestream region stays at reference density.
  double rho_fs = 0.0;
  int nfs = 0;
  for (int ix = 5; ix < 16; ++ix)
    for (int iy = 8; iy < 56; ++iy) {
      rho_fs += f.at(f.density, ix, iy);
      ++nfs;
    }
  rho_fs /= nfs;
  EXPECT_NEAR(rho_fs, 1.0, 0.05);

  // Post-shock flow runs parallel to the wedge surface (specular surface).
  const int ix_probe = 38;
  const int iy_probe =
      static_cast<int>(kWedge.surface_y(ix_probe + 0.5)) + 2;
  const double flow_angle =
      std::atan2(f.at(f.uy, ix_probe, iy_probe),
                 f.at(f.ux, ix_probe, iy_probe)) *
      180.0 / std::numbers::pi;
  EXPECT_NEAR(flow_angle, 30.0, 4.0);

  // Reservoir bookkeeping stayed healthy: the Gaussian fallback may fire
  // during the start-up transient (the plateau builds mass before the wake
  // evacuates) but must stay rare.
  EXPECT_LT(sim.counters().synthesized, sim.counters().injected / 10 + 1);
}

TEST(WedgeIntegration, RarefiedShockIsWiderThanContinuum) {
  cmdp::ThreadPool pool(0);
  auto cfg = wedge_config();
  cfg.sigma = 0.09;  // satisfies dt << t_c for lambda = 0.5
  core::SimulationD cont(cfg, &pool);
  cfg.lambda_inf = 0.5;
  core::SimulationD rare(cfg, &pool);
  for (auto* sim : {&cont, &rare}) {
    sim->run(500);
    sim->set_sampling(true);
    sim->run(500);
  }
  const auto fit_c = io::measure_oblique_shock(cont.field(), kWedge);
  const auto fit_r = io::measure_oblique_shock(rare.field(), kWedge);
  ASSERT_TRUE(fit_c.valid);
  ASSERT_TRUE(fit_r.valid);
  // Paper: rarefied shock (5 cells) wider than near-continuum (3 cells).
  EXPECT_GT(fit_r.thickness_vertical, fit_c.thickness_vertical + 0.4);
  // Both still satisfy the jump conditions.
  EXPECT_NEAR(fit_c.density_ratio, 3.7, 0.45);
  EXPECT_NEAR(fit_r.density_ratio, 3.7, 0.45);
  // Paper: the rarefied wake is washed out; near-continuum recompresses.
  const auto wake_c = io::measure_wake(cont.field(), kWedge);
  const auto wake_r = io::measure_wake(rare.field(), kWedge);
  EXPECT_GT(wake_c.base_density, 1.8 * wake_r.base_density);
}

TEST(WedgeIntegration, FixedPointEngineMatchesDoubleEngineFields) {
  cmdp::ThreadPool pool(0);
  auto cfg = wedge_config();
  cfg.particles_per_cell = 6.0;
  core::SimulationD dsim(cfg, &pool);
  core::SimulationF fsim(cfg, &pool);
  for (int phase = 0; phase < 2; ++phase) {
    dsim.run(250);
    fsim.run(250);
    if (phase == 0) {
      dsim.set_sampling(true);
      fsim.set_sampling(true);
    }
  }
  const auto fd = dsim.field();
  const auto ff = fsim.field();
  const auto fit_d = io::measure_oblique_shock(fd, kWedge);
  const auto fit_f = io::measure_oblique_shock(ff, kWedge);
  ASSERT_TRUE(fit_d.valid);
  ASSERT_TRUE(fit_f.valid);
  // The paper's integer implementation is physically equivalent.
  EXPECT_NEAR(fit_f.angle_deg, fit_d.angle_deg, 2.0);
  EXPECT_NEAR(fit_f.density_ratio, fit_d.density_ratio, 0.3);
}
