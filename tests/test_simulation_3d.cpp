// The 3D extension (paper "Future Work": "The code should also be extended
// to 3D"): duct flow with an extruded wedge ramp.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.h"
#include "geom/wedge.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
namespace geom = cmdsmc::geom;

namespace {

core::SimConfig duct_config() {
  core::SimConfig cfg;
  cfg.nx = 32;
  cfg.ny = 16;
  cfg.nz = 8;
  cfg.wedge_x0 = 8.0;
  cfg.wedge_base = 8.0;
  cfg.wedge_angle_deg = 25.0;
  cfg.body = geom::Body::Wedge(cfg.wedge_x0, cfg.wedge_base,
                               cfg.wedge_angle_rad());
  cfg.particles_per_cell = 6.0;
  cfg.sigma = 0.18;
  // Small domain: one plunger refill is a large fraction of the population,
  // so park a deeper reserve.
  cfg.reservoir_fraction = 0.25;
  cfg.seed = 31;
  return cfg;
}

// The analysis shape of the duct's ramp (extruded along z).
geom::Wedge duct_wedge() {
  const core::SimConfig cfg = duct_config();
  return geom::Wedge(cfg.wedge_x0, cfg.wedge_base, cfg.wedge_angle_rad());
}

core::SimConfig box3d_config() {
  core::SimConfig cfg;
  cfg.nx = 12;
  cfg.ny = 12;
  cfg.nz = 12;
  cfg.closed_box = true;
  cfg.mach = 0.01;
  cfg.sigma = 0.2;
  cfg.particles_per_cell = 12.0;
  cfg.reservoir_fraction = 0.0;
  cfg.seed = 32;
  return cfg;
}

}  // namespace

TEST(Sim3D, ClosedBoxConservesEnergyAndCount) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(box3d_config(), &pool);
  const double e0 = sim.total_energy();
  const auto n0 = sim.total_count();
  sim.run(60);
  EXPECT_EQ(sim.total_count(), n0);
  EXPECT_NEAR(sim.total_energy() / e0, 1.0, 1e-10);
}

TEST(Sim3D, ParticlesStayInDuct) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(duct_config(), &pool);
  sim.run(30);
  const auto& s = sim.particles();
  const geom::Wedge wedge = duct_wedge();
  ASSERT_TRUE(s.has_z);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    ASSERT_GE(s.z[i], 0.0);
    ASSERT_LT(s.z[i], 8.0);
    ASSERT_GE(s.y[i], 0.0);
    ASSERT_LT(s.y[i], 16.0);
    ASSERT_FALSE(wedge.inside(s.x[i], s.y[i]));
  }
}

TEST(Sim3D, DensityFieldIsZUniform) {
  // The wedge is extruded along z, so the statistics of every z-plane agree.
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(duct_config(), &pool);
  sim.run(120);
  sim.set_sampling(true);
  sim.run(120);
  const auto f = sim.field();
  double front = 0.0, back = 0.0;
  int n = 0;
  for (int ix = 2; ix < 30; ++ix)
    for (int iy = 2; iy < 14; ++iy) {
      front += f.at(f.density, ix, iy, 1);
      back += f.at(f.density, ix, iy, 6);
      ++n;
    }
  front /= n;
  back /= n;
  EXPECT_NEAR(front / back, 1.0, 0.06);
}

TEST(Sim3D, CompressionFormsAboveTheRamp) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(duct_config(), &pool);
  sim.run(150);
  sim.set_sampling(true);
  sim.run(150);
  const auto f = sim.field();
  const geom::Wedge wedge = duct_wedge();
  // Density above the ramp exceeds the freestream.
  double comp = 0.0;
  int n = 0;
  for (int ix = 10; ix < 15; ++ix) {
    const int y0 = static_cast<int>(wedge.surface_y(ix + 0.5)) + 1;
    for (int iz = 2; iz < 6; ++iz) {
      comp += f.at(f.density, ix, y0 + 1, iz);
      ++n;
    }
  }
  comp /= n;
  EXPECT_GT(comp, 1.5);
  EXPECT_LT(sim.counters().synthesized, sim.counters().injected / 5 + 1);
}

TEST(Sim3D, ValidatesGridLimits) {
  auto cfg = box3d_config();
  cfg.nz = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}
