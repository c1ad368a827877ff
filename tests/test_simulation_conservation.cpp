// Conservation and relaxation properties of the full engine in a closed box
// (all walls specular, no sink/source): the settings where the collision
// algorithm's invariants are observable end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/simulation.h"
#include "rng/samplers.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;

namespace {

core::SimConfig box_config() {
  core::SimConfig cfg;
  cfg.nx = 24;
  cfg.ny = 24;
  cfg.closed_box = true;
  cfg.mach = 0.01;  // negligible drift
  cfg.sigma = 0.2;
  cfg.lambda_inf = 0.0;  // collide every candidate pair: fastest relaxation
  cfg.particles_per_cell = 30.0;
  cfg.reservoir_fraction = 0.0;
  cfg.seed = 99;
  return cfg;
}

// Kurtosis of the x velocity component over the flow particles.
template <class Real>
double ux_kurtosis(core::Simulation<Real>& sim) {
  using N = cmdsmc::physics::Num<Real>;
  const auto& s = sim.particles();
  double m1 = 0, n = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    m1 += N::to_double(s.ux[i]);
    n += 1;
  }
  m1 /= n;
  double m2 = 0, m4 = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double d = N::to_double(s.ux[i]) - m1;
    m2 += d * d;
    m4 += d * d * d * d;
  }
  m2 /= n;
  m4 /= n;
  return m4 / (m2 * m2);
}

}  // namespace

TEST(ClosedBox, DoubleEngineConservesEnergyTightly) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(box_config(), &pool);
  const double e0 = sim.total_energy();
  sim.run(100);
  EXPECT_EQ(sim.counters().removed, 0u);
  EXPECT_EQ(sim.counters().injected, 0u);
  EXPECT_NEAR(sim.total_energy() / e0, 1.0, 1e-10);
}

TEST(ClosedBox, CountIsConserved) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(box_config(), &pool);
  const auto n0 = sim.total_count();
  sim.run(100);
  EXPECT_EQ(sim.total_count(), n0);
  EXPECT_EQ(sim.flow_count(), n0);
}

TEST(ClosedBox, FixedEngineEnergyDriftIsTiny) {
  cmdp::ThreadPool pool(4);
  core::SimulationF sim(box_config(), &pool);
  const double e0 = sim.total_energy();
  sim.run(200);
  const double e1 = sim.total_energy();
  // Stochastic rounding: zero-mean ulp noise accumulates as a random walk;
  // after 200 steps the relative drift must stay far below a percent.
  EXPECT_NEAR(e1 / e0, 1.0, 2e-3);
}

TEST(ClosedBox, TruncatingRoundingLosesEnergySystematically) {
  cmdp::ThreadPool pool(4);
  auto cfg = box_config();
  // Cold, slow gas: the paper's stagnation-region regime where velocity
  // magnitudes are small and the half-ulp truncation bite is relatively big.
  cfg.sigma = 0.05;
  cfg.rounding = core::Rounding::kTruncate;
  core::SimulationF trunc(cfg, &pool);
  cfg.rounding = core::Rounding::kStochastic;
  core::SimulationF stoch(cfg, &pool);
  const double e0t = trunc.total_energy();
  const double e0s = stoch.total_energy();
  trunc.run(200);
  stoch.run(200);
  const double drift_trunc = trunc.total_energy() / e0t - 1.0;
  const double drift_stoch = stoch.total_energy() / e0s - 1.0;
  // The paper's observation: consistent truncation leads to a systematic
  // energy loss; stochastic rounding fixes it.
  EXPECT_LT(drift_trunc, -2e-5);
  EXPECT_LT(std::abs(drift_stoch), std::abs(drift_trunc) / 3.0);
}

TEST(ClosedBox, RectangularVelocitiesRelaxToMaxwellian) {
  cmdp::ThreadPool pool(4);
  auto cfg = box_config();
  core::SimulationD sim(cfg, &pool);
  // Overwrite the initial Gaussian with a rectangular distribution of the
  // same variance, then let collisions thermalize it.
  auto& s = sim.particles();
  cmdsmc::rng::SplitMix64 g(3);
  for (std::size_t i = 0; i < s.size(); ++i) {
    s.ux[i] = cmdsmc::rng::sample_rectangular(g, cfg.sigma);
    s.uy[i] = cmdsmc::rng::sample_rectangular(g, cfg.sigma);
    s.uz[i] = cmdsmc::rng::sample_rectangular(g, cfg.sigma);
    s.r0[i] = cmdsmc::rng::sample_rectangular(g, cfg.sigma);
    s.r1[i] = cmdsmc::rng::sample_rectangular(g, cfg.sigma);
  }
  EXPECT_NEAR(ux_kurtosis(sim), 1.8, 0.1);  // uniform kurtosis
  sim.run(30);
  // A few collisions per particle suffice (paper: "after a few time steps
  // collisions with other reservoir particles relaxes these to the correct
  // Gaussian distributions").
  EXPECT_NEAR(ux_kurtosis(sim), 3.0, 0.15);  // Gaussian kurtosis
}

TEST(ClosedBox, RotationalAndTranslationalTemperaturesEquilibrate) {
  cmdp::ThreadPool pool(4);
  auto cfg = box_config();
  core::SimulationD sim(cfg, &pool);
  // Kill all rotational energy initially.
  auto& s = sim.particles();
  for (std::size_t i = 0; i < s.size(); ++i) {
    s.r0[i] = 0.0;
    s.r1[i] = 0.0;
  }
  const double e0 = sim.total_energy();
  sim.run(40);
  EXPECT_NEAR(sim.total_energy() / e0, 1.0, 1e-10);
  // Measure equipartition directly.
  double et = 0.0, er = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    et += s.ux[i] * s.ux[i] + s.uy[i] * s.uy[i] + s.uz[i] * s.uz[i];
    er += s.r0[i] * s.r0[i] + s.r1[i] * s.r1[i];
  }
  EXPECT_NEAR((er / 2.0) / (et / 3.0), 1.0, 0.05);
}

TEST(ClosedBox, MomentumXIsStatisticallyStationaryUnderCollisions) {
  // Collisions conserve momentum exactly; only wall reflections exchange
  // momentum.  With zero drift the net x momentum stays near its (small)
  // initial statistical value.
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(box_config(), &pool);
  const double scale =
      std::sqrt(static_cast<double>(sim.total_count())) * 0.2;
  sim.run(50);
  const auto p = sim.total_momentum();
  EXPECT_LT(std::abs(p[0]), 6.0 * scale);
  EXPECT_LT(std::abs(p[1]), 6.0 * scale);
}

TEST(ClosedBox, RarefiedCollisionRateMatchesMeanFreePath) {
  // In equilibrium, each particle should suffer ~ <|c|>/lambda collisions
  // per step; verify the selection-rule calibration end to end.
  cmdp::ThreadPool pool(4);
  auto cfg = box_config();
  cfg.lambda_inf = 2.0;  // long mean free path => P well below 1
  core::SimulationD sim(cfg, &pool);
  const int steps = 60;
  sim.run(steps);
  const double per_particle_per_step =
      2.0 * static_cast<double>(sim.counters().collisions) /
      (static_cast<double>(sim.flow_count()) * steps);
  const double mean_speed =
      2.0 * cfg.sigma * std::sqrt(2.0 / std::numbers::pi);
  const double expected = mean_speed / cfg.lambda_inf;
  // Pairing leaves odd leftovers unpaired, so the measured rate runs a few
  // percent low; accept 15%.
  EXPECT_NEAR(per_particle_per_step, expected, 0.15 * expected);
}

TEST(ClosedBox, DisablingTranspositionsStillConserves) {
  cmdp::ThreadPool pool(2);
  auto cfg = box_config();
  cfg.transpositions_per_collision = 0;
  core::SimulationD sim(cfg, &pool);
  const double e0 = sim.total_energy();
  sim.run(30);
  EXPECT_NEAR(sim.total_energy() / e0, 1.0, 1e-10);
}

TEST(ClosedBox, DirtyRngModeRunsAndConserves) {
  cmdp::ThreadPool pool(4);
  auto cfg = box_config();
  cfg.rng_mode = core::RngMode::kDirty;
  core::SimulationF sim(cfg, &pool);
  const double e0 = sim.total_energy();
  sim.run(100);
  EXPECT_NEAR(sim.total_energy() / e0, 1.0, 5e-3);
}

// The steady detector's flow energy is flow_weighted_energy(): with no
// reservoir and unit weights it must be the whole-store total_energy(),
// vibrational term included, bit for bit.
TEST(ClosedBox, FlowWeightedEnergyIncludesVibration) {
  cmdp::ThreadPool pool(2);
  auto cfg = box_config();
  cfg.vibrational = true;
  core::SimulationD sim(cfg, &pool);
  sim.run(10);
  ASSERT_EQ(sim.reservoir_count(), 0u);
  const auto& s = sim.particles();
  double e_vib = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i)
    e_vib += 0.5 * (s.v0[i] * s.v0[i] + s.v1[i] * s.v1[i]);
  ASSERT_GT(e_vib, 0.0);
  EXPECT_EQ(sim.flow_weighted_energy(), sim.total_energy());
}
