#include "core/simulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>

#include "audit/audit.h"
#include "geom/wedge.h"
#include "scenario/scenario.h"

namespace core = cmdsmc::core;
namespace cmdp = cmdsmc::cmdp;
namespace geom = cmdsmc::geom;
namespace scenario = cmdsmc::scenario;
using cmdsmc::fixedpoint::Fixed32;

namespace {

// Sets the body to the wedge the config's wedge_* fields describe.
core::SimConfig with_wedge_body(core::SimConfig cfg) {
  cfg.body = geom::Body::Wedge(cfg.wedge_x0, cfg.wedge_base,
                               cfg.wedge_angle_rad());
  return cfg;
}

core::SimConfig small_wedge_config() {
  core::SimConfig cfg;
  cfg.nx = 49;
  cfg.ny = 32;
  cfg.wedge_x0 = 10.0;
  cfg.wedge_base = 12.0;
  cfg.particles_per_cell = 8.0;
  cfg.seed = 77;
  return with_wedge_body(cfg);
}

geom::Wedge small_wedge() {
  const core::SimConfig cfg = small_wedge_config();
  return geom::Wedge(cfg.wedge_x0, cfg.wedge_base, cfg.wedge_angle_rad());
}

}  // namespace

TEST(SimConfigValidate, RejectsNonsense) {
  auto bad = small_wedge_config();
  bad.mach = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.sigma = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.lambda_inf = -0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.particles_per_cell = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.wedge_x0 = 45.0;  // wedge pokes out of the domain
  EXPECT_THROW(with_wedge_body(bad).validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.wedge_angle_deg = 70.0;  // taller than the tunnel
  EXPECT_THROW(with_wedge_body(bad).validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.transpositions_per_collision = 9;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = small_wedge_config();
  bad.sigma = 1.0;  // Mach 4 stream would cross > 2 cells/step
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  // NaN compares false both ways, so every range check must be written to
  // fail on it (a `sigma <= 0` check lets a NaN sigma through).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (double core::SimConfig::*field :
       {&core::SimConfig::mach, &core::SimConfig::sigma,
        &core::SimConfig::lambda_inf, &core::SimConfig::particles_per_cell,
        &core::SimConfig::reservoir_fraction,
        &core::SimConfig::plunger_trigger,
        &core::SimConfig::vib_exchange_prob,
        &core::SimConfig::vib_init_temperature}) {
    bad = small_wedge_config();
    bad.vibrational = true;
    bad.*field = kNaN;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  bad = small_wedge_config();
  bad.gas.potential = cmdsmc::physics::Potential::kInversePower;
  bad.gas.alpha = kNaN;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  EXPECT_NO_THROW(small_wedge_config().validate());
}

TEST(Simulation, ConstructsWithExpectedPopulation) {
  cmdp::ThreadPool pool(4);
  const auto cfg = small_wedge_config();
  core::SimulationD sim(cfg, &pool);
  // Flow fill: ppc * open volume; reservoir: 10% on top.
  double open = 0.0;
  for (double f : sim.open_fraction()) open += f;
  const auto expect_flow =
      static_cast<std::size_t>(std::llround(cfg.particles_per_cell * open));
  EXPECT_EQ(sim.flow_count(), expect_flow);
  EXPECT_EQ(sim.reservoir_count(),
            static_cast<std::size_t>(
                std::llround(0.10 * static_cast<double>(expect_flow))));
  EXPECT_EQ(sim.total_count(), sim.flow_count() + sim.reservoir_count());
  EXPECT_EQ(sim.step_index(), 0);
}

TEST(Simulation, NoParticleStartsInsideTheWedge) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_wedge_config(), &pool);
  const auto& s = sim.particles();
  ASSERT_NE(sim.body(), nullptr);
  const geom::Wedge w = small_wedge();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    ASSERT_FALSE(w.inside(s.x[i], s.y[i])) << i;
  }
}

TEST(Simulation, StepKeepsTotalCountAndInvariants) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_wedge_config(), &pool);
  const std::size_t total = sim.total_count();
  sim.run(25);
  EXPECT_EQ(sim.step_index(), 25);
  // Total conserved unless the reservoir ran dry (it should not).
  EXPECT_EQ(sim.counters().synthesized, 0u);
  EXPECT_EQ(sim.total_count(), total);
  EXPECT_EQ(sim.total_count(), sim.flow_count() + sim.reservoir_count());
  // Particles stay inside the domain and outside the wedge.
  const auto& s = sim.particles();
  const geom::Wedge w = small_wedge();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    ASSERT_GE(s.x[i], 0.0);
    ASSERT_LT(s.x[i], 49.0);
    ASSERT_GE(s.y[i], 0.0);
    ASSERT_LT(s.y[i], 32.0);
    ASSERT_FALSE(w.inside(s.x[i], s.y[i]));
  }
}

TEST(Simulation, CollisionsHappenAndAreCounted) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_wedge_config(), &pool);
  sim.run(5);
  const auto& c = sim.counters();
  EXPECT_GT(c.candidates, 0u);
  EXPECT_GT(c.collisions, 0u);
  EXPECT_GT(c.reservoir_collisions, 0u);
  EXPECT_LE(c.collisions, c.candidates);
  // Near continuum (lambda = 0): every flow candidate pair collides.
  EXPECT_EQ(c.collisions + c.reservoir_collisions, c.candidates);
}

TEST(Simulation, DeterministicAcrossThreadCounts) {
  // Counter-based RNG + stable sort => the particle state evolution is
  // bit-identical no matter how many lanes execute it.
  cmdp::ThreadPool pool1(1);
  cmdp::ThreadPool pool7(7);
  const auto cfg = small_wedge_config();
  core::SimulationD a(cfg, &pool1);
  core::SimulationD b(cfg, &pool7);
  a.run(12);
  b.run(12);
  ASSERT_EQ(a.total_count(), b.total_count());
  const auto& sa = a.particles();
  const auto& sb = b.particles();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa.x[i], sb.x[i]) << i;
    ASSERT_EQ(sa.y[i], sb.y[i]) << i;
    ASSERT_EQ(sa.ux[i], sb.ux[i]) << i;
    ASSERT_EQ(sa.uy[i], sb.uy[i]) << i;
    ASSERT_EQ(sa.uz[i], sb.uz[i]) << i;
    ASSERT_EQ(sa.perm[i], sb.perm[i]) << i;
  }
  EXPECT_EQ(a.counters().collisions, b.counters().collisions);
}

TEST(Simulation, DifferentSeedsDiverge) {
  cmdp::ThreadPool pool(4);
  auto cfg = small_wedge_config();
  core::SimulationD a(cfg, &pool);
  cfg.seed = 78;
  core::SimulationD b(cfg, &pool);
  a.run(5);
  b.run(5);
  EXPECT_NE(a.total_energy(), b.total_energy());
}

TEST(Simulation, FixedPointEngineRuns) {
  cmdp::ThreadPool pool(4);
  core::SimulationF sim(small_wedge_config(), &pool);
  const double e0 = sim.total_energy();
  sim.run(10);
  EXPECT_GT(e0, 0.0);
  EXPECT_EQ(sim.counters().synthesized, 0u);
  // Fixed-point run stays numerically sane.
  const double e1 = sim.total_energy();
  EXPECT_NEAR(e1 / e0, 1.0, 0.2);
}

TEST(Simulation, PlungerCyclesAndRefills) {
  cmdp::ThreadPool pool(4);
  auto cfg = small_wedge_config();
  core::SimulationD sim(cfg, &pool);
  const auto res0 = sim.reservoir_count();
  sim.run(40);
  // The plunger must have retracted at least once and pulled reservoir
  // particles into the flow.
  EXPECT_GT(sim.counters().injected, 0u);
  EXPECT_GT(sim.counters().removed, 0u);
  // Reservoir level stays within a sane band (injections ~ removals).
  EXPECT_GT(sim.reservoir_count(), res0 / 4);
  EXPECT_LT(sim.reservoir_count(), res0 * 4);
}

TEST(Simulation, SoftSourceModeAlsoMaintainsInflow) {
  cmdp::ThreadPool pool(4);
  auto cfg = small_wedge_config();
  cfg.upstream = cmdsmc::geom::UpstreamMode::kSoftSource;
  core::SimulationD sim(cfg, &pool);
  sim.run(40);
  EXPECT_GT(sim.counters().injected, 0u);
  // Upstream strip density should be near freestream.
  const auto& s = sim.particles();
  std::size_t strip = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.flags[i] & core::ParticleStore<double>::kReservoirFlag) continue;
    if (s.x[i] < 1.0) ++strip;
  }
  const double target = cfg.particles_per_cell * cfg.ny;
  EXPECT_NEAR(static_cast<double>(strip), target, 0.35 * target);
}

TEST(Simulation, SamplingAccumulatesOnlyWhenEnabled) {
  cmdp::ThreadPool pool(4);
  core::SimulationD sim(small_wedge_config(), &pool);
  sim.run(3);
  EXPECT_EQ(sim.field().samples, 0);
  sim.set_sampling(true);
  sim.run(4);
  EXPECT_EQ(sim.field().samples, 4);
  sim.reset_sampling();
  EXPECT_EQ(sim.field().samples, 0);
}

TEST(Simulation, PhaseTimersCoverAllPhases) {
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(small_wedge_config(), &pool);
  sim.set_sampling(true);
  sim.run(5);
  using S = core::SimulationD;
  EXPECT_GT(sim.phase_seconds(S::kPhaseMove), 0.0);
  EXPECT_GT(sim.phase_seconds(S::kPhaseSort), 0.0);
  // Selection is fused into the collide traversal; its slot reads 0 and the
  // fused pass reports under kPhaseCollide.
  EXPECT_EQ(sim.phase_seconds(S::kPhaseSelect), 0.0);
  EXPECT_GT(sim.phase_seconds(S::kPhaseCollide), 0.0);
  EXPECT_GT(sim.phase_seconds(S::kPhaseSample), 0.0);
  EXPECT_NEAR(sim.total_seconds(),
              sim.phase_seconds(S::kPhaseMove) +
                  sim.phase_seconds(S::kPhaseSort) +
                  sim.phase_seconds(S::kPhaseSelect) +
                  sim.phase_seconds(S::kPhaseCollide) +
                  sim.phase_seconds(S::kPhaseSample),
              1e-9);
}

namespace {

// A registry scenario's config with overrides applied.
core::SimConfig scenario_config(
    const std::string& name,
    std::initializer_list<std::pair<const char*, const char*>> overrides) {
  scenario::ScenarioSpec spec = scenario::get_scenario(name);
  for (const auto& [key, value] : overrides)
    scenario::apply_override(spec, key, value);
  return spec.build_config();
}

// The per-pairing-cell tables the sort leaves behind must tile the sorted
// store exactly: cell c owns [starts[c], starts[c] + counts[c]).
void expect_sort_tables_match_store(const core::SimulationD& sim) {
  const auto& counts = sim.sort_counts();
  const auto& starts = sim.sort_starts();
  const auto& cell = sim.particles().cell;
  ASSERT_EQ(counts.size(), starts.size());
  std::size_t at = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    ASSERT_EQ(starts[c], at) << "cell " << c;
    for (std::uint32_t i = 0; i < counts[c]; ++i)
      ASSERT_EQ(cell[at + i], c) << "cell " << c << " slot " << i;
    at += counts[c];
  }
  EXPECT_EQ(at, sim.total_count());
}

void expect_same_counters(const core::SimCounters& a,
                          const core::SimCounters& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.reservoir_collisions, b.reservoir_collisions);
  EXPECT_EQ(a.removed, b.removed);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.synthesized, b.synthesized);
  EXPECT_EQ(a.cloned, b.cloned);
  EXPECT_EQ(a.merged, b.merged);
}

// Runs cfg at 1 and 4 lanes with a sort key space past 2^21 keys (a few
// MiB of per-lane counting tables) and checks lane invariance plus the sort
// tables.  Returns the run's counters.
core::SimCounters expect_large_key_space_lane_invariant(
    const core::SimConfig& cfg, int steps) {
  cmdp::ThreadPool pool1(1);
  cmdp::ThreadPool pool4(4);
  core::SimulationD a(cfg, &pool1);
  core::SimulationD b(cfg, &pool4);
  a.run(steps);
  b.run(steps);
  // Pairing cells * kSortScale is the key space (plus the reserved dead key
  // in axisymmetric runs).
  EXPECT_GT(a.sort_counts().size() * std::size_t{core::kSortScale},
            std::size_t{1} << 21);
  EXPECT_GT(a.counters().collisions, 0u);
  expect_same_counters(a.counters(), b.counters());
  EXPECT_EQ(cmdsmc::audit::hash_store(a.particles()),
            cmdsmc::audit::hash_store(b.particles()));
  EXPECT_EQ(a.sort_counts(), b.sort_counts());
  EXPECT_EQ(a.sort_starts(), b.sort_starts());
  expect_sort_tables_match_store(a);
  expect_sort_tables_match_store(b);
  return a.counters();
}

}  // namespace

TEST(Simulation, LargeKeySpaceIsLaneInvariantPlanar) {
  const core::SimConfig cfg = scenario_config(
      "duct3d", {{"nx", "128"}, {"ny", "64"}, {"nz", "40"}, {"ppc", "2"}});
  EXPECT_GT(expect_large_key_space_lane_invariant(cfg, 8).injected, 0u);
}

TEST(Simulation, LargeKeySpaceIsLaneInvariantAxisymmetric) {
  const core::SimConfig cfg = scenario_config(
      "biconic_axi", {{"nx", "1200"}, {"ny", "240"}, {"ppc", "2"}});
  ASSERT_TRUE(cfg.axisymmetric);
  // Merges exercise the dead-key truncation behind the scatter.
  const core::SimCounters c = expect_large_key_space_lane_invariant(cfg, 8);
  EXPECT_GT(c.cloned, 0u);
  EXPECT_GT(c.merged, 0u);
}
