// Multi-body scenes end to end: the tandem_cylinders scenario, per-body
// surface statistics in the RunResult/JSON, the bodyN.* override grammar,
// and the superposition sanity check (well-separated bodies reproduce the
// single-body coefficients).
#include <gtest/gtest.h>

#include <cmath>

#include "cmdp/thread_pool.h"
#include "core/simulation.h"
#include "io/surface_csv.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace core = cmdsmc::core;
namespace geom = cmdsmc::geom;
namespace cli = cmdsmc::cli;
namespace cmdp = cmdsmc::cmdp;
namespace scenario = cmdsmc::scenario;

TEST(MultiBodyScenario, RegistryContainsTheMultiBodyScenes) {
  for (const char* name : {"tandem_cylinders", "biconic_flare"}) {
    const scenario::ScenarioSpec* s = scenario::find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->bodies.size(), 2u) << name;
    EXPECT_NO_THROW({
      const core::SimConfig cfg = s->build_config();
      EXPECT_TRUE(cfg.has_body_scene());
      EXPECT_EQ(cfg.bodies.size(), 1u);  // second scene body
    }) << name;
  }
}

TEST(MultiBodyScenario, TandemCylindersRunsWithPerBodyCoefficients) {
  cmdp::ThreadPool pool(0);
  scenario::ScenarioSpec spec = scenario::get_scenario("tandem_cylinders");
  scenario::apply_override(spec, "steps", "20");
  scenario::apply_override(spec, "ppc", "4");
  scenario::Runner runner(spec);
  const scenario::RunResult r = runner.run(&pool);

  ASSERT_TRUE(r.surface.has_value());
  EXPECT_EQ(r.surface->segments.size(), 72u);  // 2 x 36 facets
  ASSERT_EQ(r.surfaces.size(), 2u);
  for (const core::SurfaceStats& b : r.surfaces) {
    EXPECT_EQ(b.segments.size(), 36u);
    EXPECT_GT(b.cd, 0.0);
    EXPECT_EQ(b.body_name, "cylinder");
  }
  // The scene totals integrate both bodies' forces: total force equals the
  // sum of the per-body forces.
  EXPECT_NEAR(r.surface->fx, r.surfaces[0].fx + r.surfaces[1].fx, 1e-12);
  EXPECT_NEAR(r.surface->fy, r.surfaces[0].fy + r.surfaces[1].fy, 1e-12);

  // Per-body coefficients reach the JSON summary.
  const std::string json = scenario::JsonSummarySink::to_json(r);
  EXPECT_NE(json.find("\"bodies\": ["), std::string::npos);
  EXPECT_NE(json.find("\"id\": \"body0\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": \"body1\""), std::string::npos);

  // ... and the multi-body CSV leads with body/name columns.
  std::ostringstream os;
  cmdsmc::io::write_scene_surface_csv(os, r.surfaces);
  EXPECT_NE(os.str().find("body,name,segment,"), std::string::npos);
  EXPECT_NE(os.str().find("# body1 name=cylinder"), std::string::npos);
}

TEST(MultiBodyScenario, BodyNOverridesGrowAndAddressTheBodyList) {
  scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
  ASSERT_EQ(spec.bodies.size(), 1u);
  // body.* and body0.* address the same body.
  scenario::apply_override(spec, "body.kind", "cylinder");
  scenario::apply_override(spec, "body0.x0", "30");
  scenario::apply_override(spec, "body0.y0", "32");
  scenario::apply_override(spec, "body.radius", "5");
  // Mentioning body1/body2 grows the list.
  scenario::apply_override(spec, "body1.kind", "cylinder");
  scenario::apply_override(spec, "body1.x0", "60");
  scenario::apply_override(spec, "body1.y0", "32");
  scenario::apply_override(spec, "body1.radius", "4");
  scenario::apply_override(spec, "body2.kind", "flat_plate");
  scenario::apply_override(spec, "body2.x0", "75");
  scenario::apply_override(spec, "body2.y0", "20");
  scenario::apply_override(spec, "body2.chord", "10");
  scenario::apply_override(spec, "body2.thickness", "1");
  ASSERT_EQ(spec.bodies.size(), 3u);
  EXPECT_EQ(spec.bodies[0].kind, scenario::BodyKind::kCylinder);
  EXPECT_DOUBLE_EQ(spec.bodies[0].radius, 5.0);
  EXPECT_DOUBLE_EQ(spec.bodies[1].x0, 60.0);
  EXPECT_EQ(spec.bodies[2].kind, scenario::BodyKind::kFlatPlate);

  const core::SimConfig cfg = spec.build_config();
  ASSERT_TRUE(cfg.body.has_value());
  EXPECT_EQ(cfg.bodies.size(), 2u);
  cmdp::ThreadPool pool(2);
  core::SimulationD sim(cfg, &pool);
  EXPECT_EQ(sim.scene().body_count(), 3);
  EXPECT_EQ(sim.scene().total_segments(),
            sim.scene().body(0).segment_count() +
                sim.scene().body(1).segment_count() + 4);
}

TEST(MultiBodyScenario, RejectsUnknownBodyKeysAndBadIndices) {
  scenario::ScenarioSpec spec = scenario::get_scenario("tandem_cylinders");
  EXPECT_THROW(scenario::apply_override(spec, "body1.typo", "1"),
               cli::ArgError);
  EXPECT_THROW(scenario::apply_override(spec, "body20.radius", "2"),
               cli::ArgError);
  EXPECT_THROW(scenario::apply_override(spec, "body1.kind", "sphere"),
               cli::ArgError);
  // The error message enumerates the valid body keys.
  try {
    scenario::apply_override(spec, "body1.typo", "1");
    FAIL() << "expected ArgError";
  } catch (const cli::ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("radius"), std::string::npos);
  }
  // Advertised body keys all have help text.
  EXPECT_FALSE(scenario::override_help("body.kind").empty());
  EXPECT_FALSE(scenario::override_help("body3.radius").empty());
}

TEST(MultiBodyScenario, GlobalTwallReachesBodiesAddedLater) {
  // `twall=` must not be order-dependent: a body appended by a later
  // bodyN.* override still inherits the global wall-temperature ratio.
  scenario::ScenarioSpec spec = scenario::get_scenario("cylinder-mach10");
  scenario::apply_override(spec, "twall", "0.5");
  scenario::apply_override(spec, "body1.kind", "cylinder");
  scenario::apply_override(spec, "body1.x0", "72");
  scenario::apply_override(spec, "body1.y0", "32");
  scenario::apply_override(spec, "body1.radius", "4");
  scenario::apply_override(spec, "body1.wall", "diffuse_isothermal");
  ASSERT_EQ(spec.bodies.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.bodies[1].wall_temperature_ratio, 0.5);
  // An explicit per-body override still wins.
  scenario::apply_override(spec, "body1.twall", "0.25");
  const core::SimConfig cfg = spec.build_config();
  ASSERT_EQ(cfg.bodies.size(), 1u);
  EXPECT_NEAR(cfg.bodies[0].segments()[0].wall_sigma,
              cfg.sigma * std::sqrt(0.25), 1e-12);
}

TEST(MultiBodyScenario, WellSeparatedCylindersMatchSingleCylinderDrag) {
  // Superposition sanity: two cylinders placed side by side, far enough
  // apart that neither sits in the other's disturbance, must each report
  // the single-cylinder Cd within statistical noise.
  cmdp::ThreadPool pool(0);
  auto configure = [](scenario::ScenarioSpec& spec) {
    scenario::apply_override(spec, "steps", "120");
    scenario::apply_override(spec, "ppc", "6");
    scenario::apply_override(spec, "sinks", "none");
  };

  // Side-by-side pair (same x station, lateral separation ~2.7 diameters).
  scenario::ScenarioSpec pair = scenario::get_scenario("tandem_cylinders");
  configure(pair);
  scenario::apply_override(pair, "body0.x0", "36");
  scenario::apply_override(pair, "body0.y0", "16");
  scenario::apply_override(pair, "body1.x0", "36");
  scenario::apply_override(pair, "body1.y0", "48");
  const scenario::RunResult rp = scenario::Runner(pair).run(&pool);
  ASSERT_EQ(rp.surfaces.size(), 2u);

  // The same cylinder alone, mid-tunnel.
  scenario::ScenarioSpec solo = scenario::get_scenario("tandem_cylinders");
  configure(solo);
  scenario::apply_override(solo, "body0.x0", "36");
  scenario::apply_override(solo, "body0.y0", "32");
  scenario::apply_override(solo, "body1.kind", "none");
  const scenario::RunResult rs = scenario::Runner(solo).run(&pool);
  ASSERT_EQ(rs.surfaces.size(), 1u);
  const double cd_solo = rs.surfaces[0].cd;
  ASSERT_GT(cd_solo, 0.0);

  for (const core::SurfaceStats& b : rp.surfaces) {
    EXPECT_NEAR(b.cd / cd_solo, 1.0, 0.10)
        << "body " << b.body_index << " cd " << b.cd << " vs solo "
        << cd_solo;
  }
  // Mirror symmetry of the pair itself.
  EXPECT_NEAR(rp.surfaces[0].cd / rp.surfaces[1].cd, 1.0, 0.08);
}
