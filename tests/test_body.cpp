#include "geom/body.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "geom/boundary.h"
#include "geom/wedge.h"
#include "rng/rng.h"

namespace geom = cmdsmc::geom;

namespace {

constexpr double kRad = std::numbers::pi / 180.0;

double speed2(const geom::ParticleState& p) {
  return p.ux * p.ux + p.uy * p.uy + p.uz * p.uz;
}

double energy(const geom::ParticleState& p) {
  return 0.5 * (speed2(p) + p.r0 * p.r0 + p.r1 * p.r1);
}

}  // namespace

// --- Construction and factories ---------------------------------------------

TEST(Body, WedgeFactoryMatchesLegacyTriangle) {
  const geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  const geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  ASSERT_EQ(b.segment_count(), 3);
  EXPECT_NEAR(b.xmin(), 20.0, 1e-12);
  EXPECT_NEAR(b.xmax(), 45.0, 1e-12);
  EXPECT_NEAR(b.ymax(), w.height(), 1e-12);
  EXPECT_NEAR(b.chord(), 25.0, 1e-12);
  EXPECT_NEAR(b.area(), 0.5 * 25.0 * w.height(), 1e-9);
  EXPECT_TRUE(b.convex());
  // Floor edge is embedded; back face and hypotenuse are live.
  EXPECT_TRUE(b.segments()[0].embedded);
  EXPECT_FALSE(b.segments()[1].embedded);
  EXPECT_FALSE(b.segments()[2].embedded);
  // Back face outward normal +x, hypotenuse normal (-sin a, cos a).
  EXPECT_NEAR(b.segments()[1].nx, 1.0, 1e-12);
  EXPECT_NEAR(b.segments()[1].ny, 0.0, 1e-12);
  EXPECT_NEAR(b.segments()[2].nx, -std::sin(30.0 * kRad), 1e-12);
  EXPECT_NEAR(b.segments()[2].ny, std::cos(30.0 * kRad), 1e-12);
}

TEST(Body, CylinderFactoryApproximatesCircle) {
  const geom::Body b = geom::Body::Cylinder(24.0, 24.0, 6.0, 32);
  ASSERT_EQ(b.segment_count(), 32);
  EXPECT_TRUE(b.convex());
  // Polygon area slightly below pi r^2, converging with facet count.
  EXPECT_GT(b.area(), 0.97 * std::numbers::pi * 36.0);
  EXPECT_LT(b.area(), std::numbers::pi * 36.0);
  // Every outward normal points away from the center.
  for (const geom::BodySegment& s : b.segments()) {
    const double rx = s.mid_x() - 24.0;
    const double ry = s.mid_y() - 24.0;
    EXPECT_GT(s.nx * rx + s.ny * ry, 0.0);
  }
  EXPECT_TRUE(b.inside(24.0, 24.0));
  EXPECT_FALSE(b.inside(24.0, 31.0));
}

TEST(Body, FlatPlateAndBiconicAreConvexClosedShapes) {
  const geom::Body plate =
      geom::Body::FlatPlate(10.0, 20.0, 12.0, 1.0, 10.0 * kRad);
  EXPECT_EQ(plate.segment_count(), 4);
  EXPECT_TRUE(plate.convex());
  EXPECT_NEAR(plate.area(), 12.0, 1e-9);

  const geom::Body bic =
      geom::Body::Biconic(10.0, 24.0, 8.0, 25.0 * kRad, 10.0, 10.0 * kRad);
  EXPECT_EQ(bic.segment_count(), 5);
  EXPECT_TRUE(bic.convex());
  // Nose is the leftmost point on the axis.
  EXPECT_NEAR(bic.xmin(), 10.0, 1e-12);
  EXPECT_TRUE(bic.inside(12.0, 24.0));
  EXPECT_FALSE(bic.inside(9.0, 24.0));
}

TEST(Body, RejectsDegenerateInput) {
  // Too few vertices.
  EXPECT_THROW(geom::Body({{0, 0}, {1, 0}}), std::invalid_argument);
  // Clockwise winding (negative area).
  EXPECT_THROW(geom::Body({{0, 0}, {0, 1}, {1, 1}, {1, 0}}),
               std::invalid_argument);
  // Zero-length edge.
  EXPECT_THROW(geom::Body({{0, 0}, {1, 0}, {1, 0}, {0, 1}}),
               std::invalid_argument);
  // Factory validation.
  EXPECT_THROW(geom::Body::Wedge(0.0, -1.0, 30.0 * kRad),
               std::invalid_argument);
  EXPECT_THROW(geom::Body::Cylinder(0.0, 0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(geom::Body::FlatPlate(0.0, 0.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(geom::Body::Biconic(0, 0, 1.0, 0.0, 1.0, 0.1),
               std::invalid_argument);
}

// --- Inside / nearest-face queries -------------------------------------------

TEST(Body, WedgeInsideMatchesLegacyWedgeExactly) {
  const geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  const geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  cmdsmc::rng::SplitMix64 g(7);
  for (int trial = 0; trial < 20000; ++trial) {
    const double x = g.next_double() * 60.0;
    const double y = g.next_double() * 20.0 - 2.0;
    ASSERT_EQ(b.inside(x, y), w.inside(x, y)) << x << "," << y;
  }
}

TEST(Body, NearestFaceOnInclinedFace) {
  const geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  // Just below the ramp surface at x = 30: hypotenuse (segment 2).
  const double y = 10.0 * std::tan(30.0 * kRad) - 0.1;
  const auto hit = b.nearest_face(30.0, y);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->segment, 2);
  EXPECT_NEAR(hit->nx, -std::sin(30.0 * kRad), 1e-12);
  EXPECT_NEAR(hit->ny, std::cos(30.0 * kRad), 1e-12);
  EXPECT_LT(hit->depth, 0.0);
  // Plane depth: the perpendicular penetration of the ramp.
  EXPECT_NEAR(hit->depth, -0.1 * std::cos(30.0 * kRad), 1e-9);
}

TEST(Body, NearestFaceOnVerticalFace) {
  const geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  const auto hit = b.nearest_face(44.95, 2.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->segment, 1);
  EXPECT_NEAR(hit->nx, 1.0, 1e-12);
  EXPECT_NEAR(hit->ny, 0.0, 1e-12);
  EXPECT_NEAR(hit->depth, -0.05, 1e-9);
  // Outside: no face.
  EXPECT_FALSE(b.nearest_face(10.0, 1.0).has_value());
}

TEST(Body, NearestFaceNeverReturnsEmbeddedFloor) {
  const geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  // Deep inside just above the floor: the embedded floor edge is closest in
  // pure distance but must never be reported.
  cmdsmc::rng::SplitMix64 g(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const double x = 21.0 + g.next_double() * 23.0;
    const double y = 0.01 + g.next_double() * 0.2;
    if (!b.inside(x, y)) continue;
    const auto hit = b.nearest_face(x, y);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NE(hit->segment, 0);
  }
}

TEST(Body, NearestFaceAgreesWithLegacyWedge) {
  // Reference: the analytic two-face rule of the wedge's original dedicated
  // boundary path — plane depths against the ramp (normal (-sin a, cos a)
  // through the leading edge) and the back face x = apex, shallower wins.
  const double a = 30.0 * kRad;
  const geom::Body b = geom::Body::Wedge(20.0, 25.0, a);
  const geom::Wedge w(20.0, 25.0, a);
  cmdsmc::rng::SplitMix64 g(13);
  int compared = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const double x = 20.0 + g.next_double() * 26.0;
    const double y = g.next_double() * 15.0;
    const auto hb = b.nearest_face(x, y);
    ASSERT_EQ(hb.has_value(), w.inside(x, y));
    if (!hb) continue;
    ++compared;
    const double d_ramp = (x - 20.0) * -std::sin(a) + y * std::cos(a);
    const double d_back = x - w.apex_x();
    const bool ramp = d_ramp >= d_back;
    const double nx = ramp ? -std::sin(a) : 1.0;
    const double ny = ramp ? std::cos(a) : 0.0;
    // Same normal and plane depth whenever both rules pick the same face
    // (they may differ in a measure-zero sliver near the apex corner where
    // plane- and segment-distance orderings disagree).
    if (std::abs(hb->nx - nx) < 1e-12) {
      EXPECT_NEAR(hb->ny, ny, 1e-12);
      EXPECT_NEAR(hb->depth, ramp ? d_ramp : d_back, 1e-9);
    }
  }
  EXPECT_GT(compared, 1000);
}

// --- Open fractions ----------------------------------------------------------

TEST(Body, WedgeOpenFractionTableMatchesLegacy) {
  const geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  const geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  const geom::Grid grid{98, 64, 0};
  const auto tb = b.open_fraction_table(grid);
  const auto tw = w.open_fraction_table(grid);
  ASSERT_EQ(tb.size(), tw.size());
  for (std::size_t i = 0; i < tb.size(); ++i)
    ASSERT_NEAR(tb[i], tw[i], 1e-9) << "cell " << i;
}

TEST(Body, CylinderOpenFractionConservesArea) {
  const geom::Body b = geom::Body::Cylinder(24.0, 20.0, 6.0, 48);
  const geom::Grid grid{64, 48, 0};
  const auto table = b.open_fraction_table(grid);
  double solid = 0.0;
  for (double f : table) solid += 1.0 - f;
  EXPECT_NEAR(solid, b.area(), 1e-6);
}

TEST(Body, OpenFractionTable3DRepeatsPerPlane) {
  const geom::Body b = geom::Body::Wedge(4.0, 4.0, 30.0 * kRad);
  const geom::Grid g{16, 8, 3};
  const auto table = b.open_fraction_table(g);
  for (int ix = 0; ix < g.nx; ++ix)
    for (int iy = 0; iy < g.ny; ++iy) {
      const double f0 = table[g.index(ix, iy, 0)];
      EXPECT_EQ(f0, table[g.index(ix, iy, 1)]);
      EXPECT_EQ(f0, table[g.index(ix, iy, 2)]);
    }
}

// --- Boundary interaction ----------------------------------------------------

TEST(BodyBoundary, SpecularConservesEnergyOnArbitraryAngleSegment) {
  // A plate at 17 degrees incidence: its faces align with no axis.
  const geom::Body plate =
      geom::Body::FlatPlate(30.0, 25.0, 15.0, 2.0, 17.0 * kRad);
  geom::BoundaryConfig bc;
  bc.x_max = 98.0;
  bc.y_max = 64.0;
  const geom::Scene scene_plate(std::vector<geom::Body>{plate});
  bc.scene = &scene_plate;
  cmdsmc::rng::SplitMix64 g(17);
  int reflected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const double x = plate.xmin() + g.next_double() * plate.chord();
    const double y = plate.ymin() + g.next_double() * plate.height();
    if (!plate.inside(x, y)) continue;
    geom::ParticleState p{x, y, 0, 0.6 * (2 * g.next_double() - 1),
                          0.6 * (2 * g.next_double() - 1), 0.1, 0.2, -0.3};
    const double e = energy(p);
    ASSERT_TRUE(geom::enforce_boundaries(p, bc, 0));
    ASSERT_FALSE(plate.inside(p.x, p.y)) << p.x << "," << p.y;
    ASSERT_NEAR(energy(p), e, 1e-9);
    ++reflected;
  }
  EXPECT_GT(reflected, 1000);
}

TEST(BodyBoundary, DiffuseIsothermalRefluxTemperature) {
  geom::Body plate = geom::Body::FlatPlate(30.0, 25.0, 15.0, 2.0, 0.0);
  const double sigma_w = 0.25;
  plate.set_wall_model(geom::WallModel::kDiffuseIsothermal, sigma_w);
  geom::BoundaryConfig bc;
  bc.x_max = 98.0;
  bc.y_max = 64.0;
  const geom::Scene scene_plate(std::vector<geom::Body>{plate});
  bc.scene = &scene_plate;
  cmdsmc::rng::SplitMix64 g(19);
  double sum_vn2 = 0.0;
  double sum_e = 0.0;
  int n = 0;
  // Drop cold particles just inside the top face and measure the re-emitted
  // distribution: flux-weighted normal with E[vn^2] = 2 sigma_w^2, Gaussian
  // tangential/rotational with sigma_w^2 each; mean energy 3 sigma_w^2.
  for (int trial = 0; trial < 40000; ++trial) {
    const double x = 31.0 + g.next_double() * 13.0;
    geom::ParticleState p{x, 26.95, 0, 0.05, -0.05, 0, 0, 0};
    ASSERT_TRUE(geom::enforce_boundaries(p, bc, g.next_u64()));
    // Top face outward normal is +y.
    const double vn = p.uy;
    ASSERT_GT(vn, 0.0);
    sum_vn2 += vn * vn;
    sum_e += energy(p);
    ++n;
  }
  const double s2 = sigma_w * sigma_w;
  EXPECT_NEAR(sum_vn2 / n, 2.0 * s2, 0.05 * s2);
  EXPECT_NEAR(sum_e / n, 3.0 * s2, 0.10 * s2);
}

TEST(BodyBoundary, DiffuseAdiabaticPreservesParticleEnergy) {
  geom::Body cyl = geom::Body::Cylinder(30.0, 30.0, 8.0, 24);
  cyl.set_wall_model(geom::WallModel::kDiffuseAdiabatic, 0.25);
  geom::BoundaryConfig bc;
  bc.x_max = 98.0;
  bc.y_max = 64.0;
  const geom::Scene scene_cyl(std::vector<geom::Body>{cyl});
  bc.scene = &scene_cyl;
  cmdsmc::rng::SplitMix64 g(23);
  for (int trial = 0; trial < 2000; ++trial) {
    const double a = 2.0 * std::numbers::pi * g.next_double();
    const double x = 30.0 + 7.9 * std::cos(a);
    const double y = 30.0 + 7.9 * std::sin(a);
    if (!cyl.inside(x, y)) continue;
    geom::ParticleState p{x, y, 0, 0.4, -0.2, 0.1, 0.2, -0.3};
    const double e = energy(p);
    ASSERT_TRUE(geom::enforce_boundaries(p, bc, g.next_u64()));
    ASSERT_NEAR(energy(p), e, 1e-9);
  }
}

TEST(BodyBoundary, WallEventsRecordMomentumAndEnergyTransfer) {
  const geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  geom::BoundaryConfig bc;
  bc.x_max = 98.0;
  bc.y_max = 64.0;
  const geom::Scene scene_b(std::vector<geom::Body>{b});
  bc.scene = &scene_b;
  // Head-on specular hit on the vertical back face: the wall receives
  // 2 m |ux| of -x momentum and no energy.
  geom::ParticleState p{44.9, 2.0, 0, -0.4, 0.0, 0, 0, 0};
  geom::WallEventBuffer ev;
  ASSERT_TRUE(geom::enforce_boundaries(p, bc, 0, &ev));
  ASSERT_EQ(ev.count, 1);
  EXPECT_EQ(ev.events[0].segment, 1);
  EXPECT_NEAR(ev.events[0].dpx, -0.8, 1e-12);
  EXPECT_NEAR(ev.events[0].dpy, 0.0, 1e-12);
  EXPECT_NEAR(ev.events[0].de, 0.0, 1e-12);
  EXPECT_NEAR(p.x, 45.1, 1e-9);
  EXPECT_NEAR(p.ux, 0.4, 1e-12);
}

TEST(BodyBoundary, MixedPerSegmentWallModels) {
  // Diffuse-isothermal ramp, specular back face on the same body.
  geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  b.set_segment_wall(2, geom::WallModel::kDiffuseIsothermal, 0.25);
  EXPECT_TRUE(b.any_diffuse());
  geom::BoundaryConfig bc;
  bc.x_max = 98.0;
  bc.y_max = 64.0;
  const geom::Scene scene_b(std::vector<geom::Body>{b});
  bc.scene = &scene_b;
  // Back face stays deterministic-specular.
  geom::ParticleState p{44.9, 2.0, 0, -0.4, 0.0, 0, 0, 0};
  ASSERT_TRUE(geom::enforce_boundaries(p, bc, 12345));
  EXPECT_NEAR(p.ux, 0.4, 1e-12);
  // Ramp hit resamples the velocity (diffuse): outgoing along the ramp
  // normal, and the pre-hit tangential velocity is not preserved.
  cmdsmc::rng::SplitMix64 g(29);
  const double nx = -std::sin(30.0 * kRad);
  const double ny = std::cos(30.0 * kRad);
  for (int trial = 0; trial < 200; ++trial) {
    const double x = 25.0 + g.next_double() * 15.0;
    const double y = (x - 20.0) * std::tan(30.0 * kRad) - 0.05;
    geom::ParticleState q{x, y, 0, 0.8, -0.4, 0, 0.1, 0.1};
    ASSERT_TRUE(geom::enforce_boundaries(q, bc, g.next_u64()));
    EXPECT_GT(q.ux * nx + q.uy * ny, 0.0);
  }
}
