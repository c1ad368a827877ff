#include "geom/boundary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "geom/wedge.h"
#include "rng/rng.h"

namespace geom = cmdsmc::geom;

namespace {

constexpr double kRad = std::numbers::pi / 180.0;

geom::BoundaryConfig tunnel() {
  geom::BoundaryConfig bc;
  bc.x_max = 98.0;
  bc.y_max = 64.0;
  return bc;
}

double speed2(const geom::ParticleState& p) {
  return p.ux * p.ux + p.uy * p.uy + p.uz * p.uz;
}

double energy(const geom::ParticleState& p) {
  return 0.5 * (speed2(p) + p.r0 * p.r0 + p.r1 * p.r1);
}

// The paper's wedge as a one-body scene, with an optional uniform wall model.
geom::Scene wedge_scene(geom::WallModel wall = geom::WallModel::kSpecular,
                        double wall_sigma = 0.0) {
  geom::Body b = geom::Body::Wedge(20.0, 25.0, 30.0 * kRad);
  if (wall != geom::WallModel::kSpecular) b.set_wall_model(wall, wall_sigma);
  return geom::Scene(std::vector<geom::Body>{std::move(b)});
}

}  // namespace

TEST(Boundary, InteriorParticleUntouched) {
  auto bc = tunnel();
  geom::ParticleState p{50, 30, 0, 0.5, -0.2, 0.1, 0.3, -0.4};
  const auto before = p;
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_EQ(p.x, before.x);
  EXPECT_EQ(p.uy, before.uy);
}

TEST(Boundary, FloorReflectsSpecularly) {
  auto bc = tunnel();
  geom::ParticleState p{50, -0.3, 0, 0.5, -0.6, 0, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_NEAR(p.y, 0.3, 1e-12);
  EXPECT_NEAR(p.uy, 0.6, 1e-12);
  EXPECT_NEAR(p.ux, 0.5, 1e-12);  // tangential untouched
}

TEST(Boundary, CeilingReflectsSpecularly) {
  auto bc = tunnel();
  geom::ParticleState p{50, 64.4, 0, 0.5, 0.8, 0, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_NEAR(p.y, 63.6, 1e-12);
  EXPECT_NEAR(p.uy, -0.8, 1e-12);
}

TEST(Boundary, DownstreamSinkRemovesParticle) {
  auto bc = tunnel();
  geom::ParticleState p{98.5, 30, 0, 0.9, 0, 0, 0, 0};
  EXPECT_FALSE(geom::enforce_boundaries(p, bc, 0));
}

TEST(Boundary, ClosedBoxReflectsAtDownstreamPlane) {
  auto bc = tunnel();
  bc.closed = true;
  geom::ParticleState p{98.5, 30, 0, 0.9, 0, 0, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_NEAR(p.x, 97.5, 1e-12);
  EXPECT_NEAR(p.ux, -0.9, 1e-12);
}

TEST(Boundary, UpstreamFixedWallReflects) {
  auto bc = tunnel();
  geom::ParticleState p{-0.2, 30, 0, -0.5, 0, 0, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_NEAR(p.x, 0.2, 1e-12);
  EXPECT_NEAR(p.ux, 0.5, 1e-12);
}

TEST(Boundary, MovingPlungerReflectsInWallFrame) {
  auto bc = tunnel();
  bc.plunger_active = true;
  bc.plunger_x = 2.0;
  bc.plunger_speed = 0.8;
  // Particle slower than the plunger gets run over: u' = 2 U - u.
  geom::ParticleState p{1.5, 30, 0, 0.1, 0, 0, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_NEAR(p.x, 2.5, 1e-12);
  EXPECT_NEAR(p.ux, 1.5, 1e-12);
  // A particle already outrunning the plunger keeps its velocity.
  geom::ParticleState q{1.9, 30, 0, 2.0, 0, 0, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(q, bc, 0));
  EXPECT_NEAR(q.ux, 2.0, 1e-12);
  EXPECT_NEAR(q.x, 2.1, 1e-12);
}

TEST(Boundary, WedgeSpecularPreservesSpeedAndEjects) {
  auto bc = tunnel();
  const geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  const geom::Scene scene = wedge_scene();
  bc.scene = &scene;
  cmdsmc::rng::SplitMix64 g(41);
  for (int trial = 0; trial < 500; ++trial) {
    // Random point slightly inside the wedge near the ramp.
    const double x = 21.0 + g.next_double() * 23.0;
    const double y = w.surface_y(x) - 0.05 - 0.1 * g.next_double();
    if (y <= 0.0) continue;
    geom::ParticleState p{x, y, 0, 0.5, -0.5, 0.1, 0.2, 0.3};
    const double s2 = speed2(p);
    ASSERT_TRUE(geom::enforce_boundaries(p, bc, 0));
    ASSERT_FALSE(w.inside(p.x, p.y)) << p.x << "," << p.y;
    ASSERT_NEAR(speed2(p), s2, 1e-9);
  }
}

TEST(Boundary, WedgeBackFaceReflectsHorizontally) {
  auto bc = tunnel();
  const geom::Scene scene = wedge_scene();
  bc.scene = &scene;
  geom::ParticleState p{44.9, 2.0, 0, -0.4, 0.0, 0, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_NEAR(p.x, 45.1, 1e-9);
  EXPECT_NEAR(p.ux, 0.4, 1e-12);
}

TEST(Boundary, LeadingEdgeCornerIsHandled) {
  auto bc = tunnel();
  const geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  const geom::Scene scene = wedge_scene();
  bc.scene = &scene;
  // A particle that dives below the floor right at the wedge leading edge:
  // needs the floor reflection then possibly a wedge reflection.
  geom::ParticleState p{20.2, -0.05, 0, 0.7, -0.3, 0, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_GE(p.y, 0.0);
  EXPECT_FALSE(w.inside(p.x, p.y));
}

TEST(Boundary, DiffuseIsothermalReemitsOutward) {
  auto bc = tunnel();
  const geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  const geom::Scene scene =
      wedge_scene(geom::WallModel::kDiffuseIsothermal, 0.25);
  bc.scene = &scene;
  const double nx = -std::sin(30.0 * kRad);
  const double ny = std::cos(30.0 * kRad);
  cmdsmc::rng::SplitMix64 g(42);
  for (int trial = 0; trial < 300; ++trial) {
    const double x = 25.0 + g.next_double() * 15.0;
    const double y = w.surface_y(x) - 0.05;
    geom::ParticleState p{x, y, 0, 0.8, -0.4, 0, 0.1, 0.1};
    ASSERT_TRUE(geom::enforce_boundaries(p, bc, g.next_u64()));
    ASSERT_FALSE(w.inside(p.x, p.y));
    // Outgoing: velocity has a positive component along the outward normal.
    EXPECT_GT(p.ux * nx + p.uy * ny, 0.0);
  }
}

TEST(Boundary, DiffuseAdiabaticPreservesParticleEnergy) {
  auto bc = tunnel();
  const geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  const geom::Scene scene =
      wedge_scene(geom::WallModel::kDiffuseAdiabatic, 0.25);
  bc.scene = &scene;
  cmdsmc::rng::SplitMix64 g(43);
  for (int trial = 0; trial < 300; ++trial) {
    const double x = 25.0 + g.next_double() * 15.0;
    const double y = w.surface_y(x) - 0.05;
    geom::ParticleState p{x, y, 0, 0.8, -0.4, 0.2, 0.1, -0.3};
    const double e = energy(p);
    ASSERT_TRUE(geom::enforce_boundaries(p, bc, g.next_u64()));
    ASSERT_NEAR(energy(p), e, 1e-9);
  }
}

TEST(Boundary, ZWallsReflectIn3D) {
  auto bc = tunnel();
  bc.z_max = 16.0;
  geom::ParticleState p{50, 30, -0.4, 0, 0, -0.3, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(p, bc, 0));
  EXPECT_NEAR(p.z, 0.4, 1e-12);
  EXPECT_NEAR(p.uz, 0.3, 1e-12);
  geom::ParticleState q{50, 30, 16.5, 0, 0, 0.7, 0, 0};
  EXPECT_TRUE(geom::enforce_boundaries(q, bc, 0));
  EXPECT_NEAR(q.z, 15.5, 1e-12);
  EXPECT_NEAR(q.uz, -0.7, 1e-12);
}

TEST(Plunger, AdvanceAndRetract) {
  geom::Plunger pl;
  pl.speed = 0.8;
  pl.trigger = 3.0;
  double width = 0.0;
  int steps = 0;
  while (width == 0.0 && steps < 10) {
    width = pl.advance();
    ++steps;
  }
  EXPECT_EQ(steps, 4);  // 0.8 * 4 = 3.2 >= 3.0
  // Withdrawal happens at the trigger crossing: the void is exactly
  // `trigger` wide and the 0.2 overshoot carries over into the next cycle
  // (the old behavior returned 3.2, conflating trigger and width).
  EXPECT_NEAR(width, 3.0, 1e-12);
  EXPECT_NEAR(pl.x, 0.2, 1e-12);
}

TEST(Plunger, SpeedAboveTriggerStaysBoundedAndConservesFlux) {
  // With speed > trigger the plunger crosses the trigger every step (even
  // multiple times); x must stay bounded by trigger instead of drifting
  // downstream, and the swept volume must still all be reported.
  geom::Plunger pl;
  pl.speed = 1.8;
  pl.trigger = 0.5;
  double injected = 0.0;
  for (int s = 0; s < 200; ++s) {
    injected += pl.advance();
    ASSERT_LT(pl.x, pl.trigger);
    ASSERT_GE(pl.x, 0.0);
  }
  EXPECT_NEAR(injected + pl.x, pl.speed * 200, 1e-9);
}

TEST(Plunger, SweptVolumeMatchesInjectedVolumeOverManyCycles) {
  geom::Plunger pl;
  pl.speed = 0.7;
  pl.trigger = 3.0;
  double injected = 0.0;
  const int nsteps = 1000;
  for (int s = 0; s < nsteps; ++s) injected += pl.advance();
  // Flux conservation: total refilled void == total distance travelled.
  EXPECT_NEAR(injected + pl.x, pl.speed * nsteps, 1e-9);
}

// --- Interior-mask precomputation (the move-phase fast path) ---

namespace {

// Brute-force safety check: from every corner of a masked cell, move by every
// combination of +/-d per axis and verify enforce_boundaries is a no-op.
void expect_mask_is_safe(const geom::Grid& grid, const geom::BoundaryConfig& bc,
                         const std::vector<std::uint8_t>& mask, double d) {
  int checked = 0;
  for (int iy = 0; iy < grid.ny; ++iy) {
    for (int ix = 0; ix < grid.nx; ++ix) {
      if (!mask[grid.index(ix, iy)]) continue;
      for (double fx : {0.0, 0.5, 0.999}) {
        for (double fy : {0.0, 0.5, 0.999}) {
          for (double dx : {-d, 0.0, d}) {
            for (double dy : {-d, 0.0, d}) {
              geom::ParticleState p;
              p.x = ix + fx + dx;
              p.y = iy + fy + dy;
              p.ux = dx;
              p.uy = dy;
              const geom::ParticleState before = p;
              ASSERT_TRUE(geom::enforce_boundaries(p, bc, 123u));
              ASSERT_EQ(p.x, before.x) << "cell " << ix << "," << iy;
              ASSERT_EQ(p.y, before.y);
              ASSERT_EQ(p.ux, before.ux);
              ASSERT_EQ(p.uy, before.uy);
              ++checked;
            }
          }
        }
      }
    }
  }
  ASSERT_GT(checked, 0) << "mask is empty - test misconfigured";
}

}  // namespace

TEST(InteriorMask, WedgeTunnelMaskIsConservativeAndUseful) {
  const geom::Grid grid{98, 64, 0};
  const geom::Scene scene = wedge_scene();
  geom::BoundaryConfig bc = tunnel();
  bc.scene = &scene;
  const double d = 2.0;
  const double reach = 3.0 + 0.9;  // plunger trigger + one step of sweep
  const auto mask = geom::interior_cell_mask(grid, bc, reach, d);
  expect_mask_is_safe(grid, bc, mask, d);
  // Cells adjacent to the domain faces, the plunger sweep range and the
  // wedge must never be masked.
  for (int ix = 0; ix < grid.nx; ++ix) {
    EXPECT_FALSE(mask[grid.index(ix, 0)]);
    EXPECT_FALSE(mask[grid.index(ix, grid.ny - 1)]);
  }
  for (int iy = 0; iy < grid.ny; ++iy) {
    EXPECT_FALSE(mask[grid.index(0, iy)]);            // upstream
    EXPECT_FALSE(mask[grid.index(5, iy)]);            // inside plunger reach
    EXPECT_FALSE(mask[grid.index(grid.nx - 1, iy)]);  // sink
  }
  EXPECT_FALSE(mask[grid.index(30, 5)]);  // inside the wedge
  EXPECT_FALSE(mask[grid.index(19, 1)]);  // hugging the leading edge
  EXPECT_FALSE(mask[grid.index(46, 8)]);  // behind the back face
  // The far field and the region above the hypotenuse (well clear of it)
  // must be masked - the bounding box would wrongly exclude the latter.
  EXPECT_TRUE(mask[grid.index(60, 32)]);
  EXPECT_TRUE(mask[grid.index(24, 20)]);  // above the ramp, inside its bbox
}

TEST(InteriorMask, BodyMaskRespectsCylinder) {
  const geom::Grid grid{48, 32, 0};
  const geom::Body body = geom::Body::Cylinder(20.0, 16.0, 6.0, 16);
  const geom::Scene scene(std::vector<geom::Body>{body});
  geom::BoundaryConfig bc;
  bc.x_max = 48.0;
  bc.y_max = 32.0;
  bc.scene = &scene;
  const double d = 1.0;
  const auto mask = geom::interior_cell_mask(grid, bc, 0.0, d);
  expect_mask_is_safe(grid, bc, mask, d);
  EXPECT_FALSE(mask[grid.index(20, 16)]);  // center of the body
  EXPECT_FALSE(mask[grid.index(13, 16)]);  // one cell off the windward face
  EXPECT_TRUE(mask[grid.index(40, 16)]);   // wake, clear of everything
  EXPECT_TRUE(mask[grid.index(20, 28)]);   // above the body
}

TEST(InteriorMask, ThreeDMasksZFaces) {
  const geom::Grid grid{32, 16, 12};
  geom::BoundaryConfig bc;
  bc.x_max = 32.0;
  bc.y_max = 16.0;
  bc.z_max = 12.0;
  const auto mask = geom::interior_cell_mask(grid, bc, 0.0, 2.0);
  for (int iy = 0; iy < grid.ny; ++iy) {
    for (int ix = 0; ix < grid.nx; ++ix) {
      EXPECT_FALSE(mask[grid.index(ix, iy, 0)]);
      EXPECT_FALSE(mask[grid.index(ix, iy, grid.nz - 1)]);
    }
  }
  EXPECT_TRUE(mask[grid.index(16, 8, 6)]);
}
