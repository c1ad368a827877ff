#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "geom/clip.h"
#include "geom/grid.h"
#include "geom/wedge.h"

namespace geom = cmdsmc::geom;

namespace {
constexpr double kRad = std::numbers::pi / 180.0;
}

TEST(Grid, Indexing2D) {
  geom::Grid g{10, 5, 0};
  g.validate();
  EXPECT_EQ(g.ncells(), 50);
  EXPECT_EQ(g.index(0, 0), 0u);
  EXPECT_EQ(g.index(9, 4), 49u);
  EXPECT_EQ(g.index(3, 2), 23u);
  EXPECT_EQ(g.cell_ix(23), 3);
  EXPECT_EQ(g.cell_iy(23), 2);
  EXPECT_EQ(g.cell_iz(23), 0);
}

TEST(Grid, IndexClampsOutOfRange) {
  geom::Grid g{10, 5, 0};
  EXPECT_EQ(g.index(-3, 2), g.index(0, 2));
  EXPECT_EQ(g.index(99, 2), g.index(9, 2));
  EXPECT_EQ(g.index(3, -1), g.index(3, 0));
  EXPECT_EQ(g.index(3, 50), g.index(3, 4));
}

TEST(Grid, Indexing3D) {
  geom::Grid g{4, 3, 2};
  g.validate();
  EXPECT_TRUE(g.is3d());
  EXPECT_EQ(g.ncells(), 24);
  EXPECT_EQ(g.index(1, 2, 1), static_cast<std::uint32_t>((1 * 3 + 2) * 4 + 1));
  EXPECT_EQ(g.cell_iz(g.index(1, 2, 1)), 1);
  EXPECT_EQ(g.cell_ix(g.index(1, 2, 1)), 1);
  EXPECT_EQ(g.cell_iy(g.index(1, 2, 1)), 2);
}

TEST(Grid, ValidateRejectsBadDimensions) {
  EXPECT_THROW((geom::Grid{0, 5, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((geom::Grid{5, -1, 0}).validate(), std::invalid_argument);
}

TEST(Clip, PolygonAreaTriangleAndSquare) {
  std::vector<geom::Vec2> tri = {{0, 0}, {2, 0}, {0, 2}};
  EXPECT_NEAR(geom::polygon_area(tri), 2.0, 1e-12);
  std::vector<geom::Vec2> sq = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_NEAR(geom::polygon_area(sq), 1.0, 1e-12);
  // Clockwise winding gives negative signed area.
  std::vector<geom::Vec2> cw = {{0, 0}, {0, 1}, {1, 1}, {1, 0}};
  EXPECT_NEAR(geom::polygon_area(cw), -1.0, 1e-12);
}

TEST(Clip, HalfplaneCutsSquareInHalf) {
  std::vector<geom::Vec2> sq = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const auto cut = geom::clip_halfplane(sq, 1.0, 0.0, 0.5);  // x <= 0.5
  EXPECT_NEAR(std::abs(geom::polygon_area(cut)), 0.5, 1e-12);
}

TEST(Clip, RectIntersectionAreas) {
  std::vector<geom::Vec2> tri = {{0, 0}, {4, 0}, {4, 4}};
  // Whole triangle inside a big rect.
  EXPECT_NEAR(geom::intersection_area_rect(tri, -1, -1, 5, 5), 8.0, 1e-12);
  // Unit cell fully inside the triangle: cell (2.5..3.5 is inside? use
  // (2,0)-(3,1): below the diagonal y=x, inside.
  EXPECT_NEAR(geom::intersection_area_rect(tri, 2, 0, 3, 1), 1.0, 1e-12);
  // Cell fully outside.
  EXPECT_NEAR(geom::intersection_area_rect(tri, 0, 3, 1, 4), 0.0, 1e-12);
  // Cell cut by the diagonal y = x: half area.
  EXPECT_NEAR(geom::intersection_area_rect(tri, 1, 1, 2, 2), 0.5, 1e-12);
}

TEST(Wedge, BasicShape) {
  geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  EXPECT_NEAR(w.height(), 25.0 * std::tan(30.0 * kRad), 1e-12);
  EXPECT_NEAR(w.apex_x(), 45.0, 1e-12);
  EXPECT_NEAR(w.surface_y(20.0), 0.0, 1e-12);
  EXPECT_NEAR(w.surface_y(32.5), 12.5 * std::tan(30.0 * kRad), 1e-12);
  EXPECT_NEAR(w.surface_y(50.0), 0.0, 1e-12);  // outside footprint
}

TEST(Wedge, InsideTests) {
  geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  EXPECT_TRUE(w.inside(30.0, 1.0));    // low above floor, inside triangle
  EXPECT_FALSE(w.inside(30.0, 10.0));  // above the ramp at x=30 (5.77)
  EXPECT_FALSE(w.inside(10.0, 1.0));   // upstream of leading edge
  EXPECT_FALSE(w.inside(46.0, 1.0));   // behind the back face
  EXPECT_FALSE(w.inside(30.0, -1.0));  // below the floor
}

TEST(Wedge, OpenFractionsMatchAnalyticCells) {
  geom::Wedge w(20.0, 25.0, 45.0 * kRad);  // 45 degrees for easy analytics
  // Cell fully inside the solid: e.g. (30..31, 0..1), surface at y = 10..11.
  EXPECT_NEAR(w.cell_open_fraction(30, 0), 0.0, 1e-12);
  // Cell fully open (well above the ramp).
  EXPECT_NEAR(w.cell_open_fraction(30, 30), 1.0, 1e-12);
  // Cell cut exactly in half by the 45-degree surface: (30..31, 10..11).
  EXPECT_NEAR(w.cell_open_fraction(30, 10), 0.5, 1e-12);
}

TEST(Wedge, OpenFractionTableConservesTriangleArea) {
  geom::Wedge w(20.0, 25.0, 30.0 * kRad);
  geom::Grid g{98, 64, 0};
  const auto table = w.open_fraction_table(g);
  double solid = 0.0;
  for (double f : table) solid += 1.0 - f;
  const double triangle = 0.5 * 25.0 * w.height();
  EXPECT_NEAR(solid, triangle, 1e-9);
}

TEST(Wedge, OpenFractionTable3DRepeatsPerPlane) {
  geom::Wedge w(4.0, 4.0, 30.0 * kRad);
  geom::Grid g{16, 8, 3};
  const auto table = w.open_fraction_table(g);
  for (int ix = 0; ix < g.nx; ++ix)
    for (int iy = 0; iy < g.ny; ++iy) {
      const double f0 = table[g.index(ix, iy, 0)];
      EXPECT_EQ(f0, table[g.index(ix, iy, 1)]);
      EXPECT_EQ(f0, table[g.index(ix, iy, 2)]);
    }
}

TEST(Wedge, RejectsBadParameters) {
  EXPECT_THROW(geom::Wedge(0.0, -1.0, 30.0 * kRad), std::invalid_argument);
  EXPECT_THROW(geom::Wedge(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(geom::Wedge(0.0, 1.0, 95.0 * kRad), std::invalid_argument);
}
