#include "geom/wedge.h"

#include <cmath>
#include <stdexcept>

#include "geom/clip.h"

namespace cmdsmc::geom {

Wedge::Wedge(double x0, double base, double angle_rad)
    : x0_(x0), base_(base), angle_(angle_rad), tan_(std::tan(angle_rad)) {
  if (base <= 0.0)
    throw std::invalid_argument("Wedge: base must be positive");
  if (angle_rad <= 0.0 || angle_rad >= std::atan(1.0) * 2.0)
    throw std::invalid_argument("Wedge: angle must be in (0, 90) degrees");
}

double Wedge::surface_y(double x) const {
  if (x <= x0_ || x >= apex_x()) return 0.0;
  return (x - x0_) * tan_;
}

bool Wedge::inside(double x, double y) const {
  return x > x0_ && x < apex_x() && y > 0.0 && y < (x - x0_) * tan_;
}

double Wedge::cell_open_fraction(int ix, int iy) const {
  const std::vector<Vec2> tri = {
      {x0_, 0.0}, {apex_x(), 0.0}, {apex_x(), height()}};
  const double solid =
      intersection_area_rect(tri, ix, iy, ix + 1.0, iy + 1.0);
  double open = 1.0 - solid;
  if (open < 0.0) open = 0.0;
  if (open > 1.0) open = 1.0;
  return open;
}

std::vector<double> Wedge::open_fraction_table(const Grid& grid) const {
  std::vector<double> table(static_cast<std::size_t>(grid.ncells()), 1.0);
  // Only cells overlapping the wedge bounding box need clipping.
  const int ix_lo = static_cast<int>(std::floor(x0_));
  const int ix_hi = static_cast<int>(std::ceil(apex_x()));
  const int iy_hi = static_cast<int>(std::ceil(height()));
  const int nz = grid.is3d() ? grid.nz : 1;
  for (int ix = ix_lo; ix < ix_hi && ix < grid.nx; ++ix) {
    if (ix < 0) continue;
    for (int iy = 0; iy < iy_hi && iy < grid.ny; ++iy) {
      const double f = cell_open_fraction(ix, iy);
      for (int iz = 0; iz < nz; ++iz)
        table[grid.index(ix, iy, iz)] = f;
    }
  }
  return table;
}

}  // namespace cmdsmc::geom
