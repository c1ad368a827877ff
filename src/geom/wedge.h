// The paper's wedge as an analysis shape: an inclined flat plate forming a
// wedge on the lower wall of the wind tunnel.  The simulation itself sees
// the wedge as geom::Body::Wedge (same vertices); this class answers the
// closed-form questions the shock/wake analysis asks of the outline.
//
// The wedge is the right triangle with vertices
//     A = (x0, 0)            leading edge on the floor
//     C = (x0 + base, h)     apex, h = base * tan(angle)
//     B = (x0 + base, 0)     foot of the vertical back face
// Flow arrives from -x; the hypotenuse A->C is the compression surface and
// the vertical face C->B faces the wake.
#pragma once

#include <vector>

#include "geom/grid.h"

namespace cmdsmc::geom {

class Wedge {
 public:
  Wedge(double x0, double base, double angle_rad);

  double x0() const { return x0_; }
  double base() const { return base_; }
  double angle() const { return angle_; }
  double height() const { return base_ * tan_; }
  double apex_x() const { return x0_ + base_; }

  // Surface height of the compression ramp at abscissa x (0 outside).
  double surface_y(double x) const;

  // Strictly inside the solid triangle.
  bool inside(double x, double y) const;

  // Fraction of the unit cell (ix,iy) that lies *outside* the wedge
  // (1 = fully open, 0 = fully solid).
  double cell_open_fraction(int ix, int iy) const;

  // Open fraction for every cell of a grid, row-major (2D slice; in 3D the
  // wedge is extruded along z so the table repeats per z-plane).
  std::vector<double> open_fraction_table(const Grid& grid) const;

 private:
  double x0_;
  double base_;
  double angle_;
  double tan_;
};

}  // namespace cmdsmc::geom
