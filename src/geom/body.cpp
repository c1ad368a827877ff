#include "geom/body.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace cmdsmc::geom {

namespace {

constexpr double kEps = 1e-12;

}  // namespace

Body::Body(std::vector<Vec2> vertices, std::string name)
    : name_(std::move(name)), vertices_(std::move(vertices)) {
  const std::size_t n = vertices_.size();
  if (n < 3) throw std::invalid_argument("Body: need at least 3 vertices");
  // NaN slips past every ordered compare below (area, edge length, box).
  for (const Vec2& v : vertices_)
    if (!std::isfinite(v.x) || !std::isfinite(v.y))
      throw std::invalid_argument("Body: vertices must be finite");
  area_ = polygon_area(vertices_);
  if (area_ <= kEps)
    throw std::invalid_argument(
        "Body: vertices must wind counter-clockwise with positive area");
  xmin_ = ymin_ = std::numeric_limits<double>::infinity();
  xmax_ = ymax_ = -std::numeric_limits<double>::infinity();
  segments_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2& p = vertices_[i];
    const Vec2& q = vertices_[(i + 1) % n];
    const double dx = q.x - p.x;
    const double dy = q.y - p.y;
    const double len = std::hypot(dx, dy);
    if (len <= kEps)
      throw std::invalid_argument("Body: zero-length edge");
    BodySegment s;
    s.x0 = p.x;
    s.y0 = p.y;
    s.x1 = q.x;
    s.y1 = q.y;
    s.tx = dx / len;
    s.ty = dy / len;
    // Counter-clockwise winding: outward normal is the tangent rotated -90.
    s.nx = s.ty;
    s.ny = -s.tx;
    s.length = len;
    segments_.push_back(s);
    if (p.x < xmin_) xmin_ = p.x;
    if (p.x > xmax_) xmax_ = p.x;
    if (p.y < ymin_) ymin_ = p.y;
    if (p.y > ymax_) ymax_ = p.y;
  }
  ref_length_ = xmax_ - xmin_;  // generic default; factories override
  // Convex iff every turn is a left turn (allowing collinear edges).
  convex_ = true;
  for (std::size_t i = 0; i < n; ++i) {
    const BodySegment& a = segments_[i];
    const BodySegment& b = segments_[(i + 1) % n];
    if (a.tx * b.ty - a.ty * b.tx < -kEps) {
      convex_ = false;
      break;
    }
  }
}

Body Body::Wedge(double x0, double base, double angle_rad) {
  if (base <= 0.0)
    throw std::invalid_argument("Body::Wedge: base must be positive");
  if (angle_rad <= 0.0 || angle_rad >= std::atan(1.0) * 2.0)
    throw std::invalid_argument("Body::Wedge: angle must be in (0, 90) deg");
  const double h = base * std::tan(angle_rad);
  Body b({{x0, 0.0}, {x0 + base, 0.0}, {x0 + base, h}}, "wedge");
  b.segments_[0].embedded = true;  // floor edge: the tunnel wall owns it
  return b;
}

void Body::set_ref_length(double length) {
  if (length <= 0.0)
    throw std::invalid_argument("Body::set_ref_length: must be positive");
  ref_length_ = length;
}

Body Body::FlatPlate(double x0, double y0, double chord, double thickness,
                     double incidence_rad) {
  if (chord <= 0.0 || thickness <= 0.0)
    throw std::invalid_argument(
        "Body::FlatPlate: chord and thickness must be positive");
  const double c = std::cos(-incidence_rad);
  const double s = std::sin(-incidence_rad);
  // Rectangle in plate coordinates, rotated by -incidence about the leading
  // edge (positive incidence pitches the nose up into a -x flow... here the
  // flow comes from -x, so positive incidence drops the trailing edge).
  const Vec2 local[4] = {
      {0.0, 0.0}, {chord, 0.0}, {chord, thickness}, {0.0, thickness}};
  std::vector<Vec2> v;
  v.reserve(4);
  for (const Vec2& p : local)
    v.push_back({x0 + p.x * c - p.y * s, y0 + p.x * s + p.y * c});
  Body b(std::move(v), "flat_plate");
  b.ref_length_ = chord;  // true chord, not the incidence-shrunk x-extent
  return b;
}

Body Body::Cylinder(double cx, double cy, double radius, int n_facets) {
  if (radius <= 0.0)
    throw std::invalid_argument("Body::Cylinder: radius must be positive");
  if (n_facets < 8)
    throw std::invalid_argument("Body::Cylinder: need at least 8 facets");
  std::vector<Vec2> v;
  v.reserve(static_cast<std::size_t>(n_facets));
  for (int i = 0; i < n_facets; ++i) {
    const double a = 2.0 * std::numbers::pi *
                     (static_cast<double>(i) / n_facets);
    v.push_back({cx + radius * std::cos(a), cy + radius * std::sin(a)});
  }
  Body b(std::move(v), "cylinder");
  b.ref_length_ = 2.0 * radius;  // diameter, independent of faceting
  return b;
}

Body Body::Biconic(double x0, double y_axis, double len1, double angle1_rad,
                   double len2, double angle2_rad) {
  if (len1 <= 0.0 || len2 <= 0.0)
    throw std::invalid_argument("Body::Biconic: lengths must be positive");
  if (angle1_rad <= 0.0 || angle2_rad <= 0.0 ||
      angle1_rad >= std::atan(1.0) * 2.0 || angle2_rad >= std::atan(1.0) * 2.0)
    throw std::invalid_argument("Body::Biconic: angles must be in (0, 90) deg");
  const double h1 = len1 * std::tan(angle1_rad);
  const double h2 = h1 + len2 * std::tan(angle2_rad);
  const double xj = x0 + len1;        // cone junction
  const double xb = x0 + len1 + len2;  // base plane
  // Counter-clockwise starting from the nose: lower fore cone, lower aft
  // cone, base, upper aft cone, upper fore cone.
  return Body({{x0, y_axis},
               {xj, y_axis - h1},
               {xb, y_axis - h2},
               {xb, y_axis + h2},
               {xj, y_axis + h1}},
              "biconic");
}

void Body::set_wall_model(WallModel model, double wall_sigma) {
  for (BodySegment& s : segments_) {
    s.wall = model;
    s.wall_sigma = wall_sigma;
  }
}

void Body::set_segment_wall(int segment, WallModel model, double wall_sigma) {
  if (segment < 0 || segment >= segment_count())
    throw std::out_of_range("Body::set_segment_wall: bad segment index");
  segments_[static_cast<std::size_t>(segment)].wall = model;
  segments_[static_cast<std::size_t>(segment)].wall_sigma = wall_sigma;
}

bool Body::any_diffuse() const {
  for (const BodySegment& s : segments_)
    if (!s.embedded && s.wall != WallModel::kSpecular) return true;
  return false;
}

bool Body::inside(double x, double y) const {
  // Boundary-inclusive bbox: a vertex lying exactly on the bounding box
  // (a cylinder's extreme points) must fall through to the facet tests.
  if (x < xmin_ || x > xmax_ || y < ymin_ || y > ymax_) return false;
  if (convex_) {
    // Outside iff strictly beyond some face.  The un-normalized cross form
    // (x - x0, y - y0) x (x1 - x0, y1 - y0) evaluates to exactly 0.0 at
    // *both* endpoints of every facet (fl(a*b) - fl(b*a) == 0), so a point
    // on a shared vertex is claimed — with the normalized-normal form the
    // end-vertex test rounds to +-1 ulp and adjacent faces can each disown
    // the vertex, letting a surface-riding particle tunnel through.
    for (const BodySegment& s : segments_) {
      const double cross =
          (x - s.x0) * (s.y1 - s.y0) - (y - s.y0) * (s.x1 - s.x0);
      if (cross > 0.0) return false;
    }
    return true;
  }
  // Exact on-boundary check first (shared vertices / edges are claimed),
  // then the even-odd crossing test for general simple polygons.
  for (const BodySegment& s : segments_) {
    const double dx = s.x1 - s.x0;
    const double dy = s.y1 - s.y0;
    const double rx = x - s.x0;
    const double ry = y - s.y0;
    if (rx * dy - ry * dx != 0.0) continue;  // off this edge's line
    const double t = rx * dx + ry * dy;
    if (t >= 0.0 && t <= dx * dx + dy * dy) return true;
  }
  bool in = false;
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2& a = vertices_[i];
    const Vec2& b = vertices_[j];
    if ((a.y > y) != (b.y > y)) {
      const double xint = a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (x < xint) in = !in;
    }
  }
  return in;
}

std::optional<BodyHit> Body::nearest_face(double x, double y) const {
  if (!inside(x, y)) return std::nullopt;
  const BodyHit hit = nearest_face_inside(x, y);
  if (hit.segment < 0) return std::nullopt;  // all faces embedded
  return hit;
}

BodyHit Body::nearest_face_inside(double x, double y) const {
  // Pick the candidate face whose *segment* (not infinite plane) is closest;
  // report the plane depth so the caller can mirror about the face plane.
  // Strict `<` keeps the lowest segment index on exact ties (a shared
  // vertex), so the claim is deterministic.
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (int i = 0; i < segment_count(); ++i) {
    const BodySegment& s = segments_[static_cast<std::size_t>(i)];
    if (s.embedded) continue;
    const double rx = x - s.x0;
    const double ry = y - s.y0;
    double t = rx * s.tx + ry * s.ty;
    if (t < 0.0) t = 0.0;
    if (t > s.length) t = s.length;
    const double dx = rx - t * s.tx;
    const double dy = ry - t * s.ty;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  if (best < 0) return BodyHit{};  // all faces embedded (degenerate body)
  const BodySegment& s = segments_[static_cast<std::size_t>(best)];
  double depth = (x - s.x0) * s.nx + (y - s.y0) * s.ny;
  // Near a vertex the plane distance can differ from the segment distance;
  // clamp so callers always see a penetration.
  if (depth > -kEps) depth = -std::sqrt(best_d2);
  return BodyHit{best, s.nx, s.ny, depth};
}

double Body::solid_area_in_rect(double rx0, double ry0, double rx1,
                                double ry1) const {
  // Fan decomposition with signed clipped areas handles convex and simple
  // non-convex polygons alike: triangle (v0, vi, vi+1) keeps its winding
  // through Sutherland-Hodgman clipping, so the signed areas sum to the
  // polygon/rect intersection area.
  double acc = 0.0;
  const std::size_t n = vertices_.size();
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const std::vector<Vec2> tri = {vertices_[0], vertices_[i],
                                   vertices_[i + 1]};
    acc += polygon_area(clip_rect(tri, rx0, ry0, rx1, ry1));
  }
  return acc;
}

double Body::cell_open_fraction(int ix, int iy) const {
  const double solid = solid_area_in_rect(ix, iy, ix + 1.0, iy + 1.0);
  double open = 1.0 - solid;
  if (open < 0.0) open = 0.0;
  if (open > 1.0) open = 1.0;
  return open;
}

std::vector<double> Body::open_fraction_table(const Grid& grid) const {
  std::vector<double> table(static_cast<std::size_t>(grid.ncells()), 1.0);
  const int ix_lo = static_cast<int>(std::floor(xmin_));
  const int ix_hi = static_cast<int>(std::ceil(xmax_));
  const int iy_lo = static_cast<int>(std::floor(ymin_));
  const int iy_hi = static_cast<int>(std::ceil(ymax_));
  const int nz = grid.is3d() ? grid.nz : 1;
  for (int ix = ix_lo; ix < ix_hi && ix < grid.nx; ++ix) {
    if (ix < 0) continue;
    for (int iy = iy_lo; iy < iy_hi && iy < grid.ny; ++iy) {
      if (iy < 0) continue;
      const double f = cell_open_fraction(ix, iy);
      for (int iz = 0; iz < nz; ++iz)
        table[grid.index(ix, iy, iz)] = f;
    }
  }
  return table;
}

}  // namespace cmdsmc::geom
