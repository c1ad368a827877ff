#include "geom/boundary.h"

#include <cmath>

#include "rng/rng.h"
#include "rng/samplers.h"

namespace cmdsmc::geom {

namespace {

// Mirror position and velocity about the plane through `wall` with outward
// unit normal (nx, ny) (2D in the x-y plane).
void specular_reflect(ParticleState& p, double px, double py, double nx,
                      double ny) {
  const double d = (p.x - px) * nx + (p.y - py) * ny;  // signed distance
  p.x -= 2.0 * d * nx;
  p.y -= 2.0 * d * ny;
  const double vn = p.ux * nx + p.uy * ny;
  if (vn < 0.0) {
    p.ux -= 2.0 * vn * nx;
    p.uy -= 2.0 * vn * ny;
  }
}

// Diffuse re-emission from a wall with outward normal (nx, ny).  The
// particle is placed on the surface (its penetration is reflected) and its
// velocity resampled: flux-weighted half-Maxwellian along the normal,
// Gaussian tangentially and rotationally.
void diffuse_reflect(ParticleState& p, double px, double py, double nx,
                     double ny, WallModel model, double wall_sigma,
                     std::uint64_t rand_bits) {
  const double d = (p.x - px) * nx + (p.y - py) * ny;
  p.x -= 2.0 * d * nx;
  p.y -= 2.0 * d * ny;
  const double e_in = 0.5 * (p.ux * p.ux + p.uy * p.uy + p.uz * p.uz +
                             p.r0 * p.r0 + p.r1 * p.r1);
  rng::SplitMix64 g(rand_bits);
  const double vn = rng::sample_flux_normal(g, wall_sigma);
  const double vt = wall_sigma * rng::sample_gaussian(g);
  // Tangent (ty, tx) chosen as the normal rotated -90 degrees.
  const double tx = ny;
  const double ty = -nx;
  p.ux = vn * nx + vt * tx;
  p.uy = vn * ny + vt * ty;
  p.uz = wall_sigma * rng::sample_gaussian(g);
  p.r0 = wall_sigma * rng::sample_gaussian(g);
  p.r1 = wall_sigma * rng::sample_gaussian(g);
  if (model == WallModel::kDiffuseAdiabatic) {
    // Rescale so the particle leaves with the energy it arrived with.
    const double e_out = 0.5 * (p.ux * p.ux + p.uy * p.uy + p.uz * p.uz +
                                p.r0 * p.r0 + p.r1 * p.r1);
    if (e_out > 0.0) {
      const double s = std::sqrt(e_in / e_out);
      p.ux *= s;
      p.uy *= s;
      p.uz *= s;
      p.r0 *= s;
      p.r1 *= s;
    }
  }
}

double particle_energy(const ParticleState& p) {
  return 0.5 * (p.ux * p.ux + p.uy * p.uy + p.uz * p.uz + p.r0 * p.r0 +
                p.r1 * p.r1);
}

// Reflects a particle off a violated face plane (outward normal (nx, ny),
// penetration `depth` < 0) with the given wall model.
void reflect_off_face(ParticleState& p, double nx, double ny, double depth,
                      WallModel model, double wall_sigma,
                      std::uint64_t rand_bits) {
  const double px = p.x - depth * nx;
  const double py = p.y - depth * ny;
  if (model == WallModel::kSpecular) {
    specular_reflect(p, px, py, nx, ny);
  } else {
    diffuse_reflect(p, px, py, nx, ny, model, wall_sigma, rand_bits);
  }
}

// Reflects a particle found inside a scene body off its nearest face, using
// that segment's wall model, and records the momentum/energy handed to the
// wall under the scene-wide flat segment index.
void scene_reflect(ParticleState& p, const Scene& scene, const SceneHit& sh,
                   std::uint64_t rand_bits, WallEventBuffer* events) {
  const BodyHit& hit = sh.hit;
  const BodySegment& seg =
      scene.body(sh.body).segments()[static_cast<std::size_t>(hit.segment)];
  const double pre_ux = p.ux;
  const double pre_uy = p.uy;
  const double pre_e = particle_energy(p);
  reflect_off_face(p, hit.nx, hit.ny, hit.depth, seg.wall, seg.wall_sigma,
                   rand_bits);
  if (events != nullptr) {
    const double post_e = particle_energy(p);
    // Incident normal momentum points into the wall (u.n < 0 on arrival),
    // reflected points away; both recorded positive in their own sense.
    const double vn_in = -(pre_ux * hit.nx + pre_uy * hit.ny);
    const double vn_out = p.ux * hit.nx + p.uy * hit.ny;
    events->add(sh.flat_segment, pre_ux - p.ux, pre_uy - p.uy, pre_e - post_e,
                vn_in, vn_out, pre_e, post_e);
  }
}

}  // namespace

bool enforce_boundaries(ParticleState& p, const BoundaryConfig& bc,
                        std::uint64_t rand_bits, WallEventBuffer* events) {
  // A particle can violate several boundaries in one step (e.g. floor then
  // body near the leading edge); iterate until clean.  Four passes always
  // suffice at sane CFL; afterwards clamp defensively.
  for (int pass = 0; pass < 4; ++pass) {
    bool dirty = false;

    // Downstream sink first: supersonic outflow removes the particle.
    if (p.x >= bc.x_max) {
      if (!bc.closed) return false;
      p.x = 2.0 * bc.x_max - p.x;
      if (p.ux > 0.0) p.ux = -p.ux;
      dirty = true;
    }

    // Upstream plunger (moving hard wall) or the fixed upstream wall at 0.
    const double wall_x = bc.plunger_active ? bc.plunger_x : 0.0;
    if (p.x < wall_x) {
      p.x = 2.0 * wall_x - p.x;
      // Specular reflection in the moving wall frame: u' = 2 U_wall - u.
      const double uw = bc.plunger_active ? bc.plunger_speed : 0.0;
      if (p.ux < uw) p.ux = 2.0 * uw - p.ux;
      dirty = true;
    }

    // Floor and ceiling: specular.
    if (p.y < 0.0) {
      p.y = -p.y;
      if (p.uy < 0.0) p.uy = -p.uy;
      dirty = true;
    } else if (p.y >= bc.y_max) {
      p.y = 2.0 * bc.y_max - p.y;
      if (p.uy > 0.0) p.uy = -p.uy;
      dirty = true;
    }

    // 3D side walls: specular.
    if (bc.z_max > 0.0) {
      if (p.z < 0.0) {
        p.z = -p.z;
        if (p.uz < 0.0) p.uz = -p.uz;
        dirty = true;
      } else if (p.z >= bc.z_max) {
        p.z = 2.0 * bc.z_max - p.z;
        if (p.uz > 0.0) p.uz = -p.uz;
        dirty = true;
      }
    }

    // The bodies.
    if (bc.scene != nullptr && !bc.scene->empty()) {
      if (auto hit = bc.scene->nearest_face(p.x, p.y)) {
        scene_reflect(p, *bc.scene, *hit,
                      rng::mix64(rand_bits + 0x9e37u * (pass + 1)), events);
        // A zero-depth contact (exactly on a facet — the boundary-inclusive
        // claim) mirrors about the particle's own position, which would be
        // re-claimed on every pass: one physical contact must record one
        // wall event, so nudge the particle just off the surface.
        if (hit->hit.depth == 0.0) {
          p.x += 1e-9 * hit->hit.nx;
          p.y += 1e-9 * hit->hit.ny;
        }
        dirty = true;
      }
    }

    if (!dirty) return true;
  }

  // Defensive clamp for pathological corner cases (e.g. a particle trapped
  // exactly in a body vertex): project to the nearest open location.
  if (p.x < 0.0) p.x = 0.0;
  if (p.x >= bc.x_max) p.x = bc.x_max - 1e-9;
  if (p.y < 0.0) p.y = 0.0;
  if (p.y >= bc.y_max) p.y = bc.y_max - 1e-9;
  if (bc.z_max > 0.0) {
    if (p.z < 0.0) p.z = 0.0;
    if (p.z >= bc.z_max) p.z = bc.z_max - 1e-9;
  }
  if (bc.scene != nullptr && !bc.scene->empty()) {
    // Push the particle just outside the violated face.  Near a concave
    // vertex (or in the gap between two close bodies) one push can land
    // inside the solid owned by another face, so recheck and push again a
    // few times.
    for (int k = 0; k < 4; ++k) {
      const auto hit = bc.scene->nearest_face(p.x, p.y);
      if (!hit) break;
      p.x += (-hit->hit.depth + 1e-9) * hit->hit.nx;
      p.y += (-hit->hit.depth + 1e-9) * hit->hit.ny;
      if (p.x < 0.0) p.x = 0.0;
      if (p.x >= bc.x_max) p.x = bc.x_max - 1e-9;
      if (p.y < 0.0) p.y = 0.0;
      if (p.y >= bc.y_max) p.y = bc.y_max - 1e-9;
    }
  }
  return true;
}

std::vector<std::uint8_t> interior_cell_mask(const Grid& grid,
                                             const BoundaryConfig& bc,
                                             double upstream_reach,
                                             double max_disp) {
  // Margin absorbing the floating-point rounding of x + ux: the true
  // post-move position clears each boundary by construction, but the rounded
  // sum may land up to half an ulp past it.  1e-6 cells dwarfs any such
  // error (the fixed-point engine adds exactly, with no error at all).
  constexpr double kMargin = 1e-6;
  const double d = max_disp + kMargin;
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(grid.ncells()), 0);
  // The solid outline as segments, tested exactly (not by bounding box, which
  // would wrongly exclude the whole high-density region above a wedge's
  // hypotenuse).  A box avoiding every face either misses the solid entirely
  // or lies fully inside it; the center-point inside() test separates those.
  // The outline is the *union* of every scene body, so adding a second body
  // can never leave a stale "interior" cell beside its surface.
  const bool has_bodies = bc.scene != nullptr && !bc.scene->empty();
  auto box_touches_solid = [&](double bx0, double by0, double bx1,
                               double by1) {
    for (const Body& b : bc.scene->bodies())
      for (const BodySegment& s : b.segments())
        if (segment_touches_box(s.x0, s.y0, s.x1, s.y1, bx0, by0, bx1, by1))
          return true;
    return bc.scene->inside(0.5 * (bx0 + bx1), 0.5 * (by0 + by1));
  };
  const int nz = grid.is3d() ? grid.nz : 1;
  for (int iz = 0; iz < nz; ++iz) {
    for (int iy = 0; iy < grid.ny; ++iy) {
      for (int ix = 0; ix < grid.nx; ++ix) {
        // A particle starting anywhere in [ix, ix+1) x [iy, iy+1) and moving
        // at most d per axis stays strictly inside (ix-d, ix+1+d) x ... —
        // interior iff that expanded box clears every boundary.
        bool ok = ix - d >= upstream_reach && ix + 1 + d <= bc.x_max &&
                  iy - d >= 0.0 && iy + 1 + d <= bc.y_max;
        if (bc.z_max > 0.0)
          ok = ok && iz - d >= 0.0 && iz + 1 + d <= bc.z_max;
        if (ok && has_bodies)
          ok = !box_touches_solid(ix - d, iy - d, ix + 1 + d, iy + 1 + d);
        mask[grid.index(ix, iy, iz)] = ok ? 1u : 0u;
      }
    }
  }
  return mask;
}

}  // namespace cmdsmc::geom
