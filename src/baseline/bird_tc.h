// Bird's time-counter collision scheme (Bird 1976; the method the paper
// argues against for fine-grained parallel machines).
//
// Collisions are organised per *cell*: each cell keeps an asynchronous time
// counter; random pairs inside the cell are collided, each collision
// advancing the counter by 2 / (N_c * nu), until the counter passes the
// global simulation time.  Parallelism is only available at the cell level,
// so the work per step is bounded by the most populated cell — the load
// imbalance the paper's particles-to-processors mapping eliminates.
//
// To isolate the *selection* scheme difference, the actual two-body collision
// uses the same Baganoff 5-vector kernel as the main code.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cmdp/thread_pool.h"
#include "core/particles.h"
#include "geom/grid.h"

namespace cmdsmc::baseline {

struct BaselineConfig {
  // Per-particle collision frequency at freestream density, per time step —
  // calibrated identically to the main scheme's P∞ so the comparison is
  // apples-to-apples (Maxwell molecules: frequency independent of g).
  double pc_inf = 0.5;
  double n_inf = 16.0;  // freestream particles per cell
  std::uint64_t seed = 1;
};

// Index sort by cell for the Bird and Nanbu schemes, from one counting-sort
// plan: cell c's particles are order[starts[c] .. starts[c] + counts[c]), in
// array order.
void sort_by_cell(cmdp::ThreadPool& pool, std::span<const std::uint32_t> cell,
                  std::uint32_t ncells, std::vector<std::uint32_t>& order,
                  std::vector<std::uint32_t>& counts,
                  std::vector<std::uint32_t>& starts);

class BirdTimeCounter {
 public:
  BirdTimeCounter(const geom::Grid& grid, const BaselineConfig& cfg);

  // Performs the collision sub-step for one global time step.  Particles
  // must carry valid cell indices (< grid.ncells()).  Cell-level parallel.
  void collision_step(cmdp::ThreadPool& pool,
                      core::ParticleStore<double>& store);

  std::uint64_t collisions() const { return collisions_; }
  std::int64_t step_index() const { return step_; }

 private:
  geom::Grid grid_;
  BaselineConfig cfg_;
  std::vector<double> cell_time_;  // asynchronous cell clocks
  std::int64_t step_ = 0;
  std::uint64_t collisions_ = 0;
  // scratch
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> starts_;
};

}  // namespace cmdsmc::baseline
