// Molecular interaction models.
//
// The paper simulates ideal diatomic *Maxwell* molecules (inverse power law
// exponent alpha = 4), for which the pair collision probability is
// independent of the relative speed g — the property that makes a pure
// integer implementation possible.  The general inverse-power-law form
// (paper eq. 6, P ∝ n g^(1-4/alpha)) and the hard-sphere limit
// (alpha → ∞, P ∝ n g) are provided as the "future work" generalisation.
#pragma once

#include <cmath>
#include <stdexcept>

namespace cmdsmc::physics {

enum class Potential {
  kMaxwell,       // alpha = 4: P independent of g
  kInversePower,  // finite alpha > 4 typical
  kHardSphere,    // alpha -> infinity: P ∝ g
};

struct GasModel {
  Potential potential = Potential::kMaxwell;
  double alpha = 4.0;  // inverse power law exponent (kInversePower only)

  // Exponent of g in the selection rule: 1 - 4/alpha.
  double g_exponent() const {
    switch (potential) {
      case Potential::kMaxwell:
        return 0.0;
      case Potential::kHardSphere:
        return 1.0;
      case Potential::kInversePower:
        return 1.0 - 4.0 / alpha;
    }
    return 0.0;
  }

  // True when the selection probability needs |g| (i.e. a sqrt): everything
  // except Maxwell molecules.
  bool needs_relative_speed() const {
    return potential != Potential::kMaxwell;
  }

  void validate() const {
    if (potential == Potential::kInversePower && !(alpha > 0.0))
      throw std::invalid_argument("GasModel: alpha must be positive");
  }
};

}  // namespace cmdsmc::physics
