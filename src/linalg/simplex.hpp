// Normalisation onto the simplex for preference vectors {P_i}, which
// the paper constrains to be non-negative and sum to one.
#pragma once

#include "linalg/matrix.hpp"

namespace ictm::linalg {

/// Clamps negatives to zero then rescales to sum to `total`.
/// Falls back to the uniform vector when everything clamps to zero.
Vector NormalizeNonNegative(const Vector& v, double total = 1.0);

}  // namespace ictm::linalg
