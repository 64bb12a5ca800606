#include "linalg/simplex.hpp"

#include <algorithm>
#include <cmath>

namespace ictm::linalg {

Vector NormalizeNonNegative(const Vector& v, double total) {
  ICTM_REQUIRE(total > 0.0, "normalisation total must be positive");
  ICTM_REQUIRE(!v.empty(), "cannot normalise an empty vector");
  Vector x(v.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    x[i] = std::max(v[i], 0.0);
    sum += x[i];
  }
  if (sum <= 0.0) {
    // Degenerate: fall back to uniform.
    const double uniform = total / static_cast<double>(v.size());
    std::fill(x.begin(), x.end(), uniform);
    return x;
  }
  const double scale = total / sum;
  for (double& xi : x) xi *= scale;
  return x;
}

}  // namespace ictm::linalg
