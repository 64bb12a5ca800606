#include "core/ic_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.hpp"

namespace ictm::core {

void IcParameters::validate() const {
  ICTM_REQUIRE(f > 0.0 && f < 1.0, "f must lie in (0,1)");
  ICTM_REQUIRE(!activity.empty(), "activity vector is empty");
  ICTM_REQUIRE(activity.size() == preference.size(),
               "activity/preference size mismatch");
  double prefSum = 0.0;
  for (double a : activity) ICTM_REQUIRE(a >= 0.0, "negative activity");
  for (double p : preference) {
    ICTM_REQUIRE(p >= 0.0, "negative preference");
    prefSum += p;
  }
  ICTM_REQUIRE(prefSum > 0.0, "all preferences are zero");
}

linalg::Matrix EvaluateSimplifiedIc(const IcParameters& params) {
  params.validate();
  const std::size_t n = params.nodeCount();
  const double prefSum = linalg::Sum(params.preference);
  linalg::Matrix tm(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double pnj = params.preference[j] / prefSum;
      const double pni = params.preference[i] / prefSum;
      tm(i, j) = params.f * params.activity[i] * pnj +
                 (1.0 - params.f) * params.activity[j] * pni;
    }
  }
  return tm;
}

linalg::Matrix EvaluateGeneralIc(const linalg::Matrix& forwardFractions,
                                 const linalg::Vector& activity,
                                 const linalg::Vector& preference) {
  const std::size_t n = activity.size();
  ICTM_REQUIRE(n > 0, "empty activity vector");
  ICTM_REQUIRE(preference.size() == n, "preference size mismatch");
  ICTM_REQUIRE(forwardFractions.rows() == n && forwardFractions.cols() == n,
               "forward-fraction matrix shape mismatch");
  double prefSum = 0.0;
  for (double p : preference) {
    ICTM_REQUIRE(p >= 0.0, "negative preference");
    prefSum += p;
  }
  ICTM_REQUIRE(prefSum > 0.0, "all preferences are zero");
  for (double a : activity) ICTM_REQUIRE(a >= 0.0, "negative activity");

  linalg::Matrix tm(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double fij = forwardFractions(i, j);
      const double fji = forwardFractions(j, i);
      ICTM_REQUIRE(fij >= 0.0 && fij <= 1.0, "f_ij out of [0,1]");
      // Eq. (1): forward share of i-initiated connections to j, plus
      // reverse share of j-initiated connections to i.
      tm(i, j) = fij * activity[i] * preference[j] / prefSum +
                 (1.0 - fji) * activity[j] * preference[i] / prefSum;
    }
  }
  return tm;
}

traffic::TrafficMatrixSeries EvaluateStableFP(
    double f, const linalg::Matrix& activitySeries,
    const linalg::Vector& preference, double binSeconds,
    std::size_t threads) {
  const std::size_t n = activitySeries.rows();
  const std::size_t bins = activitySeries.cols();
  ICTM_REQUIRE(preference.size() == n, "preference size mismatch");
  traffic::TrafficMatrixSeries series(n, bins, binSeconds);
  // Each bin writes only its own n x n block, so the fan-out is
  // bit-identical for every thread count.
  ParallelFor(0, bins, threads, [&](std::size_t t) {
    IcParameters params;
    params.f = f;
    params.activity = activitySeries.col(t);
    params.preference = preference;
    series.setBin(t, EvaluateSimplifiedIc(params));
  });
  return series;
}

StableFPKernel::StableFPKernel(double f, linalg::Vector preference)
    : f_(f), preference_(std::move(preference)) {
  ICTM_REQUIRE(f_ > 0.0 && f_ < 1.0, "f must lie in (0,1)");
  ICTM_REQUIRE(!preference_.empty(), "empty preference vector");
  double sum = 0.0;
  for (double p : preference_) {
    ICTM_REQUIRE(std::isfinite(p) && p >= 0.0,
                 "preference entries must be finite and non-negative");
    sum += p;
  }
  ICTM_REQUIRE(std::isfinite(sum) && sum > 0.0,
               "preference sum must be finite and positive");
  normalized_.resize(preference_.size());
  for (std::size_t i = 0; i < preference_.size(); ++i) {
    normalized_[i] = preference_[i] / sum;
    pDotP_ += normalized_[i] * normalized_[i];
  }
}

void StableFPKernel::PriorBin(const double* ingress, const double* egress,
                              double* activity, double* outBin) const {
  const std::size_t n = nodeCount();
  const linalg::Vector& p = normalized_;
  const double g = 1.0 - f_;
  const double alpha = f_ * f_ + g * g;
  const double k = 2.0 * f_ * g;
  // Eq. 8.  b = (Q Phi)^T [ingress; egress]
  //   = f ingress + (1-f) egress + ((1-f) p^T ingress + f p^T egress) 1.
  double pIn = 0.0;
  double pEg = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pIn += p[i] * ingress[i];
    pEg += p[i] * egress[i];
  }
  const double shift = g * pIn + f_ * pEg;
  double sumB = 0.0;
  double pB = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    activity[i] = f_ * ingress[i] + g * egress[i] + shift;
    sumB += activity[i];
    pB += p[i] * activity[i];
  }
  // Normal equations: alpha a + k (s p + t 1) + alpha pi s 1 = b with
  // s = 1^T a, t = p^T a, pi = p^T p, alpha = f^2 + (1-f)^2 and
  // k = 2f(1-f).  Projecting onto 1 and p (1^T p = 1, alpha + k = 1):
  //   (1 + n alpha pi) s + n k t = 1^T b,   pi s + t = p^T b,
  // whose determinant 1 + n pi (2f-1)^2 is at least 1.
  const double nd = static_cast<double>(n);
  const double d = 2.0 * f_ - 1.0;
  const double s = (sumB - nd * k * pB) / (1.0 + nd * pDotP_ * d * d);
  const double t = pB - pDotP_ * s;
  const double common = k * t + alpha * pDotP_ * s;
  for (std::size_t i = 0; i < n; ++i) {
    activity[i] = (activity[i] - k * s * p[i] - common) / alpha;
  }

  // Eq. 9.  Negative activities (the least-squares solve is
  // unconstrained) can push entries below zero; clamp to a valid TM.
  for (std::size_t i = 0; i < n; ++i) {
    const double fa = f_ * activity[i];
    const double pI = p[i];
    double* row = outBin + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = std::max(fa * p[j] + g * activity[j] * pI, 0.0);
    }
  }
}

linalg::Matrix StableFPKernel::Gram() const {
  const std::size_t n = nodeCount();
  const linalg::Vector& p = normalized_;
  const double g = 1.0 - f_;
  const double k = 2.0 * f_ * g;
  const double diagonal = (f_ * f_ + g * g) * pDotP_;
  linalg::Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) gram(i, j) = k * p[i] * p[j];
    gram(i, i) += diagonal;
  }
  return gram;
}

linalg::Vector StableFPKernel::TransposeApply(const double* tm) const {
  const std::size_t n = nodeCount();
  const linalg::Vector& p = normalized_;
  linalg::Vector xp(n, 0.0);
  linalg::Vector xtp(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = tm + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      xp[i] += row[j] * p[j];
      xtp[j] += row[j] * p[i];
    }
  }
  const double g = 1.0 - f_;
  for (std::size_t i = 0; i < n; ++i) xp[i] = f_ * xp[i] + g * xtp[i];
  return xp;
}

double ConditionalEgressProbability(const linalg::Matrix& tm,
                                    std::size_t ingress,
                                    std::size_t egress) {
  ICTM_REQUIRE(tm.rows() == tm.cols(), "TM must be square");
  ICTM_REQUIRE(ingress < tm.rows() && egress < tm.cols(),
               "node index out of range");
  double rowSum = 0.0;
  for (std::size_t j = 0; j < tm.cols(); ++j) rowSum += tm(ingress, j);
  ICTM_REQUIRE(rowSum > 0.0, "no traffic enters at the given node");
  return tm(ingress, egress) / rowSum;
}

double EgressProbability(const linalg::Matrix& tm, std::size_t egress) {
  ICTM_REQUIRE(tm.rows() == tm.cols(), "TM must be square");
  ICTM_REQUIRE(egress < tm.cols(), "node index out of range");
  double colSum = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < tm.rows(); ++i) {
    for (std::size_t j = 0; j < tm.cols(); ++j) {
      total += tm(i, j);
      if (j == egress) colSum += tm(i, j);
    }
  }
  ICTM_REQUIRE(total > 0.0, "empty traffic matrix");
  return colSum / total;
}

linalg::Matrix BuildFig2ExampleTm() {
  // Node volumes per connection direction: A: 100, B: 2, C: 1.
  // Each node initiates one connection to each of {A, B, C}; forward
  // and reverse volumes are equal (the example's simplifying
  // assumption), so a connection i->j adds v to X_ij and v to X_ji
  // (2v to X_ii when i == j).
  const linalg::Vector volume = {100.0, 2.0, 1.0};
  linalg::Matrix tm(3, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      tm(i, j) += volume[i];  // forward of i-initiated connection to j
      tm(j, i) += volume[i];  // its reverse traffic
    }
  }
  return tm;
}

}  // namespace ictm::core
