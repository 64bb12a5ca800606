// The independent-connection (IC) model family — paper Sec. 3.
//
// Notation (paper Eq. 1-5):
//   f     forward fraction (network-wide in the simplified model),
//   A_i   activity of node i: bytes due to connections *initiated* at i,
//   P_i   preference of node i: likelihood a connection's responder is
//         at i (used normalised: P_i / sum_k P_k).
//
// The model composes an OD flow from the forward traffic of
// i-initiated connections and the reverse traffic of j-initiated ones:
//   X_ij = f * A_i * Pn_j + (1 - f) * A_j * Pn_i          (Eq. 2)
// where Pn is the normalised preference vector.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "traffic/tm_series.hpp"

/// Reproduction of the paper's models and algorithms: the IC model
/// family, gravity, parameter fitting, priors, tomogravity estimation,
/// synthetic TM generation and the error metrics.
namespace ictm::core {

/// Parameters of the simplified IC model at one time bin.
struct IcParameters {
  double f = 0.25;           ///< forward fraction, in (0, 1)
  linalg::Vector activity;   ///< A_i >= 0, length n
  linalg::Vector preference; ///< P_i >= 0, length n (any positive scale)

  /// Throws unless the invariants above hold.
  void validate() const;
  /// Number of nodes n (the activity vector length).
  std::size_t nodeCount() const noexcept { return activity.size(); }
};

/// Evaluates the simplified IC model (Eq. 2): returns the n x n TM.
linalg::Matrix EvaluateSimplifiedIc(const IcParameters& params);

/// Evaluates the *general* IC model (Eq. 1) with a per-pair forward
/// fraction matrix F (F(i,j) = f_ij in (0,1)).
linalg::Matrix EvaluateGeneralIc(const linalg::Matrix& forwardFractions,
                                 const linalg::Vector& activity,
                                 const linalg::Vector& preference);

/// Evaluates the stable-fP model (Eq. 5) over T bins: constant f and P,
/// per-bin activities given as an n x T matrix (column t = A(t)).
/// Bins are independent and fan out across `threads` workers (0 = all
/// hardware threads); the result is bit-identical for any count.
traffic::TrafficMatrixSeries EvaluateStableFP(
    double f, const linalg::Matrix& activitySeries,
    const linalg::Vector& preference, double binSeconds = 300.0,
    std::size_t threads = 1);

/// The stable-fP operator for fixed (f, P) in closed form.  Eq. 7
/// writes a TM bin as x = Phi A with Phi the n^2 x n activity
/// operator; Eq. 8 estimates A from the marginals as
/// pinv(Q Phi) [ingress; egress] with Q the 2n x n^2 marginal operator.
/// With p the normalised preference,
///   Q Phi = [f I + (1-f) p 1^T ; (1-f) I + f p 1^T]
/// is the identity plus rank-one blocks and has full column rank, so
/// its normal equations collapse to a 2 x 2 system in (1^T A, p^T A):
/// Eq. 8 costs O(n) and Eq. 9 one O(n^2) pass.  Neither Phi nor Q is
/// ever built.  Immutable once constructed, so one instance can be
/// shared across threads.
class StableFPKernel {
 public:
  /// Throws ictm::Error unless f lies in (0, 1) and `preference` is
  /// non-empty with finite, non-negative entries and a positive sum.
  StableFPKernel(double f, linalg::Vector preference);

  /// The preference exactly as given (un-normalised).
  const linalg::Vector& preference() const noexcept { return preference_; }
  /// Number of nodes n.
  std::size_t nodeCount() const noexcept { return normalized_.size(); }

  /// The stable-fP prior of one bin.  Eq. 8 writes the least-squares
  /// activities pinv(Q Phi) [ingress; egress] into `activity` (n
  /// doubles); Eq. 9 writes X_ij = max(f A_i p_j + (1-f) A_j p_i, 0)
  /// into `outBin` (n^2 doubles, row-major).  Both buffers are
  /// caller-owned, so a per-bin loop allocates nothing.
  void PriorBin(const double* ingress, const double* egress,
                double* activity, double* outBin) const;

  /// Phi^T Phi = (f^2 + (1-f)^2) p^T p I + 2 f (1-f) p p^T (n x n).
  linalg::Matrix Gram() const;
  /// Phi^T x = f X p + (1-f) X^T p for one TM bin `tm` (n^2 doubles,
  /// row-major).
  linalg::Vector TransposeApply(const double* tm) const;

 private:
  double f_;
  linalg::Vector preference_;
  linalg::Vector normalized_;  // p = preference / sum(preference)
  double pDotP_ = 0.0;         // p^T p
};

/// Degrees-of-freedom accounting from paper Sec. 5.1 for a dataset of
/// n nodes over t bins.
struct DegreesOfFreedom {
  /// Gravity model: 2nt - 1 inputs.
  static std::size_t Gravity(std::size_t n, std::size_t t) {
    return 2 * n * t - 1;
  }
  /// Time-varying IC model (Eq. 3): 3nt inputs.
  static std::size_t TimeVaryingIc(std::size_t n, std::size_t t) {
    return 3 * n * t;
  }
  /// Stable-f IC model (Eq. 4): 2nt + 1 inputs.
  static std::size_t StableFIc(std::size_t n, std::size_t t) {
    return 2 * n * t + 1;
  }
  /// Stable-fP IC model (Eq. 5): nt + n + 1 inputs.
  static std::size_t StableFPIc(std::size_t n, std::size_t t) {
    return n * t + n + 1;
  }
};

/// P[E = j | I = i] = X_ij / X_i* for one TM — the quantity the paper's
/// Sec. 3 example uses to show packet-level independence failing.
double ConditionalEgressProbability(const linalg::Matrix& tm,
                                    std::size_t ingress,
                                    std::size_t egress);

/// Unconditional egress probability P[E = j] = X_*j / X_**.
double EgressProbability(const linalg::Matrix& tm, std::size_t egress);

/// Builds the 3-node example TM of paper Fig. 2: nodes A, B, C initiate
/// 3 connections each of 100, 2 and 1 packets per direction
/// respectively, with uniform responder choice over {A, B, C}.
linalg::Matrix BuildFig2ExampleTm();

}  // namespace ictm::core
