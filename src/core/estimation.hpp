// TM estimation from link loads — the tomogravity blueprint of paper
// Sec. 6:
//   Step 1: pick a prior xinit (gravity or one of the IC priors),
//   Step 2: least-squares refinement respecting the link equations
//           Y = R x (Zhang et al. [22]: minimise the prior-weighted
//           deviation subject to the link constraints),
//   Step 3: iterative proportional fitting onto the measured
//           ingress/egress marginals.
#pragma once

#include <cstddef>
#include <vector>

#include "core/priors.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::core {

/// The solver echoed in the HELLO frame and the ICKS checkpoint.  Both
/// kinds name the one dense Cholesky solve of TmBinSolver, so the enum
/// is configuration only (wire values 0 and 1; the retired sparse and
/// cg values 2 and 3 are refused).
enum class SolverKind {
  kAuto,   ///< the default; runs the dense solve
  kDense,  ///< dense normal matrix + blocked in-place Cholesky
};

/// Options for the estimation pipeline.
struct EstimationOptions {
  /// Append the marginal equations (Q x = [ingress; egress]) to the
  /// link system, as operators do (access-link SNMP counters).
  bool useMarginalConstraints = true;
  /// Worker threads for EstimateSeries' per-bin fan-out (bins are
  /// independent, so results are bit-identical for any value); 0 means
  /// all hardware threads.
  std::size_t threads = 1;
  /// A configuration echo the HELLO and the ICKS checkpoint carry;
  /// both kinds run the one dense solve (no CLI flag sets it).
  SolverKind solver = SolverKind::kAuto;
};

/// The augmented measurement operator A = [R; Q] in R's column form:
/// one column per OD pair holding that pair's few path links plus
/// (with marginal constraints) its ingress and egress rows.
/// Built once per routing matrix and shared read-only by every bin
/// solver — batch (EstimateSeries) and streaming
/// (stream::StreamingEstimator) consume the same system, which is what
/// makes their estimates bit-identical.
class AugmentedTmSystem {
 public:
  /// Copies the columns of `routing` (links x n²), appending to each,
  /// when `marginalConstraints` is set, its ingress and egress row.
  AugmentedTmSystem(const linalg::CscMatrix& routing, std::size_t nodes,
                    bool marginalConstraints);

  /// Number of nodes n.
  std::size_t nodeCount() const noexcept { return n_; }
  /// Number of routing-matrix rows (directed links).
  std::size_t linkCount() const noexcept { return links_; }
  /// Total rows: links (+ 2n with marginal constraints).
  std::size_t rowCount() const noexcept { return rows_; }
  /// The compressed operator (rowCount() x n²).
  const linalg::CscMatrix& matrix() const noexcept { return a_; }

 private:
  std::size_t n_ = 0;
  std::size_t links_ = 0;
  std::size_t rows_ = 0;
  linalg::CscMatrix a_;
};

/// One bin of the three-step pipeline (Sec. 6) with reusable scratch:
/// prior-weighted least-squares refinement of the prior against the
/// link loads (and marginals), clamped non-negative, then IPF onto the
/// marginals.  The refinement solves the ridged normal equations
///   (A·diag(xp)·Aᵀ + ridge·I) z = y − A·xp,
///   ridge = max(trace, 1)·1e-10 + 1e-30,
/// by assembling the normal matrix as a packed upper triangle
/// (linalg::PackedUpper, about rows²/2 doubles) and running the
/// blocked in-place Cholesky on it.  Create one solver per worker thread;
/// Solve may be called repeatedly, allocates nothing, and performs the
/// exact same floating-point operations regardless of which solver
/// instance runs it, so any fan-out over bins is bit-identical to a
/// serial sweep.
class TmBinSolver {
 public:
  /// Binds the solver to a shared system (which must outlive it) and
  /// allocates its per-thread scratch: the packed normal matrix and
  /// its row-offset table, built once, plus the rows-long right-hand
  /// side.  No field of
  /// `options` changes the solve (marginal constraints are a property
  /// of the system).
  explicit TmBinSolver(const AugmentedTmSystem& system,
                       const EstimationOptions& options = {});

  TmBinSolver(const TmBinSolver&) = delete;             ///< non-copyable
  TmBinSolver& operator=(const TmBinSolver&) = delete;  ///< non-copyable

  /// Solves one bin.  `linkLoads` has linkCount() elements, `priorBin`
  /// and `outBin` are row-major n x n buffers in FlattenTm order (they
  /// may not alias), `ingress`/`egress` have n elements.
  void Solve(const double* linkLoads, const double* priorBin,
             const double* ingress, const double* egress, double* outBin);

 private:
  const AugmentedTmSystem& system_;
  std::vector<double> d_;  // rows: rhs, then the dual solution
  linalg::PackedUpper m_;  // normal matrix, then its factor
};

/// Iterative proportional fitting: rescales rows and columns of `tm`
/// until row sums match `rowTargets` and column sums match
/// `colTargets` (within tolerance).  All-zero rows/columns whose
/// target is positive are seeded uniformly first.
linalg::Matrix Ipf(linalg::Matrix tm, const linalg::Vector& rowTargets,
                   const linalg::Vector& colTargets,
                   std::size_t maxIterations = 100, double tolerance = 1e-9);

/// One bin of tomogravity refinement: returns the estimate
///   x = xp + W R^T (R W R^T + ridge)^-1 (y - R xp),   W = diag(xp),
/// clamped non-negative and IPF'd to the marginals.
linalg::Matrix EstimateTmBin(const linalg::CscMatrix& routing,
                             const linalg::Vector& linkLoads,
                             const linalg::Matrix& prior,
                             const linalg::Vector& ingress,
                             const linalg::Vector& egress,
                             const EstimationOptions& options = {});

/// Simulated SNMP for one n×n bin `tm` (row-major): link loads
/// `loads` = R·tm (routing.rows() values) and the ingress (row-sum)
/// and egress (column-sum) marginals, n values each.  Every output is
/// overwritten.  Batch (EstimateSeries) and streaming
/// (stream::MakeBinEvent) measure through this one function, so their
/// inputs, and thus their estimates, are bit-identical.
void SimulateSnmp(const linalg::CscMatrix& routing, std::size_t nodes,
                  const double* tm, double* loads, double* ingress,
                  double* egress);

/// Full-series estimation: per bin, computes true link loads from
/// `truth` via the routing matrix (simulating SNMP), runs the
/// three-step pipeline with `priors`, and returns the estimated series.
/// The augmented system is compressed once and shared by all bins, and
/// bins fan out across `options.threads` workers; every thread count
/// yields bit-identical estimates.
traffic::TrafficMatrixSeries EstimateSeries(
    const linalg::CscMatrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const EstimationOptions& options = {});

/// EstimateSeries against a caller-owned augmented system, so repeated
/// runs over the same topology (benchmark sweeps, thread-count
/// comparisons, re-estimation services) reuse one compression.
/// `system` must have been built from `routing` with
/// `options.useMarginalConstraints`.
traffic::TrafficMatrixSeries EstimateSeries(
    const AugmentedTmSystem& system, const linalg::CscMatrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const EstimationOptions& options = {});

}  // namespace ictm::core
