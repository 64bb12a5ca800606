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
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "core/priors.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::linalg {
class FrozenNormalPreconditioner;  // linalg/pcg.hpp
class SparseNormalAnalysis;        // linalg/sparse_chol.hpp
}  // namespace ictm::linalg

namespace ictm::core {

class SolverBackend;  // core/solver_backend.hpp

/// How each bin's normal equations are solved (see
/// core/solver_backend.hpp for the backend layer).
enum class SolverKind {
  kAuto,    ///< dense through 4095 augmented rows, cg from 4096 up
  kDense,   ///< dense normal matrix + blocked in-place Cholesky
  kSparse,  ///< fill-reducing sparse Cholesky, symbolic shared per system
  kCg,      ///< matrix-free CG, frozen-Gram preconditioner per system
};

/// Stable lowercase name of a solver kind ("auto", "dense", "sparse",
/// "cg") for CLI/JSON reporting.
const char* SolverKindName(SolverKind kind) noexcept;

/// Parses a solver-kind name as accepted by `--solver`; returns false
/// (leaving `out` untouched) on anything else.
bool ParseSolverKind(std::string_view name, SolverKind* out) noexcept;

/// Options for the estimation pipeline.
struct EstimationOptions {
  /// Append the marginal equations (Q x = [ingress; egress]) to the
  /// link system, as operators do (access-link SNMP counters).
  bool useMarginalConstraints = true;
  /// Ridge added to the normal-equations diagonal, relative to its
  /// trace, making the solve robust to rank deficiency.
  double relativeRidge = 1e-10;
  std::size_t ipfIterations = 100;  ///< max IPF iterations (step 3)
  double ipfTolerance = 1e-9;       ///< IPF marginal convergence tolerance
  /// Worker threads for EstimateSeries' per-bin fan-out (bins are
  /// independent, so results are bit-identical for any value); 0 means
  /// all hardware threads.
  std::size_t threads = 1;
  /// Backend for the per-bin normal-equations solve.  Every backend is
  /// bit-identical across thread counts and agrees with kDense to
  /// solver tolerance; kAuto is dense through 4095 augmented rows and
  /// cg above (kAutoSolverRowThreshold).
  SolverKind solver = SolverKind::kAuto;
};

/// Rows of the augmented operator for a routing matrix with `links`
/// rows over `nodes` nodes: links plus, with marginal constraints,
/// the 2·nodes ingress/egress rows.  The one formula every layer that
/// predicts or reports a solver resolution shares.
inline std::size_t AugmentedRowCount(std::size_t links, std::size_t nodes,
                                     bool marginalConstraints) noexcept {
  return marginalConstraints ? links + 2 * nodes : links;
}

/// The augmented measurement operator A = [R; Q] compressed once into
/// column form: one column per OD pair holding that pair's few path
/// links plus (with marginal constraints) its ingress and egress rows.
/// Built once per routing matrix and shared read-only by every bin
/// solver — batch (EstimateSeries) and streaming
/// (stream::StreamingEstimator) consume the same system, which is what
/// makes their estimates bit-identical.
class AugmentedTmSystem {
 public:
  /// Compresses `routing` (links x n²) plus, when `marginalConstraints`
  /// is set, the 2n ingress/egress rows.
  AugmentedTmSystem(const linalg::CsrMatrix& routing, std::size_t nodes,
                    bool marginalConstraints);
  ~AugmentedTmSystem();  ///< out of line for the lazy shared analyses

  /// Number of nodes n.
  std::size_t nodeCount() const noexcept { return n_; }
  /// Number of routing-matrix rows (directed links).
  std::size_t linkCount() const noexcept { return links_; }
  /// Total rows: links (+ 2n with marginal constraints).
  std::size_t rowCount() const noexcept { return rows_; }
  /// The compressed operator (rowCount() x n²).
  const linalg::CscMatrix& matrix() const noexcept { return a_; }

  /// The sparse-Cholesky analysis (pattern, fill-reducing ordering,
  /// symbolic factor, assembly map) of this system's normal operator.
  /// Built lazily on first use — the weight-independent part of the
  /// sparse backend — then shared read-only by every bin solver and
  /// worker thread.  Thread-safe.
  const linalg::SparseNormalAnalysis& sparseAnalysis() const;

  /// The frozen (unweighted-Gram) CG preconditioner of this system's
  /// normal operator — the cg backend's weight-independent setup,
  /// with the same lazy once-per-system sharing as sparseAnalysis().
  /// Thread-safe.
  const linalg::FrozenNormalPreconditioner& cgPreconditioner() const;

 private:
  std::size_t n_ = 0;
  std::size_t links_ = 0;
  std::size_t rows_ = 0;
  linalg::CscMatrix a_;
  mutable std::once_flag sparseOnce_;
  mutable std::unique_ptr<linalg::SparseNormalAnalysis> sparse_;
  mutable std::once_flag cgOnce_;
  mutable std::unique_ptr<linalg::FrozenNormalPreconditioner> cgPrecond_;
};

/// One bin of the three-step pipeline (Sec. 6) with reusable scratch:
/// prior-weighted least-squares refinement of the prior against the
/// link loads (and marginals), clamped non-negative, then IPF onto the
/// marginals.  Create one solver per worker thread; Solve may be called
/// repeatedly and performs the exact same floating-point operations
/// regardless of which solver instance runs it, so any fan-out over
/// bins is bit-identical to a serial sweep.
class TmBinSolver {
 public:
  /// Binds the solver to a shared system (which must outlive it) and
  /// builds the backend selected by `options.solver` with its
  /// per-thread workspace.
  explicit TmBinSolver(const AugmentedTmSystem& system,
                       const EstimationOptions& options = {});
  ~TmBinSolver();  ///< out of line for the backend's incomplete type

  TmBinSolver(const TmBinSolver&) = delete;             ///< non-copyable
  TmBinSolver& operator=(const TmBinSolver&) = delete;  ///< non-copyable

  /// Solves one bin.  `linkLoads` has linkCount() elements, `priorBin`
  /// and `outBin` are row-major n x n buffers in FlattenTm order (they
  /// may not alias), `ingress`/`egress` have n elements.
  void Solve(const double* linkLoads, const double* priorBin,
             const double* ingress, const double* egress, double* outBin);

  /// Name of the backend actually in use ("dense", "sparse", "cg") —
  /// kAuto resolved by system size.
  const char* solverName() const noexcept;

 private:
  const AugmentedTmSystem& system_;
  EstimationOptions options_;
  std::vector<double> d_;  // rows: rhs, then the dual solution
  std::unique_ptr<SolverBackend> backend_;  // per-thread solve workspace
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
/// clamped non-negative and IPF'd to the marginals.  The sparse
/// overload is the primary implementation; the dense one compresses
/// `routing` first and produces identical results.
linalg::Matrix EstimateTmBin(const linalg::CsrMatrix& routing,
                             const linalg::Vector& linkLoads,
                             const linalg::Matrix& prior,
                             const linalg::Vector& ingress,
                             const linalg::Vector& egress,
                             const EstimationOptions& options = {});
linalg::Matrix EstimateTmBin(const linalg::Matrix& routing,
                             const linalg::Vector& linkLoads,
                             const linalg::Matrix& prior,
                             const linalg::Vector& ingress,
                             const linalg::Vector& egress,
                             const EstimationOptions& options = {});

/// Full-series estimation: per bin, computes true link loads from
/// `truth` via the routing matrix (simulating SNMP), runs the
/// three-step pipeline with `priors`, and returns the estimated series.
/// The augmented system is compressed once and shared by all bins, and
/// bins fan out across `options.threads` workers; every thread count
/// yields bit-identical estimates.  The dense overload compresses
/// `routing` first and produces identical results.
traffic::TrafficMatrixSeries EstimateSeries(
    const linalg::CsrMatrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const EstimationOptions& options = {});
traffic::TrafficMatrixSeries EstimateSeries(
    const linalg::Matrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const EstimationOptions& options = {});

/// EstimateSeries against a caller-owned augmented system, so repeated
/// runs over the same topology (benchmark sweeps, per-backend
/// comparisons, re-estimation services) reuse one compression and the
/// backends' shared per-system setup.  `system` must have been built
/// from `routing` with `options.useMarginalConstraints`.
traffic::TrafficMatrixSeries EstimateSeries(
    const AugmentedTmSystem& system, const linalg::CsrMatrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const EstimationOptions& options = {});

}  // namespace ictm::core
