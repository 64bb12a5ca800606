#include "core/solver_backend.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "linalg/lsq.hpp"
#include "linalg/pcg.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_chol.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"

namespace ictm::core {

namespace {

// One bin-solve per call, so per-backend solve counts are invariant
// under the worker fan-out (deterministic class); a cg bin that falls
// back to dense counts once, as dense.  The factor / substitute split
// is wall time (timing class).
void CountSolve(const char* counterName) {
  static obs::Counter& dense = obs::GetCounter(
      "solver.solves.dense", obs::MetricClass::kDeterministic);
  static obs::Counter& sparse = obs::GetCounter(
      "solver.solves.sparse", obs::MetricClass::kDeterministic);
  static obs::Counter& cg = obs::GetCounter(
      "solver.solves.cg", obs::MetricClass::kDeterministic);
  if (counterName[0] == 'd') {
    dense.add();
  } else if (counterName[0] == 's') {
    sparse.add();
  } else {
    cg.add();
  }
}

obs::Counter& FactorNsCounter() {
  static obs::Counter& c =
      obs::GetCounter("solver.factor_ns", obs::MetricClass::kTiming);
  return c;
}

obs::Counter& SubstituteNsCounter() {
  static obs::Counter& c =
      obs::GetCounter("solver.substitute_ns", obs::MetricClass::kTiming);
  return c;
}

// The reference path: dense normal matrix + blocked in-place Cholesky,
// exactly the floating-point sequence the estimator has always run —
// `dense` results are bit-identical to the pre-backend code.
class DenseBackend final : public SolverBackend {
 public:
  DenseBackend(const AugmentedTmSystem& system, double relativeRidge)
      : system_(system), relativeRidge_(relativeRidge) {
    const std::size_t rows = system.rowCount();
    arena_.Reserve(rows * rows);
    m_ = arena_.Take(rows * rows);
  }

  const char* name() const noexcept override { return "dense"; }

  void SolveNormal(const double* weights, double* rhs) override {
    CountSolve(name());
    const std::size_t rows = system_.rowCount();
    linalg::WeightedGramInto(system_.matrix(), weights, m_);
    double trace = 0.0;
    for (std::size_t r = 0; r < rows; ++r) trace += m_[r * rows + r];
    const double ridge =
        std::max(trace, 1.0) * relativeRidge_ +
        1e-30;  // keep strictly positive even for an all-zero prior
    for (std::size_t r = 0; r < rows; ++r) m_[r * rows + r] += ridge;
    // Factor + substitute is exactly CholeskySolveInPlace (the split
    // is the documented definition), timed per phase.
    const bool recording = obs::Enabled();
    const std::uint64_t t0 = recording ? obs::Now() : 0;
    linalg::CholeskyFactorInPlace(m_, rows);
    const std::uint64_t t1 = recording ? obs::Now() : 0;
    linalg::CholeskySubstituteInPlace(m_, rhs, rows);
    if (recording) {
      FactorNsCounter().add(t1 - t0);
      SubstituteNsCounter().add(obs::Now() - t1);
    }
  }

 private:
  const AugmentedTmSystem& system_;
  double relativeRidge_;
  WorkspaceArena arena_;
  double* m_;  // rows x rows: normal matrix, then its factor
};

// Sparse Cholesky against the system's shared symbolic analysis; only
// the numeric buffers are per thread.
class SparseBackend final : public SolverBackend {
 public:
  SparseBackend(const AugmentedTmSystem& system, double relativeRidge)
      : analysis_(system.sparseAnalysis()), relativeRidge_(relativeRidge) {
    arena_.Reserve(linalg::SparseNormalSolver::RequiredScratch(analysis_));
    solver_.emplace(analysis_, arena_.Take(
        linalg::SparseNormalSolver::RequiredScratch(analysis_)));
  }

  const char* name() const noexcept override { return "sparse"; }

  void SolveNormal(const double* weights, double* rhs) override {
    CountSolve(name());
    const bool recording = obs::Enabled();
    const std::uint64_t t0 = recording ? obs::Now() : 0;
    solver_->Factor(weights, relativeRidge_);
    const std::uint64_t t1 = recording ? obs::Now() : 0;
    solver_->Solve(rhs);
    if (recording) {
      FactorNsCounter().add(t1 - t0);
      SubstituteNsCounter().add(obs::Now() - t1);
    }
  }

 private:
  const linalg::SparseNormalAnalysis& analysis_;
  double relativeRidge_;
  WorkspaceArena arena_;
  std::optional<linalg::SparseNormalSolver> solver_;
};

// Matrix-free PCG straight off the system's compressed operator.  A
// bin on which PCG stalls is re-solved by a dense backend, created on
// the first stall, so a heavy-tailed prior degrades one bin's cost
// instead of aborting the stream.  Which bins fall back is a pure
// function of the bin's inputs, so results stay bit-identical across
// thread counts.
class CgBackend final : public SolverBackend {
 public:
  CgBackend(const AugmentedTmSystem& system, double relativeRidge)
      : system_(system), relativeRidge_(relativeRidge) {
    const std::size_t scratch =
        linalg::NormalPcg::RequiredScratch(system.matrix());
    arena_.Reserve(scratch + system.rowCount());
    solver_.emplace(system.matrix(), system.cgPreconditioner(),
                    arena_.Take(scratch));
    rhsCopy_ = arena_.Take(system.rowCount());
  }

  const char* name() const noexcept override { return "cg"; }

  void SolveNormal(const double* weights, double* rhs) override {
    const std::size_t rows = system_.rowCount();
    std::copy(rhs, rhs + rows, rhsCopy_);
    const linalg::PcgResult result =
        solver_->Solve(weights, relativeRidge_, rhs);
    // The residual can floor out marginally above the tolerance along
    // the redundant-marginal null direction (harmless — that
    // component never reaches the estimate), but a residual this
    // large means the range-space solve genuinely stalled.
    if (result.converged || result.relativeResidual < 1e-6) {
      CountSolve(name());
      return;
    }
    static obs::Counter& fallbacks = obs::GetCounter(
        "solver.cg_fallbacks", obs::MetricClass::kDeterministic);
    fallbacks.add();
    if (!fallback_) {
      fallback_ = std::make_unique<DenseBackend>(system_, relativeRidge_);
    }
    std::copy(rhsCopy_, rhsCopy_ + rows, rhs);
    fallback_->SolveNormal(weights, rhs);  // counted as a dense solve
  }

 private:
  const AugmentedTmSystem& system_;
  double relativeRidge_;
  WorkspaceArena arena_;
  std::optional<linalg::NormalPcg> solver_;
  double* rhsCopy_;  // rows: the bin's rhs, kept for a fallback re-solve
  std::unique_ptr<DenseBackend> fallback_;  // created on the first stall
};

}  // namespace

SolverKind ResolveSolverKind(SolverKind requested,
                             std::size_t rows) noexcept {
  if (requested != SolverKind::kAuto) return requested;
  return rows >= kAutoSolverRowThreshold ? SolverKind::kCg
                                         : SolverKind::kDense;
}

std::unique_ptr<SolverBackend> MakeSolverBackend(
    const AugmentedTmSystem& system, const EstimationOptions& options) {
  const SolverKind resolved =
      ResolveSolverKind(options.solver, system.rowCount());
  // Auto-pick accounting.  Backends are constructed once per worker,
  // so these counts scale with the thread fan-out — timing class, not
  // deterministic (the per-bin solver.solves.* counters are the
  // thread-invariant view).
  if (options.solver == SolverKind::kAuto) {
    static obs::Counter& autoDense = obs::GetCounter(
        "solver.auto_picks.dense", obs::MetricClass::kTiming);
    static obs::Counter& autoCg =
        obs::GetCounter("solver.auto_picks.cg", obs::MetricClass::kTiming);
    (resolved == SolverKind::kCg ? autoCg : autoDense).add();
  }
  switch (resolved) {
    case SolverKind::kSparse:
      return std::make_unique<SparseBackend>(system, options.relativeRidge);
    case SolverKind::kCg:
      return std::make_unique<CgBackend>(system, options.relativeRidge);
    case SolverKind::kDense:
    case SolverKind::kAuto:
      break;
  }
  return std::make_unique<DenseBackend>(system, options.relativeRidge);
}

}  // namespace ictm::core
