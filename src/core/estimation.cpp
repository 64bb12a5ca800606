#include "core/estimation.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.hpp"
#include "linalg/lsq.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"
#include "topology/routing.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::core {

namespace {

// Ridge added to the normal-equations diagonal, relative to its trace,
// making the solve robust to rank deficiency.
constexpr double kRelativeRidge = 1e-10;
constexpr std::size_t kIpfIterations = 100;  // max IPF iterations (step 3)
constexpr double kIpfTolerance = 1e-9;  // IPF marginal convergence tolerance

// Core IPF loop on a raw row-major n x n buffer, so series estimation
// can scale bins in place without a Matrix round-trip per bin.
// Preconditions (square shape, non-negative targets) are checked by
// the callers.
void IpfInPlace(double* tm, std::size_t n, const double* rowTargets,
                const double* colTargets, std::size_t maxIterations,
                double tolerance) {
  // Seed structurally-zero rows/columns whose target is positive, so
  // scaling has something to work with.
  for (std::size_t i = 0; i < n; ++i) {
    double* row = tm + i * n;
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) rowSum += row[j];
    if (rowSum == 0.0 && rowTargets[i] > 0.0) {
      for (std::size_t j = 0; j < n; ++j)
        row[j] = rowTargets[i] / static_cast<double>(n);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    double colSum = 0.0;
    for (std::size_t i = 0; i < n; ++i) colSum += tm[i * n + j];
    if (colSum == 0.0 && colTargets[j] > 0.0) {
      for (std::size_t i = 0; i < n; ++i)
        tm[i * n + j] += colTargets[j] / static_cast<double>(n);
    }
  }

  for (std::size_t iter = 0; iter < maxIterations; ++iter) {
    // Row scaling.
    for (std::size_t i = 0; i < n; ++i) {
      double* row = tm + i * n;
      double rowSum = 0.0;
      for (std::size_t j = 0; j < n; ++j) rowSum += row[j];
      if (rowSum > 0.0) {
        const double s = rowTargets[i] / rowSum;
        for (std::size_t j = 0; j < n; ++j) row[j] *= s;
      }
    }
    // Column scaling, tracking the worst mismatch before scaling rows
    // again next round.
    double worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double colSum = 0.0;
      for (std::size_t i = 0; i < n; ++i) colSum += tm[i * n + j];
      if (colSum > 0.0) {
        const double s = colTargets[j] / colSum;
        for (std::size_t i = 0; i < n; ++i) tm[i * n + j] *= s;
        const double scale = std::max(colTargets[j], 1.0);
        worst = std::max(worst, std::fabs(colSum - colTargets[j]) / scale);
      }
    }
    if (worst < tolerance) break;
  }
}

// Rows of the augmented operator for a routing matrix with `links`
// rows over `nodes` nodes: links plus, with marginal constraints, the
// 2·nodes ingress/egress rows.
std::size_t AugmentedRowCount(std::size_t links, std::size_t nodes,
                              bool marginalConstraints) {
  return marginalConstraints ? links + 2 * nodes : links;
}

// One count per bin solve, so the total is invariant under the worker
// fan-out (deterministic class).
obs::Counter& SolvesCounter() {
  static obs::Counter& c = obs::GetCounter(
      "solver.solves.dense", obs::MetricClass::kDeterministic);
  return c;
}

// Wall time of each stage of a bin solve, in pipeline order (timing
// class).
struct SolveStageCounters {
  obs::Counter& residual =
      obs::GetCounter("solver.residual_ns", obs::MetricClass::kTiming);
  obs::Counter& gram =
      obs::GetCounter("solver.gram_ns", obs::MetricClass::kTiming);
  obs::Counter& factor =
      obs::GetCounter("solver.factor_ns", obs::MetricClass::kTiming);
  obs::Counter& substitute =
      obs::GetCounter("solver.substitute_ns", obs::MetricClass::kTiming);
  obs::Counter& pushback =
      obs::GetCounter("solver.pushback_ns", obs::MetricClass::kTiming);
  obs::Counter& ipf =
      obs::GetCounter("solver.ipf_ns", obs::MetricClass::kTiming);
};

const SolveStageCounters& StageCounters() {
  static const SolveStageCounters c;
  return c;
}

}  // namespace

AugmentedTmSystem::AugmentedTmSystem(const linalg::CsrMatrix& routing,
                                     std::size_t nodes,
                                     bool marginalConstraints)
    : n_(nodes), links_(routing.rows()) {
  ICTM_REQUIRE(routing.cols() == n_ * n_,
               "routing matrix column mismatch");
  rows_ = AugmentedRowCount(links_, n_, marginalConstraints);
  // Counting-sort transpose of the routing CSR: column (i, j) holds the
  // pair's links in ascending row order (rows are scattered in order),
  // then, with marginal constraints, ingress row L + i and egress row
  // L + n + j.
  const std::size_t cols = n_ * n_;
  const std::size_t marginalRows = marginalConstraints ? 2 : 0;
  const auto& rowPtr = routing.rowPtr();
  const auto& colIdx = routing.colIdx();
  const auto& values = routing.values();
  std::vector<std::size_t> colPtr(cols + 1, 0);
  for (std::size_t c : colIdx) ++colPtr[c + 1];
  for (std::size_t c = 0; c < cols; ++c) {
    colPtr[c + 1] += colPtr[c] + marginalRows;
  }
  std::vector<std::size_t> rowIdx(colPtr[cols]);
  std::vector<double> entries(colPtr[cols]);
  std::vector<std::size_t> next(colPtr.begin(), colPtr.end() - 1);
  for (std::size_t r = 0; r < links_; ++r) {
    for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      const std::size_t slot = next[colIdx[k]]++;
      rowIdx[slot] = r;
      entries[slot] = values[k];
    }
  }
  for (std::size_t i = 0; marginalConstraints && i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t slot = next[i * n_ + j];
      rowIdx[slot] = links_ + i;           // ingress row
      rowIdx[slot + 1] = links_ + n_ + j;  // egress row
      entries[slot] = entries[slot + 1] = 1.0;
    }
  }
  a_ = linalg::CscMatrix(rows_, cols, std::move(colPtr), std::move(rowIdx),
                         std::move(entries));
}

TmBinSolver::TmBinSolver(const AugmentedTmSystem& system,
                         const EstimationOptions& /*options*/)
    : system_(system),
      d_(system.rowCount(), 0.0),
      m_(system.rowCount() * system.rowCount(), 0.0) {}

void TmBinSolver::Solve(const double* linkLoads, const double* priorBin,
                        const double* ingress, const double* egress,
                        double* outBin) {
  const std::size_t n = system_.nodeCount();
  const std::size_t n2 = n * n;
  const std::size_t rows = system_.rowCount();
  const std::size_t links = system_.linkCount();
  for (std::size_t i = 0; i < n; ++i) {
    ICTM_REQUIRE(ingress[i] >= 0.0, "negative row target");
    ICTM_REQUIRE(egress[i] >= 0.0, "negative col target");
  }

  // Each stage is timed only while metrics are recording.
  const bool recording = obs::Enabled();
  const std::uint64_t t0 = recording ? obs::Now() : 0;

  // Right-hand side y = [loads; ingress; egress] ...
  double* d = d_.data();
  std::copy(linkLoads, linkLoads + links, d);
  if (rows > links) {
    std::copy(ingress, ingress + n, d + links);
    std::copy(egress, egress + n, d + links + n);
  }
  // ... turned into the residual d = y - A xp.
  const auto& colPtr = system_.matrix().colPtr();
  const auto& rowIdx = system_.matrix().rowIdx();
  const auto& values = system_.matrix().values();
  for (std::size_t c = 0; c < n2; ++c) {
    const double xp = priorBin[c];
    if (xp == 0.0) continue;
    for (std::size_t k = colPtr[c]; k < colPtr[c + 1]; ++k) {
      d[rowIdx[k]] -= values[k] * xp;
    }
  }

  const std::uint64_t t1 = recording ? obs::Now() : 0;

  // Solve (A W Aᵀ + ridge) z = d with W = diag(xp) (prior-weighted
  // deviations, per tomogravity), then push back: x = xp + W Aᵀ z.
  SolvesCounter().add();
  double* m = m_.data();
  linalg::WeightedGramInto(system_.matrix(), priorBin, m);
  double trace = 0.0;
  for (std::size_t r = 0; r < rows; ++r) trace += m[r * rows + r];
  const double ridge =
      std::max(trace, 1.0) * kRelativeRidge +
      1e-30;  // keep strictly positive even for an all-zero prior
  for (std::size_t r = 0; r < rows; ++r) m[r * rows + r] += ridge;
  const std::uint64_t t2 = recording ? obs::Now() : 0;
  linalg::CholeskyFactorInPlace(m, rows);
  const std::uint64_t t3 = recording ? obs::Now() : 0;
  linalg::CholeskySubstituteInPlace(m, d, rows);
  const std::uint64_t t4 = recording ? obs::Now() : 0;
  for (std::size_t c = 0; c < n2; ++c) {
    const double xp = priorBin[c];
    double x = xp;
    if (xp > 0.0) {
      double dot = 0.0;
      for (std::size_t k = colPtr[c]; k < colPtr[c + 1]; ++k) {
        dot += values[k] * d[rowIdx[k]];
      }
      x += xp * dot;
    }
    outBin[c] = std::max(x, 0.0);
  }
  const std::uint64_t t5 = recording ? obs::Now() : 0;

  IpfInPlace(outBin, n, ingress, egress, kIpfIterations, kIpfTolerance);
  if (recording) {
    const SolveStageCounters& stages = StageCounters();
    stages.residual.add(t1 - t0);
    stages.gram.add(t2 - t1);
    stages.factor.add(t3 - t2);
    stages.substitute.add(t4 - t3);
    stages.pushback.add(t5 - t4);
    stages.ipf.add(obs::Now() - t5);
  }
}

linalg::Matrix Ipf(linalg::Matrix tm, const linalg::Vector& rowTargets,
                   const linalg::Vector& colTargets,
                   std::size_t maxIterations, double tolerance) {
  const std::size_t n = tm.rows();
  ICTM_REQUIRE(tm.cols() == n, "IPF requires a square matrix");
  ICTM_REQUIRE(rowTargets.size() == n && colTargets.size() == n,
               "target length mismatch");
  for (double v : rowTargets) ICTM_REQUIRE(v >= 0.0, "negative row target");
  for (double v : colTargets) ICTM_REQUIRE(v >= 0.0, "negative col target");
  IpfInPlace(tm.data().data(), n, rowTargets.data(), colTargets.data(),
             maxIterations, tolerance);
  return tm;
}

linalg::Matrix EstimateTmBin(const linalg::CsrMatrix& routing,
                             const linalg::Vector& linkLoads,
                             const linalg::Matrix& prior,
                             const linalg::Vector& ingress,
                             const linalg::Vector& egress,
                             const EstimationOptions& options) {
  const std::size_t n = prior.rows();
  ICTM_REQUIRE(prior.cols() == n, "prior must be square");
  ICTM_REQUIRE(routing.cols() == n * n, "routing matrix column mismatch");
  ICTM_REQUIRE(linkLoads.size() == routing.rows(),
               "link load length mismatch");
  ICTM_REQUIRE(ingress.size() == n && egress.size() == n,
               "marginal length mismatch");

  const AugmentedTmSystem sys(routing, n, options.useMarginalConstraints);
  TmBinSolver solver(sys, options);
  linalg::Matrix out(n, n);
  solver.Solve(linkLoads.data(), prior.data().data(), ingress.data(),
               egress.data(), out.data().data());
  return out;
}

traffic::TrafficMatrixSeries EstimateSeries(
    const linalg::CsrMatrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const EstimationOptions& options) {
  const AugmentedTmSystem sys(routing, truth.nodeCount(),
                              options.useMarginalConstraints);
  return EstimateSeries(sys, routing, truth, priors, options);
}

traffic::TrafficMatrixSeries EstimateSeries(
    const AugmentedTmSystem& sys, const linalg::CsrMatrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const EstimationOptions& options) {
  ICTM_REQUIRE(truth.nodeCount() == priors.nodeCount() &&
                   truth.binCount() == priors.binCount(),
               "truth/prior series shape mismatch");
  const std::size_t n = truth.nodeCount();
  const std::size_t bins = truth.binCount();
  ICTM_REQUIRE(sys.nodeCount() == n && sys.linkCount() == routing.rows(),
               "augmented system does not match the routing matrix");
  ICTM_REQUIRE(sys.rowCount() ==
                   AugmentedRowCount(routing.rows(), n,
                                     options.useMarginalConstraints),
               "augmented system was built with different marginal "
               "constraints than the options request");
  traffic::TrafficMatrixSeries out(n, bins, truth.binSeconds());

  // Each worker takes a contiguous run of bins and reuses one solver
  // (scratch) instance; bins write disjoint slices of `out`, so any
  // thread count produces bit-identical estimates.
  ParallelForRanges(
      std::size_t{0}, bins, options.threads,
      [&](std::size_t lo, std::size_t hi) {
        TmBinSolver solver(sys, options);
        std::vector<double> loads(sys.linkCount(), 0.0);
        std::vector<double> ingress(n, 0.0);
        std::vector<double> egress(n, 0.0);
        for (std::size_t t = lo; t < hi; ++t) {
          const double* truthBin = truth.binData(t);
          routing.MultiplyInto(truthBin, loads.data());
          std::fill(ingress.begin(), ingress.end(), 0.0);
          std::fill(egress.begin(), egress.end(), 0.0);
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              const double v = truthBin[i * n + j];
              ingress[i] += v;
              egress[j] += v;
            }
          }
          solver.Solve(loads.data(), priors.binData(t), ingress.data(),
                       egress.data(), out.binData(t));
        }
      });
  return out;
}

}  // namespace ictm::core
