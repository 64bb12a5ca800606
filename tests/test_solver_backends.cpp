// Tests for the pluggable solver-backend layer (core/solver_backend.hpp):
// dense/sparse/cg agreement on the tier-1 fixtures, per-backend
// thread-count bit-identity, streaming == batch equivalence under the
// non-dense backends, the `auto` crossover, the cg backend's dense
// fallback on a stalled bin, and the linalg building blocks against
// their dense references.
#include <gtest/gtest.h>

#include <cmath>

#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/solver_backend.hpp"
#include "linalg/lsq.hpp"
#include "linalg/pcg.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_chol.hpp"
#include "obs/metrics.hpp"
#include "scenario/common.hpp"
#include "stream/online.hpp"
#include "test_util.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

namespace ictm {
namespace {

// Diurnally varying random traffic with every OD pair active — the
// dense-prior worst case the scale scenarios use.
traffic::TrafficMatrixSeries MakeTraffic(std::size_t n, std::size_t bins,
                                         std::uint64_t seed) {
  stats::Rng rng(seed);
  traffic::TrafficMatrixSeries truth(n, bins, 300.0);
  for (std::size_t t = 0; t < bins; ++t) {
    const double diurnal =
        1.0 + 0.5 * std::sin(2.0 * M_PI * double(t) / 288.0);
    for (std::size_t k = 0; k < n * n; ++k) {
      truth.binData(t)[k] = diurnal * rng.uniform(1e6, 1e7);
    }
  }
  return truth;
}

double MaxRelDiff(const traffic::TrafficMatrixSeries& a,
                  const traffic::TrafficMatrixSeries& b) {
  const std::size_t n = a.nodeCount();
  double worst = 0.0;
  for (std::size_t t = 0; t < a.binCount(); ++t) {
    const double* pa = a.binData(t);
    const double* pb = b.binData(t);
    for (std::size_t k = 0; k < n * n; ++k) {
      const double scale =
          std::max({std::fabs(pa[k]), std::fabs(pb[k]), 1.0});
      worst = std::max(worst, std::fabs(pa[k] - pb[k]) / scale);
    }
  }
  return worst;
}

using scenario::BitIdentical;  // the shared exact-equality check

struct Fixture {
  topology::Graph graph;
  linalg::CsrMatrix routing;
  traffic::TrafficMatrixSeries truth;
  traffic::TrafficMatrixSeries priors;

  Fixture(const std::string& spec, std::size_t bins, std::uint64_t seed)
      : graph(topology::MakeTopology(spec, 0)),
        routing(topology::BuildRoutingCsr(graph)),
        truth(MakeTraffic(graph.nodeCount(), bins, seed)),
        priors(core::GravityPredictSeries(truth)) {}

  traffic::TrafficMatrixSeries Estimate(core::SolverKind kind,
                                        std::size_t threads = 1) const {
    core::EstimationOptions options;
    options.solver = kind;
    options.threads = threads;
    return core::EstimateSeries(routing, truth, priors, options);
  }
};

// ---- backend agreement on the tier-1 fixtures ----------------------

TEST(SolverBackendsTest, AgreeOnGeant22) {
  const Fixture fx("geant22", 4, 11);
  const auto dense = fx.Estimate(core::SolverKind::kDense);
  const auto sparse = fx.Estimate(core::SolverKind::kSparse);
  const auto cg = fx.Estimate(core::SolverKind::kCg);
  EXPECT_LT(MaxRelDiff(dense, sparse), 1e-8);
  EXPECT_LT(MaxRelDiff(dense, cg), 1e-8);
}

TEST(SolverBackendsTest, AgreeOnHierarchy50) {
  const Fixture fx("hierarchy:50", 3, 12);
  const auto dense = fx.Estimate(core::SolverKind::kDense);
  const auto sparse = fx.Estimate(core::SolverKind::kSparse);
  const auto cg = fx.Estimate(core::SolverKind::kCg);
  EXPECT_LT(MaxRelDiff(dense, sparse), 1e-8);
  EXPECT_LT(MaxRelDiff(dense, cg), 1e-8);
}

TEST(SolverBackendsTest, AutoMatchesItsResolvedBackendBitForBit) {
  // hierarchy:50 and hierarchy:100 (586 rows) sit below the threshold,
  // so auto resolves to dense; it must be the same code path, not
  // merely close.
  const Fixture small("hierarchy:50", 2, 13);
  EXPECT_TRUE(
      BitIdentical(small.Estimate(core::SolverKind::kAuto),
                   small.Estimate(core::SolverKind::kDense)));
  const Fixture large("hierarchy:100", 2, 14);
  EXPECT_TRUE(
      BitIdentical(large.Estimate(core::SolverKind::kAuto),
                   large.Estimate(core::SolverKind::kDense)));
}

// ---- per-backend thread-count bit-identity -------------------------

TEST(SolverBackendsTest, ThreadFanoutBitIdenticalPerBackend) {
  const Fixture fx("hierarchy:50", 8, 15);
  for (const core::SolverKind kind :
       {core::SolverKind::kDense, core::SolverKind::kSparse,
        core::SolverKind::kCg}) {
    const auto t1 = fx.Estimate(kind, 1);
    const auto t8 = fx.Estimate(kind, 8);
    EXPECT_TRUE(BitIdentical(t1, t8))
        << "backend " << core::SolverKindName(kind)
        << " diverges across thread counts";
  }
}

// ---- streaming == batch under the non-dense backends ---------------

TEST(SolverBackendsTest, StreamingMatchesBatchUnderSparseAndCg) {
  const topology::Graph g = topology::MakeGeant22();
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const std::size_t n = g.nodeCount();
  const auto truth = MakeTraffic(n, 12, 16);

  for (const core::SolverKind kind :
       {core::SolverKind::kSparse, core::SolverKind::kCg}) {
    stream::StreamingOptions options;
    options.threads = 4;
    options.queueCapacity = 3;
    options.window = 4;
    options.estimation.solver = kind;
    const stream::StreamingRunResult run =
        stream::EstimateSeriesStreaming(routing, truth, options);

    core::EstimationOptions batch;
    batch.solver = kind;
    const auto batchEst =
        core::EstimateSeries(routing, truth, run.priors, batch);
    EXPECT_TRUE(BitIdentical(run.estimates, batchEst))
        << "streaming != batch under "
        << core::SolverKindName(kind);
  }
}

// ---- kind resolution and parsing -----------------------------------

TEST(SolverBackendsTest, AutoResolvesByRowCount) {
  using core::ResolveSolverKind;
  using core::SolverKind;
  // Dense at every system the repo runs: geant22 and hierarchy:50,
  // 100, 200, 400 and 600.
  const std::size_t denseRows[] = {120, 290, 586, 1186, 2386, 3586, 4095};
  for (const std::size_t rows : denseRows) {
    EXPECT_STREQ(core::SolverKindName(
                     ResolveSolverKind(SolverKind::kAuto, rows)),
                 "dense")
        << rows << " rows";
  }
  // cg from 4096 rows up, where the dense normal matrix alone is
  // 128 MiB per worker.
  const std::size_t cgRows[] = {4096, 4097, 10000, std::size_t{1} << 20};
  for (const std::size_t rows : cgRows) {
    EXPECT_STREQ(core::SolverKindName(
                     ResolveSolverKind(SolverKind::kAuto, rows)),
                 "cg")
        << rows << " rows";
  }
  // Concrete kinds pass through regardless of size.
  EXPECT_EQ(ResolveSolverKind(SolverKind::kSparse, 10),
            SolverKind::kSparse);
  EXPECT_EQ(ResolveSolverKind(SolverKind::kDense, 1 << 20),
            SolverKind::kDense);
}

TEST(SolverBackendsTest, SolverNameReportsResolvedBackend) {
  const topology::Graph g = topology::MakeGeant22();
  const core::AugmentedTmSystem sys(topology::BuildRoutingCsr(g),
                                    g.nodeCount(), true);
  core::EstimationOptions options;
  options.solver = core::SolverKind::kAuto;
  EXPECT_STREQ(core::TmBinSolver(sys, options).solverName(), "dense");
  options.solver = core::SolverKind::kSparse;
  EXPECT_STREQ(core::TmBinSolver(sys, options).solverName(), "sparse");
  options.solver = core::SolverKind::kCg;
  EXPECT_STREQ(core::TmBinSolver(sys, options).solverName(), "cg");
}

TEST(SolverBackendsTest, DefaultOptionsPickDenseOnHierarchy200) {
  const topology::Graph g = topology::MakeTopology("hierarchy:200", 0);
  const core::AugmentedTmSystem sys(topology::BuildRoutingCsr(g),
                                    g.nodeCount(), true);
  EXPECT_EQ(sys.rowCount(), 1186u);
  EXPECT_STREQ(core::TmBinSolver(sys, {}).solverName(), "dense");
}

TEST(SolverBackendsTest, ParseSolverKindRoundTrips) {
  for (const core::SolverKind kind :
       {core::SolverKind::kAuto, core::SolverKind::kDense,
        core::SolverKind::kSparse, core::SolverKind::kCg}) {
    core::SolverKind parsed = core::SolverKind::kAuto;
    EXPECT_TRUE(
        core::ParseSolverKind(core::SolverKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  core::SolverKind parsed = core::SolverKind::kAuto;
  EXPECT_FALSE(core::ParseSolverKind("cholesky", &parsed));
  EXPECT_FALSE(core::ParseSolverKind("", &parsed));
  EXPECT_FALSE(core::ParseSolverKind("Dense", &parsed));
}

TEST(SolverBackendsTest, CgHandlesSparseSupportPriors) {
  // Priors with zero and tiny entries (overnight bins, IC priors)
  // create outlier eigenvalues the frozen preconditioner cannot see;
  // CG then spends a long plateau picking them off before its final
  // plunge.  Regression: an early stagnation guard used to abort
  // mid-plateau, leaving estimates off by O(1) instead of solver
  // tolerance.
  const Fixture fx("geant22", 4, 18);
  traffic::TrafficMatrixSeries sparsePriors = fx.priors;
  stats::Rng rng(19);
  const std::size_t n = fx.graph.nodeCount();
  for (std::size_t t = 0; t < sparsePriors.binCount(); ++t) {
    double* bin = sparsePriors.binData(t);
    for (std::size_t k = 0; k < n * n; ++k) {
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.3) {
        bin[k] = 0.0;  // structurally absent OD pair
      } else if (u < 0.5) {
        bin[k] *= 1e-5;  // tiny weight, huge spread
      }
    }
  }
  core::EstimationOptions options;
  options.solver = core::SolverKind::kDense;
  const auto dense =
      core::EstimateSeries(fx.routing, fx.truth, sparsePriors, options);
  options.solver = core::SolverKind::kCg;
  const auto cg =
      core::EstimateSeries(fx.routing, fx.truth, sparsePriors, options);
  EXPECT_LT(MaxRelDiff(dense, cg), 1e-6);
}

// ---- cg stall fallback ---------------------------------------------

// A prior spanning twelve decades, 1e6·10^U(−6, 6) per OD pair: the
// frozen unweighted preconditioner cannot see that spread, and PCG
// stalls at a ~3e-4 relative residual on hierarchy:22.
void FillHeavyTailedPrior(std::size_t n, double* bin) {
  stats::Rng rng(3);
  for (std::size_t k = 0; k < n * n; ++k) {
    bin[k] = 1e6 * std::pow(10.0, rng.uniform(-6.0, 6.0));
  }
}

// The deterministic per-bin solve counters of this process.
struct SolveCounts {
  std::uint64_t cg = 0;
  std::uint64_t dense = 0;
  std::uint64_t fallbacks = 0;

  static SolveCounts Read() {
    const auto value = [](const char* name) {
      return obs::GetCounter(name, obs::MetricClass::kDeterministic)
          .value();
    };
    return {value("solver.solves.cg"), value("solver.solves.dense"),
            value("solver.cg_fallbacks")};
  }
};

// Expects exactly `cg` cg solves, `dense` dense solves and `fallbacks`
// cg-to-dense fallbacks since `before`; a no-op when the observability
// layer is compiled out.
void ExpectSolvesSince(const SolveCounts& before, std::uint64_t cg,
                       std::uint64_t dense, std::uint64_t fallbacks) {
#if defined(ICTM_OBS_DISABLED)
  (void)before;
  (void)cg;
  (void)dense;
  (void)fallbacks;
#else
  const SolveCounts now = SolveCounts::Read();
  EXPECT_EQ(now.cg - before.cg, cg);
  EXPECT_EQ(now.dense - before.dense, dense);
  EXPECT_EQ(now.fallbacks - before.fallbacks, fallbacks);
#endif
}

TEST(SolverBackendsTest, CgStallFallsBackToDenseForThatBin) {
  const topology::Graph g = topology::MakeTopology("hierarchy:22", 0);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const std::size_t n = g.nodeCount();
  const auto truth = MakeTraffic(n, 1, 210);
  traffic::TrafficMatrixSeries prior(n, 1, 300.0);
  FillHeavyTailedPrior(n, prior.binData(0));

  core::EstimationOptions options;
  options.solver = core::SolverKind::kCg;
  const SolveCounts before = SolveCounts::Read();
  const auto cg = core::EstimateSeries(routing, truth, prior, options);
  ExpectSolvesSince(before, 0, 1, 1);  // the bin counts once, as dense
  options.solver = core::SolverKind::kDense;
  const auto dense = core::EstimateSeries(routing, truth, prior, options);
  EXPECT_TRUE(BitIdentical(cg, dense));
}

TEST(SolverBackendsTest, CgFallbackBitIdenticalAcrossThreadCounts) {
  // One stalling bin among gravity-prior bins that cg solves itself.
  const topology::Graph g = topology::MakeTopology("hierarchy:22", 0);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const std::size_t n = g.nodeCount();
  const std::size_t stalled = 3;
  const auto truth = MakeTraffic(n, 6, 210);
  traffic::TrafficMatrixSeries priors = core::GravityPredictSeries(truth);
  FillHeavyTailedPrior(n, priors.binData(stalled));

  core::EstimationOptions options;
  options.solver = core::SolverKind::kCg;
  SolveCounts before = SolveCounts::Read();
  options.threads = 1;
  const auto t1 = core::EstimateSeries(routing, truth, priors, options);
  ExpectSolvesSince(before, 5, 1, 1);
  before = SolveCounts::Read();
  options.threads = 8;
  const auto t8 = core::EstimateSeries(routing, truth, priors, options);
  ExpectSolvesSince(before, 5, 1, 1);
  EXPECT_TRUE(BitIdentical(t1, t8));

  options.solver = core::SolverKind::kDense;
  const auto dense = core::EstimateSeries(routing, truth, priors, options);
  EXPECT_LT(MaxRelDiff(t1, dense), 1e-6);
  const double* fallbackBin = t1.binData(stalled);
  const double* denseBin = dense.binData(stalled);
  for (std::size_t k = 0; k < n * n; ++k) {
    ASSERT_EQ(fallbackBin[k], denseBin[k]) << "element " << k;
  }
}

// ---- degenerate inputs ---------------------------------------------

TEST(SolverBackendsTest, AllZeroPriorBinIdenticalAcrossBackends) {
  // With an all-zero prior the least-squares correction vanishes and
  // every backend must produce the exact same IPF-seeded estimate.
  const topology::Graph g = topology::MakeRing(6, 2);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const auto truth = MakeTraffic(6, 2, 17);
  traffic::TrafficMatrixSeries zeros(6, 2, 300.0);

  core::EstimationOptions options;
  options.solver = core::SolverKind::kDense;
  const auto dense = core::EstimateSeries(routing, truth, zeros, options);
  options.solver = core::SolverKind::kSparse;
  const auto sparse = core::EstimateSeries(routing, truth, zeros, options);
  options.solver = core::SolverKind::kCg;
  const auto cg = core::EstimateSeries(routing, truth, zeros, options);
  EXPECT_TRUE(BitIdentical(dense, sparse));
  EXPECT_TRUE(BitIdentical(dense, cg));
}

// ---- linalg building blocks against dense references ---------------

TEST(SparseNormalCholeskyTest, MatchesDenseCholeskyOnRandomSystem) {
  stats::Rng rng(3);
  const std::size_t rows = 14, cols = 40;
  // Sparse random A with a few entries per column (some zero columns).
  std::vector<linalg::Triplet> entries;
  for (std::size_t c = 0; c < cols; ++c) {
    if (c % 7 == 0) continue;
    const std::size_t k = 1 + static_cast<std::size_t>(
                                  rng.uniform(0.0, 3.0));
    for (std::size_t e = 0; e < k; ++e) {
      const std::size_t r =
          static_cast<std::size_t>(rng.uniform(0.0, double(rows) - 0.01));
      entries.push_back({r, c, rng.uniform(0.5, 2.0)});
    }
  }
  const auto a = linalg::CscMatrix::FromTriplets(rows, cols,
                                                 std::move(entries));
  std::vector<double> w(cols);
  for (double& wi : w) wi = rng.uniform(0.0, 5.0);
  w[3] = 0.0;  // skipped column

  const double relativeRidge = 1e-10;
  std::vector<double> d(rows);
  for (double& di : d) di = rng.uniform(-1.0, 1.0);

  // Dense reference: WeightedGramInto + trace ridge + Cholesky.
  std::vector<double> m(rows * rows, 0.0);
  linalg::WeightedGramInto(a, w.data(), m.data());
  double trace = 0.0;
  for (std::size_t r = 0; r < rows; ++r) trace += m[r * rows + r];
  const double ridge = std::max(trace, 1.0) * relativeRidge + 1e-30;
  for (std::size_t r = 0; r < rows; ++r) m[r * rows + r] += ridge;
  std::vector<double> zDense = d;
  linalg::CholeskySolveInPlace(m.data(), zDense.data(), rows);

  const linalg::SparseNormalAnalysis analysis(a);
  std::vector<double> scratch(
      linalg::SparseNormalSolver::RequiredScratch(analysis), 0.0);
  linalg::SparseNormalSolver solver(analysis, scratch.data());
  std::vector<double> zSparse = d;
  solver.Factor(w.data(), relativeRidge);
  solver.Solve(zSparse.data());

  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_NEAR(zSparse[r], zDense[r],
                1e-9 * std::max(std::fabs(zDense[r]), 1.0));
  }

  // Refactoring with different weights against the same analysis must
  // keep working (the per-bin reuse path).
  for (double& wi : w) wi = rng.uniform(0.1, 2.0);
  linalg::WeightedGramInto(a, w.data(), m.data());
  trace = 0.0;
  for (std::size_t r = 0; r < rows; ++r) trace += m[r * rows + r];
  const double ridge2 = std::max(trace, 1.0) * relativeRidge + 1e-30;
  for (std::size_t r = 0; r < rows; ++r) m[r * rows + r] += ridge2;
  zDense = d;
  linalg::CholeskySolveInPlace(m.data(), zDense.data(), rows);
  zSparse = d;
  solver.Factor(w.data(), relativeRidge);
  solver.Solve(zSparse.data());
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_NEAR(zSparse[r], zDense[r],
                1e-9 * std::max(std::fabs(zDense[r]), 1.0));
  }
}

TEST(NormalPcgTest, MatchesDenseSolveOnRoutingSystem) {
  const topology::Graph g = topology::MakeRing(8, 2);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const core::AugmentedTmSystem sys(routing, 8, true);
  const linalg::CscMatrix& a = sys.matrix();

  stats::Rng rng(4);
  std::vector<double> w(a.cols());
  for (double& wi : w) wi = rng.uniform(0.5, 5.0);
  std::vector<double> d(a.rows());
  for (double& di : d) di = rng.uniform(-1.0, 1.0);
  // Keep the rhs in range(A): d = A * random — the shape every
  // estimation residual has.
  {
    linalg::Vector x(a.cols());
    for (double& xi : x) xi = rng.uniform(-1.0, 1.0);
    const linalg::Vector ax = a.Multiply(x);
    for (std::size_t r = 0; r < a.rows(); ++r) d[r] = ax[r];
  }

  const double relativeRidge = 1e-10;
  std::vector<double> m(a.rows() * a.rows(), 0.0);
  linalg::WeightedGramInto(a, w.data(), m.data());
  double trace = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) trace += m[r * a.rows() + r];
  const double ridge = std::max(trace, 1.0) * relativeRidge + 1e-30;
  for (std::size_t r = 0; r < a.rows(); ++r) m[r * a.rows() + r] += ridge;
  std::vector<double> zDense = d;
  linalg::CholeskySolveInPlace(m.data(), zDense.data(), a.rows());

  const linalg::FrozenNormalPreconditioner precond(a);
  std::vector<double> scratch(linalg::NormalPcg::RequiredScratch(a), 0.0);
  linalg::NormalPcg pcg(a, precond, scratch.data());
  std::vector<double> zCg = d;
  const linalg::PcgResult res =
      pcg.Solve(w.data(), relativeRidge, zCg.data());
  EXPECT_GT(res.iterations, 0u);

  // Compare through the operator image (the null-space component of z
  // is irrelevant to the estimate, which only consumes Aᵀ z).
  const std::size_t n2 = a.cols();
  linalg::Vector atDense(n2, 0.0), atCg(n2, 0.0);
  for (std::size_t c = 0; c < n2; ++c) {
    double accD = 0.0, accC = 0.0;
    for (std::size_t k = a.colPtr()[c]; k < a.colPtr()[c + 1]; ++k) {
      accD += a.values()[k] * zDense[a.rowIdx()[k]];
      accC += a.values()[k] * zCg[a.rowIdx()[k]];
    }
    atDense[c] = accD;
    atCg[c] = accC;
  }
  for (std::size_t c = 0; c < n2; ++c) {
    EXPECT_NEAR(atCg[c], atDense[c],
                1e-7 * std::max(std::fabs(atDense[c]), 1.0));
  }
}

TEST(NormalPcgTest, ZeroRhsReturnsZero) {
  const topology::Graph g = topology::MakeRing(5, 2);
  const core::AugmentedTmSystem sys(topology::BuildRoutingCsr(g), 5, true);
  const linalg::CscMatrix& a = sys.matrix();
  std::vector<double> w(a.cols(), 1.0);
  std::vector<double> d(a.rows(), 0.0);
  const linalg::FrozenNormalPreconditioner precond(a);
  std::vector<double> scratch(linalg::NormalPcg::RequiredScratch(a), 0.0);
  linalg::NormalPcg pcg(a, precond, scratch.data());
  const linalg::PcgResult res = pcg.Solve(w.data(), 1e-10, d.data());
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  for (const double di : d) EXPECT_EQ(di, 0.0);
}

}  // namespace
}  // namespace ictm
