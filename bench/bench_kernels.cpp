// Google-benchmark microbenchmarks of the numerical kernels the
// reproduction is built on: the QR factorisation, NNLS, gravity,
// the stable-fP prior, one tomogravity estimation bin at Géant scale,
// the per-topology set-up (routing matrix, augmented operator), and the
// packed normal matrix and its Cholesky factor of a hierarchy
// backbone's bin.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/estimation.hpp"
#include "core/fit.hpp"
#include "core/gravity.hpp"
#include "core/ic_model.hpp"
#include "core/priors.hpp"
#include "core/synthesis.hpp"
#include "linalg/lsq.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse.hpp"
#include "stats/rng.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

namespace {

using namespace ictm;

linalg::Matrix RandomMatrix(std::size_t r, std::size_t c,
                            std::uint64_t seed) {
  stats::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

void BM_QrFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = RandomMatrix(4 * n, n, 1);
  linalg::Vector b(4 * n, 1.0);
  for (auto _ : state) {
    linalg::HouseholderQR qr(a);
    benchmark::DoNotOptimize(qr.solve(b));
  }
}
BENCHMARK(BM_QrFactorSolve)->Arg(8)->Arg(22)->Arg(64);

void BM_Nnls(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = RandomMatrix(4 * n, n, 3);
  stats::Rng rng(4);
  linalg::Vector b(4 * n);
  for (double& x : b) x = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SolveNnls(a, b));
  }
}
BENCHMARK(BM_Nnls)->Arg(8)->Arg(22);

void BM_GravityPredict(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(6);
  linalg::Vector in(n), out(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = rng.uniform(1.0, 10.0);
    total += in[i];
  }
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    out[i] = rng.uniform(0.0, 2.0 * total / double(n));
    acc += out[i];
  }
  out[n - 1] = total - acc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GravityPredict(in, out));
  }
}
BENCHMARK(BM_GravityPredict)->Arg(22)->Arg(64);

// One tomogravity estimation bin at Géant scale (76 links, 484 OD
// pairs + marginal constraints).
void BM_EstimateTmBinGeant(benchmark::State& state) {
  const topology::Graph g = topology::MakeGeant22();
  const linalg::CscMatrix routing = topology::BuildRouting(g);
  const std::size_t n = g.nodeCount();
  stats::Rng rng(7);
  linalg::Matrix truth(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      truth(i, j) = rng.uniform(1e5, 1e7);
  const linalg::Vector loads = topology::ComputeLinkLoads(routing, truth);
  linalg::Vector in(n, 0.0), out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      in[i] += truth(i, j);
      out[j] += truth(i, j);
    }
  const linalg::Matrix prior = core::GravityPredict(in, out);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::EstimateTmBin(routing, loads, prior, in, out));
  }
}
BENCHMARK(BM_EstimateTmBinGeant);

// The stable-fP prior (Eqs. 7-9) over 64 bins of marginals at n=22.
void BM_StableFPPriorWeek(benchmark::State& state) {
  const std::size_t n = 22, bins = 64;
  stats::Rng rng(8);
  linalg::Vector pref(n);
  for (double& p : pref) p = rng.uniform(0.1, 1.0);
  core::MarginalSeries margs{linalg::Matrix(n, bins),
                             linalg::Matrix(n, bins)};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < bins; ++t) {
      margs.ingress(i, t) = rng.uniform(1e5, 1e7);
      margs.egress(i, t) = rng.uniform(1e5, 1e7);
    }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::StableFPPrior(0.25, pref, margs));
  }
}
BENCHMARK(BM_StableFPPriorWeek);

// Set-up, layer by layer, on hierarchy:100 and hierarchy:200 (graph
// built outside the timed loop): the ECMP routing walk, then the
// augmented operator A = [R; Q] every bin solver shares.
void BM_RoutingBuild(benchmark::State& state) {
  const topology::Graph g = topology::MakeTopology(
      "hierarchy:" + std::to_string(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::BuildRouting(g));
  }
}
BENCHMARK(BM_RoutingBuild)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_AugmentedSystem(benchmark::State& state) {
  const topology::Graph g = topology::MakeTopology(
      "hierarchy:" + std::to_string(state.range(0)));
  const linalg::CscMatrix routing = topology::BuildRouting(g);
  for (auto _ : state) {
    const core::AugmentedTmSystem system(routing, g.nodeCount(),
                                         /*marginalConstraints=*/true);
    benchmark::DoNotOptimize(system.matrix().values().data());
  }
}
BENCHMARK(BM_AugmentedSystem)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

// One bin of a hierarchy backbone as TmBinSolver sees it: the
// augmented system and the cold-start stable-fP prior (uniform
// preference) of one synthetic bin.
struct HierarchyBin {
  explicit HierarchyBin(std::size_t nodes)
      : graph(topology::MakeTopology("hierarchy:" + std::to_string(nodes))),
        system(topology::BuildRouting(graph), graph.nodeCount(),
               /*marginalConstraints=*/true) {
    const std::size_t n = graph.nodeCount();
    core::SynthesisConfig config;
    config.nodes = n;
    config.bins = 1;
    stats::Rng rng(7);
    const core::SyntheticTm tm = core::GenerateSyntheticTm(config, rng);
    const double* truth = tm.series.binData(0);
    linalg::Vector in(n, 0.0), out(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        in[i] += truth[i * n + j];
        out[j] += truth[i * n + j];
      }
    linalg::Vector activity(n);
    prior.resize(n * n);
    core::StableFPKernel(0.25, linalg::Vector(n, 1.0))
        .PriorBin(in.data(), out.data(), activity.data(), prior.data());
  }
  topology::Graph graph;
  core::AugmentedTmSystem system;
  linalg::Vector prior;
};

// The packed normal matrix A diag(xp) Aᵀ TmBinSolver assembles once
// per bin, at hierarchy:200 (1186 rows) and hierarchy:400 (2386).
void BM_WeightedGram(benchmark::State& state) {
  const HierarchyBin bin(static_cast<std::size_t>(state.range(0)));
  linalg::PackedUpper gram(bin.system.rowCount());
  for (auto _ : state) {
    linalg::WeightedGramInto(bin.system.matrix(), bin.prior.data(), gram);
    benchmark::DoNotOptimize(gram.data());
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(gram.dim());
  state.counters["bytes"] = static_cast<double>(gram.size() * sizeof(double));
}
BENCHMARK(BM_WeightedGram)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

// The factor TmBinSolver runs once per bin, on that packed normal
// matrix plus the solver's ridge, at hierarchy:100 (586 rows), :200
// (1186) and :400 (2386).  `bytes` is the packed buffer one worker
// holds.
void BM_CholeskyFactor(benchmark::State& state) {
  const HierarchyBin bin(static_cast<std::size_t>(state.range(0)));
  const std::size_t rows = bin.system.rowCount();
  linalg::PackedUpper gram(rows);
  linalg::WeightedGramInto(bin.system.matrix(), bin.prior.data(), gram);
  double trace = 0.0;
  for (std::size_t r = 0; r < rows; ++r) trace += gram.row(r)[r];
  const double ridge = std::max(trace, 1.0) * 1e-10 + 1e-30;
  for (std::size_t r = 0; r < rows; ++r) gram.row(r)[r] += ridge;

  linalg::PackedUpper work(rows);
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(gram.data(), gram.data() + gram.size(), work.data());
    state.ResumeTiming();
    linalg::CholeskyFactorInPlace(work);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["bytes"] = static_cast<double>(work.size() * sizeof(double));
}
BENCHMARK(BM_CholeskyFactor)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
