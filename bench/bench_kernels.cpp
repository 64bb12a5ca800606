// Google-benchmark microbenchmarks of the numerical kernels the
// reproduction is built on: QR/SVD factorisations, NNLS, gravity,
// the stable-fP prior, and one tomogravity estimation bin at Géant
// scale.
#include <benchmark/benchmark.h>

#include "core/estimation.hpp"
#include "core/fit.hpp"
#include "core/gravity.hpp"
#include "core/priors.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "stats/rng.hpp"
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

void BM_JacobiSvd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = RandomMatrix(2 * n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::ComputeSvd(a));
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(8)->Arg(22)->Arg(44);

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
  const linalg::Matrix routing = topology::BuildRoutingMatrix(g);
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

}  // namespace

BENCHMARK_MAIN();
