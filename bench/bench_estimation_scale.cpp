// Wall-clock scaling of the per-bin TM estimation fan-out.
//
// Runs a Géant-scale (22-node) EstimateSeries over a week of 5-minute
// bins (2016) three ways:
//   legacy    — the pre-sparse serial implementation (reproduced below
//               verbatim: dense system assembly per bin, dense scans,
//               per-bin allocations),
//   sparse x1 — the compressed-system engine, single thread,
//   sparse xT — the same engine with T worker threads.
// and reports the speedups plus two correctness checks: the threaded
// run must be bit-identical to the single-threaded one, and the sparse
// engine must agree with the legacy pipeline to solver tolerance.
//
// A second mode sweeps generated hierarchical backbones from 22 to 200
// nodes and writes the perf trajectory over node count
// (BENCH_topology_scale.json).  The sweep's gate: every entry's
// estimates finite and bit-identical for threads 1 vs T.
//
// usage: bench_estimation_scale [bins] [threads]
//        bench_estimation_scale --topo-sweep [out.json] [threads]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/output_file.hpp"
#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "linalg/lsq.hpp"
#include "obs/now.hpp"
#include "scenario/common.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

namespace {

using namespace ictm;

// ---- the seed's serial dense pipeline, kept verbatim as the baseline ----

namespace legacy {

struct SparseColumns {
  std::vector<std::vector<std::pair<std::size_t, double>>> cols;

  explicit SparseColumns(const linalg::Matrix& m) : cols(m.cols()) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        const double v = m(r, c);
        if (v != 0.0) cols[c].emplace_back(r, v);
      }
    }
  }
};

linalg::Matrix Ipf(linalg::Matrix tm, const linalg::Vector& rowTargets,
                   const linalg::Vector& colTargets,
                   std::size_t maxIterations, double tolerance) {
  const std::size_t n = tm.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) rowSum += tm(i, j);
    if (rowSum == 0.0 && rowTargets[i] > 0.0) {
      for (std::size_t j = 0; j < n; ++j)
        tm(i, j) = rowTargets[i] / static_cast<double>(n);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    double colSum = 0.0;
    for (std::size_t i = 0; i < n; ++i) colSum += tm(i, j);
    if (colSum == 0.0 && colTargets[j] > 0.0) {
      for (std::size_t i = 0; i < n; ++i)
        tm(i, j) += colTargets[j] / static_cast<double>(n);
    }
  }
  for (std::size_t iter = 0; iter < maxIterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      double rowSum = 0.0;
      for (std::size_t j = 0; j < n; ++j) rowSum += tm(i, j);
      if (rowSum > 0.0) {
        const double s = rowTargets[i] / rowSum;
        for (std::size_t j = 0; j < n; ++j) tm(i, j) *= s;
      }
    }
    double worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double colSum = 0.0;
      for (std::size_t i = 0; i < n; ++i) colSum += tm(i, j);
      if (colSum > 0.0) {
        const double s = colTargets[j] / colSum;
        for (std::size_t i = 0; i < n; ++i) tm(i, j) *= s;
        const double scale = std::max(colTargets[j], 1.0);
        worst = std::max(worst, std::fabs(colSum - colTargets[j]) / scale);
      }
    }
    if (worst < tolerance) break;
  }
  return tm;
}

linalg::Matrix EstimateTmBin(const linalg::Matrix& routing,
                             const linalg::Vector& linkLoads,
                             const linalg::Matrix& prior,
                             const linalg::Vector& ingress,
                             const linalg::Vector& egress,
                             const core::EstimationOptions& options) {
  const std::size_t n = prior.rows();
  const std::size_t links = routing.rows();
  const std::size_t rows =
      options.useMarginalConstraints ? links + 2 * n : links;
  linalg::Matrix system(rows, n * n, 0.0);
  linalg::Vector y(rows, 0.0);
  for (std::size_t r = 0; r < links; ++r) {
    for (std::size_t c = 0; c < n * n; ++c) system(r, c) = routing(r, c);
    y[r] = linkLoads[r];
  }
  if (options.useMarginalConstraints) {
    const linalg::Matrix q = traffic::BuildMarginalOperator(n);
    for (std::size_t r = 0; r < 2 * n; ++r)
      for (std::size_t c = 0; c < n * n; ++c)
        system(links + r, c) = q(r, c);
    for (std::size_t i = 0; i < n; ++i) {
      y[links + i] = ingress[i];
      y[links + n + i] = egress[i];
    }
  }

  const SparseColumns sparse(system);
  const linalg::Vector xp = topology::FlattenTm(prior);

  linalg::Vector d = y;
  for (std::size_t c = 0; c < n * n; ++c) {
    if (xp[c] == 0.0) continue;
    for (const auto& [r, v] : sparse.cols[c]) d[r] -= v * xp[c];
  }

  linalg::Matrix m(rows, rows, 0.0);
  for (std::size_t c = 0; c < n * n; ++c) {
    if (xp[c] <= 0.0) continue;
    const auto& nz = sparse.cols[c];
    for (const auto& [r1, v1] : nz) {
      for (const auto& [r2, v2] : nz) {
        m(r1, r2) += xp[c] * v1 * v2;
      }
    }
  }
  double trace = 0.0;
  for (std::size_t r = 0; r < rows; ++r) trace += m(r, r);
  const double ridge = std::max(trace, 1.0) * 1e-10 + 1e-30;
  for (std::size_t r = 0; r < rows; ++r) m(r, r) += ridge;

  const linalg::Matrix u = linalg::CholeskyUpper(m);
  const linalg::Vector w1 = linalg::ForwardSubstituteTranspose(u, d);
  linalg::Vector z(rows, 0.0);
  for (std::size_t ii = rows; ii-- > 0;) {
    double acc = w1[ii];
    for (std::size_t j = ii + 1; j < rows; ++j) acc -= u(ii, j) * z[j];
    z[ii] = acc / u(ii, ii);
  }

  linalg::Vector x = xp;
  for (std::size_t c = 0; c < n * n; ++c) {
    if (xp[c] <= 0.0) continue;
    double dot = 0.0;
    for (const auto& [r, v] : sparse.cols[c]) dot += v * z[r];
    x[c] += xp[c] * dot;
  }
  for (double& xi : x) xi = std::max(xi, 0.0);

  return Ipf(topology::UnflattenTm(x, n), ingress, egress, 100, 1e-9);
}

traffic::TrafficMatrixSeries EstimateSeries(
    const linalg::Matrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const core::EstimationOptions& options) {
  const std::size_t n = truth.nodeCount();
  traffic::TrafficMatrixSeries out(n, truth.binCount(),
                                   truth.binSeconds());
  for (std::size_t t = 0; t < truth.binCount(); ++t) {
    const linalg::Matrix truthBin = truth.bin(t);
    const linalg::Vector loads = routing * topology::FlattenTm(truthBin);
    out.setBin(t, legacy::EstimateTmBin(routing, loads, priors.bin(t),
                                        truth.ingress(t), truth.egress(t),
                                        options));
  }
  return out;
}

}  // namespace legacy

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

bool WriteJsonFile(const std::string& path,
                   ictm::scenario::json::Value doc) {
  try {
    OutputFile out(path);
    out.stream() << doc.dump(2);
    out.commit();
    return true;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

// Node-count sweep over generated hierarchical backbones: times the
// estimation at 1 and `threads` workers per size and writes the rows
// as JSON.  The sweep table and per-entry measurement are shared with
// the topo_scale scenario (scenario::RunTopoSweepEntry); timings are
// run-environment facts, so this file is a bench artifact, not a
// deterministic scenario result.
int RunTopoSweep(const std::string& outPath, std::size_t threads) {
  namespace json = ictm::scenario::json;
  const auto& sweep = scenario::DefaultTopoSweep();

  bool allPass = true;
  json::Array rows;
  std::printf("topology scale sweep (%zu threads)\n\n", threads);
  for (std::size_t idx = 0; idx < sweep.size(); ++idx) {
    const scenario::TopoSweepEntry& entry = sweep[idx];
    const scenario::TopoSweepRun run = scenario::RunTopoSweepEntry(
        entry, /*topologySeed=*/0, /*trafficSeed=*/42 + idx,
        /*baselineThreads=*/1, threads);
    // Contract: finite estimates, bit-identical across thread counts.
    allPass = allPass && run.bitIdentical && scenario::AllFinite(run.errEst);
    const double msPerBin1 = 1e3 * run.secBaseline / double(entry.bins);
    const double msPerBinN = 1e3 * run.secFanout / double(entry.bins);
    std::printf("%-14s %4zu nodes: %8.2f ms/bin x1, %8.2f ms/bin x%zu%s\n",
                entry.spec.c_str(), run.nodes, msPerBin1, msPerBinN,
                threads, run.bitIdentical ? "" : " THREAD-MISMATCH");

    json::Object row;
    row.set("topology", entry.spec);
    row.set("nodes", run.nodes);
    row.set("links", run.links);
    row.set("routing_rows", run.routingRows);
    row.set("routing_nnz", run.routingNnz);
    row.set("bins", entry.bins);
    row.set("solver", "dense");
    row.set("sec_1_thread", run.secBaseline);
    row.set("sec_n_threads", run.secFanout);
    row.set("ms_per_bin_1_thread", msPerBin1);
    row.set("ms_per_bin_n_threads", msPerBinN);
    row.set("speedup", run.secFanout > 0.0
                           ? run.secBaseline / run.secFanout
                           : 0.0);
    row.set("bit_identical", run.bitIdentical);
    row.set("est_err_mean", core::Mean(run.errEst));
    rows.push_back(json::Value(std::move(row)));
  }

  json::Object doc;
  doc.set("schema", "ictm-bench-topology-scale-v1");
  doc.set("threads", threads);
  doc.set("rows", json::Value(std::move(rows)));
  if (!WriteJsonFile(outPath, json::Value(std::move(doc)))) return 1;

  std::printf("\nwrote %s: %s\n", outPath.c_str(),
              allPass ? "PASS" : "FAIL");
  return allPass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--topo-sweep") == 0) {
    const std::string out =
        argc > 2 ? argv[2] : "BENCH_topology_scale.json";
    const std::size_t sweepThreads =
        argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 8;
    return RunTopoSweep(out, std::max<std::size_t>(1, sweepThreads));
  }
  const std::size_t bins =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 2016;
  const std::size_t threads =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8;

  const topology::Graph g = topology::MakeGeant22();
  const std::size_t n = g.nodeCount();
  const linalg::CscMatrix routing = topology::BuildRouting(g);
  const linalg::Matrix routingDense = routing.ToDense();
  std::printf("topology: %zu nodes, %zu links, routing %zux%zu "
              "(%.2f%% dense)\n",
              n, g.linkCount(), routing.rows(), routing.cols(),
              100.0 * double(routing.nonZeros()) /
                  double(routing.rows() * routing.cols()));

  // A week of diurnally varying traffic plus gravity priors from the
  // marginals (the realistic worst case for the refinement: every OD
  // pair active, dense prior support).
  const traffic::TrafficMatrixSeries truth =
      scenario::DiurnalTraffic(n, bins, 42);
  const traffic::TrafficMatrixSeries priors =
      core::GravityPredictSeries(truth);
  std::printf("series: %zu bins x %zu nodes\n\n", bins, n);

  core::EstimationOptions options;

  std::uint64_t t0 = obs::Now();
  const auto legacyEst =
      legacy::EstimateSeries(routingDense, truth, priors, options);
  const double legacySec = obs::ElapsedSeconds(t0);
  std::printf("legacy dense serial       : %7.3f s  (%.2f ms/bin)\n",
              legacySec, 1e3 * legacySec / double(bins));

  options.threads = 1;
  t0 = obs::Now();
  const auto sparse1 =
      core::EstimateSeries(routing, truth, priors, options);
  const double sparse1Sec = obs::ElapsedSeconds(t0);
  std::printf("sparse engine, 1 thread   : %7.3f s  (%.2f ms/bin, %.2fx "
              "vs legacy)\n",
              sparse1Sec, 1e3 * sparse1Sec / double(bins),
              legacySec / sparse1Sec);

  options.threads = threads;
  t0 = obs::Now();
  const auto sparseT =
      core::EstimateSeries(routing, truth, priors, options);
  const double sparseTSec = obs::ElapsedSeconds(t0);
  std::printf("sparse engine, %2zu threads : %7.3f s  (%.2f ms/bin, "
              "%.2fx vs legacy, %.2fx vs 1 thread)\n",
              threads, sparseTSec, 1e3 * sparseTSec / double(bins),
              legacySec / sparseTSec, sparse1Sec / sparseTSec);

  const bool identical = scenario::BitIdentical(sparse1, sparseT);
  const double relDiff = MaxRelDiff(legacyEst, sparse1);
  std::printf("\nthreads=%zu vs threads=1: %s\n", threads,
              identical ? "bit-identical" : "MISMATCH");
  std::printf("sparse vs legacy max rel diff: %.3e\n", relDiff);

  const double speedup = legacySec / sparseTSec;
  const bool pass = identical && relDiff < 1e-6 && speedup >= 3.0;
  std::printf("speedup %.2fx (target >= 3x): %s\n", speedup,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
