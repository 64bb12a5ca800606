// Topology-workbench scenario: sparse estimation must keep working —
// and stay bit-identical across thread counts — as the backbone grows
// from the paper's 22 PoPs to generated 200-node hierarchies.  The
// sweep body (traffic synthesis, compressed routing, the two-thread
// comparison) lives in common.hpp's RunTopoSweepEntry, shared with
// `bench_estimation_scale --topo-sweep`.  As everywhere: correctness
// facts go into the deterministic result document, wall-clock timings
// go to the notes channel only.
#include <cstdio>

#include "core/metrics.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"

namespace ictm::scenario::detail {

namespace {

constexpr std::size_t kBaselineThreads = 1;
constexpr std::size_t kFanoutThreads = 8;

// Canonical seeds: one for the topology generators, one for the
// synthetic traffic (offset per sweep entry so the series differ).
constexpr std::uint64_t kTopologySeed = 91;
constexpr std::uint64_t kTrafficSeed = 92;

std::vector<TopoSweepEntry> BuildSweep(const ScenarioContext& ctx) {
  if (!ctx.topology.empty()) {
    return {{ctx.topology, ctx.tiny ? std::size_t{6} : std::size_t{12}}};
  }
  if (ctx.tiny) {
    return {{"hierarchy:8", 6}, {"ring:6:2", 6}};
  }
  return DefaultTopoSweep();  // 22 -> 50 -> 100 -> 200 nodes
}

json::Value RunTopoScale(const ScenarioContext& ctx, std::string& notes) {
  const std::vector<TopoSweepEntry> sweep = BuildSweep(ctx);

  bool allIdentical = true;
  bool allFinite = true;
  json::Array rows;
  for (std::size_t idx = 0; idx < sweep.size(); ++idx) {
    const TopoSweepEntry& entry = sweep[idx];
    const TopoSweepRun run = RunTopoSweepEntry(
        entry, ctx.seed(kTopologySeed),
        ctx.seed(kTrafficSeed) + idx * 1000003, kBaselineThreads,
        kFanoutThreads);
    allIdentical = allIdentical && run.bitIdentical;
    allFinite = allFinite && AllFinite(run.errEst);

    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s: %.1f ms/bin at %zu thread(s), %.1f ms/bin at %zu "
                  "(%zu bins)\n",
                  entry.spec.c_str(),
                  1e3 * run.secBaseline / double(entry.bins),
                  kBaselineThreads,
                  1e3 * run.secFanout / double(entry.bins),
                  kFanoutThreads, entry.bins);
    notes += buf;

    json::Object row;
    row.set("topology", entry.spec);
    row.set("nodes", run.nodes);
    row.set("links", run.links);
    row.set("routing_rows", run.routingRows);
    row.set("routing_cols", run.nodes * run.nodes);
    row.set("routing_nnz", run.routingNnz);
    row.set("routing_density_pct", run.routingDensityPct);
    row.set("bins", entry.bins);
    row.set("bit_identical_across_threads", run.bitIdentical);
    row.set("est_err_mean", core::Mean(run.errEst));
    row.set("prior_err_mean", core::Mean(run.errPrior));
    row.set("improvement_pct_mean",
            core::Mean(core::PercentImprovementSeries(run.errPrior,
                                                      run.errEst)));
    rows.push_back(json::Value(std::move(row)));
  }

  json::Object body;
  body.set("topology_override",
           ctx.topology.empty() ? "none" : ctx.topology);
  body.set("threads_compared",
           json::Array{json::Value(kBaselineThreads),
                       json::Value(kFanoutThreads)});
  body.set("topologies", json::Value(std::move(rows)));
  body.set("bit_identical_across_threads", allIdentical);
  body.set("pass", allIdentical && allFinite);
  return json::Value(std::move(body));
}

}  // namespace

std::vector<Builtin> TopologyScenarios() {
  return {
      {{"topo_scale", "repo",
        "topology scaling: sparse estimation on generated backbones",
        "EstimateSeries stays bit-identical across thread counts as "
        "generated hierarchical backbones grow 22 -> 50 -> 100 -> 200 "
        "nodes, with routing built directly in CSR (the dense matrix "
        "is never materialised); --topology substitutes any registry "
        "spec or .ictp file for the sweep"},
       RunTopoScale},
  };
}

}  // namespace ictm::scenario::detail
