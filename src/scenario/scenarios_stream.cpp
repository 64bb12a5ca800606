// Streaming scenarios: the online estimator must be bit-identical to
// the batch engine (and to itself for every thread count and queue
// capacity), and the binary trace format must beat CSV parsing by a
// wide margin.  As everywhere: correctness facts go into the
// deterministic result document, wall-clock timings and throughputs go
// to the notes channel only.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/estimation.hpp"
#include "core/metrics.hpp"
#include "obs/now.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"
#include "stream/format.hpp"
#include "stream/online.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/io.hpp"

namespace ictm::scenario::detail {

namespace {

// Diurnally varying random traffic on a canned topology — the same
// shape estimation_scale uses, so the streaming numbers are comparable.
struct StreamSetup {
  topology::Graph graph;
  linalg::CscMatrix routing;
  traffic::TrafficMatrixSeries truth;

  StreamSetup(const ScenarioContext& ctx, std::uint64_t canonicalSeed,
              std::size_t fullBins)
      : graph(ctx.tiny ? topology::MakeRing(6, 2)
                       : topology::MakeGeant22()),
        routing(topology::BuildRouting(graph)),
        truth(DiurnalTraffic(graph.nodeCount(), ctx.tiny ? 24 : fullBins,
                             ctx.seed(canonicalSeed))) {}
};

json::Value RunStreamEquivalence(const ScenarioContext& ctx,
                                 std::string& notes) {
  const StreamSetup setup(ctx, 77, 504);
  const std::size_t n = setup.graph.nodeCount();
  const std::size_t window = ctx.tiny ? 8 : 96;

  stream::StreamingOptions base;
  base.f = 0.25;
  base.window = window;
  base.threads = 1;
  const std::uint64_t t0 = obs::Now();
  const stream::StreamingRunResult serial =
      stream::EstimateSeriesStreaming(setup.routing, setup.truth, base);
  const double serialSec = obs::ElapsedSeconds(t0);

  // Thread counts and queue capacities are fixed constants (not taken
  // from the context) so the document stays environment-independent.
  bool identicalAcrossConfigs = true;
  for (const auto& [threads, capacity] :
       {std::pair<std::size_t, std::size_t>{2, 1},
        std::pair<std::size_t, std::size_t>{4, 8},
        std::pair<std::size_t, std::size_t>{8, 64}}) {
    stream::StreamingOptions opts = base;
    opts.threads = threads;
    opts.queueCapacity = capacity;
    const stream::StreamingRunResult run =
        stream::EstimateSeriesStreaming(setup.routing, setup.truth, opts);
    identicalAcrossConfigs =
        identicalAcrossConfigs &&
        BitIdentical(serial.estimates, run.estimates) &&
        BitIdentical(serial.priors, run.priors);
  }

  // The batch engine on the streaming-derived priors must reproduce
  // the streaming estimates exactly — same augmented system, same
  // per-bin solver, different orchestration.
  core::EstimationOptions batchOpts;
  batchOpts.threads = 2;
  const std::uint64_t t1 = obs::Now();
  const auto batch = core::EstimateSeries(setup.routing, setup.truth,
                                          serial.priors, batchOpts);
  const double batchSec = obs::ElapsedSeconds(t1);
  const bool matchesBatch = BitIdentical(batch, serial.estimates);

  const auto errEst =
      core::RelL2TemporalSeries(setup.truth, serial.estimates);
  const auto errPrior =
      core::RelL2TemporalSeries(setup.truth, serial.priors);

  char buf[160];
  std::snprintf(buf, sizeof buf,
                "streaming (1 thread): %.3f s, batch reference: %.3f s "
                "over %zu bins\n",
                serialSec, batchSec, setup.truth.binCount());
  notes += buf;

  json::Object body;
  body.set("nodes", n);
  body.set("links", setup.graph.linkCount());
  body.set("bins", setup.truth.binCount());
  body.set("window", window);
  body.set("bit_identical_across_thread_queue_configs",
           identicalAcrossConfigs);
  body.set("streaming_matches_batch_bit_for_bit", matchesBatch);
  body.set("est_err_summary", SummaryJson(errEst));
  body.set("prior_err_summary", SummaryJson(errPrior));
  body.set("improvement_pct_mean",
           core::Mean(core::PercentImprovementSeries(errPrior, errEst)));
  body.set("pass", identicalAcrossConfigs && matchesBatch &&
                       AllFinite(errEst));
  return json::Value(std::move(body));
}

json::Value RunStreamScale(const ScenarioContext& ctx,
                           std::string& notes) {
  const StreamSetup setup(ctx, 78, 504);
  const std::size_t bins = setup.truth.binCount();
  const std::size_t window = ctx.tiny ? 8 : 96;

  // Worker-pool throughput at 1 vs 4 threads (timings → notes only).
  stream::StreamingOptions opts;
  opts.f = 0.25;
  opts.window = window;
  traffic::TrafficMatrixSeries first(setup.truth.nodeCount(), bins,
                                     300.0);
  bool identical = true;
  double sec1 = 0.0, sec4 = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    opts.threads = threads;
    const std::uint64_t t0 = obs::Now();
    const stream::StreamingRunResult run =
        stream::EstimateSeriesStreaming(setup.routing, setup.truth, opts);
    const double sec = obs::ElapsedSeconds(t0);
    (threads == 1 ? sec1 : sec4) = sec;
    if (threads == 1) {
      first = run.estimates;
    } else {
      identical = identical && BitIdentical(first, run.estimates);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "StreamingEstimator: %zu thread(s): %.3f s "
                  "(%.0f bins/s)\n",
                  threads, sec, sec > 0.0 ? double(bins) / sec : 0.0);
    notes += buf;
  }
  if (sec4 > 0.0) {
    char buf[80];
    std::snprintf(buf, sizeof buf, "worker-pool speedup: %.2fx\n",
                  sec1 / sec4);
    notes += buf;
  }

  // Binary trace reads vs CSV parsing on the same series (sizes are
  // deterministic facts; timings go to notes).  The directory is
  // per-process and RAII-cleaned so concurrent invocations cannot
  // clobber each other and failures do not leak files.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("ictm_stream_scale_") +
       (ctx.tiny ? "tiny_" : "full_") + std::to_string(getpid()));
  struct DirGuard {
    fs::path path;
    ~DirGuard() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } guard{dir};
  fs::create_directories(dir);
  const std::string csvPath = (dir / "series.csv").string();
  const std::string tracePath = (dir / "series.ictmb").string();
  traffic::WriteCsvFile(csvPath, setup.truth);
  stream::WriteTraceFile(tracePath, setup.truth);

  std::uint64_t t0 = obs::Now();
  const auto fromCsv = traffic::ReadCsvFile(csvPath);
  const double csvSec = obs::ElapsedSeconds(t0);
  t0 = obs::Now();
  const auto fromTrace = stream::ReadTraceFile(tracePath);
  const double traceSec = obs::ElapsedSeconds(t0);
  const bool formatsAgree = BitIdentical(fromCsv, fromTrace) &&
                            BitIdentical(fromCsv, setup.truth);
  const auto csvBytes = fs::file_size(csvPath);
  const auto traceBytes = fs::file_size(tracePath);
  {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "trace read: CSV %.4f s vs binary %.4f s "
                  "(%.1fx faster; %zu vs %zu bytes)\n",
                  csvSec, traceSec,
                  traceSec > 0.0 ? csvSec / traceSec : 0.0,
                  static_cast<std::size_t>(csvBytes),
                  static_cast<std::size_t>(traceBytes));
    notes += buf;
  }

  json::Object body;
  body.set("nodes", setup.truth.nodeCount());
  body.set("bins", bins);
  body.set("window", window);
  body.set("threads_compared",
           json::Array{json::Value(std::size_t{1}),
                       json::Value(std::size_t{4})});
  body.set("bit_identical_across_threads", identical);
  body.set("formats_agree_bit_for_bit", formatsAgree);
  body.set("csv_bytes", static_cast<std::size_t>(csvBytes));
  body.set("trace_bytes", static_cast<std::size_t>(traceBytes));
  body.set("pass", identical && formatsAgree);
  return json::Value(std::move(body));
}

}  // namespace

std::vector<Builtin> StreamScenarios() {
  return {
      {{"stream_equivalence", "repo",
        "streaming vs batch estimation: bit-for-bit equivalence",
        "StreamingEstimator (queue + worker pool + reorder buffer) "
        "produces estimates bit-identical to the batch EstimateSeries "
        "on the same priors, for every thread count and queue capacity"},
       RunStreamEquivalence},
      {{"stream_scale", "repo",
        "streaming throughput: worker-pool scaling and binary trace I/O",
        "the online estimator scales with workers at unchanged results, "
        "and ictmb binary trace reads beat CSV parsing by a wide margin"},
       RunStreamScale},
  };
}

}  // namespace ictm::scenario::detail
