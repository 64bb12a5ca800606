#include "stream/online.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/ic_model.hpp"
#include "core/priors.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"
#include "obs/trace.hpp"
#include "stream/ordered_pool.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::stream {

namespace {

// An event's prior model is an immutable O(n) core::StableFPKernel
// snapshot (yesterday's f plus the window's un-normalised preference)
// shared by every event of one window generation.  Workers only read
// it; push() swaps in a new snapshot at window boundaries, so an
// event's prior is fixed at push time — the root of the
// thread-count/queue-capacity determinism contract.
using PriorModel = std::shared_ptr<const core::StableFPKernel>;

struct BinJob {
  BinEvent event;
  PriorModel model;
};

struct BinResult {
  std::vector<double> estimate;
  std::vector<double> prior;
};

// Throws unless every value of one measurement field is finite and
// non-negative, naming the bin, the field and the first bad index.
void RequireMeasurements(std::size_t seq, const char* field,
                         const std::vector<double>& values) {
  for (std::size_t k = 0; k < values.size(); ++k) {
    const double v = values[k];
    if (std::isfinite(v) && v >= 0.0) continue;
    const char* cause =
        std::isnan(v) ? "NaN" : std::isinf(v) ? "infinite" : "negative";
    throw Error("bin " + std::to_string(seq) + ": " + field + " " +
                std::to_string(k) + " is " + cause +
                "; measurements must be finite and non-negative");
  }
}

}  // namespace

struct StreamingEstimator::Impl {
  std::shared_ptr<const core::AugmentedTmSystem> system;
  StreamingOptions options;
  EstimateCallback callback;
  std::size_t n = 0;
  std::size_t firstSeq = 0;  // resume offset of the pool's sequence numbers

  // Producer-side state, written only inside push() under
  // producerMutex.  push() holds it across the pool's push, so the
  // pool's sequence stamps follow the order of the model snapshots and
  // window refits even with concurrent producers.
  std::mutex producerMutex;
  PriorModel currentModel;
  linalg::Vector windowIngress, windowEgress;
  std::size_t windowFill = 0;

  std::atomic<std::size_t> pushed{0};
  std::atomic<std::size_t> emitted{0};
  // Last member: its destructor drains and joins the workers while the
  // state above is still alive.
  std::unique_ptr<OrderedPool<BinJob, BinResult>> pool;

  Impl(std::shared_ptr<const core::AugmentedTmSystem> sys,
       StreamingOptions opts, EstimateCallback cb)
      : system(std::move(sys)),
        options(std::move(opts)),
        callback(std::move(cb)),
        n(system->nodeCount()) {}

  // One worker's solve function; it owns the thread's TmBinSolver and
  // activity scratch.
  auto makeWorker() {
    return [this, solver = core::TmBinSolver(*system, options.estimation),
            activity = std::vector<double>(n)](const BinJob& job) mutable {
      // Timing metrics depend on scheduling (docs/ARCHITECTURE.md
      // "Observability").
      static obs::Counter& workerBusyNs =
          obs::GetCounter("stream.worker_busy_ns", obs::MetricClass::kTiming);
      static obs::Histogram& solveNs =
          obs::GetHistogram("stream.solve_ns", obs::MetricClass::kTiming,
                            obs::LatencyBoundsNs());
      BinResult result{std::vector<double>(n * n), std::vector<double>(n * n)};
      obs::TraceScope traceSolve("solve", "stream");
      const bool recording = obs::Enabled();
      const std::uint64_t solveStart = recording ? obs::Now() : 0;
      job.model->PriorBin(job.event.ingress.data(), job.event.egress.data(),
                          activity.data(), result.prior.data());
      solver.Solve(job.event.linkLoads.data(), result.prior.data(),
                   job.event.ingress.data(), job.event.egress.data(),
                   result.estimate.data());
      if (recording) {
        const std::uint64_t busy = obs::Now() - solveStart;
        solveNs.record(static_cast<double>(busy));
        workerBusyNs.add(busy);
      }
      return result;
    };
  }

  void emit(std::size_t seq, const BinResult& result) {
    // Deterministic: bins emitted == bins pushed for any thread count.
    static obs::Counter& binsEmitted = obs::GetCounter(
        "stream.bins_emitted", obs::MetricClass::kDeterministic);
    callback(firstSeq + seq, result.estimate.data(), result.prior.data());
    emitted.fetch_add(1);
    binsEmitted.add();
  }
};

StreamingEstimator::StreamingEstimator(const linalg::CsrMatrix& routing,
                                       std::size_t nodes,
                                       StreamingOptions options,
                                       EstimateCallback onEstimate) {
  // The flag is read before `options` is moved into the Impl.
  auto system = std::make_shared<core::AugmentedTmSystem>(
      routing, nodes, options.estimation.useMarginalConstraints);
  impl_ = std::make_unique<Impl>(std::move(system), std::move(options),
                                 std::move(onEstimate));
  initialize();
}

StreamingEstimator::StreamingEstimator(
    std::shared_ptr<const core::AugmentedTmSystem> system,
    StreamingOptions options, EstimateCallback onEstimate) {
  ICTM_REQUIRE(system != nullptr, "augmented system is null");
  impl_ = std::make_unique<Impl>(std::move(system), std::move(options),
                                 std::move(onEstimate));
  initialize();
}

void StreamingEstimator::initialize() {
  StreamingOptions& opts = impl_->options;
  const std::size_t nodes = impl_->n;
  ICTM_REQUIRE(impl_->callback != nullptr, "estimate callback is null");
  ICTM_REQUIRE(opts.queueCapacity > 0, "queue capacity must be positive");
  ICTM_REQUIRE(opts.f > 0.0 && opts.f < 1.0, "f must be in (0, 1)");
  if (opts.window > 0) {
    // The window re-fit uses the stable-f closed forms, which lose
    // rank at f = 1/2.
    ICTM_REQUIRE(std::fabs(2.0 * opts.f - 1.0) > 1e-6,
                 "window re-fit requires f away from 1/2");
  }
  if (opts.preference.empty()) {
    opts.preference.assign(nodes, 1.0 / static_cast<double>(nodes));
  }
  ICTM_REQUIRE(opts.preference.size() == nodes,
               "preference length mismatch");

  if (opts.resume) {
    // Resume mid-stream: rebuild the prior model the original run held
    // at the checkpoint boundary (normalising the same un-normalised
    // preference is deterministic, so the rebuilt kernel is
    // bit-identical) and continue sequence numbering where the
    // checkpoint left off.
    const StreamingCheckpoint& cp = *opts.resume;
    ICTM_REQUIRE(cp.preference.size() == nodes,
                 "checkpoint preference length mismatch");
    ICTM_REQUIRE(cp.windowIngress.size() == nodes &&
                     cp.windowEgress.size() == nodes,
                 "checkpoint window accumulator length mismatch");
    ICTM_REQUIRE(opts.window == 0 || cp.windowFill < opts.window,
                 "checkpoint window fill exceeds the window");
    impl_->currentModel =
        std::make_shared<const core::StableFPKernel>(opts.f, cp.preference);
    impl_->windowIngress = cp.windowIngress;
    impl_->windowEgress = cp.windowEgress;
    impl_->windowFill = cp.windowFill;
    const auto seq = static_cast<std::size_t>(cp.seq);
    impl_->pushed.store(seq);
    impl_->emitted.store(seq);
    impl_->firstSeq = seq;
  } else {
    impl_->currentModel =
        std::make_shared<const core::StableFPKernel>(opts.f, opts.preference);
    impl_->windowIngress.assign(nodes, 0.0);
    impl_->windowEgress.assign(nodes, 0.0);
  }

  Impl* im = impl_.get();
  im->pool = std::make_unique<OrderedPool<BinJob, BinResult>>(
      ResolveThreadCount(opts.threads), opts.queueCapacity, "stream",
      [im] { return im->makeWorker(); },
      [im](std::size_t seq, BinResult&& result) { im->emit(seq, result); });
}

StreamingEstimator::~StreamingEstimator() = default;

void StreamingEstimator::push(BinEvent event) {
  static obs::Counter& binsPushed = obs::GetCounter(
      "stream.bins_pushed", obs::MetricClass::kDeterministic);
  static obs::Counter& windowRefits = obs::GetCounter(
      "stream.window_refits", obs::MetricClass::kDeterministic);
  obs::TraceScope tracePush("push", "stream");
  Impl& im = *impl_;
  ICTM_REQUIRE(event.linkLoads.size() == im.system->linkCount(),
               "link load length mismatch");
  ICTM_REQUIRE(event.ingress.size() == im.n && event.egress.size() == im.n,
               "marginal length mismatch");

  std::lock_guard<std::mutex> lock(im.producerMutex);
  // Refused before the window accumulators see it, so the stream can
  // still finish() the bins pushed before it.
  const std::size_t seq = im.pushed.load();
  RequireMeasurements(seq, "link load", event.linkLoads);
  RequireMeasurements(seq, "ingress", event.ingress);
  RequireMeasurements(seq, "egress", event.egress);
  BinJob job{std::move(event), im.currentModel};

  // Window accounting: the bin completing a window still uses the old
  // model; bins after it use the re-fitted one.
  if (im.options.window > 0) {
    for (std::size_t i = 0; i < im.n; ++i) {
      im.windowIngress[i] += job.event.ingress[i];
      im.windowEgress[i] += job.event.egress[i];
    }
    if (++im.windowFill == im.options.window) {
      // Stable-f closed forms on the window-aggregated marginals
      // (preference is scale-invariant, so sums work as means);
      // yesterday's f is kept, per the paper's stability result.
      const core::StableFEstimates est = core::EstimateStableFParameters(
          im.options.f, im.windowIngress, im.windowEgress);
      im.currentModel = std::make_shared<const core::StableFPKernel>(
          im.options.f, est.preference);
      im.windowIngress.assign(im.n, 0.0);
      im.windowEgress.assign(im.n, 0.0);
      im.windowFill = 0;
      windowRefits.add();
    }
  }

  im.pool->push(std::move(job));
  im.pushed.fetch_add(1);
  binsPushed.add();
}

void StreamingEstimator::finish() {
  Impl& im = *impl_;
  im.pool->finish();
  ICTM_REQUIRE(im.emitted.load() == im.pushed.load(),
               "streaming estimator lost bins");
}

std::size_t StreamingEstimator::pushedCount() const noexcept {
  return impl_->pushed.load();
}

StreamingCheckpoint StreamingEstimator::checkpoint() const {
  Impl& im = *impl_;
  // The producer-side state is only written inside push() under
  // producerMutex; taking the same lock gives a consistent snapshot at
  // the current push boundary.
  std::lock_guard<std::mutex> lock(im.producerMutex);
  StreamingCheckpoint cp;
  cp.seq = im.pushed.load();
  cp.preference = im.currentModel->preference();
  cp.windowIngress = im.windowIngress;
  cp.windowEgress = im.windowEgress;
  cp.windowFill = im.windowFill;
  return cp;
}

std::size_t StreamingEstimator::emittedCount() const noexcept {
  return impl_->emitted.load();
}

BinEvent MakeBinEvent(const linalg::CsrMatrix& routing, std::size_t nodes,
                      const double* truthBin) {
  BinEvent event;
  event.linkLoads.resize(routing.rows());
  routing.MultiplyInto(truthBin, event.linkLoads.data());
  event.ingress.assign(nodes, 0.0);
  event.egress.assign(nodes, 0.0);
  // Same accumulation order as core::EstimateSeries, for bit-equal
  // downstream comparisons.
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < nodes; ++j) {
      const double v = truthBin[i * nodes + j];
      event.ingress[i] += v;
      event.egress[j] += v;
    }
  }
  return event;
}

StreamingRunResult EstimateSeriesStreaming(
    const linalg::CsrMatrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const StreamingOptions& options) {
  const std::size_t n = truth.nodeCount();
  const std::size_t bins = truth.binCount();
  ICTM_REQUIRE(bins > 0, "empty truth series");
  StreamingRunResult result{
      traffic::TrafficMatrixSeries(n, bins, truth.binSeconds()),
      traffic::TrafficMatrixSeries(n, bins, truth.binSeconds())};

  StreamingEstimator estimator(
      routing, n, options,
      [&](std::size_t seq, const double* estimate, const double* prior) {
        std::copy(estimate, estimate + n * n, result.estimates.binData(seq));
        std::copy(prior, prior + n * n, result.priors.binData(seq));
      });
  for (std::size_t t = 0; t < bins; ++t) {
    estimator.push(MakeBinEvent(routing, n, truth.binData(t)));
  }
  estimator.finish();
  return result;
}

}  // namespace ictm::stream
