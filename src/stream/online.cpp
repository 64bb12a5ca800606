#include "stream/online.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/ic_model.hpp"
#include "core/priors.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"
#include "obs/trace.hpp"
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

struct QueueItem {
  std::size_t seq = 0;
  BinEvent event;
  PriorModel model;
  // Enqueue timestamp for the queue-wait metric; 0 when metrics are
  // disabled (obs::Now() is monotonic-since-boot, never 0 live).
  std::uint64_t enqueueNs = 0;
};

struct PendingResult {
  std::vector<double> estimate;
  std::vector<double> prior;
};

}  // namespace

struct StreamingEstimator::Impl {
  std::shared_ptr<const core::AugmentedTmSystem> system;
  StreamingOptions options;
  EstimateCallback callback;
  std::size_t n = 0;

  // Producer-side state (touched only inside push, which serialises
  // under queueMutex): window accumulators and the current snapshot.
  PriorModel currentModel;
  linalg::Vector windowIngress, windowEgress;
  std::size_t windowFill = 0;

  // Bounded queue.
  std::mutex queueMutex;
  std::condition_variable notFull, notEmpty;
  std::deque<QueueItem> queue;
  bool finished = false;

  // Reorder buffer: results enter keyed by sequence number and leave
  // strictly in order through the callback.
  std::mutex emitMutex;
  std::map<std::size_t, PendingResult> pending;
  std::size_t nextEmit = 0;

  // First worker failure; failed unblocks every waiter.
  std::mutex errorMutex;
  std::exception_ptr firstError;
  std::atomic<bool> failed{false};

  std::atomic<std::size_t> pushed{0};
  std::atomic<std::size_t> emitted{0};
  std::vector<std::thread> workers;
  bool joined = false;

  Impl(std::shared_ptr<const core::AugmentedTmSystem> sys,
       StreamingOptions opts, EstimateCallback cb)
      : system(std::move(sys)),
        options(std::move(opts)),
        callback(std::move(cb)),
        n(system->nodeCount()) {}

  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!firstError) firstError = e;
    }
    // `failed` must flip under queueMutex: both condvars wait on
    // predicates that read it, and a store+notify outside the mutex
    // can land between a waiter's predicate check and its block —
    // the wakeup is lost and push()/workerLoop wait forever on a
    // failure that already happened (found in the PR-6 TSan audit;
    // regression-tested by StreamingEstimator.WorkerFailurePropagates).
    {
      std::lock_guard<std::mutex> lock(queueMutex);
      failed.store(true);
    }
    notFull.notify_all();
    notEmpty.notify_all();
  }

  void workerLoop() {
    // Stage metrics (docs/ARCHITECTURE.md "Observability").  Timing
    // metrics depend on scheduling; the counters are deterministic
    // (bins emitted == bins pushed for any thread count).
    static obs::Counter& binsEmitted = obs::GetCounter(
        "stream.bins_emitted", obs::MetricClass::kDeterministic);
    static obs::Counter& workerIdleNs =
        obs::GetCounter("stream.worker_idle_ns", obs::MetricClass::kTiming);
    static obs::Counter& workerBusyNs =
        obs::GetCounter("stream.worker_busy_ns", obs::MetricClass::kTiming);
    static obs::Histogram& queueWaitNs =
        obs::GetHistogram("stream.queue_wait_ns", obs::MetricClass::kTiming,
                          obs::LatencyBoundsNs());
    static obs::Histogram& solveNs =
        obs::GetHistogram("stream.solve_ns", obs::MetricClass::kTiming,
                          obs::LatencyBoundsNs());
    static obs::Histogram& reorderOccupancy = obs::GetHistogram(
        "stream.reorder_occupancy", obs::MetricClass::kTiming,
        obs::ExponentialBounds(1.0, 2.0, 10));
    static obs::Gauge& reorderMax = obs::GetGauge(
        "stream.reorder_pending", obs::MetricClass::kTiming);
    try {
      core::TmBinSolver solver(*system, options.estimation);
      std::vector<double> prior(n * n), estimate(n * n), activity(n);
      for (;;) {
        QueueItem item;
        {
          std::unique_lock<std::mutex> lock(queueMutex);
          const bool recording = obs::Enabled();
          const std::uint64_t idleStart = recording ? obs::Now() : 0;
          notEmpty.wait(lock, [&] {
            return !queue.empty() || finished || failed.load();
          });
          if (recording) workerIdleNs.add(obs::Now() - idleStart);
          if (failed.load()) return;
          if (queue.empty()) return;  // finished and drained
          item = std::move(queue.front());
          queue.pop_front();
        }
        notFull.notify_one();
        if (item.enqueueNs != 0) {
          queueWaitNs.record(
              static_cast<double>(obs::Now() - item.enqueueNs));
        }

        {
          obs::TraceScope traceSolve("solve", "stream");
          const bool recording = obs::Enabled();
          const std::uint64_t solveStart = recording ? obs::Now() : 0;
          item.model->PriorBin(item.event.ingress.data(),
                               item.event.egress.data(), activity.data(),
                               prior.data());
          solver.Solve(item.event.linkLoads.data(), prior.data(),
                       item.event.ingress.data(), item.event.egress.data(),
                       estimate.data());
          if (recording) {
            const std::uint64_t busy = obs::Now() - solveStart;
            solveNs.record(static_cast<double>(busy));
            workerBusyNs.add(busy);
          }
        }

        std::lock_guard<std::mutex> lock(emitMutex);
        pending.emplace(item.seq, PendingResult{estimate, prior});
        reorderOccupancy.record(static_cast<double>(pending.size()));
        reorderMax.recordMax(static_cast<std::int64_t>(pending.size()));
        while (!pending.empty() &&
               pending.begin()->first == nextEmit) {
          const PendingResult& r = pending.begin()->second;
          callback(nextEmit, r.estimate.data(), r.prior.data());
          pending.erase(pending.begin());
          ++nextEmit;
          emitted.fetch_add(1);
          binsEmitted.add();
        }
      }
    } catch (...) {
      fail(std::current_exception());
    }
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
    impl_->nextEmit = seq;
  } else {
    impl_->currentModel =
        std::make_shared<const core::StableFPKernel>(opts.f, opts.preference);
    impl_->windowIngress.assign(nodes, 0.0);
    impl_->windowEgress.assign(nodes, 0.0);
  }

  const std::size_t workers = ResolveThreadCount(opts.threads);
  impl_->workers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    impl_->workers.emplace_back([this] { impl_->workerLoop(); });
  }
}

StreamingEstimator::~StreamingEstimator() {
  if (impl_->joined) return;
  try {
    finish();
  } catch (...) {
    // Destructor fallback only; call finish() to observe failures.
  }
}

void StreamingEstimator::push(BinEvent event) {
  static obs::Counter& binsPushed = obs::GetCounter(
      "stream.bins_pushed", obs::MetricClass::kDeterministic);
  static obs::Counter& windowRefits = obs::GetCounter(
      "stream.window_refits", obs::MetricClass::kDeterministic);
  static obs::Counter& queueFullStalls = obs::GetCounter(
      "stream.queue_full_stalls", obs::MetricClass::kTiming);
  static obs::Histogram& pushWaitNs =
      obs::GetHistogram("stream.push_wait_ns", obs::MetricClass::kTiming,
                        obs::LatencyBoundsNs());
  obs::TraceScope tracePush("push", "stream");
  Impl& im = *impl_;
  ICTM_REQUIRE(event.linkLoads.size() == im.system->linkCount(),
               "link load length mismatch");
  ICTM_REQUIRE(event.ingress.size() == im.n && event.egress.size() == im.n,
               "marginal length mismatch");

  QueueItem item;
  item.event = std::move(event);

  {
    std::unique_lock<std::mutex> lock(im.queueMutex);
    ICTM_REQUIRE(!im.finished, "push after finish");
    // Sequence-stamp and snapshot the prior model under the queue lock
    // so concurrent producers still observe one global arrival order.
    item.seq = im.pushed.fetch_add(1);
    item.model = im.currentModel;
    binsPushed.add();

    // Window accounting: the bin completing a window still uses the
    // old model; bins after it use the re-fitted one.
    if (im.options.window > 0) {
      for (std::size_t i = 0; i < im.n; ++i) {
        im.windowIngress[i] += item.event.ingress[i];
        im.windowEgress[i] += item.event.egress[i];
      }
      if (++im.windowFill == im.options.window) {
        // Stable-f closed forms on the window-aggregated marginals
        // (preference is scale-invariant, so sums work as means);
        // yesterday's f is kept, per the paper's stability result.
        const core::StableFEstimates est =
            core::EstimateStableFParameters(
                im.options.f, im.windowIngress, im.windowEgress);
        im.currentModel = std::make_shared<const core::StableFPKernel>(
            im.options.f, est.preference);
        im.windowIngress.assign(im.n, 0.0);
        im.windowEgress.assign(im.n, 0.0);
        im.windowFill = 0;
        windowRefits.add();
      }
    }

    const bool recording = obs::Enabled();
    if (recording && im.queue.size() >= im.options.queueCapacity) {
      queueFullStalls.add();
    }
    const std::uint64_t waitStart = recording ? obs::Now() : 0;
    im.notFull.wait(lock, [&] {
      return im.queue.size() < im.options.queueCapacity ||
             im.failed.load();
    });
    if (recording) {
      pushWaitNs.record(static_cast<double>(obs::Now() - waitStart));
      item.enqueueNs = obs::Now();
    }
    if (!im.failed.load()) {
      im.queue.push_back(std::move(item));
    }
  }
  im.notEmpty.notify_one();
  if (im.failed.load()) finish();  // rethrows the worker error
}

void StreamingEstimator::finish() {
  Impl& im = *impl_;
  if (!im.joined) {
    {
      std::lock_guard<std::mutex> lock(im.queueMutex);
      im.finished = true;
    }
    im.notEmpty.notify_all();
    for (std::thread& t : im.workers) t.join();
    im.joined = true;
  }
  {
    std::lock_guard<std::mutex> lock(im.errorMutex);
    if (im.firstError) std::rethrow_exception(im.firstError);
  }
  ICTM_REQUIRE(im.emitted.load() == im.pushed.load(),
               "streaming estimator lost bins");
}

std::size_t StreamingEstimator::pushedCount() const noexcept {
  return impl_->pushed.load();
}

StreamingCheckpoint StreamingEstimator::checkpoint() const {
  Impl& im = *impl_;
  // The producer-side state is only written inside push() under
  // queueMutex; taking the same lock gives a consistent snapshot at
  // the current push boundary.
  std::lock_guard<std::mutex> lock(im.queueMutex);
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
