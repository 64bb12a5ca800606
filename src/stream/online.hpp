// Online TM estimation from a live stream of link-load measurements.
//
// The paper's operational premise (Sec. 6.2): IC parameters are stable
// week to week, so an operator keeps yesterday's fitted (f, P) and
// turns today's SNMP readings into TM estimates as they arrive.
// StreamingEstimator implements that loop with bounded memory:
//
//   push(event) ──▶ bounded MPMC queue ──▶ worker pool ──▶ reorder
//                                                          buffer ──▶
//                                              callback (arrival order)
//
// Per event the worker builds the stable-fP IC prior from the event's
// ingress/egress marginals (Eqs. 7-9) with core::StableFPKernel — the
// same per-bin closed form core::StableFPPrior runs, O(n) for the
// activities and O(n²) for the clamped TM — and refines it against
// the link loads with the shared core::TmBinSolver; the augmented
// system is compressed once at construction.  Every `window` bins the
// preference vector is re-fitted from the window's aggregated
// marginals via the stable-f closed forms (Eqs. 11-12), an O(n) step,
// so the prior tracks slow preference drift; f stays at yesterday's
// value, per the paper's stability result.
//
// Determinism contract: the sequence of (prior, estimate) pairs is a
// pure function of the pushed event sequence — the window re-fit
// happens serially inside push() and each event carries an immutable
// snapshot of its prior model (the kernel built from the un-normalised
// preference), so results are bit-identical for every thread count
// and queue capacity, and identical to the batch EstimateSeries run
// on the same priors (regression-tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/estimation.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::stream {

/// One time bin's measurements as an operator sees them: SNMP link
/// byte counters plus the access-link ingress/egress marginals.
struct BinEvent {
  std::vector<double> linkLoads;  ///< length = routing rows
  std::vector<double> ingress;    ///< length n, X_i*
  std::vector<double> egress;     ///< length n, X_*j
};

/// Producer-side state of a streaming run at a bin boundary: enough
/// to rebuild the prior model and window accumulators so a new
/// StreamingEstimator resumed from it reproduces bins [seq, ...)
/// bit for bit (the state is a pure function of the pushed prefix,
/// and every estimate is a pure function of the state plus its bin).
/// Captured by StreamingEstimator::checkpoint(); persisted by the
/// estimation server's checkpoint store (server/checkpoint.hpp).
struct StreamingCheckpoint {
  std::uint64_t seq = 0;         ///< bins pushed when captured
  linalg::Vector preference;     ///< preference of the active prior model
  linalg::Vector windowIngress;  ///< window ingress-marginal accumulator
  linalg::Vector windowEgress;   ///< window egress-marginal accumulator
  std::size_t windowFill = 0;    ///< bins accumulated into the window
};

/// Configuration of the streaming estimator.
struct StreamingOptions {
  /// Worker threads consuming the queue (0 = all hardware threads).
  std::size_t threads = 1;
  /// Bounded queue capacity; push() blocks when it is full.
  std::size_t queueCapacity = 64;
  /// Re-fit the preference vector every `window` bins from the
  /// window's aggregated marginals (stable-f closed forms).  0 keeps
  /// the initial fit for the whole stream.
  std::size_t window = 0;
  /// Yesterday's fitted forward fraction.
  double f = 0.25;
  /// Yesterday's fitted preference vector (length n; normalised
  /// internally).  Empty = uniform.  Construction throws ictm::Error
  /// on a non-finite or negative entry or an all-zero vector.
  linalg::Vector preference;
  /// Inner solver knobs; `estimation.threads` is ignored (the worker
  /// pool replaces the per-series fan-out).
  core::EstimationOptions estimation;
  /// Resume from a captured checkpoint instead of bin 0: sequence
  /// numbers continue at `resume->seq`, the prior model is rebuilt
  /// from the checkpointed preference (bit-identical to the model the
  /// original run held at that boundary), and `preference`/`f` above
  /// still describe the *initial* model the checkpoint descends from.
  std::optional<StreamingCheckpoint> resume;
};

/// Consumes bin events and emits TM estimates in arrival order.
class StreamingEstimator {
 public:
  /// Called once per bin, in push order: `seq` counts from 0,
  /// `estimate` and `prior` are n² doubles (FlattenTm order) valid for
  /// the duration of the call.  Invoked under the emit lock — keep it
  /// cheap and never call back into push() from it.
  using EstimateCallback = std::function<void(
      std::size_t seq, const double* estimate, const double* prior)>;

  /// Compresses the augmented system and starts the worker pool.
  StreamingEstimator(const linalg::CsrMatrix& routing, std::size_t nodes,
                     StreamingOptions options, EstimateCallback onEstimate);
  /// Same, but over a caller-shared augmented system (which the
  /// estimator keeps alive), so many estimators on the same topology
  /// pay the compression and the backends' per-system setup once —
  /// the estimation server's per-topology state cache feeds this.
  StreamingEstimator(std::shared_ptr<const core::AugmentedTmSystem> system,
                     StreamingOptions options, EstimateCallback onEstimate);
  /// Drains and joins (finish() fallback; errors are swallowed — call
  /// finish() explicitly to observe them).
  ~StreamingEstimator();

  StreamingEstimator(const StreamingEstimator&) = delete;  ///< non-copyable
  StreamingEstimator& operator=(const StreamingEstimator&) =
      delete;  ///< non-copyable

  /// Enqueues one bin; blocks while the queue is full.  Events are
  /// sequence-stamped in push order.  Throws when a worker has failed
  /// or finish() was already called.
  void push(BinEvent event);

  /// Signals end-of-stream, waits for every queued bin to be emitted
  /// and joins the workers.  Rethrows the first worker exception.
  void finish();

  /// Bins pushed so far.
  std::size_t pushedCount() const noexcept;
  /// Bins already handed to the callback.
  std::size_t emittedCount() const noexcept;

  /// Captures the producer-side state at the current push boundary
  /// (`seq` = pushedCount()).  Call between pushes from the producer
  /// thread; a StreamingEstimator constructed with the returned state
  /// in `StreamingOptions::resume` and fed the same bins from `seq`
  /// onward emits bit-identical (estimate, prior) pairs.
  StreamingCheckpoint checkpoint() const;

 private:
  void initialize();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Builds the bin event for one truth bin: link loads via the routing
/// matrix (simulated SNMP) plus the ingress/egress marginals, using
/// the exact summation order of core::EstimateSeries so downstream
/// estimates are comparable bit for bit.
BinEvent MakeBinEvent(const linalg::CsrMatrix& routing, std::size_t nodes,
                      const double* truthBin);

/// Result of a convenience streaming run: the estimates plus the
/// priors the estimator derived (feeding these priors to the batch
/// core::EstimateSeries reproduces `estimates` bit for bit).
struct StreamingRunResult {
  traffic::TrafficMatrixSeries estimates;  ///< emitted TM estimates
  traffic::TrafficMatrixSeries priors;     ///< the IC priors used per bin
};

/// Streams a truth series through a StreamingEstimator (simulated
/// SNMP per bin) and collects the outputs in order.
StreamingRunResult EstimateSeriesStreaming(
    const linalg::CsrMatrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const StreamingOptions& options);

}  // namespace ictm::stream
