// Bounded, order-preserving parallel map: the one queue, worker pool
// and reorder buffer of the streaming subsystem.  StreamingEstimator
// runs its per-bin solves on it and TraceWriter its chunk encoders.
//
//   push(job) ──▶ bounded FIFO ──▶ worker threads ──▶ reorder buffer ──▶ emit
//                 (≤ capacity)     (work per job)     (≤ capacity +      (push
//                                                      workers parked)   order)
//
// Memory is bounded on both sides.  push() blocks while `capacity`
// jobs wait, and a worker whose result is `capacity + workers` or more
// sequence numbers ahead of the next emission waits before parking
// it.  The bound cannot deadlock: jobs leave the FIFO in push order,
// so the worker holding the next job to emit is never ahead and never
// waits.
//
// emit(seq, result) runs on the thread that completes the next
// sequence number, strictly in push order and one call at a time;
// each call is ordered before the next by the pool mutex, so emit
// needs no lock of its own.  The first exception from work or emit is
// latched and every waiter wakes; push() and finish() rethrow it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"
#include "obs/trace.hpp"

namespace ictm::stream {

/// Runs `work` over pushed jobs on a fixed set of threads and hands the
/// results to `emit` in push order, with bounded queued and parked
/// memory.  Internal to src/stream/.
template <typename Job, typename Result>
class OrderedPool {
 public:
  /// Receives each result in push order, one call at a time.
  using Emit = std::function<void(std::size_t seq, Result&& result)>;

  /// Starts `workers` threads.  Each calls `makeWork()` once, on its
  /// own thread, for a callable `Result(Job)` that owns that thread's
  /// state (one solver, scratch buffers).  Queue and reorder metrics,
  /// all timing class, are recorded as `<metricPrefix>.<name>`; the
  /// push and idle waits are traced as `push_wait` and `worker_idle`.
  template <typename MakeWork>
  OrderedPool(std::size_t workers, std::size_t capacity,
              const std::string& metricPrefix, MakeWork makeWork, Emit emit)
      : capacity_(capacity),
        bound_(capacity + workers),
        emit_(std::move(emit)),
        metrics_(metricPrefix) {
    ICTM_REQUIRE(workers > 0 && capacity > 0,
                 "ordered pool needs a worker and a queue slot");
    threads_.reserve(workers);
    try {
      for (std::size_t w = 0; w < workers; ++w) {
        threads_.emplace_back([this, makeWork] { run(makeWork); });
      }
    } catch (...) {
      join();  // a thread failed to start; never unwind past joinable ones
      throw;
    }
  }

  /// Drains and joins without throwing; call finish() to observe
  /// failures.
  ~OrderedPool() { join(); }

  OrderedPool(const OrderedPool&) = delete;             ///< non-copyable
  OrderedPool& operator=(const OrderedPool&) = delete;  ///< non-copyable

  /// Stamps `job` with the next sequence number (0, 1, 2, …) and
  /// queues it; blocks while `capacity` jobs wait.  Throws after
  /// finish() and rethrows the first work or emit failure.
  void push(Job job) {
    std::unique_lock<std::mutex> lock(mutex_);
    ICTM_REQUIRE(!closed_, "push after finish");
    if (queue_.size() >= capacity_) metrics_.queueFullStalls.add();
    {
      obs::Span span("push_wait", "pool", nullptr, &metrics_.pushWaitNs);
      space_.wait(lock, [&] { return queue_.size() < capacity_ || error_; });
    }
    if (error_) std::rethrow_exception(error_);
    // The queue wait ends on a worker thread, so it is a stamp, not a
    // span.
    const std::uint64_t enqueueNs = obs::Enabled() ? obs::Now() : 0;
    queue_.push_back(Slot{pushed_++, std::move(job), enqueueNs});
    lock.unlock();
    jobReady_.notify_one();
  }

  /// Ends the input, waits until every pushed job is emitted and joins
  /// the workers; rethrows the first work or emit failure.
  void finish() {
    join();
    // The workers are joined, so error_ is safe to read unlocked.
    if (error_) std::rethrow_exception(error_);
  }

 private:
  struct Slot {
    std::size_t seq = 0;
    Job job;
    std::uint64_t enqueueNs = 0;  // 0 when metrics are off
  };

  struct Metrics {
    explicit Metrics(const std::string& prefix)
        : queueFullStalls(counter(prefix + ".queue_full_stalls")),
          workerIdleNs(counter(prefix + ".worker_idle_ns")),
          pushWaitNs(histogram(prefix + ".push_wait_ns",
                               obs::LatencyBoundsNs())),
          queueWaitNs(histogram(prefix + ".queue_wait_ns",
                                obs::LatencyBoundsNs())),
          reorderOccupancy(histogram(prefix + ".reorder_occupancy",
                                     obs::ExponentialBounds(1.0, 2.0, 10))),
          reorderPending(obs::GetGauge((prefix + ".reorder_pending").c_str(),
                                       obs::MetricClass::kTiming)) {}
    static obs::Counter& counter(const std::string& name) {
      return obs::GetCounter(name.c_str(), obs::MetricClass::kTiming);
    }
    static obs::Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds) {
      return obs::GetHistogram(name.c_str(), obs::MetricClass::kTiming,
                               std::move(bounds));
    }
    obs::Counter& queueFullStalls;
    obs::Counter& workerIdleNs;
    obs::Histogram& pushWaitNs;
    obs::Histogram& queueWaitNs;
    obs::Histogram& reorderOccupancy;
    obs::Gauge& reorderPending;
  };

  template <typename MakeWork>
  void run(const MakeWork& makeWork) {
    try {
      auto work = makeWork();
      for (;;) {
        Slot slot;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          {
            obs::Span span("worker_idle", "pool", &metrics_.workerIdleNs);
            jobReady_.wait(
                lock, [&] { return !queue_.empty() || closed_ || error_; });
          }
          if (error_ || queue_.empty()) return;
          slot = std::move(queue_.front());
          queue_.pop_front();
        }
        space_.notify_one();
        if (slot.enqueueNs != 0) {
          metrics_.queueWaitNs.record(
              static_cast<double>(obs::Now() - slot.enqueueNs));
        }
        deliver(slot.seq, work(std::move(slot.job)));
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  // Parks `result`, or emits it and every parked successor when it is
  // the next in push order.
  void deliver(std::size_t seq, Result result) {
    std::unique_lock<std::mutex> lock(mutex_);
    emitted_.wait(lock, [&] { return seq < nextEmit_ + bound_ || error_; });
    if (error_) return;
    if (seq != nextEmit_) {
      parked_.emplace(seq, std::move(result));
      metrics_.reorderOccupancy.record(static_cast<double>(parked_.size()));
      metrics_.reorderPending.recordMax(
          static_cast<std::int64_t>(parked_.size()));
      return;
    }
    for (;;) {
      lock.unlock();
      emit_(seq, std::move(result));
      lock.lock();
      nextEmit_ = ++seq;
      emitted_.notify_all();
      if (error_ || parked_.empty() || parked_.begin()->first != seq) return;
      result = std::move(parked_.begin()->second);
      parked_.erase(parked_.begin());
    }
  }

  void fail(std::exception_ptr error) {
    // The flag must flip under the mutex: a store and notify outside it
    // can land between a waiter's predicate check and its block, and
    // that waiter then sleeps through a failure that already happened.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::move(error);
    }
    jobReady_.notify_all();
    space_.notify_all();
    emitted_.notify_all();
  }

  void join() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    jobReady_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  const std::size_t capacity_;
  const std::size_t bound_;  // parked results stay below nextEmit_ + bound_
  const Emit emit_;
  Metrics metrics_;

  std::mutex mutex_;  // guards everything below up to threads_
  std::condition_variable jobReady_;  // workers: a job, close or failure
  std::condition_variable space_;     // push: a free queue slot
  std::condition_variable emitted_;   // parking workers: nextEmit_ moved
  std::deque<Slot> queue_;
  std::map<std::size_t, Result> parked_;
  std::size_t pushed_ = 0;
  std::size_t nextEmit_ = 0;
  bool closed_ = false;
  std::exception_ptr error_;

  std::vector<std::thread> threads_;  // last: started after the rest exist
};

}  // namespace ictm::stream
