// One server session: a connection's whole lifecycle from HELLO to
// FIN_ACK (or a typed ERROR and teardown).
//
// Thread anatomy per session (nothing shared with siblings except the
// read-only TopologyState and the checkpoint directory):
//
//   reader (the session thread)
//     decodes frames, validates sequence numbers, turns truth bins
//     into BinEvents and pushes them into the StreamingEstimator;
//     captures + persists checkpoints at push boundaries
//   estimator workers (inside StreamingEstimator)
//     solve bins; the in-order emit callback encodes each ESTIMATE
//     frame and pushes it onto the bounded output queue
//   writer
//     drains the output queue into the socket
//
// Backpressure is the chain of bounded stages: a client that stops
// reading fills its kernel socket buffer, which blocks the writer,
// which fills the output queue, which blocks the emit callback, which
// stalls the workers, which fills the estimator's input queue, which
// blocks push() in the reader, which stops reading the socket — so
// the *client's* sends stall.  Every stage is per-session, so a slow
// reader throttles exactly itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "server/checkpoint.hpp"
#include "server/socket.hpp"
#include "server/state_cache.hpp"

namespace ictm::server {

/// Bounded FIFO of encoded frames between the estimator's emit
/// callback and the writer thread.  push() blocks while full — that
/// blocking IS the session's backpressure.  pushUnbounded() bypasses
/// the bound for the rare control frame (FIN_ACK, ERROR) so teardown
/// can never deadlock on a full queue.
class FrameQueue {
 public:
  /// `capacity` bounds pending frames; at least 1.
  explicit FrameQueue(std::size_t capacity);

  /// Blocks until space or close; false (frame dropped) once closed.
  bool push(std::vector<std::uint8_t> frame);
  /// Appends regardless of capacity; dropped silently once closed.
  void pushUnbounded(std::vector<std::uint8_t> frame);
  /// Blocks for the next frame; false when closed and (drained, or
  /// closed in discard mode).
  bool pop(std::vector<std::uint8_t>* frame);
  /// Closes the queue.  `discardPending` drops queued frames (abort
  /// path); otherwise the writer drains them first (graceful path).
  void close(bool discardPending);

 private:
  std::mutex mutex_;
  std::condition_variable canPush_;
  std::condition_variable canPop_;
  std::deque<std::vector<std::uint8_t>> frames_;
  std::size_t capacity_;
  bool closed_ = false;
  bool discard_ = false;
};

/// Per-session resource caps and hooks, fixed server-side (the client
/// may request less; requests are clamped, never trusted).  None of
/// these affect estimate bytes — the determinism contract.
struct SessionLimits {
  std::size_t maxThreads = 4;         ///< cap on estimator workers
  std::size_t outputQueueCapacity = 16;  ///< writer-side frame queue bound
  std::size_t checkpointEvery = 16;   ///< checkpoint period in bins
  int socketBufferBytes = 0;          ///< >0 shrinks SO_SNDBUF/SO_RCVBUF
                                      ///< (test hook for backpressure)
};

/// Runs one connection to completion.  Construct, then call run()
/// from the session's thread; abort() from any other thread forces
/// prompt teardown.
class Session {
 public:
  /// `store` may be null (checkpointing disabled; resume is refused
  /// with kUnknownSession).  `stopping` is the server's shutdown
  /// flag: a HELLO arriving while it is set is answered with
  /// kShuttingDown.
  Session(Socket socket, TopologyStateCache* cache, CheckpointStore* store,
          SessionLimits limits, const std::atomic<bool>* stopping);
  ~Session();

  Session(const Session&) = delete;             ///< non-copyable
  Session& operator=(const Session&) = delete;  ///< non-copyable

  /// Serves the connection until it ends (never throws; every failure
  /// becomes an ERROR frame and/or teardown of this session only).
  void run();

  /// Forces teardown: shuts the socket both ways, unblocking the
  /// reader and writer wherever they are parked.  Thread-safe.
  void abort();

  /// True once run() has returned (the owner may reap the thread).
  bool done() const noexcept { return done_.load(std::memory_order_acquire); }

 private:
  struct Impl;
  Impl* impl_;  // raw: lifetime == Session, keeps the header light
  std::atomic<bool> done_{false};
};

}  // namespace ictm::server
