// One server session: a connection's whole lifecycle from HELLO to
// FIN_ACK (or a typed ERROR and teardown).
//
// Thread anatomy per session (nothing shared with siblings except the
// read-only TopologyState and the checkpoint directory):
//
//   reader (the session thread)
//     decodes frames, validates sequence numbers, turns truth bins
//     into BinEvents and pushes them into the StreamingEstimator;
//     captures + persists checkpoints at push boundaries; sends
//     WELCOME, FIN_ACK and ERROR
//   estimator workers (inside StreamingEstimator)
//     solve bins; the pool's in-order emit encodes each ESTIMATE
//     frame and writes it straight to the socket
//
// Every frame leaves through one mutex-guarded send; the frame that
// ends the session (FIN_ACK, ERROR or the STATS reply) closes sending
// in the same critical section, so nothing can follow it.
//
// Backpressure is the chain of bounded stages: a client that stops
// reading fills its kernel socket buffer, which blocks the emit's
// send, which parks the other workers' results (at most queue +
// threads), which fills the estimator's input queue, which blocks
// push() in the reader, which stops reading the socket — so the
// *client's* sends stall.  Every stage is per-session, so a slow
// reader throttles exactly itself.
#pragma once

#include <atomic>
#include <cstddef>

#include "server/checkpoint.hpp"
#include "server/socket.hpp"
#include "server/state_cache.hpp"

namespace ictm::server {

/// Per-session resource caps and hooks, fixed server-side (the client
/// may request less; requests are clamped, never trusted).  None of
/// these affect estimate bytes — the determinism contract.
struct SessionLimits {
  std::size_t maxThreads = 4;         ///< cap on estimator workers
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
  /// reader and any blocked send wherever they are parked.
  /// Thread-safe.
  void abort();

  /// True once run() has returned (the owner may reap the thread).
  bool done() const noexcept { return done_.load(std::memory_order_acquire); }

 private:
  struct Impl;
  Impl* impl_;  // raw: lifetime == Session, keeps the header light
  std::atomic<bool> done_{false};
};

}  // namespace ictm::server
