// The `ictm serve` daemon: a Listener accept loop spawning one
// Session thread per connection, all sessions sharing one
// TopologyStateCache (expensive per-topology state paid once) and one
// CheckpointStore (restart losslessness).
//
// stop() is deliberately abortive.  It stops accepting first: it
// wakes the listener and joins the accept thread, so no session can
// be registered afterwards.  Then, in one pass, it shuts every live
// session's socket and joins its thread.  Because session
// checkpoints are durable the moment they are captured, an abortive
// stop is exactly the crash the resume tests simulate: a client
// reconnecting with its session key continues from the last
// checkpoint and loses nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/checkpoint.hpp"
#include "server/session.hpp"
#include "server/socket.hpp"
#include "server/state_cache.hpp"

namespace ictm::server {

/// Configuration of a Server instance.
struct ServerOptions {
  Endpoint listen;            ///< where to accept sessions
  std::string checkpointDir;  ///< empty = checkpointing (and resume) off
  std::size_t cacheCapacity = 4;  ///< resident TopologyState entries
  SessionLimits limits;       ///< per-session caps and test hooks
};

/// The estimation server.  start()/stop() bracket the accept loop;
/// the instance is reusable only as far as one start/stop cycle.
class Server {
 public:
  /// Builds an idle server; nothing is bound yet.
  explicit Server(ServerOptions options);
  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;             ///< non-copyable
  Server& operator=(const Server&) = delete;  ///< non-copyable

  /// Binds the endpoint and starts accepting; false (with `*error`
  /// set) when the bind fails.
  bool start(std::string* error);

  /// The bound endpoint (ephemeral TCP ports resolved to real ones).
  const Endpoint& endpoint() const noexcept;

  /// Stops accepting (joins the accept thread), then aborts and
  /// joins every live session.  Idempotent.  This is also the crash
  /// lever of the resume tests — in-flight sessions lose only work
  /// since their last durable checkpoint.
  void stop();

  /// Shared-cache counters (tests assert hit/miss/eviction behavior).
  TopologyStateCache::Stats cacheStats() const;

  /// Connections accepted over the server's lifetime.
  std::size_t sessionsAccepted() const noexcept;

 private:
  void acceptLoop();
  void reapFinished();

  ServerOptions options_;
  TopologyStateCache cache_;
  std::unique_ptr<CheckpointStore> store_;
  Listener listener_;
  std::thread acceptThread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  struct SessionSlot {
    std::unique_ptr<Session> session;
    std::thread thread;
  };
  // Touched only by the accept thread while it runs, and by stop()
  // once it has joined that thread: no lock.
  std::vector<SessionSlot> sessions_;
  std::atomic<std::size_t> accepted_{0};
};

}  // namespace ictm::server
