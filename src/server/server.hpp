// The `ictm serve` daemon: a Listener accept loop spawning one
// Session thread per connection, all sessions sharing one
// TopologyStateCache (expensive per-topology state paid once) and one
// CheckpointStore (restart losslessness).
//
// stop() is deliberately abortive — it shuts every live session's
// socket and returns once all threads are joined.  Because session
// checkpoints are durable the moment they are captured, an abortive
// stop is exactly the crash the resume tests simulate: a client
// reconnecting with its session key continues from the last
// checkpoint and loses nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
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

  /// Aborts every live session, stops accepting, joins all threads.
  /// Idempotent.  This is also the crash lever of the resume tests —
  /// in-flight sessions lose only work since their last durable
  /// checkpoint.
  void stop();

  /// Shared-cache counters (tests assert hit/miss/eviction behavior).
  TopologyStateCache::Stats cacheStats() const;

  /// Connections accepted over the server's lifetime.
  std::size_t sessionsAccepted() const noexcept;

 private:
  void acceptLoop();
  void reapFinishedLocked();

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
  mutable std::mutex sessionsMutex_;
  std::vector<SessionSlot> sessions_;
  std::atomic<std::size_t> accepted_{0};
};

}  // namespace ictm::server
