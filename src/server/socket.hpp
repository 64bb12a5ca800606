// Thin RAII layer over POSIX stream sockets for the estimation
// server: Unix-domain and TCP listeners, blocking connected sockets
// with full-buffer send/recv loops, and an Endpoint parser for the
// CLI's `--listen`/`--connect` spec ("unix:/path" or "tcp:host:port").
//
// Everything here is blocking by design — backpressure is the
// feature: a full kernel send buffer stalls exactly the thread sending
// on that socket, which is how a slow client throttles only its own
// session (docs/FORMATS.md, "Flow control").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ictm::server {

/// A parsed socket address: "unix:/path/to.sock" or "tcp:host:port".
struct Endpoint {
  /// Address family of an Endpoint.
  enum class Kind {
    kUnix,  ///< Unix-domain stream socket at `path`
    kTcp,   ///< TCP socket at `host`:`port`
  };
  Kind kind = Kind::kUnix;  ///< address family
  std::string path;         ///< socket path (kUnix)
  std::string host;         ///< host or numeric address (kTcp)
  std::uint16_t port = 0;   ///< TCP port (kTcp)

  /// Parses a spec; returns false (leaving `*out` untouched) on a
  /// malformed one.  A bare path (contains '/' or no ':') is accepted
  /// as unix for convenience.
  static bool Parse(const std::string& spec, Endpoint* out);

  /// Canonical spec string ("unix:..." / "tcp:...") for diagnostics.
  std::string describe() const;
};

/// A connected stream socket (one session's transport).  Movable,
/// closes on destruction.
class Socket {
 public:
  Socket() = default;
  /// Adopts an already-connected file descriptor (-1 = empty).
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;             ///< non-copyable
  Socket& operator=(const Socket&) = delete;  ///< non-copyable
  Socket(Socket&& other) noexcept;            ///< move-constructs, empties other
  Socket& operator=(Socket&& other) noexcept;  ///< closes self, adopts other

  /// True when a descriptor is held.
  bool valid() const noexcept { return fd_ >= 0; }
  /// The raw descriptor (-1 when empty).
  int fd() const noexcept { return fd_; }

  /// Sends exactly `len` bytes, looping over partial writes; false on
  /// a peer reset / shutdown.
  bool sendAll(const void* data, std::size_t len) noexcept;
  /// Receives up to `len` bytes; returns the count, 0 on orderly EOF,
  /// -1 on error.
  long recvSome(void* data, std::size_t len) noexcept;

  /// True when the send buffer has room now (a zero-timeout poll for
  /// POLLOUT); false means a send would block on the peer.
  bool writable() const noexcept;

  /// Shrinks the kernel send/receive buffers toward `bytes` (the
  /// kernel clamps to its floor).  Test hook: makes backpressure
  /// observable with few frames in flight.
  void setBufferSizes(int bytes) noexcept;

  /// Half-closes both directions, unblocking any thread parked in
  /// sendAll/recvSome on this socket (they see EOF/reset).  Safe to
  /// call from another thread; the descriptor stays owned.
  void shutdownBoth() noexcept;

  /// Closes the descriptor now (idempotent).
  void close() noexcept;

  /// Connects to an endpoint; returns an empty socket and sets
  /// `*error` on failure.
  static Socket Connect(const Endpoint& ep, std::string* error);

 private:
  int fd_ = -1;
};

/// A listening socket bound to an Endpoint.  accept() can be woken
/// from another thread via interrupt() (self-pipe), which is how the
/// server's stop() path unblocks the accept loop without signals.
class Listener {
 public:
  Listener();
  ~Listener();

  Listener(const Listener&) = delete;             ///< non-copyable
  Listener& operator=(const Listener&) = delete;  ///< non-copyable

  /// Binds and listens; false (with `*error` set) on failure.  For
  /// unix endpoints a stale socket file is unlinked first.  Port 0
  /// binds an ephemeral TCP port — read it back via boundEndpoint().
  bool bind(const Endpoint& ep, std::string* error);

  /// The endpoint actually bound (resolves port 0 to the real port).
  const Endpoint& boundEndpoint() const noexcept { return bound_; }

  /// Blocks until a connection arrives (returns it), or interrupt()
  /// is called / the listener itself is gone (returns an empty
  /// socket).  Transient failures such as running out of descriptors
  /// are retried after a short back-off.
  Socket accept();

  /// Wakes every blocked accept() call; subsequent accepts return
  /// empty immediately.  Thread-safe, idempotent.
  void interrupt() noexcept;

  /// Closes the listening socket and removes a unix socket file.
  void close() noexcept;

 private:
  int fd_ = -1;
  int wakePipe_[2] = {-1, -1};
  Endpoint bound_;
  std::string unlinkPath_;
};

}  // namespace ictm::server
