#include "server/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "server/protocol.hpp"
#include "stream/online.hpp"

namespace ictm::server {

FrameQueue::FrameQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

bool FrameQueue::push(std::vector<std::uint8_t> frame) {
  // Stall count depends on how fast the peer drains — timing class.
  static obs::Counter& stalls = obs::GetCounter(
      "server.backpressure_stalls", obs::MetricClass::kTiming);
  std::unique_lock<std::mutex> lock(mutex_);
  if (!closed_ && frames_.size() >= capacity_) stalls.add();
  canPush_.wait(lock,
                [this] { return closed_ || frames_.size() < capacity_; });
  if (closed_) return false;
  frames_.push_back(std::move(frame));
  canPop_.notify_one();
  return true;
}

void FrameQueue::pushUnbounded(std::vector<std::uint8_t> frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  frames_.push_back(std::move(frame));
  canPop_.notify_one();
}

bool FrameQueue::pop(std::vector<std::uint8_t>* frame) {
  std::unique_lock<std::mutex> lock(mutex_);
  canPop_.wait(lock, [this] { return closed_ || !frames_.empty(); });
  if (discard_ || frames_.empty()) return false;
  *frame = std::move(frames_.front());
  frames_.pop_front();
  canPush_.notify_one();
  return true;
}

void FrameQueue::close(bool discardPending) {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  if (discardPending) {
    discard_ = true;
    frames_.clear();
  }
  canPush_.notify_all();
  canPop_.notify_all();
}

namespace {

/// Cap on a session's estimator input queue (HELLO requests are
/// clamped to it, never trusted).
constexpr std::size_t kMaxQueueCapacity = 256;

/// Encodes one whole frame ready for the wire.
std::vector<std::uint8_t> MakeFrame(FrameType type,
                                    const std::vector<std::uint8_t>& payload) {
  return EncodeFrame(type, payload.data(), payload.size());
}

/// True when a checkpoint's config echo matches a resume HELLO.
bool EchoMatches(const SessionCheckpoint& cp, const HelloRequest& hello) {
  return cp.topologySpec == hello.topologySpec &&
         cp.topologySeed == hello.topologySeed && cp.f == hello.f &&
         cp.window == hello.window && cp.solver == hello.solver;
}

std::vector<std::uint8_t> MakeErrorFrame(ErrorCode code,
                                         const std::string& message) {
  ErrorInfo info;
  info.code = code;
  info.message = message;
  return MakeFrame(FrameType::kError, info.encode());
}

}  // namespace

struct Session::Impl {
  Socket socket;
  TopologyStateCache* cache;
  CheckpointStore* store;
  SessionLimits limits;
  const std::atomic<bool>* stopping;

  // Populated by the handshake.
  HelloRequest hello;
  std::shared_ptr<const TopologyState> topo;
  std::unique_ptr<stream::StreamingEstimator> estimator;
  std::unique_ptr<FrameQueue> outQueue;
  std::thread writer;
  std::atomic<bool> writeFailed{false};

  std::uint64_t expectedSeq = 0;  ///< next BIN seq the reader accepts
  bool handshaken = false;

  Impl(Socket sock, TopologyStateCache* c, CheckpointStore* s,
       SessionLimits lim, const std::atomic<bool>* stop)
      : socket(std::move(sock)),
        cache(c),
        store(s),
        limits(lim),
        stopping(stop) {}

  // ---- writes --------------------------------------------------------------

  /// Direct socket write; legal only before the writer thread starts.
  bool sendDirect(FrameType type, const std::vector<std::uint8_t>& payload) {
    const auto frame = MakeFrame(type, payload);
    return socket.sendAll(frame.data(), frame.size());
  }

  void startWriter() {
    outQueue = std::make_unique<FrameQueue>(limits.outputQueueCapacity);
    writer = std::thread([this] {
      static obs::Counter& bytesSent = obs::GetCounter(
          "server.bytes_sent", obs::MetricClass::kDeterministic);
      std::vector<std::uint8_t> frame;
      while (outQueue->pop(&frame)) {
        if (writeFailed.load(std::memory_order_relaxed)) continue;
        if (!socket.sendAll(frame.data(), frame.size())) {
          // Keep draining so pushers never wedge on a dead peer.
          writeFailed.store(true, std::memory_order_relaxed);
        } else {
          bytesSent.add(frame.size());
        }
      }
    });
  }

  /// Tears the data path down.  `errorFrame` (may be empty) is queued
  /// ahead of the close so a graceful drain still flushes it.
  void teardown(std::vector<std::uint8_t> errorFrame, bool discardPending) {
    if (outQueue != nullptr) {
      if (!errorFrame.empty()) outQueue->pushUnbounded(std::move(errorFrame));
      outQueue->close(discardPending);
    } else if (!errorFrame.empty()) {
      socket.sendAll(errorFrame.data(), errorFrame.size());
    }
    // The estimator is destroyed while the queue is closed: its emit
    // callbacks see push() == false and drop, so the drain inside the
    // destructor can never block on a full queue.
    estimator.reset();
    if (writer.joinable()) writer.join();
    // Shutdown, not close: abort() may race us with its own
    // shutdown, which is safe on a live descriptor; the fd itself is
    // closed by ~Session after the owning thread is joined.
    socket.shutdownBoth();
  }

  /// Answers a failure with a typed ERROR frame and reports "session
  /// over": through the writer, then teardown, once the handshake
  /// started it; straight onto the socket before.
  bool fail(ErrorCode code, const std::string& message) {
    auto error = MakeErrorFrame(code, message);
    if (handshaken) {
      teardown(std::move(error), /*discardPending=*/false);
    } else {
      socket.sendAll(error.data(), error.size());
    }
    return false;
  }

  // ---- handshake -----------------------------------------------------------

  bool handleHello(const Frame& frame) {
    if (handshaken) {
      return fail(ErrorCode::kHandshakeReplay, "session already established");
    }
    if (!hello.decode(frame.payload)) {
      return fail(ErrorCode::kProtocol, "malformed HELLO payload");
    }
    if (hello.version != kProtocolVersion) {
      return fail(ErrorCode::kVersion,
                  "unsupported protocol version " +
                      std::to_string(hello.version));
    }
    if (stopping != nullptr && stopping->load(std::memory_order_acquire)) {
      return fail(ErrorCode::kShuttingDown, "server is shutting down");
    }
    if (hello.topologySpec.empty()) {
      return fail(ErrorCode::kBadHandshake, "empty topology spec");
    }
    if (!std::isfinite(hello.f) || hello.f <= 0.0 || hello.f >= 1.0) {
      return fail(ErrorCode::kBadHandshake,
                  "forward fraction f must lie in (0, 1)");
    }
    if (hello.queueCapacity == 0) {
      return fail(ErrorCode::kBadHandshake,
                  "queue capacity must be positive");
    }
    if (hello.threads == 0) {
      return fail(ErrorCode::kBadHandshake,
                  "thread count must be positive");
    }
    if (hello.resume && hello.sessionKey.empty()) {
      return fail(ErrorCode::kBadHandshake,
                  "resume requires a session key");
    }
    if (hello.resume && store == nullptr) {
      return fail(ErrorCode::kUnknownSession,
                  "server has checkpointing disabled");
    }

    try {
      topo = cache->acquire(hello.topologySpec, hello.topologySeed);
    } catch (const std::exception& e) {
      return fail(ErrorCode::kBadHandshake, e.what());
    }

    std::optional<SessionCheckpoint> resumePoint;
    if (hello.resume) {
      // The newest checkpoint is checked too, whatever its seq: when
      // the server ran far past the client, none may lie at or below
      // clientFrames, and a resume from bin 0 must not silently switch
      // configuration.
      const auto newest = store->load(hello.sessionKey, UINT64_MAX);
      resumePoint = store->load(hello.sessionKey, hello.clientFrames);
      if ((newest.has_value() && !EchoMatches(*newest, hello)) ||
          (resumePoint.has_value() && !EchoMatches(*resumePoint, hello))) {
        return fail(ErrorCode::kSessionMismatch,
                    "resume HELLO disagrees with the checkpointed "
                    "topology/options");
      }
    }

    stream::StreamingOptions options;
    options.threads = std::min<std::size_t>(hello.threads, limits.maxThreads);
    options.queueCapacity =
        std::min<std::size_t>(hello.queueCapacity, kMaxQueueCapacity);
    options.window = static_cast<std::size_t>(hello.window);
    options.f = hello.f;
    options.estimation.solver = hello.solver;
    if (resumePoint.has_value()) {
      options.resume = resumePoint->state;
      expectedSeq = resumePoint->state.seq;
    }

    startWriter();
    FrameQueue* queue = outQueue.get();
    const std::size_t nodes = topo->nodes;
    try {
      estimator = std::make_unique<stream::StreamingEstimator>(
          topo->system, std::move(options),
          [queue, nodes](std::size_t seq, const double* estimate,
                         const double* prior) {
            const auto payload = EncodeEstimatePayload(
                static_cast<std::uint64_t>(seq), estimate, prior, nodes);
            // push() == false means the session is tearing down; the
            // frame is dropped on purpose (the client is gone or the
            // server is aborting — determinism only covers delivered
            // prefixes).
            (void)queue->push(MakeFrame(FrameType::kEstimate, payload));
          });
    } catch (const std::exception& e) {
      teardown(MakeErrorFrame(ErrorCode::kInternal, e.what()),
               /*discardPending=*/false);
      return false;
    }

    WelcomeReply welcome;
    welcome.nodes = static_cast<std::uint64_t>(nodes);
    welcome.resumeFrom = expectedSeq;
    outQueue->pushUnbounded(MakeFrame(FrameType::kWelcome, welcome.encode()));
    handshaken = true;
    static obs::Counter& sessionsOpened = obs::GetCounter(
        "server.sessions_opened", obs::MetricClass::kDeterministic);
    sessionsOpened.add();
    return true;
  }

  /// Pre-handshake metrics probe: reply with the flattened registry
  /// snapshot, then close.  After the handshake the frame is a
  /// protocol violation like any other out-of-place type.
  bool handleStats(const Frame& frame) {
    if (handshaken) {
      return fail(ErrorCode::kProtocol,
                  "STATS is only valid before the handshake");
    }
    if (!frame.payload.empty()) {
      return fail(ErrorCode::kProtocol, "STATS payload must be empty");
    }
    StatsReply reply;
    reply.entries = obs::Registry::Instance().snapshot().flatten();
    sendDirect(FrameType::kStats, reply.encode());
    // One-shot probe: reply, then close.  The active shutdown (rather
    // than waiting for ~Session) lets the client treat EOF as
    // end-of-reply.
    socket.shutdownBoth();
    return false;
  }

  // ---- streaming -----------------------------------------------------------

  bool handleBin(const Frame& frame) {
    std::uint64_t seq = 0;
    std::vector<double> bin(topo->nodes * topo->nodes);
    if (!DecodeBinPayload(frame.payload, topo->nodes, &seq, bin.data())) {
      return fail(ErrorCode::kProtocol, "malformed BIN payload");
    }
    if (seq != expectedSeq) {
      return fail(ErrorCode::kBadSequence,
                  "expected bin " + std::to_string(expectedSeq) + ", got " +
                      std::to_string(seq));
    }
    try {
      estimator->push(
          stream::MakeBinEvent(topo->routing, topo->nodes, bin.data()));
      ++expectedSeq;
      static obs::Counter& binsReceived = obs::GetCounter(
          "server.bins_received", obs::MetricClass::kDeterministic);
      binsReceived.add();
      if (store != nullptr && !hello.sessionKey.empty() &&
          limits.checkpointEvery > 0 &&
          expectedSeq % limits.checkpointEvery == 0) {
        SessionCheckpoint cp;
        cp.sessionKey = hello.sessionKey;
        cp.topologySpec = hello.topologySpec;
        cp.topologySeed = hello.topologySeed;
        cp.f = hello.f;
        cp.window = hello.window;
        cp.solver = hello.solver;
        cp.state = estimator->checkpoint();
        store->save(cp);
      }
    } catch (const std::exception& e) {
      return fail(ErrorCode::kInternal, e.what());
    }
    return true;
  }

  bool handleFin(const Frame& frame) {
    std::uint64_t count = 0;
    if (!DecodeCountPayload(frame.payload, &count)) {
      return fail(ErrorCode::kProtocol, "malformed FIN payload");
    }
    if (count != expectedSeq) {
      return fail(ErrorCode::kBadSequence,
                  "FIN count " + std::to_string(count) + " does not match " +
                      std::to_string(expectedSeq) + " bins");
    }
    try {
      estimator->finish();
    } catch (const std::exception& e) {
      return fail(ErrorCode::kInternal, e.what());
    }
    outQueue->pushUnbounded(
        MakeFrame(FrameType::kFinAck, EncodeCountPayload(count)));
    teardown({}, /*discardPending=*/false);
    // Only a written FIN_ACK retires the checkpoints: a session that
    // completes from buffered bytes after its client vanished keeps
    // them for the client's resume.
    if (store != nullptr && !hello.sessionKey.empty() &&
        !writeFailed.load(std::memory_order_relaxed)) {
      store->drop(hello.sessionKey);
    }
    return false;  // session complete
  }

  /// Dispatches one decoded frame; false ends the read loop.
  bool handleFrame(const Frame& frame) {
    switch (frame.type) {
      case FrameType::kHello:
        return handleHello(frame);
      case FrameType::kBin:
        if (!handshaken) {
          return fail(ErrorCode::kProtocol, "BIN before HELLO");
        }
        return handleBin(frame);
      case FrameType::kFin:
        if (!handshaken) {
          return fail(ErrorCode::kProtocol, "FIN before HELLO");
        }
        return handleFin(frame);
      case FrameType::kStats:
        return handleStats(frame);
      case FrameType::kError:
        // Peer reported an error: tear down quietly.
        teardown({}, /*discardPending=*/true);
        return false;
      case FrameType::kWelcome:
      case FrameType::kEstimate:
      case FrameType::kFinAck:
        break;  // server-to-client types are invalid inbound
    }
    return fail(ErrorCode::kUnknownType,
                "unexpected frame type " +
                    std::to_string(static_cast<unsigned>(frame.type)));
  }

  void runLoop() {
    static obs::Counter& bytesReceived = obs::GetCounter(
        "server.bytes_received", obs::MetricClass::kDeterministic);
    FrameReader reader(&socket, &bytesReceived);
    for (;;) {
      const std::size_t cap = handshaken ? MaxFrameBytesForNodes(topo->nodes)
                                         : kMaxHandshakeFrameBytes;
      Frame frame;
      const DecodeStatus status = reader.next(cap, &frame);
      if (status == DecodeStatus::kOk) {
        if (!handleFrame(frame)) return;
        continue;
      }
      if (status == DecodeStatus::kNeedMore) {
        // Peer vanished (or abort() shut the socket): nothing to say.
        teardown({}, /*discardPending=*/true);
      } else if (status == DecodeStatus::kOversize) {
        fail(ErrorCode::kOversize, "frame length exceeds bound");
      } else {
        fail(ErrorCode::kCrc, "frame CRC mismatch");
      }
      return;
    }
  }
};

Session::Session(Socket socket, TopologyStateCache* cache,
                 CheckpointStore* store, SessionLimits limits,
                 const std::atomic<bool>* stopping)
    : impl_(new Impl(std::move(socket), cache, store, limits, stopping)) {}

Session::~Session() { delete impl_; }

void Session::run() {
  if (impl_->limits.socketBufferBytes > 0) {
    impl_->socket.setBufferSizes(impl_->limits.socketBufferBytes);
  }
  try {
    impl_->runLoop();
  } catch (...) {
    // A session must never take the server down; force local cleanup.
    impl_->teardown({}, /*discardPending=*/true);
  }
  done_.store(true, std::memory_order_release);
}

void Session::abort() { impl_->socket.shutdownBoth(); }

}  // namespace ictm::server
