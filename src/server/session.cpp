#include "server/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "server/protocol.hpp"
#include "stream/online.hpp"

namespace ictm::server {

namespace {

/// Cap on a session's estimator input queue (HELLO requests are
/// clamped to it, never trusted).
constexpr std::size_t kMaxQueueCapacity = 256;

/// True when a checkpoint's config echo matches a resume HELLO.
bool EchoMatches(const SessionCheckpoint& cp, const HelloRequest& hello) {
  return cp.topologySpec == hello.topologySpec &&
         cp.topologySeed == hello.topologySeed && cp.f == hello.f &&
         cp.window == hello.window && cp.solver == hello.solver;
}

}  // namespace

struct Session::Impl {
  Socket socket;
  TopologyStateCache* cache;
  CheckpointStore* store;
  SessionLimits limits;
  const std::atomic<bool>* stopping;

  // Send state, shared by the reader and the estimator's emit.  It is
  // declared before `estimator`, so the estimator (whose emit uses it)
  // is destroyed first.
  std::mutex sendMutex;
  bool sendClosed = false;  ///< guarded by sendMutex

  // Populated by the handshake.
  HelloRequest hello;
  std::shared_ptr<const TopologyState> topo;
  std::unique_ptr<stream::StreamingEstimator> estimator;

  std::uint64_t expectedSeq = 0;  ///< next BIN seq the reader accepts
  /// Set once the HELLO is accepted, before the estimator starts; from
  /// then on sent frames count towards server.bytes_sent.
  bool handshaken = false;

  Impl(Socket sock, TopologyStateCache* c, CheckpointStore* s,
       SessionLimits lim, const std::atomic<bool>* stop)
      : socket(std::move(sock)),
        cache(c),
        store(s),
        limits(lim),
        stopping(stop) {}

  // ---- writes --------------------------------------------------------------

  /// Writes one frame unless sending is closed; `last` closes sending
  /// in the same critical section, so nothing follows the final frame.
  /// Returns false when the frame was dropped (sending closed) or the
  /// write failed, which closes sending too: after a partial write the
  /// stream is unframed.
  bool send(FrameType type, const std::vector<std::uint8_t>& payload,
            bool last) {
    static obs::Counter& bytesSent = obs::GetCounter(
        "server.bytes_sent", obs::MetricClass::kDeterministic);
    // Stall count depends on how fast the peer drains — timing class.
    static obs::Counter& stalls = obs::GetCounter(
        "server.backpressure_stalls", obs::MetricClass::kTiming);
    const auto frame = EncodeFrame(type, payload.data(), payload.size());
    std::lock_guard<std::mutex> lock(sendMutex);
    if (sendClosed) return false;
    sendClosed = last;
    if (type == FrameType::kEstimate && obs::Enabled() &&
        !socket.writable()) {
      stalls.add();
    }
    if (!socket.sendAll(frame.data(), frame.size())) {
      sendClosed = true;
      return false;
    }
    if (handshaken) bytesSent.add(frame.size());
    return true;
  }

  /// Ends the data path: shuts the socket, which frees a send blocked
  /// on a peer that does not read, then drains and joins the estimator
  /// (its emits find sending closed or failing and drop their frames).
  void teardown() {
    // Shutdown, not close: abort() may race us with its own
    // shutdown, which is safe on a live descriptor; the fd itself is
    // closed by ~Session after the owning thread is joined.
    socket.shutdownBoth();
    estimator.reset();
  }

  /// Answers a failure with a typed ERROR frame, the session's last,
  /// tears the data path down (before the handshake there is no
  /// estimator, so that only shuts the socket and the peer sees EOF)
  /// and reports "session over".
  bool fail(ErrorCode code, const std::string& message) {
    ErrorInfo info;
    info.code = code;
    info.message = message;
    send(FrameType::kError, info.encode(), /*last=*/true);
    teardown();
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

    handshaken = true;
    const std::size_t nodes = topo->nodes;
    try {
      // The pool's emit runs in push order, one call at a time and
      // with no pool lock held, so it writes straight to the socket.
      estimator = std::make_unique<stream::StreamingEstimator>(
          topo->system, std::move(options),
          [this, nodes](std::size_t seq, const double* estimate,
                        const double* prior) {
            // A false send means the session is tearing down; the
            // frame is dropped on purpose (the client is gone or the
            // server is aborting — determinism only covers delivered
            // prefixes).
            send(FrameType::kEstimate,
                 EncodeEstimatePayload(static_cast<std::uint64_t>(seq),
                                       estimate, prior, nodes),
                 /*last=*/false);
          });
    } catch (const std::exception& e) {
      return fail(ErrorCode::kInternal, e.what());
    }

    // Sent before the reader pushes a bin, so it precedes every
    // ESTIMATE.
    WelcomeReply welcome;
    welcome.nodes = static_cast<std::uint64_t>(nodes);
    welcome.resumeFrom = expectedSeq;
    send(FrameType::kWelcome, welcome.encode(), /*last=*/false);
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
    send(FrameType::kStats, reply.encode(), /*last=*/true);
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
    } catch (const stream::BadBinError& e) {
      return fail(ErrorCode::kBadBin, e.what());
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
    // finish() returned after the last emit, so FIN_ACK follows the
    // last ESTIMATE.
    const bool acked =
        send(FrameType::kFinAck, EncodeCountPayload(count), /*last=*/true);
    teardown();
    // Only a written FIN_ACK retires the checkpoints: a session that
    // completes from buffered bytes after its client vanished keeps
    // them for the client's resume.
    if (acked && store != nullptr && !hello.sessionKey.empty()) {
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
        teardown();
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
        teardown();
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
    impl_->teardown();
  }
  done_.store(true, std::memory_order_release);
}

void Session::abort() { impl_->socket.shutdownBoth(); }

}  // namespace ictm::server
