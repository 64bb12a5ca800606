#include "server/client.hpp"

#include <cstddef>
#include <exception>
#include <thread>
#include <utility>

namespace ictm::server {
namespace {

/// Reads the next frame; false with `*error` set on damage or close.
bool ReadFrame(FrameReader& reader, std::size_t maxFrameBytes, Frame* frame,
               std::string* error) {
  switch (reader.next(maxFrameBytes, frame)) {
    case DecodeStatus::kOk:
      return true;
    case DecodeStatus::kCrcMismatch:
      *error = "frame CRC mismatch from server";
      return false;
    case DecodeStatus::kOversize:
      *error = "oversize frame from server";
      return false;
    case DecodeStatus::kNeedMore:
      break;
  }
  *error = "connection closed by server";
  return false;
}

bool SendFrame(Socket* socket, FrameType type,
               const std::vector<std::uint8_t>& payload) {
  const auto frame = EncodeFrame(type, payload.data(), payload.size());
  return socket->sendAll(frame.data(), frame.size());
}

}  // namespace

ClientResult Client::Run(const ClientConfig& config, std::uint64_t totalBins,
                         const BinSource& source, const EstimateHook& hook) {
  ClientResult result;
  result.firstFrameSeq = config.hello.clientFrames;

  std::string error;
  Socket socket = Socket::Connect(config.endpoint, &error);
  if (!socket.valid()) {
    result.transportError = error;
    return result;
  }
  if (config.socketBufferBytes > 0) {
    socket.setBufferSizes(config.socketBufferBytes);
  }

  if (!SendFrame(&socket, FrameType::kHello, config.hello.encode())) {
    result.transportError = "failed to send HELLO";
    return result;
  }

  FrameReader reader(&socket);
  Frame frame;
  if (!ReadFrame(reader, kMaxHandshakeFrameBytes, &frame, &error)) {
    result.transportError = error;
    return result;
  }
  if (frame.type == FrameType::kError) {
    ErrorInfo info;
    if (info.decode(frame.payload)) result.serverError = info;
    result.transportError = "server refused the session";
    return result;
  }
  WelcomeReply welcome;
  if (frame.type != FrameType::kWelcome || !welcome.decode(frame.payload) ||
      welcome.version != kProtocolVersion || welcome.nodes == 0) {
    result.transportError = "malformed handshake reply";
    return result;
  }
  result.nodes = welcome.nodes;
  result.resumeFrom = welcome.resumeFrom;
  if (welcome.resumeFrom > totalBins ||
      welcome.resumeFrom > config.hello.clientFrames) {
    result.transportError = "server requested a resume point beyond what "
                            "this client can serve";
    return result;
  }

  const std::size_t nodes = static_cast<std::size_t>(welcome.nodes);
  const std::size_t maxFrameBytes = MaxFrameBytesForNodes(nodes);

  // Receiver: collects estimate frames while the main thread sends
  // bins — both directions must progress concurrently or the server's
  // backpressure (by design) deadlocks a half-duplex client.
  struct ReceiverState {
    bool finished = false;
    std::optional<ErrorInfo> serverError;
    std::string transportError;
    std::vector<std::vector<std::uint8_t>> payloads;
  } recv;
  std::thread receiver([&] {
    std::uint64_t nextSeq = welcome.resumeFrom;
    for (;;) {
      Frame in;
      std::string recvError;
      if (!ReadFrame(reader, maxFrameBytes, &in, &recvError)) {
        recv.transportError = recvError;
        return;
      }
      if (in.type == FrameType::kEstimate) {
        std::uint64_t seq = 0;
        std::vector<double> estimate(nodes * nodes);
        std::vector<double> prior(nodes * nodes);
        if (!DecodeEstimatePayload(in.payload, nodes, &seq, estimate.data(),
                                   prior.data())) {
          recv.transportError = "malformed ESTIMATE payload";
          return;
        }
        if (seq != nextSeq) {
          recv.transportError = "estimate frames out of order";
          return;
        }
        ++nextSeq;
        if (seq < config.hello.clientFrames) continue;  // already held
        if (hook) hook(seq, in.payload);
        recv.payloads.push_back(std::move(in.payload));
        continue;
      }
      if (in.type == FrameType::kFinAck) {
        recv.finished = true;
        return;
      }
      if (in.type == FrameType::kError) {
        ErrorInfo info;
        if (info.decode(in.payload)) recv.serverError = info;
        recv.transportError = "server reported an error";
        return;
      }
      recv.transportError = "unexpected frame type from server";
      return;
    }
  });

  // Sender: bins the server asked for, then FIN.  A send failure just
  // stops sending — the receiver owns the diagnosis (it will see the
  // ERROR frame or the close that caused it).  A source that throws
  // (a damaged input) ends the session: shutting the socket returns
  // the receiver, which must be joined before the result is built.
  std::optional<std::string> sourceError;
  try {
    bool sendOk = true;
    for (std::uint64_t seq = welcome.resumeFrom; sendOk && seq < totalBins;
         ++seq) {
      const double* bin = source(seq);
      sendOk = SendFrame(&socket, FrameType::kBin,
                         EncodeBinPayload(seq, bin, nodes));
    }
    if (sendOk) {
      SendFrame(&socket, FrameType::kFin, EncodeCountPayload(totalBins));
    }
  } catch (const std::exception& e) {
    sourceError = e.what();
    socket.shutdownBoth();
  }

  receiver.join();
  result.finished = recv.finished;
  result.serverError = std::move(recv.serverError);
  result.transportError = sourceError.has_value()
                              ? "input failed: " + *sourceError
                              : std::move(recv.transportError);
  result.estimatePayloads = std::move(recv.payloads);
  if (!result.finished && result.transportError.empty()) {
    result.transportError = "session ended before FIN_ACK";
  }
  return result;
}

bool Client::FetchStats(const Endpoint& endpoint, StatsReply* reply,
                        std::string* error) {
  Socket socket = Socket::Connect(endpoint, error);
  if (!socket.valid()) return false;
  if (!SendFrame(&socket, FrameType::kStats, {})) {
    *error = "failed to send STATS";
    return false;
  }
  FrameReader reader(&socket);
  Frame frame;
  if (!ReadFrame(reader, kMaxHandshakeFrameBytes, &frame, error)) return false;
  if (frame.type == FrameType::kError) {
    ErrorInfo info;
    *error = info.decode(frame.payload)
                 ? "server refused STATS: " + info.message
                 : "server refused STATS";
    return false;
  }
  if (frame.type != FrameType::kStats || !reply->decode(frame.payload)) {
    *error = "malformed STATS reply";
    return false;
  }
  return true;
}

}  // namespace ictm::server
