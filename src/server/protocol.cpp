#include "server/protocol.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "server/bytes.hpp"
#include "server/socket.hpp"
#include "stream/format.hpp"

namespace ictm::server {

using namespace detail;

namespace {

constexpr std::size_t kLenPrefixBytes = 4;
constexpr std::size_t kCrcBytes = 4;

}  // namespace

const char* ErrorCodeName(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kProtocol:
      return "protocol";
    case ErrorCode::kCrc:
      return "crc";
    case ErrorCode::kOversize:
      return "oversize";
    case ErrorCode::kUnknownType:
      return "unknown-type";
    case ErrorCode::kVersion:
      return "version";
    case ErrorCode::kBadHandshake:
      return "bad-handshake";
    case ErrorCode::kHandshakeReplay:
      return "handshake-replay";
    case ErrorCode::kUnknownSession:
      return "unknown-session";
    case ErrorCode::kSessionMismatch:
      return "session-mismatch";
    case ErrorCode::kBadSequence:
      return "bad-sequence";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kBadBin:
      return "bad-bin";
  }
  return "unknown";
}

std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      const std::uint8_t* payload,
                                      std::size_t payloadLen) {
  const std::uint32_t length = static_cast<std::uint32_t>(1 + payloadLen);
  std::vector<std::uint8_t> out;
  out.reserve(kLenPrefixBytes + length + kCrcBytes);
  PutU32(out, length);
  PutU8(out, static_cast<std::uint8_t>(type));
  PutBytes(out, payload, payloadLen);
  PutU32(out, stream::Crc32(out.data() + kLenPrefixBytes, length));
  return out;
}

DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t len,
                         std::size_t maxFrameBytes, Frame* out,
                         std::size_t* consumed) {
  if (len < kLenPrefixBytes) return DecodeStatus::kNeedMore;
  std::uint32_t bodyLen = 0;
  std::memcpy(&bodyLen, data, sizeof(bodyLen));
  // A zero body (no type byte) can never be valid; reject it as
  // oversize-class damage rather than spinning on kNeedMore forever.
  if (bodyLen == 0 || bodyLen > maxFrameBytes) return DecodeStatus::kOversize;
  const std::size_t total = kLenPrefixBytes + bodyLen + kCrcBytes;
  if (len < total) return DecodeStatus::kNeedMore;
  std::uint32_t wireCrc = 0;
  std::memcpy(&wireCrc, data + kLenPrefixBytes + bodyLen, sizeof(wireCrc));
  if (stream::Crc32(data + kLenPrefixBytes, bodyLen) != wireCrc) {
    *consumed = total;
    return DecodeStatus::kCrcMismatch;
  }
  out->type = static_cast<FrameType>(data[kLenPrefixBytes]);
  out->payload.assign(data + kLenPrefixBytes + 1,
                      data + kLenPrefixBytes + bodyLen);
  *consumed = total;
  return DecodeStatus::kOk;
}

FrameReader::FrameReader(Socket* socket, obs::Counter* bytesReceived)
    : socket_(socket), bytesReceived_(bytesReceived) {}

DecodeStatus FrameReader::next(std::size_t maxFrameBytes, Frame* frame) {
  for (;;) {
    std::size_t consumed = 0;
    const DecodeStatus status =
        DecodeFrame(buffer_.data() + parsed_, buffer_.size() - parsed_,
                    maxFrameBytes, frame, &consumed);
    if (status != DecodeStatus::kNeedMore) {
      parsed_ += consumed;
      return status;
    }
    if (parsed_ > 0) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(parsed_));
      parsed_ = 0;
    }
    std::uint8_t chunk[16384];
    const long n = socket_->recvSome(chunk, sizeof(chunk));
    if (n <= 0) return DecodeStatus::kNeedMore;
    if (bytesReceived_ != nullptr) {
      bytesReceived_->add(static_cast<std::uint64_t>(n));
    }
    buffer_.insert(buffer_.end(), chunk, chunk + n);
  }
}

std::size_t MaxFrameBytesForNodes(std::size_t nodes) noexcept {
  // Largest legal frame body: kEstimate = type + seq + 2 n² doubles.
  // Headroom covers every control frame (HELLO specs included).
  const std::size_t estimateBody =
      1 + sizeof(std::uint64_t) + 2 * nodes * nodes * sizeof(double);
  return estimateBody + kMaxHandshakeFrameBytes;
}

std::vector<std::uint8_t> HelloRequest::encode() const {
  std::vector<std::uint8_t> out;
  PutU32(out, kByteOrderSentinel);
  PutU32(out, version);
  PutU8(out, resume ? 1 : 0);
  PutU64(out, topologySeed);
  PutF64(out, f);
  PutU64(out, window);
  PutU8(out, static_cast<std::uint8_t>(solver));
  PutU32(out, threads);
  PutU32(out, queueCapacity);
  PutU64(out, clientFrames);
  PutU32(out, static_cast<std::uint32_t>(topologySpec.size()));
  PutBytes(out, topologySpec.data(), topologySpec.size());
  PutU32(out, static_cast<std::uint32_t>(sessionKey.size()));
  PutBytes(out, sessionKey.data(), sessionKey.size());
  return out;
}

bool HelloRequest::decode(const std::vector<std::uint8_t>& payload) {
  ByteCursor c(payload);
  if (c.getU32() != kByteOrderSentinel) return false;
  version = c.getU32();
  resume = c.getU8() != 0;
  topologySeed = c.getU64();
  f = c.getF64();
  window = c.getU64();
  const std::uint8_t solverByte = c.getU8();
  threads = c.getU32();
  queueCapacity = c.getU32();
  clientFrames = c.getU64();
  const std::uint32_t specLen = c.getU32();
  if (specLen > kMaxHandshakeFrameBytes) return false;
  topologySpec = c.getString(specLen);
  const std::uint32_t keyLen = c.getU32();
  if (keyLen > kMaxHandshakeFrameBytes) return false;
  sessionKey = c.getString(keyLen);
  if (!c.atEnd()) return false;
  switch (solverByte) {
    case static_cast<std::uint8_t>(core::SolverKind::kAuto):
    case static_cast<std::uint8_t>(core::SolverKind::kDense):
      solver = static_cast<core::SolverKind>(solverByte);
      return true;
    default:
      return false;
  }
}

std::vector<std::uint8_t> WelcomeReply::encode() const {
  std::vector<std::uint8_t> out;
  PutU32(out, kByteOrderSentinel);
  PutU32(out, version);
  PutU64(out, nodes);
  PutU64(out, resumeFrom);
  return out;
}

bool WelcomeReply::decode(const std::vector<std::uint8_t>& payload) {
  ByteCursor c(payload);
  if (c.getU32() != kByteOrderSentinel) return false;
  version = c.getU32();
  nodes = c.getU64();
  resumeFrom = c.getU64();
  return c.atEnd();
}

std::vector<std::uint8_t> ErrorInfo::encode() const {
  std::vector<std::uint8_t> out;
  PutU16(out, static_cast<std::uint16_t>(code));
  PutU32(out, static_cast<std::uint32_t>(message.size()));
  PutBytes(out, message.data(), message.size());
  return out;
}

bool ErrorInfo::decode(const std::vector<std::uint8_t>& payload) {
  ByteCursor c(payload);
  code = static_cast<ErrorCode>(c.getU16());
  const std::uint32_t msgLen = c.getU32();
  if (msgLen > kMaxHandshakeFrameBytes) return false;
  message = c.getString(msgLen);
  return c.atEnd();
}

std::vector<std::uint8_t> EncodeBinPayload(std::uint64_t seq,
                                           const double* bin,
                                           std::size_t nodes) {
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(seq) + nodes * nodes * sizeof(double));
  PutU64(out, seq);
  PutBytes(out, bin, nodes * nodes * sizeof(double));
  return out;
}

bool DecodeBinPayload(const std::vector<std::uint8_t>& payload,
                      std::size_t nodes, std::uint64_t* seq, double* bin) {
  ByteCursor c(payload);
  *seq = c.getU64();
  if (!c.getDoubles(bin, nodes * nodes)) return false;
  return c.atEnd();
}

std::vector<std::uint8_t> EncodeEstimatePayload(std::uint64_t seq,
                                                const double* estimate,
                                                const double* prior,
                                                std::size_t nodes) {
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(seq) + 2 * nodes * nodes * sizeof(double));
  PutU64(out, seq);
  PutBytes(out, estimate, nodes * nodes * sizeof(double));
  PutBytes(out, prior, nodes * nodes * sizeof(double));
  return out;
}

bool DecodeEstimatePayload(const std::vector<std::uint8_t>& payload,
                           std::size_t nodes, std::uint64_t* seq,
                           double* estimate, double* prior) {
  ByteCursor c(payload);
  *seq = c.getU64();
  if (!c.getDoubles(estimate, nodes * nodes)) return false;
  if (!c.getDoubles(prior, nodes * nodes)) return false;
  return c.atEnd();
}

std::vector<std::uint8_t> EncodeCountPayload(std::uint64_t count) {
  std::vector<std::uint8_t> out;
  PutU64(out, count);
  return out;
}

bool DecodeCountPayload(const std::vector<std::uint8_t>& payload,
                        std::uint64_t* count) {
  ByteCursor c(payload);
  *count = c.getU64();
  return c.atEnd();
}

std::vector<std::uint8_t> StatsReply::encode() const {
  std::vector<std::uint8_t> out;
  PutU32(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& [name, value] : entries) {
    PutU32(out, static_cast<std::uint32_t>(name.size()));
    PutBytes(out, name.data(), name.size());
    PutU64(out, value);
  }
  return out;
}

bool StatsReply::decode(const std::vector<std::uint8_t>& payload) {
  ByteCursor c(payload);
  const std::uint32_t count = c.getU32();
  // The reply travels pre-handshake, so it must fit the handshake
  // frame cap; reject counts that could not possibly (12 bytes is the
  // smallest legal entry) before allocating.
  if (count > kMaxHandshakeFrameBytes / 12) return false;
  entries.clear();
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t nameLen = c.getU32();
    if (nameLen > kMaxHandshakeFrameBytes) return false;
    std::string name = c.getString(nameLen);
    const std::uint64_t value = c.getU64();
    if (!c.ok()) return false;
    entries.emplace_back(std::move(name), value);
  }
  return c.atEnd();
}

}  // namespace ictm::server
