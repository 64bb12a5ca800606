#include "server/protocol.hpp"

#include <cstring>

#include "stream/format.hpp"

namespace ictm::server {
namespace {

constexpr std::size_t kLenPrefixBytes = 4;
constexpr std::size_t kCrcBytes = 4;

// Byte-at-a-time on purpose: GCC 12's -Wstringop-overflow misfires on
// vector::insert/memcpy of small scalar ranges inlined into the
// encode() bodies, and -Werror would turn that false positive fatal.
void PutBytes(std::vector<std::uint8_t>& out, const void* data,
              std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) out.push_back(p[i]);
}

void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  PutBytes(out, &v, sizeof(v));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  PutBytes(out, &v, sizeof(v));
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  PutBytes(out, &v, sizeof(v));
}

void PutF64(std::vector<std::uint8_t>& out, double v) {
  PutBytes(out, &v, sizeof(v));
}

/// Sequential reader over a payload; every Get* fails sticky once the
/// payload runs short, so decode() bodies can chain reads and check
/// ok() once at the end.
class Cursor {
 public:
  explicit Cursor(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  bool atEnd() const noexcept { return ok_ && at_ == bytes_.size(); }

  std::uint8_t getU8() { return getScalar<std::uint8_t>(); }
  std::uint16_t getU16() { return getScalar<std::uint16_t>(); }
  std::uint32_t getU32() { return getScalar<std::uint32_t>(); }
  std::uint64_t getU64() { return getScalar<std::uint64_t>(); }
  double getF64() { return getScalar<double>(); }

  std::string getString(std::size_t len) {
    if (!take(len)) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + at_ - len),
                  len);
    return s;
  }

  bool getDoubles(double* out, std::size_t count) {
    const std::size_t len = count * sizeof(double);
    if (!take(len)) return false;
    if (len > 0) std::memcpy(out, bytes_.data() + at_ - len, len);
    return true;
  }

 private:
  template <typename T>
  T getScalar() {
    T v{};
    if (take(sizeof(T))) {
      std::memcpy(&v, bytes_.data() + at_ - sizeof(T), sizeof(T));
    }
    return v;
  }

  bool take(std::size_t len) {
    if (!ok_ || bytes_.size() - at_ < len) {
      ok_ = false;
      return false;
    }
    at_ += len;
    return true;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

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
  }
  return "unknown";
}

void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 const std::uint8_t* payload, std::size_t payloadLen) {
  const std::uint32_t length = static_cast<std::uint32_t>(1 + payloadLen);
  out.reserve(out.size() + kLenPrefixBytes + length + kCrcBytes);
  PutU32(out, length);
  const std::size_t bodyAt = out.size();
  PutU8(out, static_cast<std::uint8_t>(type));
  PutBytes(out, payload, payloadLen);
  PutU32(out, stream::Crc32(out.data() + bodyAt, length));
}

std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      const std::uint8_t* payload,
                                      std::size_t payloadLen) {
  std::vector<std::uint8_t> out;
  AppendFrame(out, type, payload, payloadLen);
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
  Cursor c(payload);
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
  Cursor c(payload);
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
  Cursor c(payload);
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
  Cursor c(payload);
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
  Cursor c(payload);
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
  Cursor c(payload);
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
  Cursor c(payload);
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
