// Wire protocol of the `ictm serve` estimation server.
//
// One session = one connection.  The client opens with a HELLO frame
// naming a topology spec and the estimation options, the server
// answers WELCOME with the resume position, then BIN frames (truth
// bins) flow client → server and ESTIMATE frames (estimate + prior)
// flow server → client until FIN/FIN_ACK.  Every violation — CRC
// mismatch, oversize length prefix, unknown frame type, handshake
// replay, out-of-order sequence — is answered with a typed ERROR
// frame and the session is torn down without touching its siblings.
//
// Frame layout (native little-endian byte order, validated by the
// sentinel in HELLO/WELCOME — the same convention as the `ictmb`
// container, whose CRC-32 this protocol reuses):
//
//   u32 length     byte count of type + payload (bounded; oversize
//                  prefixes are rejected before any allocation)
//   u8  type       FrameType
//   payload        length - 1 bytes
//   u32 crc        stream::Crc32 over the type byte and the payload
//
// docs/FORMATS.md ("Server wire protocol") is the normative grammar;
// this header is the reference implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/estimation.hpp"

namespace ictm::obs {
class Counter;
}  // namespace ictm::obs

namespace ictm::server {

/// Protocol version spoken by this build (HELLO/WELCOME carry it; a
/// mismatch is answered with kErrVersion).
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Byte-order sentinel carried by HELLO and WELCOME (as in `ictmb`).
inline constexpr std::uint32_t kByteOrderSentinel = 0x01020304;

/// Hard cap on any frame before the handshake fixes the node count;
/// HELLO is the only frame a server accepts this early and it is
/// tiny, so the cap only needs to cover pathological spec strings.
inline constexpr std::size_t kMaxHandshakeFrameBytes = 1u << 16;

/// Frame types.  Values are wire format — never renumber.
enum class FrameType : std::uint8_t {
  kHello = 1,     ///< client → server: open or resume a session
  kWelcome = 2,   ///< server → client: session accepted, resume position
  kBin = 3,       ///< client → server: one truth bin (seq + n² doubles)
  kEstimate = 4,  ///< server → client: seq + n² estimate + n² prior
  kFin = 5,       ///< client → server: end of stream (total bin count)
  kFinAck = 6,    ///< server → client: every estimate emitted
  kError = 7,     ///< either direction: typed error, then teardown
  kStats = 8,     ///< client → server: metrics snapshot request (empty
                  ///< payload, pre-handshake only); server → client:
                  ///< the StatsReply, after which the server closes
};

/// Typed error codes carried by kError frames.  Values are wire
/// format — never renumber.
enum class ErrorCode : std::uint16_t {
  kProtocol = 1,         ///< malformed frame for its type / wrong state
  kCrc = 2,              ///< frame CRC mismatch
  kOversize = 3,         ///< length prefix beyond the frame bound
  kUnknownType = 4,      ///< unknown frame type byte
  kVersion = 5,          ///< protocol version / byte-order mismatch
  kBadHandshake = 6,     ///< unresolvable topology, bad options
  kHandshakeReplay = 7,  ///< second HELLO on an open session
  kUnknownSession = 8,   ///< resume without server-side checkpointing
  kSessionMismatch = 9,  ///< resume with different topology/options
  kBadSequence = 10,     ///< BIN seq out of order / FIN count wrong
  kInternal = 11,        ///< estimator failure server-side
  kShuttingDown = 12,    ///< server stopping; reconnect and resume
  kBadBin = 13,          ///< BIN measurements NaN, infinite or negative
};

/// Stable name of an error code for diagnostics ("crc", "oversize",
/// ...); "unknown" for unmapped values.
const char* ErrorCodeName(ErrorCode code) noexcept;

/// One decoded frame: the type byte plus the raw payload.
struct Frame {
  FrameType type = FrameType::kError;  ///< frame type byte
  std::vector<std::uint8_t> payload;   ///< payload bytes (may be empty)
};

/// Result of DecodeFrame.
enum class DecodeStatus {
  kOk,           ///< one frame decoded, CRC verified
  kNeedMore,     ///< buffer holds a valid prefix of a frame
  kCrcMismatch,  ///< frame complete but the CRC check failed
  kOversize,     ///< length prefix exceeds maxFrameBytes
};

/// Encodes one frame: length prefix, type, payload, CRC.
std::vector<std::uint8_t> EncodeFrame(FrameType type,
                                      const std::uint8_t* payload,
                                      std::size_t payloadLen);

/// Decodes the frame at the start of `data`.  On kOk, `*out` holds the
/// frame and `*consumed` the encoded byte count; on kNeedMore both are
/// untouched; on kCrcMismatch `*consumed` still advances past the
/// damaged frame so a tolerant reader could resynchronise (the server
/// never does — any damage tears the session down).
DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t len,
                         std::size_t maxFrameBytes, Frame* out,
                         std::size_t* consumed);

/// Frame byte budget for a session over n-node matrices: covers the
/// largest legal frame (kEstimate: seq + 2 n² doubles) with headroom
/// for the control frames.
std::size_t MaxFrameBytesForNodes(std::size_t nodes) noexcept;

class Socket;

/// Buffered frame reader over a socket, shared by the client and the
/// server session.
class FrameReader {
 public:
  /// `bytesReceived` (may be null) counts every byte read from
  /// `socket`, which must outlive the reader.
  explicit FrameReader(Socket* socket, obs::Counter* bytesReceived = nullptr);

  /// Reads the next frame, receiving until one is whole.  Returns kOk
  /// with `*frame` filled, kCrcMismatch or kOversize on damage, and
  /// kNeedMore when the peer closed (or the read failed) first.
  DecodeStatus next(std::size_t maxFrameBytes, Frame* frame);

 private:
  Socket* socket_;
  obs::Counter* bytesReceived_;
  std::vector<std::uint8_t> buffer_;
  std::size_t parsed_ = 0;  ///< bytes of buffer_ already decoded
};

// ---- payload schemas -------------------------------------------------------

/// HELLO payload — everything the server needs to open (or resume) a
/// session.  The options subset here is exactly the set that changes
/// estimate bytes (plus the two resource knobs, which the server caps;
/// they never change results — the determinism contract).
struct HelloRequest {
  std::uint32_t version = kProtocolVersion;  ///< protocol version
  bool resume = false;          ///< resume `sessionKey` from a checkpoint
  std::uint64_t topologySeed = 0;  ///< generator seed for seeded specs
  double f = 0.25;              ///< forward fraction of the prior
  std::uint64_t window = 0;     ///< preference re-fit window (0 = off)
  core::SolverKind solver = core::SolverKind::kAuto;  ///< config echo
  std::uint32_t threads = 1;    ///< requested workers (server caps)
  std::uint32_t queueCapacity = 64;  ///< requested queue (server caps)
  std::uint64_t clientFrames = 0;  ///< estimate frames the client already
                                   ///< holds (resume only)
  std::string topologySpec;     ///< registry spec or .ictp path
  std::string sessionKey;       ///< empty = ephemeral (no checkpoints)

  /// Serialises into a payload byte vector.
  std::vector<std::uint8_t> encode() const;
  /// Parses a payload; false on short/overlong/malformed bytes.
  bool decode(const std::vector<std::uint8_t>& payload);
};

/// WELCOME payload — the accepted session's facts.
struct WelcomeReply {
  std::uint32_t version = kProtocolVersion;  ///< protocol version
  std::uint64_t nodes = 0;       ///< topology node count n
  std::uint64_t resumeFrom = 0;  ///< first bin seq the server expects

  /// Serialises into a payload byte vector.
  std::vector<std::uint8_t> encode() const;
  /// Parses a payload; false on short/overlong/malformed bytes.
  bool decode(const std::vector<std::uint8_t>& payload);
};

/// ERROR payload — a typed code plus a human-readable message.
struct ErrorInfo {
  ErrorCode code = ErrorCode::kProtocol;  ///< typed error code
  std::string message;                    ///< diagnostic text

  /// Serialises into a payload byte vector.
  std::vector<std::uint8_t> encode() const;
  /// Parses a payload; false on short/overlong/malformed bytes.
  bool decode(const std::vector<std::uint8_t>& payload);
};

/// Encodes a BIN payload: u64 seq + n² doubles.
std::vector<std::uint8_t> EncodeBinPayload(std::uint64_t seq,
                                           const double* bin,
                                           std::size_t nodes);

/// Decodes a BIN payload into `*seq` and `bin` (n² doubles); false on
/// a size mismatch.
bool DecodeBinPayload(const std::vector<std::uint8_t>& payload,
                      std::size_t nodes, std::uint64_t* seq, double* bin);

/// Encodes an ESTIMATE payload: u64 seq + n² estimate + n² prior.
std::vector<std::uint8_t> EncodeEstimatePayload(std::uint64_t seq,
                                                const double* estimate,
                                                const double* prior,
                                                std::size_t nodes);

/// Decodes an ESTIMATE payload; false on a size mismatch.  `estimate`
/// and `prior` receive n² doubles each.
bool DecodeEstimatePayload(const std::vector<std::uint8_t>& payload,
                           std::size_t nodes, std::uint64_t* seq,
                           double* estimate, double* prior);

/// Encodes a FIN / FIN_ACK payload: the u64 final bin count.
std::vector<std::uint8_t> EncodeCountPayload(std::uint64_t count);

/// Decodes a FIN / FIN_ACK payload; false on a size mismatch.
bool DecodeCountPayload(const std::vector<std::uint8_t>& payload,
                        std::uint64_t* count);

/// STATS payload — the server's flattened metrics snapshot
/// (obs::MetricsSnapshot::flatten()): name-sorted (name, u64 value)
/// pairs.  Wire format: u32 entry count, then per entry u32 name
/// length + name bytes + u64 value.
struct StatsReply {
  std::vector<std::pair<std::string, std::uint64_t>> entries;

  /// Serialises into a payload byte vector.
  std::vector<std::uint8_t> encode() const;
  /// Parses a payload; false on short/overlong/malformed bytes.
  bool decode(const std::vector<std::uint8_t>& payload);
};

}  // namespace ictm::server
