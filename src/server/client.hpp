// Client side of the server wire protocol — the library behind
// `ictm client`, and the driver every server test uses.
//
// Run() executes one whole session synchronously: connect, HELLO,
// stream bins [resumeFrom, totalBins) from a caller-supplied source
// while a receiver thread collects estimate frames, FIN, wait for
// FIN_ACK.  The estimate hook runs on the receiver thread, so a test
// that blocks inside it stops the client from reading — which is
// exactly how the slow-reader backpressure test creates a slow
// reader.
//
// Resume: after a failed session (server killed), run again with
// `hello.resume = true` and `hello.clientFrames` set to the number of
// estimate frames already in hand.  The server re-streams from its
// best checkpoint at or before that point; Run() discards re-sent
// frames below `clientFrames`, so the payloads the hook sees across
// both runs concatenate into exactly the uninterrupted sequence.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "server/socket.hpp"

namespace ictm::server {

/// Everything one client session needs.
struct ClientConfig {
  Endpoint endpoint;      ///< server address
  HelloRequest hello;     ///< session request (spec, options, key, resume)
  int socketBufferBytes = 0;  ///< >0 shrinks the socket buffers (tests)
};

/// Outcome of one client session.
struct ClientResult {
  bool finished = false;  ///< FIN_ACK received — stream fully served
  std::uint64_t nodes = 0;       ///< node count from WELCOME
  std::uint64_t resumeFrom = 0;  ///< first bin seq the server asked for
  std::uint64_t firstFrameSeq = 0;  ///< seq of the first kept estimate
  std::vector<std::vector<std::uint8_t>> estimatePayloads;  ///< kept, in order
  std::optional<ErrorInfo> serverError;  ///< typed ERROR frame, if any
  std::string transportError;  ///< socket/decode diagnostic, if any
};

/// Runs one client session to completion (or failure).
class Client {
 public:
  /// Returns the truth bin for `seq` (n² doubles, valid until the next
  /// call).  Called from the sending thread in ascending seq order,
  /// starting at the server's resume point.  A source that throws
  /// ends the session: Run() returns it unfinished, with the
  /// exception's message in `transportError`.
  using BinSource = std::function<const double*(std::uint64_t seq)>;

  /// Observes each kept estimate frame, on the receiver thread, in
  /// seq order.  Blocking here blocks the client's reads (and,
  /// through the server's backpressure chain, eventually its sends).
  using EstimateHook = std::function<void(
      std::uint64_t seq, const std::vector<std::uint8_t>& payload)>;

  /// Executes the session: bins [resumeFrom, totalBins) are pulled
  /// from `source` and streamed; estimate frames with seq >=
  /// hello.clientFrames are kept (re-sent ones below it discarded).
  /// Never throws; failures land in the result's error fields.
  static ClientResult Run(const ClientConfig& config,
                          std::uint64_t totalBins, const BinSource& source,
                          const EstimateHook& hook = nullptr);

  /// One-shot metrics probe (`ictm client --stats`): connects, sends
  /// an empty STATS frame pre-handshake, decodes the server's
  /// StatsReply.  False (with `*error` set) on refusal or transport
  /// failure.
  static bool FetchStats(const Endpoint& endpoint, StatsReply* reply,
                         std::string* error);
};

}  // namespace ictm::server
