// Frame-codec fuzz battery for the server wire protocol: truncated
// frames, oversize length prefixes, CRC bit-flips, unknown frame
// types and handshake replay must each be rejected with the right
// typed error frame — and a damaged session must never disturb its
// siblings.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "stream/online.hpp"
#include "test_util.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"

namespace ictm::server {
namespace {

HelloRequest ValidHello() {
  HelloRequest hello;
  hello.topologySpec = "abilene11";
  hello.f = 0.3;
  hello.window = 4;
  hello.threads = 1;
  hello.queueCapacity = 8;
  return hello;
}

// ---- pure codec ------------------------------------------------------------

TEST(FrameCodec, RoundTripsEveryPayloadKind) {
  const HelloRequest hello = ValidHello();
  const auto helloPayload = hello.encode();
  const auto bytes =
      EncodeFrame(FrameType::kHello, helloPayload.data(), helloPayload.size());

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), kMaxHandshakeFrameBytes,
                        &frame, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, FrameType::kHello);
  HelloRequest back;
  ASSERT_TRUE(back.decode(frame.payload));
  EXPECT_EQ(back.topologySpec, hello.topologySpec);
  EXPECT_EQ(back.f, hello.f);
  EXPECT_EQ(back.window, hello.window);
  EXPECT_EQ(back.queueCapacity, hello.queueCapacity);

  WelcomeReply welcome;
  welcome.nodes = 11;
  welcome.resumeFrom = 42;
  WelcomeReply welcomeBack;
  ASSERT_TRUE(welcomeBack.decode(welcome.encode()));
  EXPECT_EQ(welcomeBack.nodes, 11u);
  EXPECT_EQ(welcomeBack.resumeFrom, 42u);

  ErrorInfo error;
  error.code = ErrorCode::kBadSequence;
  error.message = "expected bin 3";
  ErrorInfo errorBack;
  ASSERT_TRUE(errorBack.decode(error.encode()));
  EXPECT_EQ(errorBack.code, ErrorCode::kBadSequence);
  EXPECT_EQ(errorBack.message, "expected bin 3");

  const std::size_t nodes = 3;
  std::vector<double> bin(nodes * nodes);
  for (std::size_t k = 0; k < bin.size(); ++k) bin[k] = double(k) * 1.5;
  const auto binPayload = EncodeBinPayload(7, bin.data(), nodes);
  std::uint64_t seq = 0;
  std::vector<double> binBack(nodes * nodes);
  ASSERT_TRUE(DecodeBinPayload(binPayload, nodes, &seq, binBack.data()));
  EXPECT_EQ(seq, 7u);
  EXPECT_EQ(bin, binBack);

  std::vector<double> prior(nodes * nodes, 2.0);
  const auto estPayload =
      EncodeEstimatePayload(9, bin.data(), prior.data(), nodes);
  std::vector<double> estBack(nodes * nodes), priorBack(nodes * nodes);
  ASSERT_TRUE(DecodeEstimatePayload(estPayload, nodes, &seq, estBack.data(),
                                    priorBack.data()));
  EXPECT_EQ(seq, 9u);
  EXPECT_EQ(bin, estBack);
  EXPECT_EQ(prior, priorBack);

  std::uint64_t count = 0;
  ASSERT_TRUE(DecodeCountPayload(EncodeCountPayload(123), &count));
  EXPECT_EQ(count, 123u);
}

TEST(FrameCodec, EveryTruncationAsksForMoreBytes) {
  const auto payload = EncodeCountPayload(5);
  const auto bytes =
      EncodeFrame(FrameType::kFin, payload.data(), payload.size());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), len, kMaxHandshakeFrameBytes, &frame,
                          &consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(FrameCodec, OversizeAndZeroLengthPrefixesAreRejected) {
  std::vector<std::uint8_t> bytes(8, 0);
  const std::uint32_t huge = 1u << 30;
  std::memcpy(bytes.data(), &huge, sizeof(huge));
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), kMaxHandshakeFrameBytes,
                        &frame, &consumed),
            DecodeStatus::kOversize);

  // A zero body length can never be valid; it must not spin as
  // kNeedMore forever.
  std::memset(bytes.data(), 0, bytes.size());
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), kMaxHandshakeFrameBytes,
                        &frame, &consumed),
            DecodeStatus::kOversize);
}

TEST(FrameCodec, EveryCrcBitFlipIsDetected) {
  const auto payload = EncodeCountPayload(77);
  const auto clean =
      EncodeFrame(FrameType::kFin, payload.data(), payload.size());
  // Flip one bit in every body/CRC byte (the length prefix is not CRC
  // protected — flipping it changes framing, covered above).
  for (std::size_t i = 4; i < clean.size(); ++i) {
    auto damaged = clean;
    damaged[i] ^= 0x10;
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(damaged.data(), damaged.size(),
                          kMaxHandshakeFrameBytes, &frame, &consumed),
              DecodeStatus::kCrcMismatch)
        << "flipped byte " << i;
    EXPECT_EQ(consumed, damaged.size());
  }
}

TEST(FrameCodec, MalformedPayloadsFailToDecode) {
  HelloRequest hello;
  auto bytes = ValidHello().encode();
  bytes.pop_back();
  EXPECT_FALSE(hello.decode(bytes));  // truncated

  bytes = ValidHello().encode();
  bytes.push_back(0);
  EXPECT_FALSE(hello.decode(bytes));  // trailing junk

  // The solver byte sits after sentinel(4) version(4) resume(1)
  // seed(8) f(8) window(8).  2 and 3 are the retired sparse and cg.
  for (const int solverByte : {0x02, 0x03, 0xee}) {
    bytes = ValidHello().encode();
    bytes[4 + 4 + 1 + 8 + 8 + 8] = static_cast<std::uint8_t>(solverByte);
    EXPECT_FALSE(hello.decode(bytes)) << "solver byte " << solverByte;
  }

  auto wrongOrder = ValidHello().encode();
  wrongOrder[0] ^= 0xff;  // byte-order sentinel
  EXPECT_FALSE(hello.decode(wrongOrder));

  WelcomeReply welcome;
  EXPECT_FALSE(welcome.decode(std::vector<std::uint8_t>(3, 0)));
  ErrorInfo error;
  EXPECT_FALSE(error.decode(std::vector<std::uint8_t>(1, 0)));
  std::uint64_t seq = 0;
  double bin[4] = {};
  EXPECT_FALSE(DecodeBinPayload(std::vector<std::uint8_t>(9, 0), 2, &seq,
                                bin));
}

TEST(FrameCodec, StatsReplyRoundTripsAndRejectsDamage) {
  StatsReply reply;
  reply.entries = {{"server.bins_received", 17},
                   {"server.sessions_opened", 2},
                   {"stream.bins_pushed", 17}};
  const auto bytes = reply.encode();

  StatsReply back;
  ASSERT_TRUE(back.decode(bytes));
  EXPECT_EQ(back.entries, reply.entries);

  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_FALSE(back.decode(truncated));

  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(back.decode(trailing));

  // An absurd entry count must be rejected before any allocation.
  std::vector<std::uint8_t> huge(sizeof(std::uint32_t));
  const std::uint32_t bigCount = 0xffffffffu;
  std::memcpy(huge.data(), &bigCount, sizeof(bigCount));
  EXPECT_FALSE(back.decode(huge));
}

TEST(FrameCodec, PayloadBytesMatchGolden) {
  // Expected bytes were captured from the encoder before the wire and
  // checkpoint codecs were merged; any byte change breaks old peers.
  HelloRequest hello;
  hello.resume = true;
  hello.topologySeed = 7;
  hello.f = 0.3;
  hello.window = 5;
  hello.solver = core::SolverKind::kDense;
  hello.threads = 2;
  hello.queueCapacity = 8;
  hello.clientFrames = 13;
  hello.topologySpec = "abilene11";
  hello.sessionKey = "job-1";
  EXPECT_EQ(test::Hex(hello.encode()),
            "0403020101000000010700000000000000333333333333d33f05000000000000"
            "000102000000080000000d00000000000000090000006162696c656e65313105"
            "0000006a6f622d31");

  WelcomeReply welcome;
  welcome.nodes = 11;
  welcome.resumeFrom = 8;
  EXPECT_EQ(test::Hex(welcome.encode()),
            "04030201010000000b000000000000000800000000000000");

  ErrorInfo error;
  error.code = ErrorCode::kSessionMismatch;
  error.message = "mismatch";
  EXPECT_EQ(test::Hex(error.encode()), "0900080000006d69736d61746368");

  StatsReply stats;
  stats.entries = {{"a.b", 3}, {"server.bins", 42}};
  EXPECT_EQ(test::Hex(stats.encode()),
            "0200000003000000612e6203000000000000000b0000007365727665722e6269"
            "6e732a00000000000000");

  const double bin[4] = {1.5, 0.0, 2.25, 1e6};
  const double prior[4] = {1.0, 0.5, 2.0, 999999.0};
  EXPECT_EQ(test::Hex(EncodeBinPayload(5, bin, 2)),
            "0500000000000000000000000000f83f00000000000000000000000000000240"
            "0000000080842e41");
  EXPECT_EQ(test::Hex(EncodeEstimatePayload(5, bin, prior, 2)),
            "0500000000000000000000000000f83f00000000000000000000000000000240"
            "0000000080842e41000000000000f03f000000000000e03f0000000000000040"
            "000000007e842e41");

  const auto fin = EncodeCountPayload(48);
  EXPECT_EQ(test::Hex(fin), "3000000000000000");
  EXPECT_EQ(test::Hex(EncodeFrame(FrameType::kFin, fin.data(), fin.size())),
            "090000000530000000000000009c025329");
}

TEST(FrameCodec, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kCrc), "crc");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kOversize), "oversize");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kHandshakeReplay),
               "handshake-replay");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kBadBin), "bad-bin");
  EXPECT_STREQ(ErrorCodeName(static_cast<ErrorCode>(999)), "unknown");
}

// ---- live-server rejection paths -------------------------------------------

/// Raw protocol probe: a socket plus a buffered frame reader, for
/// sending deliberately damaged bytes a well-behaved Client never
/// would.
struct Probe {
  Socket socket;
  std::vector<std::uint8_t> buffer;
  std::size_t parsed = 0;

  static Probe ConnectTo(const Server& server) {
    std::string error;
    Probe probe;
    probe.socket = Socket::Connect(server.endpoint(), &error);
    EXPECT_TRUE(probe.socket.valid()) << error;
    return probe;
  }

  bool sendRaw(const std::vector<std::uint8_t>& bytes) {
    return socket.sendAll(bytes.data(), bytes.size());
  }

  bool sendFrame(FrameType type, const std::vector<std::uint8_t>& payload) {
    return sendRaw(EncodeFrame(type, payload.data(), payload.size()));
  }

  /// Reads until one frame decodes (or the peer closes).
  bool readFrame(Frame* frame) {
    for (;;) {
      std::size_t consumed = 0;
      const DecodeStatus status =
          DecodeFrame(buffer.data() + parsed, buffer.size() - parsed,
                      1u << 24, frame, &consumed);
      if (status == DecodeStatus::kOk) {
        parsed += consumed;
        return true;
      }
      if (status != DecodeStatus::kNeedMore) return false;
      std::uint8_t chunk[4096];
      const long n = socket.recvSome(chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer.insert(buffer.end(), chunk, chunk + n);
    }
  }

  /// Expects the next inbound frame to be a typed error.
  void expectError(ErrorCode code) {
    Frame frame;
    ASSERT_TRUE(readFrame(&frame)) << "connection closed without an "
                                      "ERROR frame";
    ASSERT_EQ(frame.type, FrameType::kError);
    ErrorInfo info;
    ASSERT_TRUE(info.decode(frame.payload));
    EXPECT_EQ(info.code, code) << "message: " << info.message;
  }

  /// Completes a healthy handshake.
  void handshake(const HelloRequest& hello) {
    ASSERT_TRUE(sendFrame(FrameType::kHello, hello.encode()));
    Frame frame;
    ASSERT_TRUE(readFrame(&frame));
    ASSERT_EQ(frame.type, FrameType::kWelcome);
  }
};

class ProtocolServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    ASSERT_TRUE(Endpoint::Parse(
        test::TempPath("proto_server.sock"), &options.listen));
    server_ = std::make_unique<Server>(options);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override { server_->stop(); }

  std::unique_ptr<Server> server_;
};

TEST_F(ProtocolServerTest, CrcDamageGetsTypedErrorWithoutHurtingSibling) {
  // Healthy sibling mid-handshake while the damage lands.
  Probe sibling = Probe::ConnectTo(*server_);
  sibling.handshake(ValidHello());

  Probe victim = Probe::ConnectTo(*server_);
  auto bytes = EncodeFrame(FrameType::kHello, ValidHello().encode().data(),
                           ValidHello().encode().size());
  bytes[bytes.size() - 1] ^= 0x01;  // CRC trailer bit-flip
  ASSERT_TRUE(victim.sendRaw(bytes));
  victim.expectError(ErrorCode::kCrc);

  // The sibling still streams fine after the victim's teardown.
  const std::size_t nodes = 11;
  const auto truth = test::RandomSeries(nodes, 3, 21);
  for (std::uint64_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(sibling.sendFrame(
        FrameType::kBin,
        EncodeBinPayload(t, truth.binData(static_cast<std::size_t>(t)),
                         nodes)));
  }
  ASSERT_TRUE(sibling.sendFrame(FrameType::kFin, EncodeCountPayload(3)));
  std::size_t estimates = 0;
  for (;;) {
    Frame frame;
    ASSERT_TRUE(sibling.readFrame(&frame));
    if (frame.type == FrameType::kEstimate) {
      ++estimates;
      continue;
    }
    ASSERT_EQ(frame.type, FrameType::kFinAck);
    break;
  }
  EXPECT_EQ(estimates, 3u);
}

TEST_F(ProtocolServerTest, OversizeLengthPrefixIsRejected) {
  Probe probe = Probe::ConnectTo(*server_);
  std::vector<std::uint8_t> bytes(16, 0xab);
  const std::uint32_t huge = 1u << 28;
  std::memcpy(bytes.data(), &huge, sizeof(huge));
  ASSERT_TRUE(probe.sendRaw(bytes));
  probe.expectError(ErrorCode::kOversize);
}

TEST_F(ProtocolServerTest, UnknownFrameTypeIsRejected) {
  Probe probe = Probe::ConnectTo(*server_);
  const std::vector<std::uint8_t> empty;
  ASSERT_TRUE(probe.sendFrame(static_cast<FrameType>(99), empty));
  probe.expectError(ErrorCode::kUnknownType);
}

TEST_F(ProtocolServerTest, HandshakeReplayTearsTheSessionDown) {
  Probe probe = Probe::ConnectTo(*server_);
  probe.handshake(ValidHello());
  ASSERT_TRUE(probe.sendFrame(FrameType::kHello, ValidHello().encode()));
  probe.expectError(ErrorCode::kHandshakeReplay);
}

TEST_F(ProtocolServerTest, RefusalsCarryTheRightCode) {
  {
    Probe probe = Probe::ConnectTo(*server_);
    auto hello = ValidHello();
    hello.version = 99;
    ASSERT_TRUE(probe.sendFrame(FrameType::kHello, hello.encode()));
    probe.expectError(ErrorCode::kVersion);
  }
  {
    Probe probe = Probe::ConnectTo(*server_);
    auto hello = ValidHello();
    hello.topologySpec = "no-such-topology";
    ASSERT_TRUE(probe.sendFrame(FrameType::kHello, hello.encode()));
    probe.expectError(ErrorCode::kBadHandshake);
  }
  {
    // Non-positive queue capacity: the `--queue 0` class of bug is
    // rejected at the protocol boundary too, not only in the CLIs.
    Probe probe = Probe::ConnectTo(*server_);
    auto hello = ValidHello();
    hello.queueCapacity = 0;
    ASSERT_TRUE(probe.sendFrame(FrameType::kHello, hello.encode()));
    probe.expectError(ErrorCode::kBadHandshake);
  }
  {
    Probe probe = Probe::ConnectTo(*server_);
    auto hello = ValidHello();
    hello.f = 1.5;
    ASSERT_TRUE(probe.sendFrame(FrameType::kHello, hello.encode()));
    probe.expectError(ErrorCode::kBadHandshake);
  }
  {
    // Solver byte 3, the retired cg backend, is a malformed HELLO.
    Probe probe = Probe::ConnectTo(*server_);
    auto hello = ValidHello();
    hello.solver = static_cast<core::SolverKind>(3);
    ASSERT_TRUE(probe.sendFrame(FrameType::kHello, hello.encode()));
    probe.expectError(ErrorCode::kProtocol);
  }
  {
    // This server has no checkpoint store, so resume cannot work.
    Probe probe = Probe::ConnectTo(*server_);
    auto hello = ValidHello();
    hello.resume = true;
    hello.sessionKey = "job-1";
    ASSERT_TRUE(probe.sendFrame(FrameType::kHello, hello.encode()));
    probe.expectError(ErrorCode::kUnknownSession);
  }
  {
    Probe probe = Probe::ConnectTo(*server_);
    ASSERT_TRUE(probe.sendFrame(FrameType::kFin, EncodeCountPayload(0)));
    probe.expectError(ErrorCode::kProtocol);  // FIN before HELLO
  }
}

TEST_F(ProtocolServerTest, RefusalBeforeTheHandshakeEndsWithEof) {
  // A session refused before its handshake must shut its socket after
  // the ERROR frame, not leave it open until the accept loop reaps the
  // session on the next connection.  SO_RCVTIMEO turns a hang into a
  // failed recv instead of a blocked test.
  struct Case {
    const char* name;
    std::vector<std::uint8_t> bytes;
    ErrorCode code;
  };
  const auto helloFrame = [](const HelloRequest& hello) {
    const auto payload = hello.encode();
    return EncodeFrame(FrameType::kHello, payload.data(), payload.size());
  };
  std::vector<Case> cases;
  {
    HelloRequest hello = ValidHello();
    hello.version = 99;
    cases.push_back({"version 99", helloFrame(hello), ErrorCode::kVersion});
  }
  {
    HelloRequest hello = ValidHello();
    hello.f = 2.0;
    cases.push_back({"f = 2", helloFrame(hello), ErrorCode::kBadHandshake});
  }
  {
    HelloRequest hello = ValidHello();
    hello.topologySpec.clear();
    cases.push_back(
        {"empty topology spec", helloFrame(hello), ErrorCode::kBadHandshake});
  }
  {
    HelloRequest hello = ValidHello();
    hello.resume = true;
    cases.push_back(
        {"resume without a key", helloFrame(hello), ErrorCode::kBadHandshake});
  }
  {
    const std::vector<double> bin(11 * 11, 1.0);
    const auto payload = EncodeBinPayload(0, bin.data(), 11);
    cases.push_back({"BIN before HELLO",
                     EncodeFrame(FrameType::kBin, payload.data(),
                                 payload.size()),
                     ErrorCode::kProtocol});
  }
  {
    auto bytes = helloFrame(ValidHello());
    bytes.back() ^= 0x01;  // CRC trailer bit-flip
    cases.push_back({"CRC-damaged first frame", bytes, ErrorCode::kCrc});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Probe probe = Probe::ConnectTo(*server_);
    const timeval timeout{5, 0};
    ASSERT_EQ(::setsockopt(probe.socket.fd(), SOL_SOCKET, SO_RCVTIMEO,
                           &timeout, sizeof timeout),
              0);
    ASSERT_TRUE(probe.sendRaw(c.bytes));
    probe.expectError(c.code);
    const auto start = std::chrono::steady_clock::now();
    std::uint8_t byte = 0;
    EXPECT_EQ(probe.socket.recvSome(&byte, 1), 0)
        << "no EOF after the ERROR frame";
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              1.0);
  }
}

TEST_F(ProtocolServerTest, StatsProbeReturnsSortedSnapshotThenCloses) {
  // One real handshake first, so server-side counters exist.
  Probe session = Probe::ConnectTo(*server_);
  session.handshake(ValidHello());

  Probe probe = Probe::ConnectTo(*server_);
  ASSERT_TRUE(probe.sendFrame(FrameType::kStats, {}));
  Frame frame;
  ASSERT_TRUE(probe.readFrame(&frame));
  ASSERT_EQ(frame.type, FrameType::kStats);
  StatsReply reply;
  ASSERT_TRUE(reply.decode(frame.payload));
  for (std::size_t i = 1; i < reply.entries.size(); ++i) {
    EXPECT_LT(reply.entries[i - 1].first, reply.entries[i].first);
  }
  std::uint64_t opened = 0;
  bool sawOpened = false;
  for (const auto& [name, value] : reply.entries) {
    if (name == "server.sessions_opened") {
      sawOpened = true;
      opened = value;
    }
  }
  EXPECT_TRUE(sawOpened);
  EXPECT_GE(opened, 1u);
  // The probe is one-shot: the server replies, then closes.
  EXPECT_FALSE(probe.readFrame(&frame));
}

TEST_F(ProtocolServerTest, StatsRefusalPaths) {
  {
    // Non-empty payload: protocol error, no reply.
    Probe probe = Probe::ConnectTo(*server_);
    const std::vector<std::uint8_t> junk{1, 2, 3};
    ASSERT_TRUE(probe.sendFrame(FrameType::kStats, junk));
    probe.expectError(ErrorCode::kProtocol);
  }
  {
    // STATS after the handshake: the session is torn down.
    Probe probe = Probe::ConnectTo(*server_);
    probe.handshake(ValidHello());
    ASSERT_TRUE(probe.sendFrame(FrameType::kStats, {}));
    probe.expectError(ErrorCode::kProtocol);
  }
}

TEST_F(ProtocolServerTest, ClientFetchStatsHelperDecodesTheReply) {
  StatsReply reply;
  std::string error;
  ASSERT_TRUE(Client::FetchStats(server_->endpoint(), &reply, &error))
      << error;
}

TEST_F(ProtocolServerTest, OutOfOrderBinIsRejected) {
  Probe probe = Probe::ConnectTo(*server_);
  probe.handshake(ValidHello());
  const std::size_t nodes = 11;
  const std::vector<double> bin(nodes * nodes, 1.0);
  ASSERT_TRUE(probe.sendFrame(FrameType::kBin,
                              EncodeBinPayload(5, bin.data(), nodes)));
  probe.expectError(ErrorCode::kBadSequence);
}

TEST_F(ProtocolServerTest, NonFiniteBinIsRefusedNamingTheBin) {
  // A NaN, infinite or negative cell in a BIN's traffic makes bad
  // measurements; the estimator refuses them, and the session answers
  // with a typed bad-bin ERROR carrying its message.  A negative
  // diagonal cell uses no link, so only its marginals go negative.
  // The estimate of the bin before may or may not precede the ERROR.
  const std::size_t nodes = 11;
  struct Case {
    std::size_t cell;
    double value;
    std::string prefix;
    std::string cause;
  };
  const std::vector<Case> cases = {
      {3, std::nan(""), "bin 1: link load ", " is NaN"},
      {3, HUGE_VAL, "bin 1: link load ", " is infinite"},
      {2 * nodes + 2, -100.0, "bin 1: ingress 2 ", " is negative"}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cause);
    Probe probe = Probe::ConnectTo(*server_);
    probe.handshake(ValidHello());
    std::vector<double> bin(nodes * nodes, 1.0);
    ASSERT_TRUE(probe.sendFrame(FrameType::kBin,
                                EncodeBinPayload(0, bin.data(), nodes)));
    bin[c.cell] = c.value;
    ASSERT_TRUE(probe.sendFrame(FrameType::kBin,
                                EncodeBinPayload(1, bin.data(), nodes)));
    Frame frame;
    ASSERT_TRUE(probe.readFrame(&frame));
    if (frame.type == FrameType::kEstimate) {
      ASSERT_TRUE(probe.readFrame(&frame));
    }
    ASSERT_EQ(frame.type, FrameType::kError);
    ErrorInfo info;
    ASSERT_TRUE(info.decode(frame.payload));
    EXPECT_EQ(info.code, ErrorCode::kBadBin);
    EXPECT_EQ(info.message.rfind(c.prefix, 0), 0u) << info.message;
    EXPECT_NE(info.message.find(c.cause), std::string::npos) << info.message;
  }
}

TEST_F(ProtocolServerTest, ErrorIsTheLastFrameOfAFailedSession) {
  // Four workers are still emitting when the bad BIN arrives.  The
  // session must send a prefix of its estimates in order, then exactly
  // one ERROR, then nothing: no ESTIMATE may follow the ERROR.
  Probe probe = Probe::ConnectTo(*server_);
  HelloRequest hello = ValidHello();
  hello.threads = 4;
  probe.handshake(hello);
  const std::size_t nodes = 11;
  const std::size_t bins = 48;
  const auto truth = test::RandomSeries(nodes, bins, 22);
  for (std::size_t t = 0; t < bins; ++t) {
    ASSERT_TRUE(probe.sendFrame(
        FrameType::kBin, EncodeBinPayload(t, truth.binData(t), nodes)));
  }
  ASSERT_TRUE(probe.sendFrame(FrameType::kBin,
                              EncodeBinPayload(7, truth.binData(7), nodes)));

  std::uint64_t nextSeq = 0;
  std::size_t errors = 0;
  std::vector<double> estimate(nodes * nodes), prior(nodes * nodes);
  Frame frame;
  while (probe.readFrame(&frame)) {  // until the server closes
    ASSERT_EQ(errors, 0u) << "frame type "
                          << static_cast<unsigned>(frame.type)
                          << " after the ERROR";
    if (frame.type == FrameType::kEstimate) {
      std::uint64_t seq = 0;
      ASSERT_TRUE(DecodeEstimatePayload(frame.payload, nodes, &seq,
                                        estimate.data(), prior.data()));
      ASSERT_EQ(seq, nextSeq);
      ++nextSeq;
      continue;
    }
    ASSERT_EQ(frame.type, FrameType::kError);
    ErrorInfo info;
    ASSERT_TRUE(info.decode(frame.payload));
    EXPECT_EQ(info.code, ErrorCode::kBadSequence) << info.message;
    ++errors;
  }
  EXPECT_EQ(errors, 1u);
  EXPECT_LE(nextSeq, bins);
}

TEST(EndpointSpec, ParsesAndRejects) {
  Endpoint ep;
  ASSERT_TRUE(Endpoint::Parse("unix:/tmp/x.sock", &ep));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/x.sock");
  ASSERT_TRUE(Endpoint::Parse("tcp:127.0.0.1:0", &ep));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.port, 0);
  ASSERT_TRUE(Endpoint::Parse("/bare/path.sock", &ep));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_FALSE(Endpoint::Parse("", &ep));
  EXPECT_FALSE(Endpoint::Parse("tcp:hostonly", &ep));
  EXPECT_FALSE(Endpoint::Parse("tcp:h:99999", &ep));
  EXPECT_FALSE(Endpoint::Parse("udp:1.2.3.4:5", &ep));
}

}  // namespace
}  // namespace ictm::server
