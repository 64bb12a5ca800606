// Fault-tolerance battery for the estimation server: kill the server
// mid-stream at randomized (seeded) points, restart it on the same
// checkpoint directory, reconnect with the session key, and assert
// the concatenated estimate frames are byte-identical to an
// uninterrupted run.  Also covers the CheckpointStore file format
// (corruption fallback, retention, drop) and the StreamingEstimator
// checkpoint/resume contract the whole scheme rests on.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/checkpoint.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "stats/rng.hpp"
#include "stream/online.hpp"
#include "test_util.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"

namespace ictm::server {
namespace {

constexpr char kSpec[] = "abilene11";
constexpr std::size_t kBins = 48;
constexpr std::uint64_t kWindow = 5;
constexpr double kF = 0.3;

/// The uninterrupted `ictm stream` baseline, framed as the server
/// frames it.
std::vector<std::vector<std::uint8_t>> BaselinePayloads(
    const traffic::TrafficMatrixSeries& truth) {
  const topology::Graph graph = topology::MakeTopology(kSpec, 0);
  const linalg::CscMatrix routing = topology::BuildRouting(graph);
  stream::StreamingOptions options;
  options.window = kWindow;
  options.f = kF;
  const stream::StreamingRunResult run =
      stream::EstimateSeriesStreaming(routing, truth, options);
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(truth.binCount());
  for (std::size_t t = 0; t < truth.binCount(); ++t) {
    payloads.push_back(EncodeEstimatePayload(
        t, run.estimates.binData(t), run.priors.binData(t),
        truth.nodeCount()));
  }
  return payloads;
}

HelloRequest HelloFor(const std::string& sessionKey) {
  HelloRequest hello;
  hello.topologySpec = kSpec;
  hello.f = kF;
  hello.window = kWindow;
  hello.threads = 2;
  hello.queueCapacity = 8;
  hello.sessionKey = sessionKey;
  return hello;
}

std::unique_ptr<Server> StartServer(const std::string& socketName,
                                    const std::string& checkpointDir,
                                    std::size_t checkpointEvery) {
  ServerOptions options;
  if (!Endpoint::Parse(test::TempPath(socketName), &options.listen)) {
    ADD_FAILURE() << "bad endpoint";
    return nullptr;
  }
  options.checkpointDir = checkpointDir;
  options.limits.checkpointEvery = checkpointEvery;
  // Keep the per-session pipeline shallow (tiny socket buffers) so a
  // gated client bounds how far the server can run ahead — the kill
  // below must land mid-stream, never after the whole run has drained
  // into kernel buffers.
  options.limits.socketBufferBytes = 4096;
  auto server = std::make_unique<Server>(options);
  std::string error;
  if (!server->start(&error)) {
    ADD_FAILURE() << error;
    return nullptr;
  }
  return server;
}

/// Runs a client whose receiver gates (blocks) once `gateAt` frames
/// arrived, keeps it gated until the caller stopped the server, then
/// drains whatever was already buffered.  Returns the (unfinished)
/// result — this is the deterministic "crash mid-stream" harness.
ClientResult RunClientKilledAt(Server* server, const HelloRequest& hello,
                               const Client::BinSource& source,
                               std::size_t gateAt) {
  std::mutex mutex;
  std::condition_variable reachedCv;
  std::condition_variable gateCv;
  std::size_t received = 0;
  bool gateOpen = false;
  ClientResult result;
  std::thread clientThread([&] {
    ClientConfig config{server->endpoint(), hello, 4096};
    result = Client::Run(
        config, kBins, source,
        [&](std::uint64_t, const std::vector<std::uint8_t>&) {
          std::unique_lock<std::mutex> lock(mutex);
          if (++received >= gateAt) {
            reachedCv.notify_all();
            gateCv.wait(lock, [&] { return gateOpen; });
          }
        });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    reachedCv.wait(lock, [&] { return received >= gateAt; });
  }
  server->stop();  // crash: abortive, no graceful drain
  {
    std::lock_guard<std::mutex> lock(mutex);
    gateOpen = true;
  }
  gateCv.notify_all();
  clientThread.join();
  return result;
}

TEST(ServerResume, KillAtRandomizedCheckpointsThenResumeBitIdentical) {
  const auto truth = test::RandomSeries(11, kBins, 301);
  const auto baseline = BaselinePayloads(truth);
  const auto source = [&truth](std::uint64_t seq) {
    return truth.binData(static_cast<std::size_t>(seq));
  };

  // Seeded randomized kill points: each trial gates the client after
  // a different number of received frames, then stops the server
  // abortively — the crash the checkpoint scheme promises to survive.
  stats::Rng rng(20260807);
  for (int trial = 0; trial < 3; ++trial) {
    // The shallow pipeline caps the server's run-ahead at roughly a
    // dozen frames past the gate, so any gate in [1, kBins/2) kills
    // strictly mid-stream.
    const auto killAfter =
        static_cast<std::size_t>(rng.uniform(1.0, double(kBins / 2)));
    SCOPED_TRACE("trial " + std::to_string(trial) + " killAfter " +
                 std::to_string(killAfter));
    const std::string checkpointDir =
        test::TempPath("resume_ckpt_" + std::to_string(trial));
    const std::string sessionKey = "resume-job-" + std::to_string(trial);

    // --- first run: killed mid-stream -------------------------------
    auto server = StartServer("resume_a_" + std::to_string(trial) + ".sock",
                              checkpointDir, /*checkpointEvery=*/4);
    ASSERT_NE(server, nullptr);
    const ClientResult first = RunClientKilledAt(
        server.get(), HelloFor(sessionKey), source, killAfter);
    ASSERT_FALSE(first.finished);
    const std::uint64_t have = first.estimatePayloads.size();
    ASSERT_GE(have, killAfter);
    ASSERT_LT(have, static_cast<std::uint64_t>(kBins));

    // --- second run: restart, reconnect, resume ---------------------
    server = StartServer("resume_b_" + std::to_string(trial) + ".sock",
                         checkpointDir, /*checkpointEvery=*/4);
    ASSERT_NE(server, nullptr);
    HelloRequest hello = HelloFor(sessionKey);
    hello.resume = true;
    hello.clientFrames = have;
    const ClientResult second =
        Client::Run({server->endpoint(), hello, 0}, kBins, source);
    ASSERT_TRUE(second.finished)
        << second.transportError
        << (second.serverError ? " / " + second.serverError->message : "");
    // The server resumed from a durable checkpoint at or before the
    // client's received count, on a checkpoint boundary.
    EXPECT_LE(second.resumeFrom, have);
    EXPECT_EQ(second.resumeFrom % 4, 0u);
    ASSERT_EQ(second.firstFrameSeq, have);

    // The concatenation across the crash is the uninterrupted run.
    std::vector<std::vector<std::uint8_t>> combined = first.estimatePayloads;
    combined.insert(combined.end(), second.estimatePayloads.begin(),
                    second.estimatePayloads.end());
    ASSERT_EQ(combined.size(), baseline.size());
    for (std::size_t t = 0; t < baseline.size(); ++t) {
      ASSERT_EQ(combined[t], baseline[t])
          << "estimate frame " << t << " differs across the crash";
    }

    // Clean completion dropped the session's checkpoints once its
    // FIN_ACK was written; stop() joins the session that does it.
    server->stop();
    CheckpointStore store(checkpointDir);
    EXPECT_FALSE(store.load(sessionKey, kBins).has_value());
  }
}

TEST(ServerResume, ResumeWithChangedOptionsIsRefused) {
  const auto truth = test::RandomSeries(11, kBins, 302);
  const auto source = [&truth](std::uint64_t seq) {
    return truth.binData(static_cast<std::size_t>(seq));
  };
  const std::string checkpointDir = test::TempPath("resume_mismatch_ckpt");

  auto server = StartServer("mismatch_a.sock", checkpointDir, 4);
  ASSERT_NE(server, nullptr);
  const ClientResult first =
      RunClientKilledAt(server.get(), HelloFor("mismatch-job"), source, 10);
  ASSERT_FALSE(first.finished);

  server = StartServer("mismatch_b.sock", checkpointDir, 4);
  ASSERT_NE(server, nullptr);
  HelloRequest hello = HelloFor("mismatch-job");
  hello.resume = true;
  hello.clientFrames = first.estimatePayloads.size();
  hello.window = kWindow + 1;  // config echo mismatch
  const ClientResult second =
      Client::Run({server->endpoint(), hello, 0}, kBins, source);
  EXPECT_FALSE(second.finished);
  ASSERT_TRUE(second.serverError.has_value());
  EXPECT_EQ(second.serverError->code, ErrorCode::kSessionMismatch);
  server->stop();
}

TEST(ServerResume, MismatchAgainstNewerCheckpointsIsRefused) {
  // The server ran past the client: every retained checkpoint lies
  // above the client's frame count.  A resume with changed options
  // must still be refused, not silently restarted at bin 0.
  const std::string checkpointDir = test::TempPath("resume_newer_ckpt");
  const std::string sessionKey = "newer-job";
  SessionCheckpoint checkpoint;
  checkpoint.sessionKey = sessionKey;
  checkpoint.topologySpec = kSpec;
  checkpoint.f = kF;
  checkpoint.window = kWindow;
  checkpoint.state.preference = linalg::Vector(11, 1.0);
  checkpoint.state.windowIngress = linalg::Vector(11, 0.0);
  checkpoint.state.windowEgress = linalg::Vector(11, 0.0);
  CheckpointStore store(checkpointDir);
  for (const std::uint64_t seq : {20u, 24u}) {
    checkpoint.state.seq = seq;
    store.save(checkpoint);
  }

  const auto truth = test::RandomSeries(11, kBins, 304);
  const auto source = [&truth](std::uint64_t seq) {
    return truth.binData(static_cast<std::size_t>(seq));
  };
  auto server = StartServer("newer.sock", checkpointDir, 4);
  ASSERT_NE(server, nullptr);
  HelloRequest hello = HelloFor(sessionKey);
  hello.resume = true;
  hello.clientFrames = 10;
  hello.window = kWindow + 1;
  const ClientResult refused =
      Client::Run({server->endpoint(), hello, 0}, kBins, source);
  EXPECT_FALSE(refused.finished);
  ASSERT_TRUE(refused.serverError.has_value());
  EXPECT_EQ(refused.serverError->code, ErrorCode::kSessionMismatch);

  // With matching options the resume restarts from bin 0, the newest
  // checkpoint at or below the client's frames being none.
  hello.window = kWindow;
  const ClientResult restarted =
      Client::Run({server->endpoint(), hello, 0}, kBins, source);
  EXPECT_TRUE(restarted.finished) << restarted.transportError;
  EXPECT_EQ(restarted.resumeFrom, 0u);
  server->stop();
}

TEST(ServerResume, SessionCompletedAfterItsClientLeftKeepsCheckpoints) {
  // The client sends every BIN and FIN, then closes without reading a
  // frame.  The server completes the session from buffered bytes, but
  // no FIN_ACK reaches the client, so its checkpoints must survive.
  constexpr std::size_t kSentBins = 16;
  const std::string checkpointDir = test::TempPath("resume_vanished_ckpt");
  const std::string sessionKey = "vanished-job";
  auto server = StartServer("vanished.sock", checkpointDir, 4);
  ASSERT_NE(server, nullptr);

  const auto truth = test::RandomSeries(11, kSentBins, 305);
  HelloRequest hello = HelloFor(sessionKey);
  hello.queueCapacity = 64;  // the server reads every bin unblocked
  std::string error;
  Socket socket = Socket::Connect(server->endpoint(), &error);
  ASSERT_TRUE(socket.valid()) << error;
  socket.setBufferSizes(4096);
  const auto send = [&socket](FrameType type,
                              const std::vector<std::uint8_t>& payload) {
    const auto frame = EncodeFrame(type, payload.data(), payload.size());
    return socket.sendAll(frame.data(), frame.size());
  };
  ASSERT_TRUE(send(FrameType::kHello, hello.encode()));
  for (std::size_t t = 0; t < kSentBins; ++t) {
    ASSERT_TRUE(send(FrameType::kBin,
                     EncodeBinPayload(t, truth.binData(t), 11)));
  }
  ASSERT_TRUE(send(FrameType::kFin, EncodeCountPayload(kSentBins)));
  socket.close();

  // Wait until the last bin's checkpoint is durable, then stop.
  CheckpointStore store(checkpointDir);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto newest = store.load(sessionKey, kSentBins);
    if (newest.has_value() && newest->state.seq == kSentBins) break;
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->stop();
  const auto kept = store.load(sessionKey, kSentBins);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->state.seq, kSentBins);
}

TEST(ServerResume, ThrowingBinSourceEndsTheSessionUnfinished) {
  // A damaged input surfaces as an exception from the bin source on
  // the sending thread; Run() must return, not terminate.
  const auto truth = test::RandomSeries(11, kBins, 306);
  const auto source = [&truth](std::uint64_t seq) -> const double* {
    if (seq == 5) throw std::runtime_error("damaged bin 5");
    return truth.binData(static_cast<std::size_t>(seq));
  };
  auto server = StartServer("throwing.sock", "", 4);
  ASSERT_NE(server, nullptr);
  const ClientResult result =
      Client::Run({server->endpoint(), HelloFor(""), 0}, kBins, source);
  EXPECT_FALSE(result.finished);
  EXPECT_NE(result.transportError.find("damaged bin 5"), std::string::npos)
      << result.transportError;
  EXPECT_LE(result.estimatePayloads.size(), 5u);
  server->stop();
}

TEST(CheckpointStoreFormat, FileBytesMatchGolden) {
  // Expected bytes were captured from the writer before the wire and
  // checkpoint codecs were merged; any byte change strands old files.
  const std::string dir = test::TempPath("ckpt_golden");
  SessionCheckpoint checkpoint;
  checkpoint.sessionKey = "job-1";
  checkpoint.topologySpec = "abilene11";
  checkpoint.topologySeed = 7;
  checkpoint.f = 0.3;
  checkpoint.window = 5;
  checkpoint.solver = core::SolverKind::kDense;
  checkpoint.state.seq = 12;
  checkpoint.state.preference = linalg::Vector{0.25, 0.75};
  checkpoint.state.windowIngress = linalg::Vector{1.0, 2.0};
  checkpoint.state.windowEgress = linalg::Vector{3.0, 4.0};
  checkpoint.state.windowFill = 2;
  CheckpointStore(dir).save(checkpoint);

  std::ifstream in(dir + "/6a6f622d31-12.icks", std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(test::Hex(bytes),
            "49434b53310d0a00960000000000000005000000000000006a6f622d31090000"
            "00000000006162696c656e6531310700000000000000333333333333d33f0500"
            "00000000000001000000000000000c0000000000000002000000000000000000"
            "00000000d03f000000000000e83f0200000000000000000000000000f03f0000"
            "0000000000400200000000000000000000000000084000000000000010400200"
            "0000000000004eff5de3");
}

TEST(CheckpointStoreFormat, RoundTripRetentionCorruptionAndDrop) {
  const std::string dir = test::TempPath("ckpt_store_unit");
  CheckpointStore store(dir, /*keep=*/2);

  SessionCheckpoint checkpoint;
  checkpoint.sessionKey = "unit/key with spaces";
  checkpoint.topologySpec = "ring:6";
  checkpoint.topologySeed = 7;
  checkpoint.f = 0.4;
  checkpoint.window = 3;
  checkpoint.state.preference = linalg::Vector{0.1, 0.2, 0.3};
  checkpoint.state.windowIngress = linalg::Vector{1.0, 2.0, 3.0};
  checkpoint.state.windowEgress = linalg::Vector{4.0, 5.0, 6.0};
  for (const std::uint64_t seq : {4u, 8u, 12u}) {
    checkpoint.state.seq = seq;
    checkpoint.state.windowFill = static_cast<std::size_t>(seq % 3);
    store.save(checkpoint);
  }

  // keep=2 pruned the oldest.
  EXPECT_FALSE(store.load(checkpoint.sessionKey, 7).has_value());
  const auto at10 = store.load(checkpoint.sessionKey, 10);
  ASSERT_TRUE(at10.has_value());
  EXPECT_EQ(at10->state.seq, 8u);
  EXPECT_EQ(at10->topologySpec, "ring:6");
  EXPECT_EQ(at10->f, 0.4);
  EXPECT_EQ(at10->state.preference, checkpoint.state.preference);
  EXPECT_EQ(at10->state.windowIngress, checkpoint.state.windowIngress);

  const auto newest = store.load(checkpoint.sessionKey, 100);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->state.seq, 12u);

  // A torn newest file must fall back to the older good checkpoint.
  std::filesystem::path newestFile;
  std::uint64_t newestSeq = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const auto dash = name.rfind('-');
    const std::uint64_t seq = std::stoull(name.substr(dash + 1));
    if (seq >= newestSeq) {
      newestSeq = seq;
      newestFile = entry.path();
    }
  }
  std::filesystem::resize_file(newestFile,
                               std::filesystem::file_size(newestFile) / 2);
  const auto fallback = store.load(checkpoint.sessionKey, 100);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->state.seq, 8u);

  // So must a newer file carrying a retired solver value (3, the old
  // cg backend).  Saved through a keep=3 store so nothing is pruned.
  SessionCheckpoint retired = checkpoint;
  retired.state.seq = 16;
  retired.solver = static_cast<core::SolverKind>(3);
  CheckpointStore(dir, /*keep=*/3).save(retired);
  const auto skipped = store.load(checkpoint.sessionKey, 100);
  ASSERT_TRUE(skipped.has_value());
  EXPECT_EQ(skipped->state.seq, 8u);

  // Wrong key sees nothing; drop removes everything.
  EXPECT_FALSE(store.load("other-key", 100).has_value());
  store.drop(checkpoint.sessionKey);
  EXPECT_FALSE(store.load(checkpoint.sessionKey, 100).has_value());
}

TEST(StreamingCheckpointContract, ResumedEstimatorIsBitIdentical) {
  // The library-level fact the server build on: checkpoint at k,
  // resume a fresh estimator, feed bins [k, T) — outputs match the
  // uninterrupted run bit for bit.
  const std::size_t nodes = 8;
  const std::size_t bins = 30;
  const std::size_t k = 13;  // deliberately not a window boundary
  const auto truth = test::RandomSeries(nodes, bins, 303);
  const topology::Graph graph = topology::MakeTopology("ring:8:2", 0);
  const linalg::CscMatrix routing = topology::BuildRouting(graph);

  stream::StreamingOptions options;
  options.window = 4;
  options.f = kF;
  const stream::StreamingRunResult whole =
      stream::EstimateSeriesStreaming(routing, truth, options);

  traffic::TrafficMatrixSeries resumedEstimates(nodes, bins);
  traffic::TrafficMatrixSeries resumedPriors(nodes, bins);
  const auto collect = [&](std::size_t seq, const double* estimate,
                           const double* prior) {
    double* e = resumedEstimates.binData(seq);
    double* p = resumedPriors.binData(seq);
    for (std::size_t i = 0; i < nodes * nodes; ++i) {
      e[i] = estimate[i];
      p[i] = prior[i];
    }
  };

  stream::StreamingCheckpoint saved;
  {
    stream::StreamingEstimator estimator(routing, nodes, options, collect);
    for (std::size_t t = 0; t < k; ++t) {
      estimator.push(stream::MakeBinEvent(routing, nodes, truth.binData(t)));
    }
    saved = estimator.checkpoint();
    estimator.finish();
  }
  EXPECT_EQ(saved.seq, k);
  {
    stream::StreamingOptions resumedOptions = options;
    resumedOptions.resume = saved;
    stream::StreamingEstimator estimator(routing, nodes, resumedOptions,
                                         collect);
    for (std::size_t t = k; t < bins; ++t) {
      estimator.push(stream::MakeBinEvent(routing, nodes, truth.binData(t)));
    }
    estimator.finish();
  }

  test::ExpectBitIdentical(resumedEstimates, whole.estimates);
  test::ExpectBitIdentical(resumedPriors, whole.priors);
}

}  // namespace
}  // namespace ictm::server
