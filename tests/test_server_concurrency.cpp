// Concurrency battery for the estimation server: N simultaneous
// sessions over mixed topologies and thread counts must each produce
// estimate frames bit-identical to their single-process `ictm stream`
// baseline, sharing per-topology state through the cache; a slow
// reader must stall only its own session; running out of descriptors
// must not stop the daemon accepting; and stop() must end every
// session, even one accepted while it runs.  Runs under TSan in CI.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/estimation.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "stream/online.hpp"
#include "test_util.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"

namespace ictm::server {
namespace {

/// One session's worth of workload plus its expected wire bytes.
struct SessionPlan {
  std::string spec;
  std::uint64_t seed = 0;
  std::uint32_t threads = 1;
  std::uint64_t window = 0;
  std::uint64_t trafficSeed = 0;
  std::size_t bins = 0;

  std::size_t nodes = 0;
  traffic::TrafficMatrixSeries truth{1, 1, 300.0};  // placeholder; prepare() fills it
  std::vector<std::vector<std::uint8_t>> expected;

  /// Computes the `ictm stream` baseline and encodes it exactly as
  /// the server would frame it.
  void prepare() {
    const topology::Graph graph = topology::MakeTopology(spec, seed);
    nodes = graph.nodeCount();
    truth = test::RandomSeries(nodes, bins, trafficSeed);
    const linalg::CscMatrix routing = topology::BuildRouting(graph);
    stream::StreamingOptions options;
    options.threads = 1;
    options.window = window;
    options.f = 0.3;
    const stream::StreamingRunResult run =
        stream::EstimateSeriesStreaming(routing, truth, options);
    expected.reserve(bins);
    for (std::size_t t = 0; t < bins; ++t) {
      expected.push_back(EncodeEstimatePayload(
          t, run.estimates.binData(t), run.priors.binData(t), nodes));
    }
  }

  HelloRequest hello() const {
    HelloRequest h;
    h.topologySpec = spec;
    h.topologySeed = seed;
    h.f = 0.3;
    h.window = window;
    h.threads = threads;
    h.queueCapacity = 8;
    return h;
  }
};

SessionPlan MakePlan(const std::string& spec, std::uint32_t threads,
                     std::uint64_t window, std::uint64_t trafficSeed,
                     std::size_t bins) {
  SessionPlan plan;
  plan.spec = spec;
  plan.threads = threads;
  plan.window = window;
  plan.trafficSeed = trafficSeed;
  plan.bins = bins;
  plan.prepare();
  return plan;
}

ClientConfig ConfigFor(const Server& server, const SessionPlan& plan) {
  ClientConfig config;
  config.endpoint = server.endpoint();
  config.hello = plan.hello();
  return config;
}

Client::BinSource SourceFor(const SessionPlan& plan) {
  return [&plan](std::uint64_t seq) {
    return plan.truth.binData(static_cast<std::size_t>(seq));
  };
}

TEST(ServerConcurrency, MixedSessionsBitIdenticalToStreamBaseline) {
  // Two topologies, thread counts {1, 4}, two sessions sharing each
  // topology so the cache serves hits as well as misses.
  std::vector<SessionPlan> plans;
  plans.push_back(MakePlan("abilene11", 1, 4, 101, 12));
  plans.push_back(MakePlan("abilene11", 4, 4, 102, 12));
  plans.push_back(MakePlan("ring:8:2", 4, 3, 103, 10));
  plans.push_back(MakePlan("ring:8:2", 1, 3, 104, 10));
  plans.push_back(MakePlan("grid:3x3", 4, 0, 105, 8));

  ServerOptions options;
  ASSERT_TRUE(
      Endpoint::Parse(test::TempPath("concurrency.sock"), &options.listen));
  options.cacheCapacity = 4;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::vector<ClientResult> results(plans.size());
  {
    std::vector<std::thread> clients;
    clients.reserve(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      clients.emplace_back([&, i] {
        results[i] = Client::Run(ConfigFor(server, plans[i]), plans[i].bins,
                                 SourceFor(plans[i]));
      });
    }
    for (auto& thread : clients) thread.join();
  }

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const ClientResult& result = results[i];
    ASSERT_TRUE(result.finished)
        << "session " << i << ": " << result.transportError
        << (result.serverError ? " / " + result.serverError->message : "");
    EXPECT_EQ(result.nodes, plans[i].nodes);
    ASSERT_EQ(result.estimatePayloads.size(), plans[i].expected.size())
        << "session " << i;
    for (std::size_t t = 0; t < plans[i].expected.size(); ++t) {
      ASSERT_EQ(result.estimatePayloads[t], plans[i].expected[t])
          << "session " << i << " estimate frame " << t
          << " differs from the ictm stream baseline";
    }
  }

  // Three distinct (spec, seed) keys, five sessions: the cache must
  // have built each topology exactly once.
  const TopologyStateCache::Stats stats = server.cacheStats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(server.sessionsAccepted(), plans.size());
  server.stop();
}

TEST(ServerConcurrency, CacheMissPastCapacityEvictsAnIdleEntry) {
  // The entry a miss inserts is idle in the cache until it is
  // returned; eviction must pick the older idle entry, not it.
  TopologyStateCache cache(/*capacity=*/1);
  EXPECT_EQ(cache.acquire("ring:6:2", 0)->nodes, 6u);
  const auto second = cache.acquire("ring:8:2", 0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->nodes, 8u);
  EXPECT_EQ(cache.acquire("ring:8:2", 0), second);  // resident: a hit
  const TopologyStateCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ServerConcurrency, SlowReaderStallsOnlyItsOwnSession) {
  // Small socket buffers so a non-reading client exhausts every
  // elastic stage of its own pipeline while the streams next to it run
  // to completion.
  const SessionPlan slowPlan = MakePlan("abilene11", 2, 4, 201, 96);
  const SessionPlan fastA = MakePlan("abilene11", 1, 4, 202, 24);
  const SessionPlan fastB = MakePlan("ring:6", 2, 3, 203, 24);

  ServerOptions options;
  ASSERT_TRUE(
      Endpoint::Parse(test::TempPath("slow_reader.sock"), &options.listen));
  options.limits.socketBufferBytes = 4096;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const obs::Counter& stalls = obs::GetCounter("server.backpressure_stalls",
                                               obs::MetricClass::kTiming);
  const std::uint64_t stallsBefore = stalls.value();

  // The slow client's estimate hook blocks on a gate after the first
  // frame; because the hook runs on the client's receiver thread, the
  // client stops reading and backpressure propagates through the
  // server's ESTIMATE sends, estimator workers and reader — all scoped
  // to this one session.
  std::mutex gateMutex;
  std::condition_variable gateCv;
  bool gateOpen = false;
  std::size_t slowFramesSeen = 0;

  ClientResult slowResult;
  std::thread slowThread([&] {
    ClientConfig config = ConfigFor(server, slowPlan);
    config.socketBufferBytes = 4096;
    slowResult = Client::Run(
        config, slowPlan.bins, SourceFor(slowPlan),
        [&](std::uint64_t, const std::vector<std::uint8_t>&) {
          std::unique_lock<std::mutex> lock(gateMutex);
          ++slowFramesSeen;
          gateCv.wait(lock, [&] { return gateOpen; });
        });
  });

  // Both fast sessions run start-to-finish while the slow session is
  // gated.  Their completion is the isolation proof: Run() returning
  // with finished=true means FIN_ACK made it through a server whose
  // sibling session is fully stalled.
  ClientResult fastResults[2];
  std::thread fastThreadA([&] {
    fastResults[0] = Client::Run(ConfigFor(server, fastA), fastA.bins,
                                 SourceFor(fastA));
  });
  std::thread fastThreadB([&] {
    fastResults[1] = Client::Run(ConfigFor(server, fastB), fastB.bins,
                                 SourceFor(fastB));
  });
  fastThreadA.join();
  fastThreadB.join();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fastResults[i].finished)
        << fastResults[i].transportError;
  }

  // The gated session's ESTIMATE sends find its socket buffer full.
  // The count is timing class, so wait for it rather than assume when.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stalls.value() == stallsBefore &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(stalls.value(), stallsBefore)
      << "no backpressure stall while the slow client was gated";

  // The gated session cannot have completed: its hook has run at most
  // once, so at most one estimate frame ever left its reorder buffer.
  {
    std::lock_guard<std::mutex> lock(gateMutex);
    EXPECT_LE(slowFramesSeen, 1u);
    gateOpen = true;
  }
  gateCv.notify_all();
  slowThread.join();

  // Once released, the stalled session drains losslessly and remains
  // bit-identical — backpressure never dropped or reordered a frame.
  ASSERT_TRUE(slowResult.finished)
      << slowResult.transportError
      << (slowResult.serverError ? " / " + slowResult.serverError->message
                                 : "");
  ASSERT_EQ(slowResult.estimatePayloads.size(), slowPlan.expected.size());
  for (std::size_t t = 0; t < slowPlan.expected.size(); ++t) {
    ASSERT_EQ(slowResult.estimatePayloads[t], slowPlan.expected[t])
        << "estimate frame " << t;
  }
  for (int i = 0; i < 2; ++i) {
    const SessionPlan& plan = i == 0 ? fastA : fastB;
    ASSERT_EQ(fastResults[i].estimatePayloads.size(), plan.expected.size());
    for (std::size_t t = 0; t < plan.expected.size(); ++t) {
      ASSERT_EQ(fastResults[i].estimatePayloads[t], plan.expected[t])
          << "fast session " << i << " estimate frame " << t;
    }
  }
  server.stop();
}

TEST(ServerConcurrency, AcceptSurvivesDescriptorExhaustion) {
  ServerOptions options;
  ASSERT_TRUE(
      Endpoint::Parse(test::TempPath("accept_emfile.sock"), &options.listen));
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Under a lowered soft limit, fill the descriptor table but for one
  // slot.  The client's socket takes it, so the server's accept() of
  // that connection fails with EMFILE.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 64);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> filler;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    filler.push_back(fd);
  }
  if (!filler.empty()) {
    ::close(filler.back());
    filler.pop_back();
  }
  Socket first = Socket::Connect(server.endpoint(), &error);
  // Time for the accept loop to run into the full table.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (const int fd : filler) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(first.valid()) << error;

  // With descriptors free again, a STATS probe is answered.  The
  // receive timeout turns a daemon that stopped accepting into a
  // failure instead of a hang.
  Socket probe = Socket::Connect(server.endpoint(), &error);
  ASSERT_TRUE(probe.valid()) << error;
  const timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(probe.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  const auto request = EncodeFrame(FrameType::kStats, nullptr, 0);
  ASSERT_TRUE(probe.sendAll(request.data(), request.size()));
  FrameReader reader(&probe);
  Frame reply;
  ASSERT_EQ(reader.next(kMaxHandshakeFrameBytes, &reply), DecodeStatus::kOk)
      << "no STATS reply: the server stopped accepting";
  EXPECT_EQ(reply.type, FrameType::kStats);
  EXPECT_EQ(server.sessionsAccepted(), 2u);
  server.stop();
}

/// Reads a connection whose server is stopping to its end.  At most
/// one frame may come first: WELCOME, or a shutting-down ERROR when the
/// HELLO raced the stop.  Then EOF, or a reset when the connection was
/// still in the listen backlog or its HELLO unread.  Returns what went
/// wrong, or "" when the session ended.
std::string ReadToEnd(Socket& socket) {
  const timeval timeout{10, 0};
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
  FrameReader reader(&socket);
  for (std::size_t frames = 0;; ++frames) {
    Frame frame;
    errno = 0;
    const DecodeStatus status = reader.next(kMaxHandshakeFrameBytes, &frame);
    if (status == DecodeStatus::kNeedMore) {
      if (errno == 0 || errno == ECONNRESET) return "";
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return "no EOF within 10 s";
      }
      return std::string("recv: ") + std::strerror(errno);
    }
    if (status != DecodeStatus::kOk) return "undecodable frame";
    ErrorInfo info;
    const bool expected =
        frames == 0 &&
        (frame.type == FrameType::kWelcome ||
         (frame.type == FrameType::kError && info.decode(frame.payload) &&
          info.code == ErrorCode::kShuttingDown));
    if (!expected) {
      return "unexpected frame " +
             std::to_string(static_cast<unsigned>(frame.type)) +
             " after " + std::to_string(frames) + " frame(s)";
    }
  }
}

TEST(ServerConcurrency, StopRacingConnectsJoinsEverySession) {
  // Clients connect in a loop while stop() runs, so the accept loop is
  // still taking connections when it is told to stop.  stop() must
  // return promptly, and every connection must then end.  Every fourth
  // connection sends HELLO; the rest stay silent, since only an abort
  // ends a session that waits for its HELLO.  Each client holds all
  // kPerClient of its connections until it has read them to the end.
  // A session missed by the abort is caught only when it is accepted
  // in the narrow window between the stop flag and the abort pass, so
  // the race runs kRounds times.
  constexpr std::size_t kRounds = 20;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 32;
  constexpr std::size_t kAcceptedBeforeStop = 16;
  HelloRequest hello;
  hello.topologySpec = "ring:6:2";
  hello.f = 0.3;
  hello.threads = 1;
  hello.queueCapacity = 4;
  const std::vector<std::uint8_t> payload = hello.encode();
  const std::vector<std::uint8_t> helloFrame =
      EncodeFrame(FrameType::kHello, payload.data(), payload.size());

  for (std::size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ServerOptions options;
    ASSERT_TRUE(
        Endpoint::Parse(test::TempPath("stop_race.sock"), &options.listen));
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const Endpoint endpoint = server.endpoint();

    std::vector<std::vector<std::string>> failures(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<Socket> held;
        for (std::size_t k = 0; k < kPerClient; ++k) {
          std::string connectError;
          Socket socket = Socket::Connect(endpoint, &connectError);
          if (!socket.valid()) break;  // the listener is closed
          // A send fails harmlessly when the server reset the socket.
          if (k % 4 == 3) {
            socket.sendAll(helloFrame.data(), helloFrame.size());
          }
          held.push_back(std::move(socket));
        }
        for (Socket& socket : held) {
          const std::string why = ReadToEnd(socket);
          if (!why.empty()) failures[c].push_back(why);
          socket.close();  // frees a session that outlived stop()
        }
      });
    }

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (server.sessionsAccepted() < kAcceptedBeforeStop &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_GE(server.sessionsAccepted(), kAcceptedBeforeStop);
    const auto start = std::chrono::steady_clock::now();
    server.stop();
    const double stopSeconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
    for (std::thread& client : clients) client.join();
    EXPECT_LT(stopSeconds, 5.0) << "stop() waited on a session";
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const std::string& why : failures[c]) {
        ADD_FAILURE() << "client " << c << ": " << why;
      }
    }
  }
}

}  // namespace
}  // namespace ictm::server
