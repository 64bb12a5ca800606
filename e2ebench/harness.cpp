// e2e_harness — end-to-end benchmark of the IC-prior estimation
// pipeline (the paper's Sec. 6.2 operational loop).
//
//   e2e_harness gen --workload W --seed S --out FILE [--bins B]
//                   [--segment-bins L]
//       Synthesizes the workload's IC traffic (Sec. 5.5 recipe, f =
//       0.25) from the seed, in segments of L bins with their own
//       seeds (0 = one segment), and writes it as an ictmb trace.  Runs as
//       its own process, so the timed process never pays for the
//       generator (setup_s, peak_rss_mb).
//
//   e2e_harness run --workload W --input FILE --seconds N --trace 0|1
//                   --ictm PATH --work DIR [--segment-bins L]
//       Replays each segment of the trace through the public pipeline
//       with its own estimator (replay_*) or
//       drives an `ictm serve` child process (serve_geant22) for about
//       N seconds, checks every output and prints one JSON object on
//       the last line of stdout.  --trace 1 adds a traced pass with
//       spans owned by this file, an isolated single-threaded pass and
//       DIR/trace.json (Chrome trace_event).
//
// The harness measures every layer from outside: it wraps the public
// calls in its own spans and reads the library's metrics registry
// (or the daemon's STATS frame), so the library carries no
// benchmark-only code.  README.md holds the metric catalogue.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/estimation.hpp"
#include "core/priors.hpp"
#include "core/synthesis.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "stream/format.hpp"
#include "stream/online.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "traffic/tm_series.hpp"

extern char** environ;

using namespace ictm;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workloads -------------------------------------------------------------

// Fixed by the benchmark definition (BENCHMARK.json and README.md give
// the reasons); only the traffic seed and the input length vary.
constexpr std::uint64_t kTopologySeed = 1;
constexpr double kForwardFraction = 0.25;
constexpr std::size_t kReplayWorkers = 3;
constexpr std::size_t kQueueCapacity = 64;
// Open-loop rate per session, about a sixth of one session's
// closed-loop capacity (about 5900 bins/s on 4 cores).  At half that
// capacity, host CPU steal pushed the daemon into backlog in some runs
// (p50 0.4 to 11 ms across ten runs), so the rate keeps headroom.
constexpr double kServeRatePerSession = 1000.0;  // bins/s
constexpr std::size_t kServeSessions = 2;
// setup_s is the median of at least this many set-ups per run.  A
// serve set-up (daemon spawn to WELCOME) takes a few ms of mostly
// wake-ups, so it takes more samples than a replay one (under 1 s).
constexpr std::size_t kReplaySetupSamples = 9;
constexpr std::size_t kServeSetupSamples = 31;
// Serve latency p99 is taken per window of this many consecutive bins
// of one session (10 samples beyond p99) and reported as the median
// over windows: a generator descheduled by an unrelated process then
// moves one window, not the run.
constexpr std::size_t kLatencyWindow = 1000;

struct Workload {
  const char* name;
  const char* topology;
  std::size_t nodes;
  std::size_t bins;        // default input length
  std::size_t binsPerDay;  // 0 = bins / 7, as `ictm synthesize` sets it
  // Bins per independently synthesized segment (0 = one segment).
  // Accuracy and PCG iterations vary strongly with the seed's
  // preference draw; segments with their own draws average that out.
  std::size_t segmentBins;
  // Bins per replay pass, each with its own estimator (0 = the whole
  // input).  On h200 every segment gets a fresh estimator: a prior
  // built from another segment's preference stalls the cg solver.
  std::size_t passBins;
  std::size_t window;
  stream::ChunkCodec codec;
  bool serve;
  std::size_t isolatedSolves;  // bins solved in the isolated pass
};

const Workload kWorkloads[] = {
    // The ROADMAP baseline input: `ictm synthesize 200 64 0.25 <seed>`.
    // Eight 12-bin segments (a window and a half each) at the 9
    // bins/day that `ictm synthesize 200 64` uses; `--bins 64
    // --segment-bins 0` replays that command's output.  PCG iterations
    // per segment range over a factor of two between seeds, so many
    // short segments keep the work per input steady.
    {"replay_h200", "hierarchy:200", 200, 96, 9, 12, 12, 8,
     stream::ChunkCodec::kRaw, false, 6},
    // Per session: 2 s of bins at kServeRatePerSession.  Window 0
    // keeps no state across bins, so segments are independent; short
    // ones average the seed's effect on rel_l2.
    {"serve_geant22", "geant22", 22, 2000, 288, 25, 0, 0,
     stream::ChunkCodec::kDelta, true, 256},
};

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload: " + name);
}

// ---- small statistics ------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// CPU time of all threads of this process.  Time the host steals from
// the guest's vCPUs does not count, so it is steadier than wall time.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double UserSysSeconds(const struct rusage& usage) {
  return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

// ---- spans -----------------------------------------------------------------

// In-memory span store for the traced pass.  A span records name,
// layer, start, end, thread, its parent span and the bin seq it
// belongs to (-1 for none); the seq links read -> push -> emit ->
// write of one bin across threads.  Written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    const char* name = "";
    const char* layer = "";
    std::int64_t seq = -1;
    int tid = 0;
    Clock::time_point start, end;
  };

  Tracer() : origin_(Clock::now()) {}

  std::uint64_t nextId() { return ++lastId_; }

  void add(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = ++next;
    return index;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace_event JSON ('X' events; ts/dur in microseconds).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      const double ts =
          std::max(0.0, 1e6 * SecondsBetween(origin_, s.start));
      const double dur = std::max(0.0, 1e6 * SecondsBetween(s.start, s.end));
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << s.tid << ",\"ts\":" << ts << ",\"dur\":" << dur
          << ",\"args\":{\"span\":" << s.id << ",\"parent\":" << s.parent
          << ",\"seq\":" << s.seq << "}}";
      first = false;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    if (!out.good()) throw std::runtime_error("trace write failed: " + path);
  }

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> lastId_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span; a null tracer records nothing (the untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             std::uint64_t parent = 0, std::int64_t seq = -1)
      : tracer_(tracer) {
    if (!tracer_) return;
    span_.id = tracer_->nextId();
    span_.parent = parent;
    span_.name = name;
    span_.layer = layer;
    span_.seq = seq;
    span_.tid = Tracer::ThreadIndex();
    span_.start = Clock::now();
  }
  ~ScopedSpan() {
    if (!tracer_) return;
    span_.end = Clock::now();
    tracer_->add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
};

struct SelfTimeRow {
  std::string layer, name;
  bool concurrent = false;  // ran on another thread than its root
  std::size_t count = 0;
  double selfMs = 0.0;
};

struct SelfTimeTable {
  double wallMs = 0.0;      // summed duration of the root spans
  double residualMs = 0.0;  // root self time: covered by no child span
  std::vector<SelfTimeRow> rows;
};

// Self time of a span = its duration minus the part covered by child
// spans on the same thread.  Spans below a `rootName` span on the
// root's own thread partition its wall time exactly (rows + residual
// = wall); spans on other threads (the emit of a pushed bin runs on a
// worker) overlap it and are listed as concurrent.
SelfTimeTable SelfTimes(const Tracer& tracer, const char* rootName) {
  const auto& spans = tracer.spans();
  std::map<std::uint64_t, const Tracer::Span*> byId;
  for (const auto& s : spans) byId[s.id] = &s;
  std::map<std::uint64_t, double> childMs;
  for (const auto& s : spans) {
    auto it = byId.find(s.parent);
    if (it != byId.end() && it->second->tid == s.tid) {
      childMs[s.parent] += 1e3 * SecondsBetween(s.start, s.end);
    }
  }
  const auto rootOf = [&](const Tracer::Span* s) -> const Tracer::Span* {
    while (s && std::strcmp(s->name, rootName) != 0) {
      auto it = byId.find(s->parent);
      s = it == byId.end() ? nullptr : it->second;
    }
    return s;
  };
  SelfTimeTable table;
  std::map<std::tuple<bool, std::string, std::string>, SelfTimeRow> rows;
  for (const auto& s : spans) {
    const Tracer::Span* root = rootOf(&s);
    if (!root) continue;
    const double durMs = 1e3 * SecondsBetween(s.start, s.end);
    if (root == &s) {
      table.wallMs += durMs;
      table.residualMs += durMs - childMs[s.id];
      continue;
    }
    const bool concurrent = s.tid != root->tid;
    SelfTimeRow& row = rows[{concurrent, s.layer, s.name}];
    row.layer = s.layer;
    row.name = s.name;
    row.concurrent = concurrent;
    ++row.count;
    row.selfMs += durMs - childMs[s.id];
  }
  for (auto& [key, row] : rows) table.rows.push_back(row);
  std::stable_sort(table.rows.begin(), table.rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.concurrent != b.concurrent ? !a.concurrent
                                                         : a.selfMs > b.selfMs;
                   });
  return table;
}

// ---- registry readout ------------------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;

// Read-side trace counters are registered deterministic, but the
// reader's one-chunk-ahead prefetch sometimes decodes a chunk twice
// (a prefetch the consumer overtook), so their totals vary from pass
// to pass by a few chunks.  They are left out of the equality check.
bool PrefetchDependent(const std::string& name) {
  return name == "trace_io.chunks_read" || name == "trace_io.bytes_read" ||
         name.find(".decompress_") != std::string::npos;
}

// Deterministic-class counters: pure functions of the workload, so two
// passes (or two runs) over the same input must agree exactly.
Counters DeterministicCounters(const obs::MetricsSnapshot& snap) {
  Counters out;
  for (const auto& c : snap.counters) {
    if (c.cls == obs::MetricClass::kDeterministic && c.value != 0 &&
        !PrefetchDependent(c.name)) {
      out[c.name] = c.value;
    }
  }
  return out;
}

Counters AllCounters(const obs::MetricsSnapshot& snap) {
  Counters out;
  for (const auto& c : snap.counters) out[c.name] = c.value;
  return out;
}

std::uint64_t Get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// ---- checks ----------------------------------------------------------------

struct Checks {
  std::vector<std::pair<std::string, std::string>> failures;
  void require(bool ok, const std::string& name, const std::string& detail) {
    if (!ok) failures.emplace_back(name, detail);
  }
};

bool FiniteNonNegative(const double* v, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    if (!std::isfinite(v[k]) || v[k] < 0.0) return false;
  }
  return true;
}

// Per-bin Frobenius RelL2 accumulator, as `ictm stream` prints it.
struct RelL2Sum {
  double est = 0.0, prior = 0.0;
  std::size_t scored = 0;
  void add(const double* truth, const double* estimate, const double* prior,
           std::size_t count) {
    double truthSq = 0.0, estSq = 0.0, priorSq = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      truthSq += truth[k] * truth[k];
      estSq += (truth[k] - estimate[k]) * (truth[k] - estimate[k]);
      priorSq += (truth[k] - prior[k]) * (truth[k] - prior[k]);
    }
    if (truthSq <= 0.0) return;
    this->est += std::sqrt(estSq / truthSq);
    this->prior += std::sqrt(priorSq / truthSq);
    ++scored;
  }
  double meanEst() const { return scored ? est / double(scored) : 0.0; }
  double meanPrior() const { return scored ? prior / double(scored) : 0.0; }
};

stream::StreamingOptions MakeStreamingOptions(const Workload& w,
                                              std::size_t threads) {
  stream::StreamingOptions options;
  options.threads = threads;
  options.queueCapacity = kQueueCapacity;
  options.window = w.window;
  options.f = kForwardFraction;
  options.estimation.solver = core::SolverKind::kAuto;
  return options;
}

// ---- input generation ------------------------------------------------------

// Segment k is synthesized from seed + k * golden-ratio constant, so
// segment 0 is exactly `ictm synthesize <nodes> <segment> 0.25 <seed>`.
int CmdGen(const Workload& w, std::uint64_t seed, std::size_t bins,
           std::size_t segmentBins, const std::string& out) {
  const std::size_t segment = segmentBins != 0 ? segmentBins : bins;
  stream::TraceWriterOptions options;
  options.codec = w.codec;
  std::optional<stream::TraceWriter> writer;
  std::size_t segments = 0;
  for (std::size_t first = 0; first < bins; first += segment, ++segments) {
    core::SynthesisConfig cfg;
    cfg.nodes = w.nodes;
    cfg.bins = std::min(segment, bins - first);
    cfg.f = kForwardFraction;
    cfg.activityModel.profile.binsPerDay =
        w.binsPerDay != 0
            ? w.binsPerDay
            : std::max<std::size_t>(1, cfg.bins >= 7 ? cfg.bins / 7 : cfg.bins);
    cfg.threads = 0;  // output is thread-count invariant
    stats::Rng rng(seed + segments * 0x9E3779B97F4A7C15ULL);
    const core::SyntheticTm synth = core::GenerateSyntheticTm(cfg, rng);
    if (!writer) {
      writer.emplace(out, w.nodes, synth.series.binSeconds(), options);
    }
    for (std::size_t t = 0; t < cfg.bins; ++t) {
      writer->append(synth.series.binData(t));
    }
  }
  writer->close();
  std::printf("wrote %zu bins x %zu nodes in %zu segment(s) (%s) to %s\n",
              bins, w.nodes, segments, stream::ChunkCodecName(w.codec),
              out.c_str());
  return 0;
}

// ---- replay ----------------------------------------------------------------

struct ReplayPass {
  double setupS = 0.0;
  double replayS = 0.0;
  double replayCpuS = 0.0;  // process CPU over the same span as replayS
  double routingMs = 0.0, systemMs = 0.0;
  std::size_t bins = 0;
  std::size_t failedBins = 0;
  RelL2Sum relL2;
  std::vector<double> latencyMs;    // push start -> emit
  std::vector<double> emitWaitMs;   // push return -> emit
  std::vector<double> pushUs;       // pushes that do not close a window
  std::vector<double> refitPushMs;  // pushes that close a window
  double outputBytes = 0.0;
  std::size_t segment = 0;
  Counters det, all;
  // First bins' truth and emitted prior, for the isolated solves.
  std::vector<std::vector<double>> capturedTruth, capturedPrior;
};

struct ReplayContext {
  const Workload& w;
  std::string input;
  std::string work;
  std::size_t passBins;  // bins per pass
  std::size_t segments;  // passes per cycle over the whole input
  Checks* checks;
};

// One `ictm stream`-equivalent pass over bins [segment * passBins,
// +passBins) of the input, with its own estimator.  setupOnly stops after the estimator is
// constructed (extra set-up samples).
ReplayPass RunReplayPass(const ReplayContext& ctx, Tracer* tr,
                         std::size_t segment, bool setupOnly,
                         std::size_t capture = 0) {
  const Workload& w = ctx.w;
  ReplayPass pass;
  pass.segment = segment;
  obs::Registry::Instance().reset();
  ScopedSpan root(tr, "replay", "bench");
  const auto t0 = Clock::now();

  std::optional<ScopedSpan> setupSpan(std::in_place, tr, "setup", "bench",
                                      root.id());
  linalg::CsrMatrix routing;
  {
    ScopedSpan s(tr, "topology.routing_build", "topology", setupSpan->id());
    const topology::Graph g = topology::MakeTopology(w.topology, kTopologySeed);
    routing = topology::BuildRoutingCsr(g);
  }
  const auto tRouting = Clock::now();
  const stream::StreamingOptions options =
      MakeStreamingOptions(w, kReplayWorkers);
  std::shared_ptr<const core::AugmentedTmSystem> system;
  {
    ScopedSpan s(tr, "core.system_build", "core", setupSpan->id());
    system = std::make_shared<core::AugmentedTmSystem>(
        routing, w.nodes, options.estimation.useMarginalConstraints);
    // The first solver builds the backend's lazy per-system setup (the
    // cg preconditioner) that every worker then shares.
    core::TmBinSolver warm(*system, options.estimation);
  }
  const auto tSystem = Clock::now();
  pass.routingMs = 1e3 * SecondsBetween(t0, tRouting);
  pass.systemMs = 1e3 * SecondsBetween(tRouting, tSystem);

  std::optional<stream::TraceReader> reader;
  std::optional<stream::TraceWriter> estWriter, priorWriter;
  const std::string estPath = ctx.work + "/estimates.ictmb";
  const std::string priorPath = ctx.work + "/priors.ictmb";
  {
    ScopedSpan s(tr, "stream.open", "stream", setupSpan->id());
    reader.emplace(ctx.input, stream::TraceReaderOptions{true});
    stream::TraceWriterOptions writerOptions;
    writerOptions.codec = w.codec;
    writerOptions.compressThreads =
        w.codec == stream::ChunkCodec::kRaw ? 0 : 1;
    const double binSeconds = reader->info().binSeconds;
    estWriter.emplace(estPath, w.nodes, binSeconds, writerOptions);
    priorWriter.emplace(priorPath, w.nodes, binSeconds, writerOptions);
  }
  const std::size_t n = w.nodes;
  const std::size_t cells = n * n;
  const std::size_t first = segment * ctx.passBins;
  const std::size_t bins = std::min(ctx.passBins, reader->info().bins - first);
  ctx.checks->require(reader->info().nodes == n, "input.nodes",
                      "trace node count does not match the workload");
  if (reader->info().nodes != n) return pass;
  reader->seek(first);

  std::vector<Clock::time_point> pushStart(bins), pushEnd(bins),
      emitAt(bins);
  std::vector<std::uint64_t> pushSpan(bins, 0);
  std::mutex inflightMutex;
  std::map<std::size_t, std::vector<double>> inflight;
  std::size_t nextExpected = 0;
  std::size_t emitted = 0;
  std::vector<char> binFailed(bins, 0);
  pass.capturedTruth.resize(std::min(capture, bins));
  pass.capturedPrior.resize(std::min(capture, bins));

  auto onEstimate = [&](std::size_t seq, const double* estimate,
                        const double* prior) {
    const auto now = Clock::now();
    ScopedSpan emitSpan(tr, "stream.emit", "stream",
                        seq < bins ? pushSpan[seq] : 0,
                        static_cast<std::int64_t>(seq));
    if (seq >= bins) return;
    emitAt[seq] = now;
    ++emitted;
    std::vector<double> truth;
    {
      std::lock_guard<std::mutex> lock(inflightMutex);
      auto it = inflight.find(seq);
      if (it != inflight.end()) {
        truth = std::move(it->second);
        inflight.erase(it);
      }
    }
    bool ok = seq == nextExpected && !truth.empty() &&
              FiniteNonNegative(estimate, cells);
    nextExpected = seq + 1;
    if (!truth.empty()) pass.relL2.add(truth.data(), estimate, prior, cells);
    if (!ok) binFailed[seq] = 1;
    if (seq < pass.capturedTruth.size()) {
      pass.capturedTruth[seq] = truth;
      pass.capturedPrior[seq].assign(prior, prior + cells);
    }
    ScopedSpan writeSpan(tr, "stream.write", "stream", emitSpan.id(),
                         static_cast<std::int64_t>(seq));
    estWriter->append(estimate);
    priorWriter->append(prior);
  };

  std::optional<stream::StreamingEstimator> estimator;
  {
    ScopedSpan s(tr, "stream.estimator_ctor", "stream", setupSpan->id());
    estimator.emplace(system, options, onEstimate);
  }
  const auto t1 = Clock::now();
  const double cpu1 = ProcessCpuSeconds();
  setupSpan.reset();
  pass.setupS = SecondsBetween(t0, t1);

  if (setupOnly) {
    estimator->finish();
    estWriter->close();
    priorWriter->close();
    return pass;
  }

  std::vector<double> bin(cells);
  std::size_t pushed = 0;
  for (std::size_t t = 0; t < bins; ++t) {
    {
      ScopedSpan s(tr, "stream.read", "stream", root.id(),
                   static_cast<std::int64_t>(t));
      if (!reader->next(bin.data())) break;
    }
    stream::BinEvent event;
    {
      ScopedSpan s(tr, "stream.make_event", "stream", root.id(),
                   static_cast<std::int64_t>(t));
      event = stream::MakeBinEvent(routing, n, bin.data());
    }
    {
      std::lock_guard<std::mutex> lock(inflightMutex);
      inflight.emplace(t, bin);
    }
    ScopedSpan s(tr, "stream.push", "stream", root.id(),
                 static_cast<std::int64_t>(t));
    pushSpan[t] = s.id();
    pushStart[t] = Clock::now();
    estimator->push(std::move(event));
    pushEnd[t] = Clock::now();
    ++pushed;
  }
  {
    ScopedSpan s(tr, "stream.finish", "stream", root.id());
    estimator->finish();
  }
  {
    ScopedSpan s(tr, "stream.close", "stream", root.id());
    estWriter->close();
    priorWriter->close();
  }
  const auto t2 = Clock::now();
  pass.replayS = SecondsBetween(t1, t2);
  pass.replayCpuS = ProcessCpuSeconds() - cpu1;
  pass.bins = bins;

  ctx.checks->require(pushed == bins, "input.bins",
                      "trace ended before its indexed bin count");
  for (std::size_t t = 0; t < bins; ++t) {
    const bool wasEmitted =
        t < pushed && emitAt[t] != Clock::time_point{};
    if (!wasEmitted || binFailed[t]) {
      ++pass.failedBins;
      continue;
    }
    pass.latencyMs.push_back(1e3 * SecondsBetween(pushStart[t], emitAt[t]));
    pass.emitWaitMs.push_back(
        1e3 * std::max(0.0, SecondsBetween(pushEnd[t], emitAt[t])));
    const double pushS = SecondsBetween(pushStart[t], pushEnd[t]);
    if (w.window > 0 && (t + 1) % w.window == 0) {
      pass.refitPushMs.push_back(1e3 * pushS);
    } else {
      pass.pushUs.push_back(1e6 * pushS);
    }
  }
  ctx.checks->require(emitted == bins, "emit.exactly_once",
                      std::to_string(emitted) + " of " +
                          std::to_string(bins) + " bins emitted");
  pass.outputBytes = double(std::filesystem::file_size(estPath) +
                            std::filesystem::file_size(priorPath));
  const obs::MetricsSnapshot snap = obs::Registry::Instance().snapshot();
  pass.det = DeterministicCounters(snap);
  pass.all = AllCounters(snap);
  return pass;
}

// ---- serve -----------------------------------------------------------------

// An `ictm serve` child process.  The destructor kills and reaps a
// daemon that was not stopped, so no failure path leaks the process.
class Daemon {
 public:
  Daemon(const std::string& ictm, const std::vector<std::string>& args) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    std::vector<std::string> all = {ictm};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, ictm.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      close(out_);
      throw std::runtime_error("cannot spawn " + ictm);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) close(out_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon prints its "listening on" readiness line.
  void waitReady(double timeoutS) {
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeoutS);
    std::string buffer;
    while (buffer.find("listening on") == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) throw std::runtime_error("daemon not ready");
      struct pollfd pfd = {out_, POLLIN, 0};
      if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char chunk[256];
      const ssize_t got = read(out_, chunk, sizeof chunk);
      if (got <= 0) throw std::runtime_error("daemon exited before ready");
      buffer.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Peak resident set (VmHWM) in MB, read before the daemon stops.
  double peakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

  /// SIGTERM, then reap; true on a clean exit 0 within the timeout.
  bool stop(double timeoutS) {
    kill(pid_, SIGTERM);
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeoutS);
    int status = 0;
    struct rusage usage {};
    for (;;) {
      const pid_t r = wait4(pid_, &status, WNOHANG, &usage);
      if (r == pid_) break;
      if (Clock::now() > deadline) return false;  // destructor kills
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    cpuSeconds_ = UserSysSeconds(usage);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// User + system CPU time of the whole daemon life, after stop().
  double cpuSeconds() const { return cpuSeconds_; }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  double cpuSeconds_ = 0.0;
};

struct SessionRun {
  server::ClientResult result;
  Clock::time_point runStart, firstSource;
  std::vector<Clock::time_point> scheduled, arrived;
  double maxLatenessMs = 0.0;
};

struct Lifecycle {
  double setupS = 0.0;
  double peakRssMb = 0.0;
  double binsPerS = 0.0;
  double cpuMsPerBin = 0.0;  // daemon CPU over its life / bins served
  std::vector<double> latencyMs;
  std::vector<double> windowP99;  // p99 of each kLatencyWindow bins
  std::vector<double> handshakeMs;
  double maxLatenessMs = 0.0;
  std::size_t failedBins = 0;
  Counters stats;
};

struct ServeContext {
  const Workload& w;
  std::string ictm;
  std::string work;
  const traffic::TrafficMatrixSeries* truth;
  const std::vector<std::vector<std::uint8_t>>* reference;
  Checks* checks;
};

// Spawns a daemon, runs kServeSessions concurrent paced sessions of
// `bins` bins each, reads STATS and VmHWM, stops the daemon.
Lifecycle RunServeLifecycle(const ServeContext& ctx, std::size_t bins,
                            Tracer* tr) {
  Lifecycle life;
  const std::string socketPath = ctx.work + "/serve.sock";
  const std::string ckptDir = ctx.work + "/checkpoints";
  std::filesystem::remove(socketPath);
  std::filesystem::remove_all(ckptDir);
  std::filesystem::create_directories(ckptDir);

  ScopedSpan root(tr, "serve", "bench");
  const auto tSpawn = Clock::now();
  Daemon daemon(ctx.ictm, {"serve", "--listen", "unix:" + socketPath,
                           "--checkpoint-dir", ckptDir});
  {
    ScopedSpan s(tr, "server.spawn_ready", "server", root.id());
    daemon.waitReady(60.0);
  }

  server::Endpoint endpoint;
  server::Endpoint::Parse("unix:" + socketPath, &endpoint);
  std::vector<SessionRun> runs(kServeSessions);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kServeSessions; ++k) {
    threads.emplace_back([&, k] {
      SessionRun& run = runs[k];
      run.scheduled.resize(bins);
      run.arrived.resize(bins);
      server::ClientConfig config;
      config.endpoint = endpoint;
      config.hello.topologySpec = ctx.w.topology;
      config.hello.topologySeed = kTopologySeed;
      config.hello.f = kForwardFraction;
      config.hello.window = ctx.w.window;
      config.hello.solver = core::SolverKind::kAuto;
      config.hello.threads = 1;
      config.hello.queueCapacity = static_cast<std::uint32_t>(kQueueCapacity);
      // Named sessions, so the daemon writes durable checkpoints; every
      // lifecycle starts from an empty checkpoint directory.
      config.hello.sessionKey = "bench-" + std::to_string(k);
      ScopedSpan session(tr, "server.session", "server", root.id());
      std::optional<ScopedSpan> handshake(std::in_place, tr,
                                          "server.handshake", "server",
                                          session.id());
      run.runStart = Clock::now();
      run.result = server::Client::Run(
          config, bins,
          [&](std::uint64_t seq) {
            const auto now = Clock::now();
            if (seq == 0) {
              run.firstSource = now;
              handshake.reset();
            }
            const auto due =
                run.firstSource +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(double(seq) /
                                                  kServeRatePerSession));
            run.scheduled[seq] = due;
            if (now < due) {
              ScopedSpan pace(tr, "bench.pace", "bench", session.id(),
                              static_cast<std::int64_t>(seq));
              std::this_thread::sleep_until(due);
            }
            run.maxLatenessMs =
                std::max(run.maxLatenessMs,
                         1e3 * SecondsBetween(due, Clock::now()));
            return ctx.truth->binData(static_cast<std::size_t>(seq));
          },
          [&](std::uint64_t seq, const std::vector<std::uint8_t>&) {
            if (seq < bins) run.arrived[seq] = Clock::now();
          });
    });
  }
  for (auto& t : threads) t.join();

  // Set-up ends at the first WELCOME: the first session's first bin
  // request.
  Clock::time_point firstWelcome = runs[0].firstSource;
  for (const auto& run : runs) {
    firstWelcome = std::min(firstWelcome, run.firstSource);
  }
  life.setupS = SecondsBetween(tSpawn, firstWelcome);

  server::StatsReply stats;
  std::string error;
  const bool gotStats = server::Client::FetchStats(endpoint, &stats, &error);
  ctx.checks->require(gotStats, "serve.stats", error);
  for (const auto& [name, value] : stats.entries) life.stats[name] = value;
  life.peakRssMb = daemon.peakRssMb();
  ctx.checks->require(daemon.stop(30.0), "serve.shutdown",
                      "daemon did not exit cleanly on SIGTERM");

  Clock::time_point lastArrival = firstWelcome;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const SessionRun& run = runs[k];
    const auto& payloads = run.result.estimatePayloads;
    const bool finished = run.result.finished && payloads.size() == bins;
    ctx.checks->require(finished, "serve.session_finished",
                        "session " + std::to_string(k) + ": " +
                            run.result.transportError);
    life.handshakeMs.push_back(
        1e3 * SecondsBetween(run.runStart, run.firstSource));
    life.maxLatenessMs = std::max(life.maxLatenessMs, run.maxLatenessMs);
    if (!finished) {
      life.failedBins += bins;
      continue;
    }
    std::vector<double> window;
    for (std::size_t t = 0; t < bins; ++t) {
      // Byte-identical to the in-process replay, and so to the other
      // session; the receiver already enforced in-order arrival.
      if (payloads[t] != (*ctx.reference)[t]) {
        ++life.failedBins;
        continue;
      }
      window.push_back(1e3 * SecondsBetween(run.scheduled[t], run.arrived[t]));
      lastArrival = std::max(lastArrival, run.arrived[t]);
      if (window.size() == kLatencyWindow || t + 1 == bins) {
        life.windowP99.push_back(Quantile(window, 0.99));
        life.latencyMs.insert(life.latencyMs.end(), window.begin(),
                              window.end());
        window.clear();
      }
    }
  }
  if (bins > 0) {
    life.binsPerS = double(kServeSessions * bins) /
                    SecondsBetween(firstWelcome, lastArrival);
    life.cpuMsPerBin =
        1e3 * daemon.cpuSeconds() / double(kServeSessions * bins);
  }
  return life;
}

// In-process StreamingEstimator replay with the sessions' options: the
// reference payloads the served estimates must match byte for byte.
std::vector<std::vector<std::uint8_t>> ReferencePayloads(
    const Workload& w, const traffic::TrafficMatrixSeries& truth,
    RelL2Sum* relL2, std::vector<std::vector<double>>* priors,
    std::size_t capture) {
  const topology::Graph g = topology::MakeTopology(w.topology, kTopologySeed);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const std::size_t n = w.nodes;
  std::vector<std::vector<std::uint8_t>> out;
  {
    stream::StreamingEstimator estimator(
        routing, n, MakeStreamingOptions(w, 1),
        [&](std::size_t seq, const double* estimate, const double* prior) {
          out.push_back(server::EncodeEstimatePayload(seq, estimate, prior, n));
          relL2->add(truth.binData(seq), estimate, prior, n * n);
          if (seq < capture) priors->emplace_back(prior, prior + n * n);
        });
    for (std::size_t t = 0; t < truth.binCount(); ++t) {
      estimator.push(stream::MakeBinEvent(routing, n, truth.binData(t)));
    }
    estimator.finish();
  }
  return out;
}

// ---- isolated single-threaded pass -----------------------------------------

struct Isolated {
  double routingMs = 0.0, systemMs = 0.0, priorModelMs = 0.0;
  std::vector<double> solveMs;
};

Isolated RunIsolated(const Workload& w,
                     const std::vector<std::vector<double>>& truths,
                     const std::vector<std::vector<double>>& priors) {
  Isolated iso;
  const std::size_t n = w.nodes;
  const auto t0 = Clock::now();
  const topology::Graph g = topology::MakeTopology(w.topology, kTopologySeed);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const auto t1 = Clock::now();
  const core::EstimationOptions estimation =
      MakeStreamingOptions(w, 1).estimation;
  core::AugmentedTmSystem system(routing, n,
                                 estimation.useMarginalConstraints);
  core::TmBinSolver solver(system, estimation);
  const auto t2 = Clock::now();
  iso.routingMs = 1e3 * SecondsBetween(t0, t1);
  iso.systemMs = 1e3 * SecondsBetween(t1, t2);

  // Eqs. 7-9 on one bin's marginals, uniform preference.
  traffic::TrafficMatrixSeries one(n, 1, 300.0);
  std::copy(truths[0].begin(), truths[0].end(), one.binData(0));
  const core::MarginalSeries margs = core::ExtractMarginals(one);
  const linalg::Vector preference(n, 1.0 / double(n));
  std::vector<double> priorMs;
  const auto tPriors = Clock::now();
  while (priorMs.size() < 3 ||
         (priorMs.size() < 50 && SecondsBetween(tPriors, Clock::now()) < 0.5)) {
    const auto a = Clock::now();
    const auto prior =
        core::StableFPPrior(kForwardFraction, preference, margs);
    priorMs.push_back(1e3 * SecondsBetween(a, Clock::now()));
  }
  iso.priorModelMs = Median(priorMs);

  std::vector<double> estimate(n * n);
  for (std::size_t t = 0; t < truths.size() && t < priors.size(); ++t) {
    const stream::BinEvent event =
        stream::MakeBinEvent(routing, n, truths[t].data());
    const auto a = Clock::now();
    solver.Solve(event.linkLoads.data(), priors[t].data(),
                 event.ingress.data(), event.egress.data(), estimate.data());
    iso.solveMs.push_back(1e3 * SecondsBetween(a, Clock::now()));
  }
  return iso;
}

// ---- output ----------------------------------------------------------------

class JsonOut {
 public:
  void num(const std::string& key, double v) {
    sep();
    std::ostringstream s;
    s.precision(17);
    s << (std::isfinite(v) ? v : 0.0);
    os_ << "\"" << key << "\":" << s.str();
  }
  void str(const std::string& key, const std::string& v) {
    sep();
    os_ << "\"" << key << "\":\"" << Escape(v) << "\"";
  }
  void raw(const std::string& key, const std::string& json) {
    sep();
    os_ << "\"" << key << "\":" << json;
  }
  std::string done() const { return "{" + os_.str() + "}"; }

  static std::string Escape(const std::string& v) {
    std::string out;
    for (char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) c = ' ';
      out += c;
    }
    return out;
  }

 private:
  void sep() {
    if (!first_) os_ << ",";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string CountersJson(const Counters& c) {
  JsonOut j;
  for (const auto& [name, value] : c) j.num(name, double(value));
  return j.done();
}

std::string MetricsJson(const std::map<std::string, double>& m) {
  JsonOut j;
  for (const auto& [name, value] : m) j.num(name, value);
  return j.done();
}

// Requires every deterministic counter snapshot to equal the first.
void CheckSameCounters(const std::vector<Counters>& runs, Checks* checks) {
  for (std::size_t k = 1; k < runs.size(); ++k) {
    for (const auto& [name, value] : runs[0]) {
      const std::uint64_t other = Get(runs[k], name);
      checks->require(other == value, "determinism.counters",
                      "pass " + std::to_string(k) + " " + name + " = " +
                          std::to_string(other) + ", pass 0 had " +
                          std::to_string(value));
    }
    checks->require(runs[k].size() == runs[0].size(), "determinism.counters",
                    "pass " + std::to_string(k) + " moved other counters");
  }
}

void PrintSelfTimes(const SelfTimeTable& table) {
  std::fprintf(stderr,
               "per-layer self time, traced pass(es): wall %.1f ms\n"
               "  %-9s %-24s %8s %12s %7s\n",
               table.wallMs, "layer", "span", "count", "self ms", "share");
  std::map<std::string, double> byLayer;
  for (const auto& r : table.rows) {
    std::fprintf(stderr, "  %-9s %-24s %8zu %12.2f %6.1f%%%s\n",
                 r.layer.c_str(), r.name.c_str(), r.count, r.selfMs,
                 100.0 * r.selfMs / table.wallMs,
                 r.concurrent ? "  (worker threads, overlaps)" : "");
    if (!r.concurrent) byLayer[r.layer] += r.selfMs;
  }
  std::fprintf(stderr, "  %-9s %-24s %8s %12.2f %6.1f%%\n", "-",
               "residual (no span)", "", table.residualMs,
               100.0 * table.residualMs / table.wallMs);
  for (const auto& [layer, ms] : byLayer) {
    std::fprintf(stderr, "  layer %-9s self %10.2f ms %6.1f%% of wall\n",
                 layer.c_str(), ms, 100.0 * ms / table.wallMs);
  }
}

// The harness's last stdout line: run.py turns it into the result.
void PrintResult(const Workload& w, std::size_t attempted, std::size_t failed,
                 const std::map<std::string, double>& metrics,
                 const Counters& deterministic, const Checks& checks) {
  JsonOut out;
  out.str("workload", w.name);
  out.num("attempted", double(attempted));
  out.num("failed", double(failed));
  out.raw("metrics", MetricsJson(metrics));
  out.raw("deterministic", CountersJson(deterministic));
  std::string fails = "[";
  for (std::size_t k = 0; k < checks.failures.size(); ++k) {
    fails += (k ? "," : "") + std::string("\"") +
             JsonOut::Escape(checks.failures[k].first + ": " +
                             checks.failures[k].second) +
             "\"";
  }
  out.raw("check_failures", fails + "]");
  std::printf("%s\n", out.done().c_str());
}

// Aggregated untraced-or-traced replay passes.  Pass i replays
// segment i mod segments; the first `segments` passes are one cycle
// over the whole input.
struct ReplaySummary {
  std::vector<ReplayPass> passes;
  std::vector<double> setupS;
  std::size_t segments = 1;

  enum class CycleStat { kBinsPerS, kLatencyP50, kCpuMsPerBin };

  // Per complete cycle: bins over replay time, the latency p50 of the
  // cycle's bins, or process CPU per bin.  Reported as the median over
  // cycles, so a cycle slowed by host CPU steal does not set the run's
  // figure.
  std::vector<double> perCycle(CycleStat stat) const {
    std::vector<double> out;
    for (std::size_t c = 0; (c + 1) * segments <= passes.size(); ++c) {
      double bins = 0.0, seconds = 0.0, cpuS = 0.0;
      std::vector<double> lat;
      for (std::size_t k = c * segments; k < (c + 1) * segments; ++k) {
        bins += double(passes[k].bins);
        seconds += passes[k].replayS;
        cpuS += passes[k].replayCpuS;
        lat.insert(lat.end(), passes[k].latencyMs.begin(),
                   passes[k].latencyMs.end());
      }
      switch (stat) {
        case CycleStat::kBinsPerS: out.push_back(bins / seconds); break;
        case CycleStat::kLatencyP50: out.push_back(Quantile(lat, 0.5)); break;
        case CycleStat::kCpuMsPerBin: out.push_back(1e3 * cpuS / bins); break;
      }
    }
    return out;
  }
  double binsPerS() const { return Median(perCycle(CycleStat::kBinsPerS)); }
  std::vector<double> pooled(std::vector<double> ReplayPass::*field) const {
    std::vector<double> v;
    for (const auto& p : passes) {
      v.insert(v.end(), (p.*field).begin(), (p.*field).end());
    }
    return v;
  }
  RelL2Sum relL2() const {
    RelL2Sum sum;
    for (std::size_t k = 0; k < segments; ++k) {
      sum.est += passes[k].relL2.est;
      sum.prior += passes[k].relL2.prior;
      sum.scored += passes[k].relL2.scored;
    }
    return sum;
  }
  /// Registry counters summed over the first cycle.
  Counters cycleCounters() const {
    Counters sum;
    for (std::size_t k = 0; k < segments; ++k) {
      for (const auto& [name, value] : passes[k].all) sum[name] += value;
    }
    return sum;
  }
  double cycle(double ReplayPass::*field) const {
    double sum = 0.0;
    for (std::size_t k = 0; k < segments; ++k) sum += passes[k].*field;
    return sum;
  }
  double cycleBins() const {
    double sum = 0.0;
    for (std::size_t k = 0; k < segments; ++k) sum += double(passes[k].bins);
    return sum;
  }
};

ReplaySummary RunReplayPasses(const ReplayContext& ctx, double budgetS,
                              Tracer* tr, std::size_t capture) {
  // At least one cycle; then passes continue while one more (at the
  // mean pass time so far) still fits in the budget.
  ReplaySummary s;
  s.segments = ctx.segments;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    const std::size_t i = s.passes.size();
    s.passes.push_back(RunReplayPass(ctx, tr, i % ctx.segments, false,
                                     i == 0 ? capture : 0));
    s.setupS.push_back(s.passes.back().setupS);
    elapsed = SecondsBetween(start, Clock::now());
  } while (s.passes.size() < ctx.segments ||
           elapsed * (1.0 + 1.0 / double(s.passes.size())) <= budgetS);
  return s;
}

int CmdRunReplay(const Workload& w, const std::string& input,
                 std::size_t passBins, double seconds, bool traced,
                 const std::string& work) {
  Checks checks;
  const std::size_t inputBins = stream::TraceReader(input).info().bins;
  if (passBins == 0) passBins = inputBins;
  ReplayContext ctx{w,        input, work, passBins,
                    (inputBins + passBins - 1) / passBins, &checks};
  std::map<std::string, double> metrics;
  std::size_t attempted = 0, failed = 0;
  // Deterministic counters per segment: every pass over a segment must
  // match the first one; the first cycle's go out for the cross-run
  // check.
  std::map<std::size_t, std::vector<Counters>> dets;
  Counters firstCycle;
  const auto account = [&](const ReplaySummary& s) {
    for (const auto& p : s.passes) {
      attempted += p.bins;
      failed += p.failedBins;
      dets[p.segment].push_back(p.det);
    }
  };
  const auto checkAccuracy = [&](const ReplaySummary& s) {
    const RelL2Sum r = s.relL2();
    checks.require(r.scored > 0, "rel_l2.scored", "no scored bins");
    checks.require(r.meanEst() < r.meanPrior(), "rel_l2.below_prior",
                   "estimate RelL2 " + std::to_string(r.meanEst()) +
                       " not below IC prior " + std::to_string(r.meanPrior()));
  };

  if (!traced) {
    ReplaySummary s = RunReplayPasses(ctx, seconds, nullptr, 0);
    // Extra set-up-only samples so setup_s is a median of several.
    while (s.setupS.size() < kReplaySetupSamples) {
      s.setupS.push_back(RunReplayPass(ctx, nullptr, 0, true).setupS);
    }
    account(s);
    checkAccuracy(s);
    metrics["bins_per_s"] = s.binsPerS();
    metrics["setup_s"] = Median(s.setupS);
    metrics["peak_rss_mb"] = PeakRssMb();
    metrics["rel_l2"] = s.relL2().meanEst();
    metrics["rel_l2_prior"] = s.relL2().meanPrior();
    metrics["cpu_ms_per_bin"] =
        Median(s.perCycle(ReplaySummary::CycleStat::kCpuMsPerBin));
    metrics["latency_ms_p50"] =
        Median(s.perCycle(ReplaySummary::CycleStat::kLatencyP50));
    metrics["latency_ms_p99"] =
        Quantile(s.pooled(&ReplayPass::latencyMs), 0.99);
    metrics["passes"] = double(s.passes.size());
  } else {
    // Half the budget untraced (the overhead base and the registry
    // readout), half traced (spans), then the isolated pass.
    ReplaySummary plain = RunReplayPasses(ctx, seconds / 2, nullptr, 0);
    Tracer tracer;
    ReplaySummary traced =
        RunReplayPasses(ctx, seconds / 2, &tracer, w.isolatedSolves);
    account(plain);
    account(traced);
    checkAccuracy(plain);
    const ReplayPass& t = traced.passes[0];
    const Isolated iso = RunIsolated(w, t.capturedTruth, t.capturedPrior);
    tracer.write(work + "/trace.json");

    PrintSelfTimes(SelfTimes(tracer, "replay"));

    const Counters reg = plain.cycleCounters();
    const double solves = double(Get(reg, "pcg.solves"));
    metrics["topology.routing_build_ms"] = t.routingMs;
    metrics["core.system_build_ms"] = t.systemMs;
    metrics["core.prior_model_ms"] = iso.priorModelMs;
    metrics["core.solve_ms_p50"] = Quantile(iso.solveMs, 0.5);
    metrics["core.solve_ms_p90"] = Quantile(iso.solveMs, 0.9);
    metrics["core.solves_cg"] = double(Get(reg, "solver.solves.cg"));
    metrics["core.solves_dense"] = double(Get(reg, "solver.solves.dense"));
    metrics["linalg.pcg_iterations_per_solve"] =
        solves > 0 ? double(Get(reg, "pcg.iterations_total")) / solves : 0.0;
    metrics["linalg.pcg_stalled"] = double(Get(reg, "pcg.stalled"));
    double readMs = 0.0, writeMs = 0.0;
    std::size_t reads = 0;
    for (const auto& s : tracer.spans()) {
      const double ms = 1e3 * SecondsBetween(s.start, s.end);
      if (std::strcmp(s.name, "stream.read") == 0) readMs += ms, ++reads;
      if (std::strcmp(s.name, "stream.write") == 0) writeMs += ms;
    }
    metrics["stream.read_us_per_bin"] = reads ? 1e3 * readMs / double(reads) : 0;
    metrics["stream.write_us_per_bin"] =
        reads ? 1e3 * writeMs / double(reads) : 0;
    metrics["stream.bytes_written_per_bin"] =
        plain.cycle(&ReplayPass::outputBytes) / plain.cycleBins();
    metrics["stream.push_us_p50"] =
        Quantile(traced.pooled(&ReplayPass::pushUs), 0.5);
    metrics["stream.refit_push_ms_p50"] =
        Quantile(traced.pooled(&ReplayPass::refitPushMs), 0.5);
    metrics["stream.emit_wait_ms_p50"] =
        Quantile(traced.pooled(&ReplayPass::emitWaitMs), 0.5);
    metrics["stream.emit_wait_ms_p99"] =
        Quantile(traced.pooled(&ReplayPass::emitWaitMs), 0.99);
    metrics["stream.worker_busy_frac"] =
        double(Get(reg, "stream.worker_busy_ns")) /
        (1e9 * double(kReplayWorkers) * plain.cycle(&ReplayPass::replayS));
    metrics["stream.queue_full_stalls"] =
        double(Get(reg, "stream.queue_full_stalls"));
    for (const char* name :
         {"server.handshake_ms", "server.topo_cache_hits",
          "server.topo_cache_misses", "server.backpressure_stalls",
          "server.bytes_per_frame", "bench.send_lateness_ms_max"}) {
      metrics[name] = 0.0;  // no server on this workload
    }
    metrics["obs.trace_overhead"] = plain.binsPerS() / traced.binsPerS();
    metrics["latency_ms_p50"] =
        Median(plain.perCycle(ReplaySummary::CycleStat::kLatencyP50));
    metrics["latency_ms_p99"] =
        Quantile(plain.pooled(&ReplayPass::latencyMs), 0.99);
    metrics["window_refits"] = double(Get(reg, "stream.window_refits"));
  }
  for (const auto& [segment, runs] : dets) {
    CheckSameCounters(runs, &checks);
    for (const auto& [name, value] : runs[0]) {
      firstCycle["seg" + std::to_string(segment) + "." + name] = value;
    }
  }

  PrintResult(w, attempted, failed, metrics, firstCycle, checks);
  return 0;
}


int CmdRunServe(const Workload& w, const std::string& input, double seconds,
                bool traced, const std::string& ictm,
                const std::string& work) {
  Checks checks;
  const traffic::TrafficMatrixSeries truth = stream::ReadTraceFile(input);
  checks.require(truth.nodeCount() == w.nodes, "input.nodes",
                 "trace node count does not match the workload");
  const std::size_t bins = truth.binCount();
  RelL2Sum relL2;
  std::vector<std::vector<double>> priors;
  const auto reference =
      ReferencePayloads(w, truth, &relL2, &priors, w.isolatedSolves);
  checks.require(relL2.meanEst() < relL2.meanPrior(), "rel_l2.below_prior",
                 "estimate RelL2 not below the IC prior's");
  ServeContext ctx{w, ictm, work, &truth, &reference, &checks};

  std::size_t attempted = 0, failed = 0;
  std::vector<Counters> dets;
  const auto deterministic = [](const Counters& stats) {
    // STATS carries no class tags; these are the deterministic-class
    // counters a served session moves.
    Counters det;
    for (const char* name :
         {"server.bins_received", "server.bytes_received",
          "server.bytes_sent", "server.sessions_opened",
          "server.topo_cache.hits", "server.topo_cache.misses",
          "solver.solves.dense", "solver.solves.cg", "pcg.iterations_total",
          "stream.bins_pushed", "stream.bins_emitted"}) {
      det[name] = Get(stats, name);
    }
    return det;
  };
  const auto runLifecycles = [&](double budgetS, Tracer* tr) {
    std::vector<Lifecycle> lives;
    const auto start = Clock::now();
    do {
      lives.push_back(RunServeLifecycle(ctx, bins, tr));
      attempted += kServeSessions * bins;
      failed += lives.back().failedBins;
      dets.push_back(deterministic(lives.back().stats));
    } while (SecondsBetween(start, Clock::now()) *
                 (1.0 + 1.0 / double(lives.size())) <=
             budgetS);
    return lives;
  };
  const auto pooled = [](const std::vector<Lifecycle>& lives,
                         std::vector<double> Lifecycle::*field) {
    std::vector<double> v;
    for (const auto& l : lives) {
      v.insert(v.end(), (l.*field).begin(), (l.*field).end());
    }
    return v;
  };
  // Per-lifecycle p50, median over lifecycles, as for replay cycles.
  const auto latencyP50 = [](const std::vector<Lifecycle>& lives) {
    std::vector<double> p50;
    for (const auto& l : lives) p50.push_back(Quantile(l.latencyMs, 0.5));
    return Median(p50);
  };

  std::map<std::string, double> metrics;
  if (!traced) {
    const auto lives = runLifecycles(seconds, nullptr);
    std::vector<double> setup, rss, rate, cpu;
    for (const auto& l : lives) {
      setup.push_back(l.setupS);
      rss.push_back(l.peakRssMb);
      rate.push_back(l.binsPerS);
      cpu.push_back(l.cpuMsPerBin);
    }
    // Extra one-bin lifecycles so setup_s is a median of several.
    while (setup.size() < kServeSetupSamples) {
      const Lifecycle extra = RunServeLifecycle(ctx, 1, nullptr);
      attempted += kServeSessions;
      failed += extra.failedBins;
      setup.push_back(extra.setupS);
    }
    const auto latency = pooled(lives, &Lifecycle::latencyMs);
    metrics["bins_per_s"] = Median(rate);
    metrics["setup_s"] = Median(setup);
    metrics["peak_rss_mb"] = Median(rss);
    metrics["rel_l2"] = relL2.meanEst();
    metrics["rel_l2_prior"] = relL2.meanPrior();
    metrics["cpu_ms_per_bin"] = Median(cpu);
    metrics["latency_ms_p50"] = latencyP50(lives);
    metrics["latency_ms_p99"] = Median(pooled(lives, &Lifecycle::windowP99));
    metrics["latency_samples"] = double(latency.size());
    metrics["passes"] = double(lives.size());
  } else {
    const auto plain = runLifecycles(seconds / 2, nullptr);
    Tracer tracer;
    const auto tracedLives = runLifecycles(seconds / 2, &tracer);
    tracer.write(work + "/trace.json");
    std::vector<std::vector<double>> truths;
    for (std::size_t t = 0; t < priors.size(); ++t) {
      truths.emplace_back(truth.binData(t), truth.binData(t) + w.nodes * w.nodes);
    }
    const Isolated iso = RunIsolated(w, truths, priors);
    const Counters& st = tracedLives[0].stats;
    double maxLateness = 0.0;
    for (const auto& l : tracedLives) {
      maxLateness = std::max(maxLateness, l.maxLatenessMs);
    }
    const double frames = double(Get(st, "server.bins_received"));
    metrics["topology.routing_build_ms"] = iso.routingMs;
    metrics["core.system_build_ms"] = iso.systemMs;
    metrics["core.prior_model_ms"] = iso.priorModelMs;
    metrics["core.solve_ms_p50"] = Quantile(iso.solveMs, 0.5);
    metrics["core.solve_ms_p90"] = Quantile(iso.solveMs, 0.9);
    metrics["core.solves_cg"] = double(Get(st, "solver.solves.cg"));
    metrics["core.solves_dense"] = double(Get(st, "solver.solves.dense"));
    const double solves = double(Get(st, "pcg.solves"));
    metrics["linalg.pcg_iterations_per_solve"] =
        solves > 0 ? double(Get(st, "pcg.iterations_total")) / solves : 0.0;
    metrics["linalg.pcg_stalled"] = double(Get(st, "pcg.stalled"));
    for (const char* name :
         {"stream.read_us_per_bin", "stream.write_us_per_bin",
          "stream.bytes_written_per_bin", "stream.push_us_p50",
          "stream.refit_push_ms_p50", "stream.emit_wait_ms_p50",
          "stream.emit_wait_ms_p99", "stream.worker_busy_frac"}) {
      metrics[name] = 0.0;  // the replay pipeline's layers
    }
    metrics["stream.queue_full_stalls"] =
        double(Get(st, "stream.queue_full_stalls"));
    metrics["server.handshake_ms"] =
        Median(pooled(tracedLives, &Lifecycle::handshakeMs));
    metrics["server.topo_cache_hits"] =
        double(Get(st, "server.topo_cache.hits"));
    metrics["server.topo_cache_misses"] =
        double(Get(st, "server.topo_cache.misses"));
    metrics["server.backpressure_stalls"] =
        double(Get(st, "server.backpressure_stalls"));
    metrics["server.bytes_per_frame"] =
        frames > 0 ? double(Get(st, "server.bytes_sent")) / frames : 0.0;
    metrics["bench.send_lateness_ms_max"] = maxLateness;
    metrics["latency_ms_p50"] = latencyP50(plain);
    metrics["latency_ms_p99"] = Median(pooled(plain, &Lifecycle::windowP99));
    metrics["obs.trace_overhead"] =
        Quantile(pooled(tracedLives, &Lifecycle::latencyMs), 0.5) /
        Quantile(pooled(plain, &Lifecycle::latencyMs), 0.5);
  }
  CheckSameCounters(dets, &checks);

  PrintResult(w, attempted, failed, metrics,
              dets.empty() ? Counters{} : dets[0], checks);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  e2e_harness gen --workload W --seed S --out FILE "
               "[--bins B] [--segment-bins L]\n"
               "  e2e_harness run --workload W --input FILE --seconds N "
               "--trace 0|1 --ictm PATH --work DIR [--segment-bins L]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  const auto arg = [&](const char* key) -> std::string {
    const auto it = args.find(key);
    if (it == args.end()) {
      throw std::runtime_error(std::string("missing --") + key);
    }
    return it->second;
  };
  try {
    const Workload& w = FindWorkload(arg("workload"));
    // --segment-bins overrides the synthesis segments and, for replay,
    // the pass length with them.
    const bool segmentOverride = args.count("segment-bins") != 0;
    const std::size_t segmentBins =
        segmentOverride ? std::stoul(args["segment-bins"]) : w.segmentBins;
    if (cmd == "gen") {
      const std::size_t bins =
          args.count("bins") ? std::stoul(args["bins"]) : w.bins;
      if (bins == 0) throw std::runtime_error("--bins must be positive");
      return CmdGen(w, std::stoull(arg("seed")), bins, segmentBins,
                    arg("out"));
    }
    if (cmd == "run") {
      const double seconds = std::stod(arg("seconds"));
      const bool traced = arg("trace") == "1";
      const std::string work = arg("work");
      std::filesystem::create_directories(work);
      if (w.serve) {
        return CmdRunServe(w, arg("input"), seconds, traced, arg("ictm"),
                           work);
      }
      return CmdRunReplay(w, arg("input"),
                          segmentOverride ? segmentBins : w.passBins,
                          seconds, traced, work);
    }
    return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
