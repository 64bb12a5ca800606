// ictm — command-line front end for the library.
//
// Subcommands:
//   list        list the registered experiment scenarios (--json for a
//               machine-readable listing)
//   run         run scenarios (paper figures, ablations, what-ifs) and
//               emit deterministic JSON results
//   synthesize  generate a synthetic TM series (Sec. 5.5 recipe) to CSV
//   fit         fit the stable-fP IC model to a TM CSV, print parameters
//   gravity     gravity reconstruction error of a TM CSV
//   prior       build a stable-fP prior for a TM CSV from its marginals
//               (given f and a preference file) and report its accuracy
//   fmeasure    simulate a packet trace pair and measure f (Sec. 5.2)
//   estimate    tomogravity estimation of a TM CSV from its link loads
//               (simulated SNMP on a canned topology), multi-threaded
//   stream      online estimation of a trace (ictmb or CSV) through the
//               streaming subsystem: bounded queue, worker pool,
//               sliding-window prior re-fit
//   serve       long-running estimation server: concurrent client
//               sessions over unix/TCP sockets, shared per-topology
//               state, durable checkpoints for lossless restart
//   client      drive one session against a running server from a
//               trace file; output matches `ictm stream` byte for byte
//   convert     convert between the TM CSV format and the ictmb
//               chunked binary trace format (direction auto-detected)
//   repack      rewrite an ictmb trace (v1 or v2, any codec) as ictmb
//               v2 with a chosen chunk codec, printing per-codec
//               compression statistics
//   topo        topology workbench: list the registry, show stats,
//               generate .ictp files from the synthetic generators,
//               export any spec to canonical .ictp
//
// Exit codes: 0 success; 1 runtime error or a failed scenario check;
// 2 usage error (also printed for no/unknown subcommands).
//
// Matrices use the CSV format of traffic/io.hpp or the ictmb binary
// format of stream/format.hpp; topologies resolve through
// topology/registry.hpp (canned names, generator specs, .ictp files).
// docs/CLI.md is the full reference.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <csignal>

#include <poll.h>
#include <unistd.h>

#include "common/parallel.hpp"
#include "conngen/fmeasure.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "conngen/packet_trace.hpp"
#include "core/estimation.hpp"
#include "core/solver_backend.hpp"
#include "core/fit.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "core/priors.hpp"
#include "core/synthesis.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "stream/format.hpp"
#include "stream/online.hpp"
#include "topology/ictp.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/io.hpp"

using namespace ictm;

namespace {

// Bad option values (non-numeric --threads, unknown --solver, ...)
// are usage errors: exit 2 with a one-line hint, distinct from the
// runtime-error exit 1.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what)
      : std::runtime_error(what) {}
};

// Shared --trace-out/--metrics-out handling for the estimation
// subcommands (estimate, stream, run, serve).  begin() opens the
// trace session before the work; finish() closes it and dumps the
// metrics registry as ictm-metrics-v1 JSON.  Neither artifact ever
// changes estimation output bytes (docs/ARCHITECTURE.md,
// "Observability").
struct ObsOutputs {
  std::string tracePath;
  std::string metricsPath;

  /// Consumes one of the shared flags; false if `arg` is not ours.
  bool parseFlag(const std::string& arg, int argc, char** argv, int* i) {
    if (arg == "--trace-out" && *i + 1 < argc) {
      tracePath = argv[++*i];
      return true;
    }
    if (arg == "--metrics-out" && *i + 1 < argc) {
      metricsPath = argv[++*i];
      return true;
    }
    return false;
  }

  void begin() const {
    if (tracePath.empty()) return;
    std::string error;
    if (!obs::tracing::Start(tracePath, &error)) {
      throw std::runtime_error(error);
    }
  }

  void finish() const {
    if (!tracePath.empty()) {
      std::string error;
      if (obs::tracing::Stop(&error)) {
        std::printf("wrote trace to %s\n", tracePath.c_str());
      } else {
        std::fprintf(stderr, "error: %s\n", error.c_str());
      }
    }
    if (!metricsPath.empty()) {
      std::ofstream out(metricsPath);
      ICTM_REQUIRE(out.is_open(),
                   "cannot open file for writing: " + metricsPath);
      out << obs::Registry::Instance().snapshot().toJson() << "\n";
      ICTM_REQUIRE(out.good(), "metrics write failed: " + metricsPath);
      std::printf("wrote metrics to %s\n", metricsPath.c_str());
    }
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ictm list [--json]\n"
               "      list the registered experiment scenarios\n"
               "      --json  machine-readable listing (name, artifact,\n"
               "              title, expectation) for tooling\n"
               "  ictm run <scenario...|all> [--threads N] [--out DIR]\n"
               "           [--seed S] [--tiny] [--topology SPEC]\n"
               "           [--solver dense|sparse|cg|auto]\n"
               "           [--trace-out FILE] [--metrics-out FILE]\n"
               "      run scenarios; deterministic JSON per scenario\n"
               "      (bit-identical for every --threads value) goes to\n"
               "      DIR/<scenario>.json plus DIR/manifest.json, or to\n"
               "      stdout without --out\n"
               "      --threads N     worker fan-out (0 = all cores;\n"
               "                      default)\n"
               "      --seed S        offset added to the canonical seeds\n"
               "      --tiny          reduced 6-node smoke configuration\n"
               "      --topology SPEC substitute topology for the\n"
               "                      topology-aware scenarios (name,\n"
               "                      generator spec or .ictp file)\n"
               "      --solver K      normal-equations backend for the\n"
               "                      estimation scenarios (auto, the\n"
               "                      default: dense through 4095\n"
               "                      augmented rows, cg above)\n"
               "  ictm synthesize <out.csv> [nodes] [bins] [f] [seed]\n"
               "  ictm fit <tm.csv>\n"
               "  ictm gravity <tm.csv>\n"
               "  ictm prior <tm.csv> <f>\n"
               "  ictm fmeasure [durationSec] [connPerSec] [seed]\n"
               "  ictm estimate <tm.csv> [topology] [threads] [seed]\n"
               "           [--solver dense|sparse|cg|auto]\n"
               "           [--trace-out FILE] [--metrics-out FILE]\n"
               "      topology: auto (default) picks a canned topology\n"
               "                by node count; otherwise any registry\n"
               "                spec (geant22, hierarchy:100, ...) or\n"
               "                an .ictp file\n"
               "      threads:  worker threads for the per-bin fan-out\n"
               "                (0 = all cores, the default)\n"
               "      seed:     generator seed for seeded topology\n"
               "                specs (default 0; must match the seed\n"
               "                the topology was generated with)\n"
               "      --solver  normal-equations backend (auto, the\n"
               "                default: dense through 4095 augmented\n"
               "                rows, cg above)\n"
               "  ictm stream <trace.ictmb|tm.csv> [--topology T]\n"
               "           [--seed S] [--threads N] [--window W]\n"
               "           [--queue C] [--f F] [--out DIR]\n"
               "           [--solver dense|sparse|cg|auto]\n"
               "           [--trace-out FILE] [--metrics-out FILE]\n"
               "      online estimation through the streaming subsystem\n"
               "      (bounded queue + worker pool + reorder buffer);\n"
               "      input format is sniffed, not taken from the\n"
               "      extension\n"
               "      --topology T  auto (default), any registry spec\n"
               "                    or an .ictp file\n"
               "      --seed S      generator seed for seeded topology\n"
               "                    specs (default 0)\n"
               "      --threads N   estimation workers (0 = all cores)\n"
               "      --window W    re-fit the IC prior's preference\n"
               "                    every W bins (0 = keep initial fit)\n"
               "      --queue C     bounded queue capacity (default 64)\n"
               "      --f F         forward fraction of the prior\n"
               "                    (yesterday's fit; default 0.25)\n"
               "      --out DIR     write DIR/estimates.ictmb and\n"
               "                    DIR/priors.ictmb\n"
               "      --codec C     chunk codec for the --out traces\n"
               "                    (raw|shuffle-lz|delta; default raw)\n"
               "      --solver K    normal-equations backend (auto,\n"
               "                    the default: dense through 4095\n"
               "                    augmented rows, cg above)\n"
               "      --trace-out FILE   Chrome trace_event JSON of the\n"
               "                    run (chrome://tracing / perfetto)\n"
               "      --metrics-out FILE ictm-metrics-v1 JSON snapshot\n"
               "                    of the metrics registry at exit\n"
               "  ictm serve --listen SPEC [--checkpoint-dir DIR]\n"
               "           [--checkpoint-every K] [--cache N]\n"
               "           [--max-threads N] [--queue C]\n"
               "           [--stats-interval SEC]\n"
               "           [--trace-out FILE] [--metrics-out FILE]\n"
               "      long-running estimation server; SPEC is\n"
               "      unix:/path.sock or tcp:host:port (port 0 picks\n"
               "      an ephemeral port, printed on startup); runs\n"
               "      until SIGINT/SIGTERM\n"
               "      --checkpoint-dir DIR  durable session checkpoints\n"
               "                    (enables client --resume)\n"
               "      --checkpoint-every K  checkpoint period in bins\n"
               "                    (default 16)\n"
               "      --cache N     resident shared-topology entries\n"
               "                    (default 4, LRU beyond that)\n"
               "      --max-threads N  per-session worker cap\n"
               "                    (default 4)\n"
               "      --queue C     per-session outbound frame queue\n"
               "                    capacity (default 16)\n"
               "      --stats-interval SEC  print a metrics summary\n"
               "                    line every SEC seconds\n"
               "      --trace-out/--metrics-out  as for `ictm stream`\n"
               "                    (metrics written at shutdown)\n"
               "  ictm client --stats --connect SPEC\n"
               "      print a running server's metrics snapshot\n"
               "      (name-sorted \"name value\" lines) and exit\n"
               "  ictm client <trace.ictmb|tm.csv> --connect SPEC\n"
               "           [--topology T] [--seed S] [--threads N]\n"
               "           [--window W] [--queue C] [--f F]\n"
               "           [--solver dense|sparse|cg|auto]\n"
               "           [--session KEY] [--resume] [--have N]\n"
               "           [--out DIR] [--codec C]\n"
               "      stream a trace through a running server; same\n"
               "      estimation options as `ictm stream`, and for the\n"
               "      same trace/topology/options the outputs are\n"
               "      byte-identical to `ictm stream`\n"
               "      --session KEY  name the session so the server\n"
               "                    checkpoints it durably\n"
               "      --resume      continue a named session from the\n"
               "                    server's last checkpoint\n"
               "      --have N      estimate frames already received in\n"
               "                    earlier runs (re-sent ones are\n"
               "                    discarded; --out then holds the\n"
               "                    tail from frame N on)\n"
               "      --out DIR     write DIR/estimates.ictmb and\n"
               "                    DIR/priors.ictmb\n"
               "      --codec C     chunk codec for the --out traces\n"
               "                    (raw|shuffle-lz|delta; default raw)\n"
               "  ictm convert <in> <out> [--chunk K] [--codec C]\n"
               "      convert TM CSV -> ictmb binary trace or back\n"
               "      (direction auto-detected from the input magic);\n"
               "      --chunk K sets bins per chunk (default 64) and\n"
               "      --codec C the chunk codec (raw|shuffle-lz|delta;\n"
               "      default raw) when the output is ictmb\n"
               "  ictm repack <in.ictmb> <out.ictmb> [--codec C]\n"
               "           [--chunk K] [--threads N]\n"
               "      rewrite a trace (version 1 or 2, any codec) as\n"
               "      ictmb v2 with the chosen chunk codec and print\n"
               "      per-codec compression statistics\n"
               "      --codec C    raw|shuffle-lz|delta (default delta)\n"
               "      --chunk K    bins per chunk (default: keep the\n"
               "                   input's chunking)\n"
               "      --threads N  compression worker threads (0 =\n"
               "                   compress inline, the default; output\n"
               "                   bytes are identical for every N)\n"
               "  ictm topo list [--json]\n"
               "      list the topology registry (canned names and\n"
               "      generator families with their spec syntax)\n"
               "  ictm topo show <spec> [--seed S] [--json]\n"
               "      resolve a spec and print node/link/routing stats\n"
               "  ictm topo gen <spec> [--seed S] [--out FILE]\n"
               "      generate a topology and write canonical .ictp\n"
               "      (stdout without --out); byte-reproducible for a\n"
               "      fixed spec and seed\n"
               "  ictm topo convert <spec> <out.ictp> [--seed S]\n"
               "      export any resolvable topology (canned name,\n"
               "      generator spec or .ictp file) to canonical .ictp\n"
               "exit codes: 0 success; 1 runtime error or failed scenario\n"
               "check; 2 usage error\n"
               "full reference: docs/CLI.md\n");
  return 2;
}

std::size_t ParseSize(const char* arg, const char* what, long min,
                      long max) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || v < min ||
      v > max) {
    throw UsageError(std::string(what) + " must be an integer in [" +
                     std::to_string(min) + ", " + std::to_string(max) +
                     "], got: " + arg);
  }
  return static_cast<std::size_t>(v);
}

std::size_t ParseThreads(const char* arg) {
  return ParseSize(arg, "threads", 0, 4096);
}

double ParseDouble(const char* arg, const char* what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    throw UsageError(std::string(what) +
                     " must be a finite number, got: " + arg);
  }
  return v;
}

core::SolverKind ParseSolver(const char* arg) {
  core::SolverKind kind;
  if (!core::ParseSolverKind(arg, &kind)) {
    throw UsageError(std::string("unknown solver: ") + arg +
                     " (expected dense|sparse|cg|auto)");
  }
  return kind;
}

stream::ChunkCodec ParseCodec(const char* arg) {
  stream::ChunkCodec codec = stream::ChunkCodec::kRaw;
  if (!stream::ParseChunkCodec(arg, &codec)) {
    throw UsageError(std::string("unknown codec: ") + arg +
                     " (expected raw|shuffle-lz|delta)");
  }
  return codec;
}

// Per-codec compression statistics from the metrics registry
// (trace_codec.<name>.*), printed after a repack so the effect of the
// chosen codec — including per-chunk raw fallbacks — is visible.
void PrintCodecStats() {
  const obs::MetricsSnapshot snap = obs::Registry::Instance().snapshot();
  std::map<std::string, std::uint64_t> values;
  for (const auto& c : snap.counters) values[c.name] = c.value;
  const auto value = [&values](const std::string& name) -> std::uint64_t {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  };
  for (std::size_t i = 0; i < stream::kChunkCodecCount; ++i) {
    const char* name =
        stream::ChunkCodecName(static_cast<stream::ChunkCodec>(i));
    const std::string prefix = std::string("trace_codec.") + name + ".";
    const std::uint64_t cChunks = value(prefix + "compress_chunks");
    const std::uint64_t dChunks = value(prefix + "decompress_chunks");
    if (cChunks > 0) {
      const std::uint64_t in = value(prefix + "compress_bytes_in");
      const std::uint64_t out = value(prefix + "compress_bytes_out");
      std::printf("  %-10s compressed %llu chunk(s): %llu -> %llu bytes "
                  "(%.2fx) in %.1f ms\n",
                  name, static_cast<unsigned long long>(cChunks),
                  static_cast<unsigned long long>(in),
                  static_cast<unsigned long long>(out),
                  out > 0 ? double(in) / double(out) : 0.0,
                  double(value(prefix + "compress_ns")) / 1e6);
    }
    if (dChunks > 0) {
      const std::uint64_t in = value(prefix + "decompress_bytes_in");
      const std::uint64_t out = value(prefix + "decompress_bytes_out");
      std::printf("  %-10s decompressed %llu chunk(s): %llu -> %llu "
                  "bytes in %.1f ms\n",
                  name, static_cast<unsigned long long>(dChunks),
                  static_cast<unsigned long long>(in),
                  static_cast<unsigned long long>(out),
                  double(value(prefix + "decompress_ns")) / 1e6);
    }
  }
}

int CmdList(int argc, char** argv) {
  bool asJson = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      asJson = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage();
    }
  }
  const auto& scenarios = scenario::ListScenarios();
  if (asJson) {
    // Machine-readable listing so tooling can enumerate scenarios
    // without scraping the human-format output.
    scenario::json::Array items;
    for (const auto& info : scenarios) {
      scenario::json::Object o;
      o.set("name", info.name);
      o.set("artifact", info.artifact);
      o.set("title", info.title);
      o.set("expectation", info.expectation);
      items.push_back(scenario::json::Value(std::move(o)));
    }
    scenario::json::Object doc;
    doc.set("schema", "ictm-scenario-list-v1");
    doc.set("scenarios", scenario::json::Value(std::move(items)));
    std::printf("%s\n",
                scenario::json::Value(std::move(doc)).dump(2).c_str());
    return 0;
  }
  std::printf("%zu registered scenarios:\n\n", scenarios.size());
  for (const auto& info : scenarios) {
    std::printf("  %-26s %-18s %s\n", info.name.c_str(),
                info.artifact.c_str(), info.title.c_str());
  }
  std::printf("\nrun one with: ictm run <name>   (or: ictm run all)\n");
  return 0;
}

int CmdRun(int argc, char** argv) {
  scenario::ScenarioContext ctx;
  ctx.threads = 0;  // saturate by default
  std::vector<std::string> names;
  std::string outDir;
  bool runAll = false;
  ObsOutputs obsOut;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      ctx.tiny = true;
    } else if (obsOut.parseFlag(arg, argc, argv, &i)) {
    } else if (arg == "--threads" && i + 1 < argc) {
      ctx.threads = ParseThreads(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      ctx.seedOffset = static_cast<std::uint64_t>(ParseSize(
          argv[++i], "seed", 0, std::numeric_limits<long>::max()));
    } else if (arg == "--topology" && i + 1 < argc) {
      ctx.topology = argv[++i];
    } else if (arg == "--solver" && i + 1 < argc) {
      ParseSolver(argv[i + 1]);  // validate before any scenario runs
      ctx.solver = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      outDir = argv[++i];
    } else if (arg == "all") {
      runAll = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      if (!scenario::HasScenario(arg)) {
        std::fprintf(stderr,
                     "unknown scenario: %s (see `ictm list`)\n",
                     arg.c_str());
        return 2;
      }
      names.push_back(arg);
    }
  }
  if (runAll) {
    names.clear();
    names.reserve(scenario::ListScenarios().size());
    for (const auto& info : scenario::ListScenarios()) {
      names.push_back(info.name);
    }
  }
  if (names.empty()) return Usage();
  obsOut.begin();

  // Split the thread budget between the scenario-level fan-out and
  // each scenario's inner kernels instead of multiplying them (inner
  // thread counts never change results, only wall clock).
  const std::size_t budget = ResolveThreadCount(ctx.threads);
  const std::size_t workers = std::min(budget, names.size());
  ctx.threads = std::max<std::size_t>(1, budget / workers);
  std::printf("running %zu scenario(s) across %zu worker(s), %zu inner "
              "thread(s) each%s...\n",
              names.size(), workers, ctx.threads,
              ctx.tiny ? " [tiny]" : "");

  const auto start = std::chrono::steady_clock::now();
  const auto results = scenario::RunScenarios(names, ctx, workers);
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  bool allPass = true;
  for (const auto& r : results) {
    if (!r.error.empty()) {
      std::printf("  [ERROR] %-26s %s\n", r.info.name.c_str(),
                  r.error.c_str());
      allPass = false;
      continue;
    }
    std::printf("  [%s] %-26s %6.2f s\n", r.pass ? "PASS" : "FAIL",
                r.info.name.c_str(), r.seconds);
    if (!r.notes.empty()) {
      std::printf("%s", r.notes.c_str());
    }
    allPass = allPass && r.pass;
  }
  std::printf("%zu scenario(s) in %.2f s wall clock\n", results.size(),
              sec);

  if (!outDir.empty()) {
    scenario::WriteResultFiles(results, ctx, outDir);
    std::printf("results written to %s/<scenario>.json\n",
                outDir.c_str());
  } else {
    for (const auto& r : results) {
      if (r.error.empty()) std::printf("%s", r.doc.dump(2).c_str());
    }
  }
  obsOut.finish();
  return allPass ? 0 : 1;
}

double ArgOr(int argc, char** argv, int idx, double fallback) {
  return argc > idx ? std::stod(argv[idx]) : fallback;
}

int CmdSynthesize(int argc, char** argv) {
  if (argc < 3) return Usage();
  core::SynthesisConfig cfg;
  cfg.nodes = static_cast<std::size_t>(ArgOr(argc, argv, 3, 22));
  cfg.bins = static_cast<std::size_t>(ArgOr(argc, argv, 4, 2016));
  cfg.f = ArgOr(argc, argv, 5, 0.25);
  cfg.activityModel.profile.binsPerDay = std::max<std::size_t>(
      1, cfg.bins >= 7 ? cfg.bins / 7 : cfg.bins);
  cfg.threads = 0;  // all cores; output is thread-count invariant
  stats::Rng rng(
      static_cast<std::uint64_t>(ArgOr(argc, argv, 6, 42)));
  const core::SyntheticTm synth = core::GenerateSyntheticTm(cfg, rng);
  traffic::WriteCsvFile(argv[2], synth.series);
  std::printf("wrote %zu bins x %zu nodes to %s (f=%.3f)\n", cfg.bins,
              cfg.nodes, argv[2], cfg.f);
  std::printf("preference:");
  for (double p : synth.preference) std::printf(" %.4f", p);
  std::printf("\n");
  return 0;
}

int CmdFit(int argc, char** argv) {
  if (argc < 3) return Usage();
  const auto series = traffic::ReadCsvFile(argv[2]);
  std::printf("loaded %zu nodes x %zu bins\n", series.nodeCount(),
              series.binCount());
  const core::StableFPFit fit = core::FitStableFP(series);
  std::printf("f = %.4f  (sweeps %zu, converged %d)\n", fit.f,
              fit.sweeps, int(fit.converged));
  std::printf("objective sum RelL2 = %.4f (mean %.4f per bin)\n",
              fit.objective(),
              fit.objective() / double(series.binCount()));
  std::printf("preference:");
  for (double p : fit.preference) std::printf(" %.4f", p);
  std::printf("\n");
  const auto grav = core::GravityPredictSeries(series);
  const auto rec = core::ReconstructSeries(fit, series.binSeconds());
  const auto icErr = core::RelL2TemporalSeries(series, rec);
  const auto gErr = core::RelL2TemporalSeries(series, grav);
  std::printf("mean RelL2: IC %.4f vs gravity %.4f (improvement "
              "%.1f%%)\n",
              core::Mean(icErr), core::Mean(gErr),
              core::Mean(core::PercentImprovementSeries(gErr, icErr)));
  return 0;
}

int CmdGravity(int argc, char** argv) {
  if (argc < 3) return Usage();
  const auto series = traffic::ReadCsvFile(argv[2]);
  const auto grav = core::GravityPredictSeries(series);
  const auto err = core::RelL2TemporalSeries(series, grav);
  std::printf("gravity mean RelL2 over %zu bins: %.4f\n",
              series.binCount(), core::Mean(err));
  return 0;
}

int CmdPrior(int argc, char** argv) {
  if (argc < 4) return Usage();
  const auto series = traffic::ReadCsvFile(argv[2]);
  const double f = std::stod(argv[3]);
  const auto margs = core::ExtractMarginals(series);
  const auto prior = core::StableFPrior(f, margs, series.binSeconds());
  const auto err = core::RelL2TemporalSeries(series, prior);
  std::printf("stable-f prior (f=%.3f) mean RelL2: %.4f\n", f,
              core::Mean(err));
  const auto grav = core::GravityPriorSeries(margs, series.binSeconds());
  std::printf("gravity prior mean RelL2:           %.4f\n",
              core::Mean(core::RelL2TemporalSeries(series, grav)));
  return 0;
}

topology::Graph TopologyByName(const std::string& name, std::size_t nodes,
                               std::uint64_t seed) {
  if (name != "auto") return topology::MakeTopology(name, seed);
  if (nodes == 22) return topology::MakeGeant22();
  if (nodes == 23) return topology::MakeTotem23();
  if (nodes == 11) return topology::MakeAbilene11();
  // No canned topology of this size: fall back to a synthetic ring so
  // synthesize -> estimate round trips still work, but say so — the
  // routing (and hence the estimates) will not match any real network.
  std::fprintf(stderr,
               "note: no canned topology has %zu nodes; using a "
               "synthetic ring-with-chords instead (pass a registry "
               "spec or .ictp file to choose the topology)\n",
               nodes);
  return topology::MakeRing(nodes, 2);
}

int CmdEstimate(int argc, char** argv) {
  core::EstimationOptions options;
  std::vector<std::string> positional;
  ObsOutputs obsOut;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--solver" && i + 1 < argc) {
      options.solver = ParseSolver(argv[++i]);
    } else if (obsOut.parseFlag(arg, argc, argv, &i)) {
    } else if (!arg.empty() && arg[0] == '-' && arg.size() > 1 &&
               !std::isdigit(static_cast<unsigned char>(arg[1]))) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) return Usage();
  obsOut.begin();

  const auto truth = traffic::ReadCsvFile(positional[0]);
  const std::string topoName =
      positional.size() > 1 ? positional[1] : "auto";
  const std::uint64_t topoSeed =
      positional.size() > 3
          ? static_cast<std::uint64_t>(
                ParseSize(positional[3].c_str(), "seed", 0,
                          std::numeric_limits<long>::max()))
          : 0;
  const topology::Graph g =
      TopologyByName(topoName, truth.nodeCount(), topoSeed);
  ICTM_REQUIRE(g.nodeCount() == truth.nodeCount(),
               "topology node count does not match the TM series");
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);

  options.threads =
      positional.size() > 2 ? ParseThreads(positional[2].c_str()) : 0;
  const std::size_t workers = std::min(
      ictm::ResolveThreadCount(options.threads), truth.binCount());
  std::printf("loaded %zu nodes x %zu bins; topology %s (%zu links), "
              "%zu threads, solver %s\n",
              truth.nodeCount(), truth.binCount(), topoName.c_str(),
              g.linkCount(), workers,
              core::SolverKindName(core::ResolveSolverKind(
                  options.solver,
                  core::AugmentedRowCount(routing.rows(),
                                          truth.nodeCount(),
                                          options.useMarginalConstraints))));

  const auto priors = core::GravityPredictSeries(truth);
  const auto start = std::chrono::steady_clock::now();
  const auto est = core::EstimateSeries(routing, truth, priors, options);
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  const auto errEst = core::RelL2TemporalSeries(truth, est);
  const auto errPrior = core::RelL2TemporalSeries(truth, priors);
  std::printf("estimated %zu bins in %.3f s (%.2f ms/bin)\n",
              truth.binCount(), sec,
              1e3 * sec / double(truth.binCount()));
  std::printf("mean RelL2: tomogravity %.4f vs gravity prior %.4f "
              "(improvement %.1f%%)\n",
              core::Mean(errEst), core::Mean(errPrior),
              core::Mean(core::PercentImprovementSeries(errPrior, errEst)));
  obsOut.finish();
  return 0;
}

int CmdStream(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string inPath = argv[2];
  std::string topoName = "auto";
  std::string outDir;
  std::uint64_t topoSeed = 0;
  stream::StreamingOptions options;
  options.threads = 0;  // saturate by default
  stream::ChunkCodec codec = stream::ChunkCodec::kRaw;
  ObsOutputs obsOut;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--topology" && i + 1 < argc) {
      topoName = argv[++i];
    } else if (obsOut.parseFlag(arg, argc, argv, &i)) {
    } else if (arg == "--seed" && i + 1 < argc) {
      topoSeed = static_cast<std::uint64_t>(ParseSize(
          argv[++i], "seed", 0, std::numeric_limits<long>::max()));
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = ParseThreads(argv[++i]);
    } else if (arg == "--window" && i + 1 < argc) {
      options.window = ParseSize(argv[++i], "window", 0, 1 << 20);
    } else if (arg == "--queue" && i + 1 < argc) {
      options.queueCapacity = ParseSize(argv[++i], "queue", 1, 1 << 20);
    } else if (arg == "--f" && i + 1 < argc) {
      options.f = ParseDouble(argv[++i], "f");
    } else if (arg == "--solver" && i + 1 < argc) {
      options.estimation.solver = ParseSolver(argv[++i]);
    } else if (arg == "--codec" && i + 1 < argc) {
      codec = ParseCodec(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      outDir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  obsOut.begin();

  // Sniff the input format; either way bins stream one at a time —
  // peak memory is O(n² · (queue + workers)), never O(n² · T).
  std::optional<stream::TraceReader> trace;
  std::ifstream csv;
  traffic::CsvHeader csvHeader;
  if (stream::IsTraceFile(inPath)) {
    // One-chunk-ahead prefetch overlaps decompression with estimation.
    trace.emplace(inPath, stream::TraceReaderOptions{true});
    csvHeader = {trace->info().nodes, trace->info().bins,
                 trace->info().binSeconds};
  } else {
    csv.open(inPath);
    ICTM_REQUIRE(csv.is_open(), "cannot open file for reading: " + inPath);
    csvHeader = traffic::ReadCsvHeader(csv);
  }
  const std::size_t nodes = csvHeader.nodes;
  const std::size_t bins = csvHeader.bins;
  ICTM_REQUIRE(bins > 0, "trace holds no bins: " + inPath);

  const topology::Graph g = TopologyByName(topoName, nodes, topoSeed);
  ICTM_REQUIRE(g.nodeCount() == nodes,
               "topology node count does not match the trace");
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);

  const std::size_t workers = ictm::ResolveThreadCount(options.threads);
  std::printf("streaming %zu bins x %zu nodes; topology %s (%zu links), "
              "%zu worker(s), window %zu, queue %zu, solver %s\n",
              bins, nodes, topoName.c_str(), g.linkCount(), workers,
              options.window, options.queueCapacity,
              core::SolverKindName(core::ResolveSolverKind(
                  options.estimation.solver,
                  core::AugmentedRowCount(
                      routing.rows(), nodes,
                      options.estimation.useMarginalConstraints))));

  std::optional<stream::TraceWriter> estWriter, priorWriter;
  if (!outDir.empty()) {
    std::filesystem::create_directories(outDir);
    stream::TraceWriterOptions writerOptions;
    writerOptions.codec = codec;
    // File bytes are identical for any pool size, so one background
    // compressor is pure overlap when a real codec is selected.
    writerOptions.compressThreads =
        codec == stream::ChunkCodec::kRaw ? 0 : 1;
    estWriter.emplace(outDir + "/estimates.ictmb", nodes,
                      csvHeader.binSeconds, writerOptions);
    priorWriter.emplace(outDir + "/priors.ictmb", nodes,
                        csvHeader.binSeconds, writerOptions);
  }

  // Truth bins in flight between push and emission, for per-bin
  // scoring; the bounded queue keeps this map small.
  std::mutex truthMutex;
  std::map<std::size_t, std::vector<double>> inflight;
  double sumErrEst = 0.0, sumErrPrior = 0.0, sumImprovePct = 0.0;
  std::size_t scoredBins = 0, improveBins = 0;

  const auto start = std::chrono::steady_clock::now();
  {
    stream::StreamingEstimator estimator(
        routing, nodes, options,
        [&](std::size_t seq, const double* estimate, const double* prior) {
          std::vector<double> truthBin;
          {
            std::lock_guard<std::mutex> lock(truthMutex);
            auto it = inflight.find(seq);
            truthBin = std::move(it->second);
            inflight.erase(it);
          }
          // Per-bin RelL2 (Frobenius), as core::RelL2TemporalSeries.
          double truthSq = 0.0, estSq = 0.0, priorSq = 0.0;
          for (std::size_t k = 0; k < nodes * nodes; ++k) {
            const double x = truthBin[k];
            truthSq += x * x;
            estSq += (x - estimate[k]) * (x - estimate[k]);
            priorSq += (x - prior[k]) * (x - prior[k]);
          }
          if (truthSq > 0.0) {
            const double errEst = std::sqrt(estSq / truthSq);
            const double errPrior = std::sqrt(priorSq / truthSq);
            sumErrEst += errEst;
            sumErrPrior += errPrior;
            ++scoredBins;
            if (errPrior > 0.0) {
              sumImprovePct += 100.0 * (errPrior - errEst) / errPrior;
              ++improveBins;
            }
          }
          if (estWriter) {
            estWriter->append(estimate);
            priorWriter->append(prior);
          }
        });

    std::vector<double> bin(nodes * nodes);
    for (std::size_t t = 0; t < bins; ++t) {
      if (trace) {
        ICTM_REQUIRE(trace->next(bin.data()),
                     "trace ended before the indexed bin count");
      } else {
        traffic::ReadCsvBin(csv, csvHeader, t, bin.data());
      }
      {
        std::lock_guard<std::mutex> lock(truthMutex);
        inflight.emplace(t, bin);
      }
      estimator.push(stream::MakeBinEvent(routing, nodes, bin.data()));
    }
    estimator.finish();
  }
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  std::printf("estimated %zu bins in %.3f s (%.0f bins/s)\n", bins, sec,
              sec > 0.0 ? double(bins) / sec : 0.0);
  if (scoredBins > 0) {
    // Means over the bins that carry traffic (all-zero bins have no
    // defined RelL2 and are excluded from numerator and denominator).
    std::printf("mean RelL2 over %zu scored bin(s): streaming estimate "
                "%.4f vs IC prior %.4f (improvement %.1f%%)\n",
                scoredBins, sumErrEst / double(scoredBins),
                sumErrPrior / double(scoredBins),
                improveBins > 0 ? sumImprovePct / double(improveBins)
                                : 0.0);
  } else {
    std::printf("no bins carried traffic; RelL2 undefined\n");
  }

  if (estWriter) {
    estWriter->close();
    priorWriter->close();
    std::printf("wrote %s/estimates.ictmb and %s/priors.ictmb\n",
                outDir.c_str(), outDir.c_str());
  }
  obsOut.finish();
  return 0;
}

// Self-pipe for `ictm serve` shutdown: the signal handler may only
// touch async-signal-safe calls, so it writes one byte and the main
// thread does the actual Server::stop().
int g_serveStopPipe[2] = {-1, -1};

void ServeStopHandler(int) {
  const char byte = 1;
  [[maybe_unused]] const long n = write(g_serveStopPipe[1], &byte, 1);
}

int CmdServe(int argc, char** argv) {
  std::string listenSpec;
  server::ServerOptions options;
  ObsOutputs obsOut;
  std::size_t statsIntervalSec = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      listenSpec = argv[++i];
    } else if (obsOut.parseFlag(arg, argc, argv, &i)) {
    } else if (arg == "--stats-interval" && i + 1 < argc) {
      statsIntervalSec =
          ParseSize(argv[++i], "stats-interval", 1, 86400);
    } else if (arg == "--checkpoint-dir" && i + 1 < argc) {
      options.checkpointDir = argv[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      options.limits.checkpointEvery =
          ParseSize(argv[++i], "checkpoint-every", 1, 1 << 20);
    } else if (arg == "--cache" && i + 1 < argc) {
      options.cacheCapacity = ParseSize(argv[++i], "cache", 1, 1 << 10);
    } else if (arg == "--max-threads" && i + 1 < argc) {
      options.limits.maxThreads =
          ParseSize(argv[++i], "max-threads", 1, 4096);
    } else if (arg == "--queue" && i + 1 < argc) {
      options.limits.outputQueueCapacity =
          ParseSize(argv[++i], "queue", 1, 1 << 20);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (listenSpec.empty()) return Usage();
  if (!server::Endpoint::Parse(listenSpec, &options.listen)) {
    throw UsageError("bad --listen spec (unix:/path or tcp:host:port): " +
                     listenSpec);
  }

  obsOut.begin();
  server::Server srv(options);
  std::string error;
  if (!srv.start(&error)) {
    std::fprintf(stderr, "error: cannot listen on %s: %s\n",
                 listenSpec.c_str(), error.c_str());
    return 1;
  }
  // Startup line is the readiness signal scripts wait for; flush it.
  std::printf("listening on %s%s\n", srv.endpoint().describe().c_str(),
              options.checkpointDir.empty()
                  ? ""
                  : (" (checkpoints: " + options.checkpointDir + ")")
                        .c_str());
  std::fflush(stdout);

  ICTM_REQUIRE(pipe(g_serveStopPipe) == 0, "cannot create stop pipe");
  struct sigaction sa = {};
  sa.sa_handler = ServeStopHandler;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // Wait for the stop byte; with --stats-interval the wait doubles as
  // the periodic-summary timer (poll timeout), so an idle server still
  // wakes only once per interval.
  const int pollTimeoutMs =
      statsIntervalSec > 0 ? static_cast<int>(statsIntervalSec * 1000)
                           : -1;
  for (;;) {
    struct pollfd pfd = {g_serveStopPipe[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, pollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      const auto live = srv.cacheStats();
      std::printf("stats: %zu session(s) accepted; %llu bin(s) in, "
                  "%llu estimate byte(s) out; topology cache: %zu "
                  "hit(s), %zu miss(es), %zu eviction(s)\n",
                  srv.sessionsAccepted(),
                  static_cast<unsigned long long>(
                      obs::GetCounter("server.bins_received",
                                      obs::MetricClass::kDeterministic)
                          .value()),
                  static_cast<unsigned long long>(
                      obs::GetCounter("server.bytes_sent",
                                      obs::MetricClass::kDeterministic)
                          .value()),
                  live.hits, live.misses, live.evictions);
      std::fflush(stdout);
      continue;
    }
    char byte = 0;
    while (read(g_serveStopPipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    break;
  }
  std::printf("shutting down\n");
  srv.stop();
  const auto stats = srv.cacheStats();
  std::printf("served %zu session(s); topology cache: %zu hit(s), %zu "
              "miss(es), %zu eviction(s)\n",
              srv.sessionsAccepted(), stats.hits, stats.misses,
              stats.evictions);
  std::printf("totals: %llu bin(s) received, %llu byte(s) in, %llu "
              "byte(s) out, %llu backpressure stall(s)\n",
              static_cast<unsigned long long>(
                  obs::GetCounter("server.bins_received",
                                  obs::MetricClass::kDeterministic)
                      .value()),
              static_cast<unsigned long long>(
                  obs::GetCounter("server.bytes_received",
                                  obs::MetricClass::kDeterministic)
                      .value()),
              static_cast<unsigned long long>(
                  obs::GetCounter("server.bytes_sent",
                                  obs::MetricClass::kDeterministic)
                      .value()),
              static_cast<unsigned long long>(
                  obs::GetCounter("server.backpressure_stalls",
                                  obs::MetricClass::kTiming)
                      .value()));
  // SIGTERM/SIGINT is the only way out of the loop above, so this is
  // the "metrics snapshot on shutdown" dump.
  obsOut.finish();
  return 0;
}

// The client-side analogue of TopologyByName: "auto" maps the node
// count to a canned registry spec that can be sent over the wire (the
// server resolves specs, not CLI conveniences).
std::string TopologySpecByNodes(const std::string& name, std::size_t nodes) {
  if (name != "auto") return name;
  if (nodes == 22) return "geant22";
  if (nodes == 23) return "totem23";
  if (nodes == 11) return "abilene11";
  throw UsageError("no canned topology has " + std::to_string(nodes) +
                   " nodes; pass --topology with a registry spec or "
                   ".ictp file");
}

// `ictm client --stats --connect SPEC`: one-shot metrics probe — no
// trace, no session; prints the server's flattened registry snapshot
// as "name value" lines (name-sorted, so output is diffable).
int CmdClientStats(int argc, char** argv) {
  std::string connectSpec;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stats") continue;
    if (arg == "--connect" && i + 1 < argc) {
      connectSpec = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag with --stats: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (connectSpec.empty()) return Usage();
  server::Endpoint endpoint;
  if (!server::Endpoint::Parse(connectSpec, &endpoint)) {
    throw UsageError("bad --connect spec (unix:/path or tcp:host:port): " +
                     connectSpec);
  }
  server::StatsReply reply;
  std::string error;
  if (!server::Client::FetchStats(endpoint, &reply, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  for (const auto& [name, value] : reply.entries) {
    std::printf("%s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  return 0;
}

int CmdClient(int argc, char** argv) {
  if (argc < 3) return Usage();
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      return CmdClientStats(argc, argv);
    }
  }
  const std::string inPath = argv[2];
  std::string connectSpec;
  std::string topoName = "auto";
  std::string outDir;
  server::ClientConfig config;
  std::size_t threadsOpt = 0;
  stream::ChunkCodec codec = stream::ChunkCodec::kRaw;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connectSpec = argv[++i];
    } else if (arg == "--topology" && i + 1 < argc) {
      topoName = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      config.hello.topologySeed = static_cast<std::uint64_t>(ParseSize(
          argv[++i], "seed", 0, std::numeric_limits<long>::max()));
    } else if (arg == "--threads" && i + 1 < argc) {
      threadsOpt = ParseThreads(argv[++i]);
    } else if (arg == "--window" && i + 1 < argc) {
      config.hello.window = ParseSize(argv[++i], "window", 0, 1 << 20);
    } else if (arg == "--queue" && i + 1 < argc) {
      config.hello.queueCapacity = static_cast<std::uint32_t>(
          ParseSize(argv[++i], "queue", 1, 1 << 20));
    } else if (arg == "--f" && i + 1 < argc) {
      config.hello.f = ParseDouble(argv[++i], "f");
    } else if (arg == "--solver" && i + 1 < argc) {
      config.hello.solver = ParseSolver(argv[++i]);
    } else if (arg == "--session" && i + 1 < argc) {
      config.hello.sessionKey = argv[++i];
    } else if (arg == "--resume") {
      config.hello.resume = true;
    } else if (arg == "--have" && i + 1 < argc) {
      config.hello.clientFrames = static_cast<std::uint64_t>(ParseSize(
          argv[++i], "have", 0, std::numeric_limits<long>::max()));
    } else if (arg == "--codec" && i + 1 < argc) {
      codec = ParseCodec(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      outDir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (connectSpec.empty()) return Usage();
  if (!server::Endpoint::Parse(connectSpec, &config.endpoint)) {
    throw UsageError("bad --connect spec (unix:/path or tcp:host:port): " +
                     connectSpec);
  }
  if (config.hello.resume && config.hello.sessionKey.empty()) {
    throw UsageError("--resume requires --session KEY");
  }

  // The whole series is held in memory: resume re-sends bins from the
  // server's checkpoint, which needs random access by sequence number.
  const traffic::TrafficMatrixSeries truth =
      stream::IsTraceFile(inPath) ? stream::ReadTraceFile(inPath)
                                  : traffic::ReadCsvFile(inPath);
  const std::size_t nodes = truth.nodeCount();
  config.hello.topologySpec = TopologySpecByNodes(topoName, nodes);
  config.hello.threads = static_cast<std::uint32_t>(
      std::min<std::size_t>(ResolveThreadCount(threadsOpt), 4096));

  std::printf("session to %s: %zu bins x %zu nodes, topology %s, "
              "%u thread(s)%s%s\n",
              connectSpec.c_str(), truth.binCount(), nodes,
              config.hello.topologySpec.c_str(), config.hello.threads,
              config.hello.sessionKey.empty() ? "" : ", session ",
              config.hello.sessionKey.c_str());

  // Frames arrive strictly in order, so the writers can append as the
  // receiver thread decodes; estimates/priors land exactly as `ictm
  // stream --out` writes them.
  std::optional<stream::TraceWriter> estWriter, priorWriter;
  if (!outDir.empty()) {
    std::filesystem::create_directories(outDir);
    stream::TraceWriterOptions writerOptions;
    writerOptions.codec = codec;
    writerOptions.compressThreads =
        codec == stream::ChunkCodec::kRaw ? 0 : 1;
    estWriter.emplace(outDir + "/estimates.ictmb", nodes,
                      truth.binSeconds(), writerOptions);
    priorWriter.emplace(outDir + "/priors.ictmb", nodes,
                        truth.binSeconds(), writerOptions);
  }
  std::vector<double> estimate(nodes * nodes), prior(nodes * nodes);
  const server::ClientResult result = server::Client::Run(
      config, truth.binCount(),
      [&](std::uint64_t seq) {
        return truth.binData(static_cast<std::size_t>(seq));
      },
      [&](std::uint64_t, const std::vector<std::uint8_t>& payload) {
        if (!estWriter) return;
        std::uint64_t seq = 0;
        if (server::DecodeEstimatePayload(payload, nodes, &seq,
                                          estimate.data(), prior.data())) {
          estWriter->append(estimate.data());
          priorWriter->append(prior.data());
        }
      });

  // Close even on failure: the partial ictmb stays valid, and the
  // printed frame count is exactly what a retry passes via --have.
  if (estWriter) {
    estWriter->close();
    priorWriter->close();
  }
  if (!result.finished) {
    if (result.serverError.has_value()) {
      std::fprintf(stderr, "error: server refused: [%s] %s\n",
                   server::ErrorCodeName(result.serverError->code),
                   result.serverError->message.c_str());
    }
    if (!result.transportError.empty()) {
      std::fprintf(stderr, "error: %s\n", result.transportError.c_str());
    }
    std::fprintf(stderr,
                 "session incomplete after %zu new frame(s); retry with "
                 "--resume --have %llu to continue\n",
                 result.estimatePayloads.size(),
                 static_cast<unsigned long long>(
                     config.hello.clientFrames +
                     result.estimatePayloads.size()));
    return 1;
  }
  std::printf("received %zu estimate frame(s) (server resumed from bin "
              "%llu)\n",
              result.estimatePayloads.size(),
              static_cast<unsigned long long>(result.resumeFrom));
  if (estWriter) {
    std::printf("wrote %s/estimates.ictmb and %s/priors.ictmb\n",
                outDir.c_str(), outDir.c_str());
  }
  return 0;
}

int CmdConvert(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string inPath = argv[2];
  const std::string outPath = argv[3];
  std::size_t binsPerChunk = 64;
  stream::ChunkCodec codec = stream::ChunkCodec::kRaw;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chunk" && i + 1 < argc) {
      binsPerChunk = ParseSize(argv[++i], "chunk", 1, 1 << 20);
    } else if (arg == "--codec" && i + 1 < argc) {
      codec = ParseCodec(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (stream::IsTraceFile(inPath)) {
    // ictmb -> CSV: the output is text, so --codec has no effect.
    stream::ConvertTraceToCsv(inPath, outPath);
    std::printf("converted ictmb -> CSV: %s\n", outPath.c_str());
  } else {
    stream::TraceWriterOptions options;
    options.binsPerChunk = binsPerChunk;
    options.codec = codec;
    stream::ConvertCsvToTrace(inPath, outPath, options);
    std::printf("converted CSV -> ictmb: %s (%zu bins/chunk, codec %s)\n",
                outPath.c_str(), binsPerChunk,
                stream::ChunkCodecName(codec));
  }
  return 0;
}

int CmdRepack(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string inPath = argv[2];
  const std::string outPath = argv[3];
  stream::TraceWriterOptions options;
  options.binsPerChunk = 0;  // keep the input's chunking
  options.codec = stream::ChunkCodec::kDelta;
  options.compressThreads = 0;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--codec" && i + 1 < argc) {
      options.codec = ParseCodec(argv[++i]);
    } else if (arg == "--chunk" && i + 1 < argc) {
      options.binsPerChunk = ParseSize(argv[++i], "chunk", 1, 1 << 20);
    } else if (arg == "--threads" && i + 1 < argc) {
      options.compressThreads = ParseThreads(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const stream::RepackResult result =
      stream::RepackTrace(inPath, outPath, options);
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  std::printf("repacked %llu bin(s) as %s: %llu -> %llu bytes (%.2fx) "
              "in %.3f s\n",
              static_cast<unsigned long long>(result.bins),
              stream::ChunkCodecName(options.codec),
              static_cast<unsigned long long>(result.inputBytes),
              static_cast<unsigned long long>(result.outputBytes),
              result.outputBytes > 0
                  ? double(result.inputBytes) / double(result.outputBytes)
                  : 0.0,
              sec);
  PrintCodecStats();
  return 0;
}

int CmdTopo(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  bool asJson = false;
  std::uint64_t seed = 0;
  std::string outPath;
  std::vector<std::string> positional;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      asJson = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(
          ParseSize(argv[++i], "seed", 0, std::numeric_limits<long>::max()));
    } else if (arg == "--out" && i + 1 < argc) {
      outPath = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (sub == "list") {
    const auto& entries = topology::ListTopologies();
    if (asJson) {
      scenario::json::Array items;
      for (const auto& info : entries) {
        scenario::json::Object o;
        o.set("name", info.name);
        o.set("kind", info.kind);
        o.set("spec", info.spec);
        o.set("summary", info.summary);
        items.push_back(scenario::json::Value(std::move(o)));
      }
      scenario::json::Object doc;
      doc.set("schema", "ictm-topology-list-v1");
      doc.set("topologies", scenario::json::Value(std::move(items)));
      std::printf("%s\n",
                  scenario::json::Value(std::move(doc)).dump(2).c_str());
      return 0;
    }
    std::printf("%zu topology families:\n\n", entries.size());
    for (const auto& info : entries) {
      std::printf("  %-28s %-10s %s\n", info.spec.c_str(),
                  info.kind.c_str(), info.summary.c_str());
    }
    std::printf("\nany .ictp file path is also a valid spec\n");
    return 0;
  }

  if (sub == "show") {
    if (positional.size() != 1) return Usage();
    const std::string& spec = positional[0];
    const topology::Graph g = topology::MakeTopology(spec, seed);
    const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);

    std::size_t degMin = SIZE_MAX, degMax = 0;
    for (std::size_t i = 0; i < g.nodeCount(); ++i) {
      const std::size_t d = g.outLinks(i).size();
      degMin = std::min(degMin, d);
      degMax = std::max(degMax, d);
    }
    const double degMean =
        double(g.linkCount()) / double(g.nodeCount());
    // Weighted diameter: the longest shortest IGP path.
    double diameter = 0.0;
    for (std::size_t s = 0; s < g.nodeCount(); ++s) {
      const topology::ShortestPaths sp =
          topology::ComputeShortestPaths(g, s);
      for (double d : sp.dist) diameter = std::max(diameter, d);
    }
    const double densityPct =
        100.0 * double(routing.nonZeros()) /
        double(routing.rows() * routing.cols());

    if (asJson) {
      scenario::json::Object doc;
      doc.set("schema", "ictm-topology-v1");
      doc.set("spec", spec);
      doc.set("seed", static_cast<std::int64_t>(seed));
      doc.set("nodes", g.nodeCount());
      doc.set("links", g.linkCount());
      doc.set("out_degree_min", degMin);
      doc.set("out_degree_mean", degMean);
      doc.set("out_degree_max", degMax);
      doc.set("weighted_diameter", diameter);
      doc.set("routing_rows", routing.rows());
      doc.set("routing_cols", routing.cols());
      doc.set("routing_nnz", routing.nonZeros());
      doc.set("routing_density_pct", densityPct);
      std::printf("%s\n",
                  scenario::json::Value(std::move(doc)).dump(2).c_str());
      return 0;
    }
    std::printf("%s (seed %llu)\n", spec.c_str(),
                static_cast<unsigned long long>(seed));
    std::printf("  nodes             %zu\n", g.nodeCount());
    std::printf("  directed links    %zu\n", g.linkCount());
    std::printf("  out-degree        min %zu, mean %.2f, max %zu\n",
                degMin, degMean, degMax);
    std::printf("  weighted diameter %.3f\n", diameter);
    std::printf("  routing matrix    %zu x %zu, %zu non-zeros "
                "(%.3f%% dense)\n",
                routing.rows(), routing.cols(), routing.nonZeros(),
                densityPct);
    return 0;
  }

  if (sub == "gen") {
    if (positional.size() != 1) return Usage();
    const topology::Graph g = topology::MakeTopology(positional[0], seed);
    if (outPath.empty()) {
      std::fputs(topology::WriteIctpString(g).c_str(), stdout);
    } else {
      topology::WriteIctpFile(outPath, g);
      std::printf("wrote %zu nodes, %zu directed links to %s\n",
                  g.nodeCount(), g.linkCount(), outPath.c_str());
    }
    return 0;
  }

  if (sub == "convert") {
    if (positional.size() != 2) return Usage();
    const topology::Graph g = topology::MakeTopology(positional[0], seed);
    topology::WriteIctpFile(positional[1], g);
    std::printf("wrote %s (%zu nodes, %zu directed links) as canonical "
                ".ictp\n",
                positional[1].c_str(), g.nodeCount(), g.linkCount());
    return 0;
  }

  std::fprintf(stderr, "unknown topo subcommand: %s\n", sub.c_str());
  return Usage();
}

int CmdFMeasure(int argc, char** argv) {
  conngen::TraceSimConfig cfg;
  cfg.durationSec = ArgOr(argc, argv, 2, 3600.0);
  cfg.connectionsPerSec = ArgOr(argc, argv, 3, 10.0);
  stats::Rng rng(static_cast<std::uint64_t>(ArgOr(argc, argv, 4, 1)));
  const auto trace = conngen::SimulatePacketTraces(cfg, rng);
  const auto m = conngen::MeasureForwardFraction(trace);
  std::printf("trace: %.0f s, %zu + %zu packets, unknown bytes %.2f%%\n",
              trace.durationSec, trace.aToB.size(), trace.bToA.size(),
              100.0 * m.unknownByteFraction);
  std::printf("f(A->B) mean %.4f, f(B->A) mean %.4f (mix expects "
              "%.4f)\n",
              conngen::MeanFiniteF(m.fAB), conngen::MeanFiniteF(m.fBA),
              cfg.mix.expectedForwardFraction());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  try {
    if (std::strcmp(argv[1], "list") == 0) return CmdList(argc, argv);
    if (std::strcmp(argv[1], "run") == 0) return CmdRun(argc, argv);
    if (std::strcmp(argv[1], "synthesize") == 0)
      return CmdSynthesize(argc, argv);
    if (std::strcmp(argv[1], "fit") == 0) return CmdFit(argc, argv);
    if (std::strcmp(argv[1], "gravity") == 0)
      return CmdGravity(argc, argv);
    if (std::strcmp(argv[1], "prior") == 0) return CmdPrior(argc, argv);
    if (std::strcmp(argv[1], "fmeasure") == 0)
      return CmdFMeasure(argc, argv);
    if (std::strcmp(argv[1], "estimate") == 0)
      return CmdEstimate(argc, argv);
    if (std::strcmp(argv[1], "stream") == 0) return CmdStream(argc, argv);
    if (std::strcmp(argv[1], "serve") == 0) return CmdServe(argc, argv);
    if (std::strcmp(argv[1], "client") == 0) return CmdClient(argc, argv);
    if (std::strcmp(argv[1], "convert") == 0)
      return CmdConvert(argc, argv);
    if (std::strcmp(argv[1], "repack") == 0)
      return CmdRepack(argc, argv);
    if (std::strcmp(argv[1], "topo") == 0) return CmdTopo(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: run `ictm` without arguments for the "
                 "synopsis (full reference: docs/CLI.md)\n",
                 e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
