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
//               write any spec as canonical .ictp
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

#include <signal.h>
#include <time.h>

#include "common/output_file.hpp"
#include "common/parallel.hpp"
#include "conngen/fmeasure.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"
#include "obs/trace.hpp"
#include "conngen/packet_trace.hpp"
#include "core/estimation.hpp"
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
#include "traffic/io.hpp"

using namespace ictm;

namespace {

// Bad option values (non-numeric --threads, unknown --codec, ...)
// are usage errors: exit 2 with a one-line hint, distinct from the
// runtime-error exit 1.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what)
      : std::runtime_error(what) {}
};

// Shared --trace-out/--metrics-out handling for the estimation
// subcommands (estimate, stream, run, serve).  begin() opens the
// trace session before the work; finish() writes it and dumps the
// metrics registry as ictm-metrics-v1 JSON.  Neither artifact ever
// changes estimation output bytes (docs/ARCHITECTURE.md,
// "Observability"), and a command that fails leaves neither.
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

  /// Refuses a trace or metrics path that names one of `files` (the
  /// command's inputs and its own outputs) or the other of the two,
  /// then starts the trace session.  Call it before anything is read
  /// or opened.
  void begin(std::vector<std::string> files) const {
    for (const std::string& path : {tracePath, metricsPath}) {
      if (path.empty()) continue;
      for (const std::string& file : files) RequireDistinctOutput(file, path);
      files.push_back(path);
    }
    if (!tracePath.empty()) obs::tracing::Start(tracePath);
  }

  /// Writes the metrics, then the trace: a failed metrics write leaves
  /// the session unstopped, so no trace file either.
  void finish() const {
    if (!metricsPath.empty()) {
      OutputFile out(metricsPath);
      out.stream() << obs::Registry::Instance().snapshot().toJson() << "\n";
      out.commit();
      std::printf("wrote metrics to %s\n", metricsPath.c_str());
    }
    if (!tracePath.empty()) {
      obs::tracing::Stop();
      std::printf("wrote trace to %s\n", tracePath.c_str());
    }
  }
};

// The files a command reads: its TM input, if any, and the topology
// when the spec names an .ictp file rather than a registry entry.
std::vector<std::string> InputFiles(const std::string& tmPath,
                                    const std::string& topologySpec) {
  std::vector<std::string> files;
  if (!tmPath.empty()) files.push_back(tmPath);
  if (!topologySpec.empty() && topology::IsTopologyFileSpec(topologySpec)) {
    files.push_back(topologySpec);
  }
  return files;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ictm list [--json]\n"
               "      list the registered experiment scenarios\n"
               "      --json  machine-readable listing (name, artifact,\n"
               "              title, expectation) for tooling\n"
               "  ictm run <scenario...|all> [--threads N] [--out DIR]\n"
               "           [--seed S] [--tiny] [--topology SPEC]\n"
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
               "  ictm synthesize <out.csv> [nodes] [bins] [f] [seed]\n"
               "  ictm fit <tm.csv>\n"
               "  ictm gravity <tm.csv>\n"
               "  ictm prior <tm.csv> <f>\n"
               "  ictm fmeasure [durationSec] [connPerSec] [seed]\n"
               "  ictm estimate <tm.csv> [topology] [threads] [seed]\n"
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
               "  ictm stream <trace.ictmb|tm.csv> [--topology T]\n"
               "           [--seed S] [--threads N] [--window W]\n"
               "           [--queue C] [--f F] [--out DIR]\n"
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
               "      --trace-out FILE   Chrome trace_event JSON of the\n"
               "                    run (chrome://tracing / perfetto)\n"
               "      --metrics-out FILE ictm-metrics-v1 JSON snapshot\n"
               "                    of the metrics registry at exit\n"
               "  ictm serve --listen SPEC [--checkpoint-dir DIR]\n"
               "           [--checkpoint-every K] [--cache N]\n"
               "           [--max-threads N] [--stats-interval SEC]\n"
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
               "      write any resolvable topology (generator spec,\n"
               "      canned name or .ictp file) as canonical .ictp\n"
               "      (stdout without --out); byte-reproducible for a\n"
               "      fixed spec and seed\n"
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
  std::vector<std::string> files = InputFiles("", ctx.topology);
  if (!outDir.empty()) {
    for (const std::string& name : names) {
      files.push_back(outDir + "/" + name + ".json");
    }
    files.push_back(outDir + "/manifest.json");
  }
  obsOut.begin(files);

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

  const std::uint64_t start = obs::Now();
  const auto results = scenario::RunScenarios(names, ctx, workers);
  const double sec = obs::ElapsedSeconds(start);

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

// Improvement of a candidate over a baseline as the ratio of their mean
// errors over the same bins: 100·(1 − candidate/baseline).  A mean of
// per-bin percentages instead lets bins whose baseline error is near
// zero dominate, and can print the wrong sign.
double ImprovementPct(double meanCandidate, double meanBaseline) {
  return meanBaseline > 0.0 ? 100.0 * (1.0 - meanCandidate / meanBaseline)
                            : 0.0;
}

int CmdSynthesize(int argc, char** argv) {
  if (argc < 3) return Usage();
  core::SynthesisConfig cfg;
  cfg.nodes = argc > 3 ? ParseSize(argv[3], "nodes", 1, 1 << 16) : 22;
  cfg.bins = argc > 4 ? ParseSize(argv[4], "bins", 1, 1 << 24) : 2016;
  cfg.f = argc > 5 ? ParseDouble(argv[5], "f") : 0.25;
  cfg.activityModel.profile.binsPerDay = std::max<std::size_t>(
      1, cfg.bins >= 7 ? cfg.bins / 7 : cfg.bins);
  cfg.threads = 0;  // all cores; output is thread-count invariant
  stats::Rng rng(argc > 6 ? static_cast<std::uint64_t>(ParseSize(
                                argv[6], "seed", 0,
                                std::numeric_limits<long>::max()))
                          : 42);
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
  const double icMean = core::Mean(icErr);
  const double gMean = core::Mean(gErr);
  std::printf("mean RelL2: IC %.4f vs gravity %.4f (improvement "
              "%.1f%%)\n",
              icMean, gMean, ImprovementPct(icMean, gMean));
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
  const double f = ParseDouble(argv[3], "f");
  const auto series = traffic::ReadCsvFile(argv[2]);
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

// The topology argument of estimate, stream and client as a registry
// spec.  "auto" maps the node count to a canned topology, else to a
// ring with chords; one rule for all three keeps `ictm client` output
// byte-identical to `ictm stream` (the server resolves specs too).
std::string TopologySpec(const std::string& name, std::size_t nodes) {
  if (name != "auto") return name;
  if (nodes == 22) return "geant22";
  if (nodes == 23) return "totem23";
  if (nodes == 11) return "abilene11";
  // No canned topology of this size: fall back to a synthetic ring so
  // synthesize -> estimate round trips still work, but say so — the
  // routing (and hence the estimates) will not match any real network.
  std::fprintf(stderr,
               "note: no canned topology has %zu nodes; using a "
               "synthetic ring-with-chords instead (pass a registry "
               "spec or .ictp file to choose the topology)\n",
               nodes);
  return "ring:" + std::to_string(nodes) + ":2";
}

int CmdEstimate(int argc, char** argv) {
  core::EstimationOptions options;
  std::vector<std::string> positional;
  ObsOutputs obsOut;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obsOut.parseFlag(arg, argc, argv, &i)) {
    } else if (!arg.empty() && arg[0] == '-' && arg.size() > 1 &&
               !std::isdigit(static_cast<unsigned char>(arg[1]))) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) return Usage();
  const std::string topoName =
      positional.size() > 1 ? positional[1] : "auto";
  obsOut.begin(InputFiles(positional[0], topoName));

  const auto truth = traffic::ReadCsvFile(positional[0]);
  const std::uint64_t topoSeed =
      positional.size() > 3
          ? static_cast<std::uint64_t>(
                ParseSize(positional[3].c_str(), "seed", 0,
                          std::numeric_limits<long>::max()))
          : 0;
  const topology::Graph g = topology::MakeTopology(
      TopologySpec(topoName, truth.nodeCount()), topoSeed);
  ICTM_REQUIRE(g.nodeCount() == truth.nodeCount(),
               "topology node count does not match the TM series");
  const linalg::CscMatrix routing = topology::BuildRouting(g);

  options.threads =
      positional.size() > 2 ? ParseThreads(positional[2].c_str()) : 0;
  const std::size_t workers = std::min(
      ictm::ResolveThreadCount(options.threads), truth.binCount());
  std::printf("loaded %zu nodes x %zu bins; topology %s (%zu links), "
              "%zu threads, solver dense\n",
              truth.nodeCount(), truth.binCount(), topoName.c_str(),
              g.linkCount(), workers);

  const auto priors = core::GravityPredictSeries(truth);
  const std::uint64_t start = obs::Now();
  const auto est = core::EstimateSeries(routing, truth, priors, options);
  const double sec = obs::ElapsedSeconds(start);

  const auto errEst = core::RelL2TemporalSeries(truth, est);
  const auto errPrior = core::RelL2TemporalSeries(truth, priors);
  std::printf("estimated %zu bins in %.3f s (%.2f ms/bin)\n",
              truth.binCount(), sec,
              1e3 * sec / double(truth.binCount()));
  const double estMean = core::Mean(errEst);
  const double priorMean = core::Mean(errPrior);
  std::printf("mean RelL2: tomogravity %.4f vs gravity prior %.4f "
              "(improvement %.1f%%)\n",
              estMean, priorMean, ImprovementPct(estMean, priorMean));
  obsOut.finish();
  return 0;
}

// The flags `ictm stream` and `ictm client` share: the topology, the
// estimation options and the --out traces.  stream runs `options` as
// they are; client maps them to the HELLO it sends.
struct StreamFlags {
  std::string topology = "auto";
  std::uint64_t seed = 0;
  stream::StreamingOptions options;
  stream::ChunkCodec codec = stream::ChunkCodec::kRaw;
  std::string outDir;

  StreamFlags() { options.threads = 0; }  // saturate by default

  /// Consumes one of the shared flags; false if `arg` is not ours.
  bool parseFlag(const std::string& arg, int argc, char** argv, int* i) {
    if (*i + 1 >= argc) return false;
    const char* value = argv[*i + 1];
    if (arg == "--topology") {
      topology = value;
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(
          ParseSize(value, "seed", 0, std::numeric_limits<long>::max()));
    } else if (arg == "--threads") {
      options.threads = ParseThreads(value);
    } else if (arg == "--window") {
      options.window = ParseSize(value, "window", 0, 1 << 20);
    } else if (arg == "--queue") {
      options.queueCapacity = ParseSize(value, "queue", 1, 1 << 20);
    } else if (arg == "--f") {
      options.f = ParseDouble(value, "f");
    } else if (arg == "--codec") {
      codec = ParseCodec(value);
    } else if (arg == "--out") {
      outDir = value;
    } else {
      return false;
    }
    ++*i;
    return true;
  }

  /// DIR/estimates.ictmb and DIR/priors.ictmb for --out DIR; none
  /// without it.
  std::vector<std::string> outPaths() const {
    if (outDir.empty()) return {};
    return {outDir + "/estimates.ictmb", outDir + "/priors.ictmb"};
  }
};

// The trace input of stream and client: ictmb or TM CSV, sniffed by
// magic rather than extension, read one bin at a time in ascending
// order, so memory never grows with the trace length.
class TraceInput {
 public:
  explicit TraceInput(const std::string& path) {
    if (stream::IsTraceFile(path)) {
      // No prefetch: it would keep a second decoded chunk resident,
      // and decoding is a small share of a bin's estimation time.
      trace_.emplace(path);
      header = {trace_->info().nodes, trace_->info().bins,
                trace_->info().binSeconds};
    } else {
      csv_.open(path);
      ICTM_REQUIRE(csv_.is_open(), "cannot open file for reading: " + path);
      header = traffic::ReadCsvHeader(csv_);
    }
  }

  /// Reads bin `t` (n² doubles) into `bin`.  Skipped bins cost an O(1)
  /// seek for ictmb and a parse-and-discard for CSV.
  void read(std::size_t t, double* bin) {
    if (trace_) {
      trace_->seek(t);
      ICTM_REQUIRE(trace_->next(bin),
                   "trace ended before the indexed bin count");
      return;
    }
    ICTM_REQUIRE(t >= csvNext_, "CSV bins requested out of order");
    for (; csvNext_ <= t; ++csvNext_) {
      traffic::ReadCsvBin(csv_, header, csvNext_, bin);
    }
  }

  traffic::CsvHeader header;  ///< nodes, bins and bin length

 private:
  std::optional<stream::TraceReader> trace_;
  std::ifstream csv_;
  std::size_t csvNext_ = 0;
};

// The --out traces (StreamFlags::outPaths()).  A run that fails before
// close() leaves neither file.
struct OutputTraces {
  std::optional<stream::TraceWriter> estimates, priors;

  OutputTraces(const StreamFlags& flags, const std::string& inPath,
               std::size_t nodes, double binSeconds) {
    const std::vector<std::string> paths = flags.outPaths();
    if (paths.empty()) return;
    for (const std::string& path : paths) RequireDistinctOutput(inPath, path);
    std::filesystem::create_directories(flags.outDir);
    stream::TraceWriterOptions options;
    options.codec = flags.codec;
    // File bytes are identical for any pool size, so one background
    // compressor is pure overlap (a raw writer starts none).
    options.compressThreads = 1;
    estimates.emplace(paths[0], nodes, binSeconds, options);
    priors.emplace(paths[1], nodes, binSeconds, options);
  }

  void append(const double* estimate, const double* prior) {
    if (!estimates) return;
    estimates->append(estimate);
    priors->append(prior);
  }

  /// Finishes both files (valid ictmb however many bins they hold);
  /// false when there are none.
  bool close() {
    if (!estimates) return false;
    estimates->close();
    priors->close();
    return true;
  }
};

int CmdStream(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string inPath = argv[2];
  StreamFlags flags;
  ObsOutputs obsOut;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!flags.parseFlag(arg, argc, argv, &i) &&
        !obsOut.parseFlag(arg, argc, argv, &i)) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  std::vector<std::string> files = InputFiles(inPath, flags.topology);
  for (const std::string& path : flags.outPaths()) files.push_back(path);
  obsOut.begin(files);

  // Peak memory is O(n² · (queue + workers)), never O(n² · T).
  TraceInput input(inPath);
  const std::size_t nodes = input.header.nodes;
  const std::size_t bins = input.header.bins;
  ICTM_REQUIRE(bins > 0, "trace holds no bins: " + inPath);

  const topology::Graph g = topology::MakeTopology(
      TopologySpec(flags.topology, nodes), flags.seed);
  ICTM_REQUIRE(g.nodeCount() == nodes,
               "topology node count does not match the trace");
  const linalg::CscMatrix routing = topology::BuildRouting(g);

  const stream::StreamingOptions& options = flags.options;
  const std::size_t workers = ictm::ResolveThreadCount(options.threads);
  std::printf("streaming %zu bins x %zu nodes; topology %s (%zu links), "
              "%zu worker(s), window %zu, queue %zu, solver dense\n",
              bins, nodes, flags.topology.c_str(), g.linkCount(), workers,
              options.window, options.queueCapacity);

  OutputTraces out(flags, inPath, nodes, input.header.binSeconds);

  // Truth bins in flight between push and emission, for per-bin
  // scoring; the bounded queue keeps this map small.
  std::mutex truthMutex;
  std::map<std::size_t, std::vector<double>> inflight;
  double sumErrEst = 0.0, sumErrPrior = 0.0;
  std::size_t scoredBins = 0;

  const std::uint64_t start = obs::Now();
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
          sumErrEst += std::sqrt(estSq / truthSq);
          sumErrPrior += std::sqrt(priorSq / truthSq);
          ++scoredBins;
        }
        out.append(estimate, prior);
      });

  std::vector<double> bin(nodes * nodes);
  for (std::size_t t = 0; t < bins; ++t) {
    input.read(t, bin.data());
    {
      std::lock_guard<std::mutex> lock(truthMutex);
      inflight.emplace(t, bin);
    }
    estimator.push(stream::MakeBinEvent(routing, nodes, bin.data()));
  }
  estimator.finish();
  const double sec = obs::ElapsedSeconds(start);
  std::printf("estimated %zu bins in %.3f s (%.0f bins/s)\n", bins, sec,
              sec > 0.0 ? double(bins) / sec : 0.0);
  if (scoredBins > 0) {
    // Means over the bins that carry traffic (all-zero bins have no
    // defined RelL2 and are excluded from numerator and denominator).
    const double estMean = sumErrEst / double(scoredBins);
    const double priorMean = sumErrPrior / double(scoredBins);
    std::printf("mean RelL2 over %zu scored bin(s): streaming estimate "
                "%.4f vs IC prior %.4f (improvement %.1f%%)\n",
                scoredBins, estMean, priorMean,
                ImprovementPct(estMean, priorMean));
  } else {
    std::printf("no bins carried traffic; RelL2 undefined\n");
  }

  if (out.close()) {
    std::printf("wrote %s/estimates.ictmb and %s/priors.ictmb\n",
                flags.outDir.c_str(), flags.outDir.c_str());
  }
  obsOut.finish();
  return 0;
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

  // Block the stop signals before Server::start() starts the first
  // thread.  Every server thread inherits the mask, so SIGINT or
  // SIGTERM stays pending, however early it arrives, until the main
  // thread takes it below.  No thread runs a signal handler.
  sigset_t stopSignals;
  sigemptyset(&stopSignals);
  sigaddset(&stopSignals, SIGINT);
  sigaddset(&stopSignals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stopSignals, nullptr);

  obsOut.begin({});
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

  // Wait for a stop signal.  With --stats-interval the wait times out
  // once per interval to print the periodic summary, so an idle server
  // still wakes only once per interval.
  const timespec statsPeriod = {static_cast<time_t>(statsIntervalSec), 0};
  for (;;) {
    const int sig = statsIntervalSec > 0
                        ? sigtimedwait(&stopSignals, nullptr, &statsPeriod)
                        : sigwaitinfo(&stopSignals, nullptr);
    if (sig < 0 && errno == EINTR) continue;
    if (sig < 0 && errno == EAGAIN) {
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
  StreamFlags flags;
  server::ClientConfig config;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags.parseFlag(arg, argc, argv, &i)) {
    } else if (arg == "--connect" && i + 1 < argc) {
      connectSpec = argv[++i];
    } else if (arg == "--session" && i + 1 < argc) {
      config.hello.sessionKey = argv[++i];
    } else if (arg == "--resume") {
      config.hello.resume = true;
    } else if (arg == "--have" && i + 1 < argc) {
      config.hello.clientFrames = static_cast<std::uint64_t>(ParseSize(
          argv[++i], "have", 0, std::numeric_limits<long>::max()));
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

  // Bins stream from the input as the session asks for them, starting
  // at the server's resume point.
  TraceInput input(inPath);
  const std::size_t nodes = input.header.nodes;
  const std::size_t bins = input.header.bins;
  const stream::StreamingOptions& options = flags.options;
  config.hello.topologySpec = TopologySpec(flags.topology, nodes);
  config.hello.topologySeed = flags.seed;
  config.hello.threads = static_cast<std::uint32_t>(
      std::min<std::size_t>(ResolveThreadCount(options.threads), 4096));
  config.hello.window = options.window;
  config.hello.queueCapacity =
      static_cast<std::uint32_t>(options.queueCapacity);
  config.hello.f = options.f;

  std::printf("session to %s: %zu bins x %zu nodes, topology %s, "
              "%u thread(s)%s%s\n",
              connectSpec.c_str(), bins, nodes,
              config.hello.topologySpec.c_str(), config.hello.threads,
              config.hello.sessionKey.empty() ? "" : ", session ",
              config.hello.sessionKey.c_str());

  // Frames arrive strictly in order, so the writers can append as the
  // receiver thread decodes; estimates/priors land exactly as `ictm
  // stream --out` writes them.
  OutputTraces out(flags, inPath, nodes, input.header.binSeconds);
  std::vector<double> bin(nodes * nodes);
  std::vector<double> estimate(nodes * nodes), prior(nodes * nodes);
  const server::ClientResult result = server::Client::Run(
      config, bins,
      [&](std::uint64_t seq) {
        input.read(static_cast<std::size_t>(seq), bin.data());
        return bin.data();
      },
      [&](std::uint64_t, const std::vector<std::uint8_t>& payload) {
        std::uint64_t seq = 0;
        if (out.estimates &&
            server::DecodeEstimatePayload(payload, nodes, &seq,
                                          estimate.data(), prior.data())) {
          out.append(estimate.data(), prior.data());
        }
      });

  // Close even on failure: the partial ictmb stays valid, and the
  // printed frame count is exactly what a retry passes via --have.
  const bool wrote = out.close();
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
  if (wrote) {
    std::printf("wrote %s/estimates.ictmb and %s/priors.ictmb\n",
                flags.outDir.c_str(), flags.outDir.c_str());
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

  const std::uint64_t start = obs::Now();
  const stream::RepackResult result =
      stream::RepackTrace(inPath, outPath, options);
  const double sec = obs::ElapsedSeconds(start);
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
    const linalg::CscMatrix routing = topology::BuildRouting(g);

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

  std::fprintf(stderr, "unknown topo subcommand: %s\n", sub.c_str());
  return Usage();
}

int CmdFMeasure(int argc, char** argv) {
  conngen::TraceSimConfig cfg;
  cfg.durationSec = argc > 2 ? ParseDouble(argv[2], "durationSec") : 3600.0;
  cfg.connectionsPerSec =
      argc > 3 ? ParseDouble(argv[3], "connPerSec") : 10.0;
  stats::Rng rng(argc > 4 ? static_cast<std::uint64_t>(ParseSize(
                                argv[4], "seed", 0,
                                std::numeric_limits<long>::max()))
                          : 1);
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
