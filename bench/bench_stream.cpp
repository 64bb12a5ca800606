// Streaming-subsystem benchmark: binary `ictmb` trace reads must beat
// the equivalent CSV parse by >= 5x on a paper-scale series (>= 20
// nodes, >= 2000 bins), the online estimator is timed against the
// batch engine on the same workload, and the v2 chunk codecs are
// measured (size + throughput) on a smooth diurnal fixture.
//
//   ./bench_stream [nodes] [bins] [threads] [compressionJson]
//   # defaults: 22 2016 4; compressionJson, when given, receives the
//   # per-codec compression results as a JSON document
//
// Exit code 0 when the formats agree bit-for-bit, the >= 5x read
// speedup holds, the delta codec at least halves the smooth fixture
// and compressed replay is not slower than the CSV parse; 1
// otherwise.  ICTM_BENCH_CORRECTNESS_ONLY=1 skips the timing gates
// (sanitizer builds distort timings by ~10x) while still enforcing
// every bit-identity check and the compression-ratio gate, which is a
// pure function of the workload.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "common/error.hpp"
#include "common/output_file.hpp"
#include "core/estimation.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"
#include "scenario/common.hpp"
#include "scenario/json.hpp"
#include "stats/rng.hpp"
#include "stream/codec.hpp"
#include "stream/format.hpp"
#include "stream/online.hpp"
#include "topology/topologies.hpp"
#include "topology/routing.hpp"
#include "traffic/io.hpp"

using namespace ictm;
using scenario::BitIdentical;

namespace {

// Smooth diurnal TM series quantised to multiples of 256 bytes — the
// compressible fixture (integral SNMP-style counters whose
// consecutive bins differ little); mirrors the fixture of the
// test_stream codec tests.
traffic::TrafficMatrixSeries SmoothSeries(std::size_t nodes,
                                          std::size_t bins,
                                          std::uint64_t seed) {
  stats::Rng rng(seed);
  traffic::TrafficMatrixSeries s(nodes, bins, 300.0);
  const std::size_t n2 = nodes * nodes;
  std::vector<double> base(n2), phase(n2);
  for (std::size_t k = 0; k < n2; ++k) {
    base[k] = rng.uniform(1e6, 1e9);
    phase[k] = rng.uniform(0.0, 6.28318530717958648);
  }
  for (std::size_t t = 0; t < bins; ++t) {
    double* bin = s.binData(t);
    for (std::size_t k = 0; k < n2; ++k) {
      const double diurnal =
          1.0 + 0.5 * std::sin(6.28318530717958648 *
                                   (double(t) / 288.0) +
                               phase[k]);
      bin[k] = std::round(base[k] * diurnal / 256.0) * 256.0;
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 22;
  const std::size_t bins =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 2016;
  const std::size_t threads =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 4;

  std::printf("== streaming subsystem benchmark: %zu nodes, %zu bins ==\n",
              nodes, bins);
  stats::Rng rng(42);
  traffic::TrafficMatrixSeries series(nodes, bins, 300.0);
  for (std::size_t t = 0; t < bins; ++t) {
    double* bin = series.binData(t);
    for (std::size_t k = 0; k < nodes * nodes; ++k) {
      bin[k] = rng.uniform(1e5, 1e9);
    }
  }

  namespace fs = std::filesystem;
  // Per-process directory so concurrent invocations cannot clobber
  // each other; removed on every exit path.
  const fs::path dir =
      fs::temp_directory_path() /
      ("ictm_bench_stream_" + std::to_string(getpid()));
  struct DirGuard {
    fs::path path;
    ~DirGuard() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } guard{dir};
  fs::create_directories(dir);
  const std::string csvPath = (dir / "series.csv").string();
  const std::string tracePath = (dir / "series.ictmb").string();

  std::uint64_t t0 = obs::Now();
  traffic::WriteCsvFile(csvPath, series);
  const double csvWriteSec = obs::ElapsedSeconds(t0);
  t0 = obs::Now();
  stream::WriteTraceFile(tracePath, series);
  const double traceWriteSec = obs::ElapsedSeconds(t0);
  std::printf("write: CSV %.3f s (%zu bytes), binary %.3f s (%zu bytes)\n",
              csvWriteSec, static_cast<std::size_t>(fs::file_size(csvPath)),
              traceWriteSec,
              static_cast<std::size_t>(fs::file_size(tracePath)));

  // Best of three reps each, so one cold-cache read does not decide
  // the comparison.
  double csvSec = 1e30, traceSec = 1e30;
  bool agree = true;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = obs::Now();
    const auto fromCsv = traffic::ReadCsvFile(csvPath);
    csvSec = std::min(csvSec, obs::ElapsedSeconds(t0));
    t0 = obs::Now();
    const auto fromTrace = stream::ReadTraceFile(tracePath);
    traceSec = std::min(traceSec, obs::ElapsedSeconds(t0));
    agree = agree && BitIdentical(fromCsv, series) &&
            BitIdentical(fromTrace, series);
  }
  const double speedup = traceSec > 0.0 ? csvSec / traceSec : 0.0;
  std::printf("read (best of 3): CSV %.4f s, binary %.4f s -> %.1fx "
              "faster\n",
              csvSec, traceSec, speedup);
  std::printf("round trips bit-identical: %s\n", agree ? "yes" : "NO");

  // Online estimation throughput on the same series (streamed straight
  // off the binary trace, as `ictm stream` does).
  const topology::Graph g = nodes == 22
                                ? topology::MakeGeant22()
                                : topology::MakeRing(nodes, 2);
  const linalg::CscMatrix routing = topology::BuildRouting(g);
  stream::StreamingOptions options;
  options.threads = threads;
  options.window = 96;

  // Metrics overhead gate: the streaming run is timed with the
  // registry enabled and disabled, interleaved (min of 5 each) so a
  // frequency ramp or page-cache warmup cannot bias one side.  The
  // enabled run must stay within 2% of the disabled one, and both
  // must produce bit-identical estimates.
  double streamSec = 1e30, streamObsSec = 1e30;
  std::optional<stream::StreamingRunResult> firstRun;
  bool obsIdentical = true;
  for (int rep = 0; rep < 5; ++rep) {
    obs::SetEnabled(false);
    t0 = obs::Now();
    stream::StreamingRunResult off =
        stream::EstimateSeriesStreaming(routing, series, options);
    streamSec = std::min(streamSec, obs::ElapsedSeconds(t0));
    obs::SetEnabled(true);
    t0 = obs::Now();
    stream::StreamingRunResult on =
        stream::EstimateSeriesStreaming(routing, series, options);
    streamObsSec = std::min(streamObsSec, obs::ElapsedSeconds(t0));
    obsIdentical = obsIdentical &&
                   BitIdentical(off.estimates, on.estimates) &&
                   BitIdentical(off.priors, on.priors);
    if (rep == 0) firstRun.emplace(std::move(on));
  }
  const stream::StreamingRunResult& run = *firstRun;
  const double obsRatio = streamSec > 0.0 ? streamObsSec / streamSec : 1.0;

  core::EstimationOptions batchOptions;
  batchOptions.threads = threads;
  t0 = obs::Now();
  const auto batch =
      core::EstimateSeries(routing, series, run.priors, batchOptions);
  const double batchSec = obs::ElapsedSeconds(t0);
  const bool matches = BitIdentical(batch, run.estimates);
  std::printf("online estimation (best of 5): %.3f s (%.0f bins/s) at %zu "
              "worker(s); batch on the same priors: %.3f s; bit-identical: "
              "%s\n",
              streamSec,
              streamSec > 0.0 ? double(bins) / streamSec : 0.0, threads,
              batchSec, matches ? "yes" : "NO");
  std::printf("metrics overhead: %.3f s enabled vs %.3f s disabled -> "
              "%.3fx; results bit-identical across modes: %s\n",
              streamObsSec, streamSec, obsRatio, obsIdentical ? "yes" : "NO");

  // ---- chunk codec compression (smooth diurnal fixture) --------------------
  // Per-codec file size and read/write throughput, with two gates:
  //  * delta must at least halve the raw footprint (deterministic —
  //    always enforced), and
  //  * replaying the compressed trace must not be slower than parsing
  //    the equivalent CSV (timing — skipped in correctness-only mode).
  const auto smooth = SmoothSeries(nodes, bins, 7);
  const std::string smoothCsvPath = (dir / "smooth.csv").string();
  traffic::WriteCsvFile(smoothCsvPath, smooth);
  const std::size_t smoothCsvBytes =
      static_cast<std::size_t>(fs::file_size(smoothCsvPath));
  double smoothCsvSec = 1e30;
  bool codecIdentical = true;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = obs::Now();
    const auto fromCsv = traffic::ReadCsvFile(smoothCsvPath);
    smoothCsvSec = std::min(smoothCsvSec, obs::ElapsedSeconds(t0));
    codecIdentical = codecIdentical && BitIdentical(fromCsv, smooth);
  }

  scenario::json::Array codecResults;
  std::size_t rawBytes = 0;
  std::size_t deltaBytes = 0;
  double deltaReadSec = 1e30;
  std::printf("codec compression on the smooth diurnal fixture "
              "(CSV %zu bytes, parse %.4f s):\n",
              smoothCsvBytes, smoothCsvSec);
  for (std::size_t c = 0; c < stream::kChunkCodecCount; ++c) {
    const auto codec = static_cast<stream::ChunkCodec>(c);
    const char* name = stream::ChunkCodecName(codec);
    const std::string path =
        (dir / (std::string("smooth_") + name + ".ictmb")).string();
    stream::TraceWriterOptions writerOptions;
    writerOptions.codec = codec;
    writerOptions.compressThreads = std::max<std::size_t>(1, threads);
    t0 = obs::Now();
    stream::WriteTraceFile(path, smooth, writerOptions);
    const double writeSec = obs::ElapsedSeconds(t0);
    const std::size_t codecBytes =
        static_cast<std::size_t>(fs::file_size(path));
    double readSec = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      t0 = obs::Now();
      stream::TraceReader reader(path, stream::TraceReaderOptions{true});
      const auto back = reader.readAll();
      readSec = std::min(readSec, obs::ElapsedSeconds(t0));
      codecIdentical = codecIdentical && BitIdentical(back, smooth);
    }
    if (codec == stream::ChunkCodec::kRaw) rawBytes = codecBytes;
    if (codec == stream::ChunkCodec::kDelta) {
      deltaBytes = codecBytes;
      deltaReadSec = readSec;
    }
    const double ratio =
        rawBytes > 0 ? double(codecBytes) / double(rawBytes) : 1.0;
    std::printf("  %-10s %9zu bytes (%.2fx of raw), write %.4f s, "
                "read (best of 3) %.4f s\n",
                name, codecBytes, ratio, writeSec, readSec);
    scenario::json::Object entry;
    entry.set("codec", name);
    entry.set("bytes", codecBytes);
    entry.set("ratio_vs_raw", ratio);
    entry.set("write_seconds", writeSec);
    entry.set("read_seconds", readSec);
    entry.set("write_mb_per_s",
              writeSec > 0.0 ? double(rawBytes) / 1e6 / writeSec : 0.0);
    entry.set("read_mb_per_s",
              readSec > 0.0 ? double(rawBytes) / 1e6 / readSec : 0.0);
    codecResults.push_back(scenario::json::Value(std::move(entry)));
  }
  const bool deltaHalves = 2 * deltaBytes <= rawBytes;
  const bool replayBeatsCsv = deltaReadSec <= smoothCsvSec;
  std::printf("compression gates: delta footprint %.2fx of raw (need <= "
              "0.50x): %s; delta replay %.4f s vs CSV parse %.4f s: %s; "
              "decoded bit-identical: %s\n",
              rawBytes > 0 ? double(deltaBytes) / double(rawBytes) : 1.0,
              deltaHalves ? "ok" : "FAIL",
              deltaReadSec, smoothCsvSec,
              replayBeatsCsv ? "ok" : "SLOWER",
              codecIdentical ? "yes" : "NO");

  const bool correctnessOnly =
      std::getenv("ICTM_BENCH_CORRECTNESS_ONLY") != nullptr;

  if (argc > 4) {
    scenario::json::Object doc;
    doc.set("schema", "ictm-trace-compression-v1");
    doc.set("nodes", nodes);
    doc.set("bins", bins);
    doc.set("csv_bytes", smoothCsvBytes);
    doc.set("csv_read_seconds", smoothCsvSec);
    doc.set("codecs", scenario::json::Value(std::move(codecResults)));
    doc.set("delta_halves_raw", deltaHalves);
    doc.set("replay_not_slower_than_csv", replayBeatsCsv);
    doc.set("correctness_only", correctnessOnly);
    try {
      OutputFile json(argv[4]);
      json.stream() << scenario::json::Value(std::move(doc)).dump(2) << "\n";
      json.commit();
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("wrote %s\n", argv[4]);
  }

  const bool pass =
      agree && matches && obsIdentical && codecIdentical && deltaHalves &&
      (correctnessOnly ||
       (speedup >= 5.0 && obsRatio <= 1.02 && replayBeatsCsv));
  if (correctnessOnly) {
    std::printf("[%s] correctness-only mode: timing gates skipped "
                "(measured %.1fx read speedup, %.3fx metrics overhead); "
                "compression ratio gate still enforced\n",
                pass ? "PASS" : "FAIL", speedup, obsRatio);
  } else {
    std::printf("[%s] binary reads %.1fx faster than CSV (need >= 5x); "
                "metrics overhead %.3fx (need <= 1.02x); delta halves the "
                "smooth fixture: %s\n",
                pass ? "PASS" : "FAIL", speedup, obsRatio,
                deltaHalves ? "yes" : "NO");
  }
  return pass ? 0 : 1;
}
