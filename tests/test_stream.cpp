// Tests for the streaming subsystem: the ictmb binary trace format
// (v2 codecs, round-trip, the corruption/fuzz battery, converters,
// repack), the OrderedPool both the writer and the estimator run on,
// the StreamingEstimator's streaming ≡ batch bit-identity contract,
// and the connection aggregator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "conngen/generator.hpp"
#include "core/estimation.hpp"
#include "core/priors.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"
#include "stream/aggregate.hpp"
#include "stream/codec.hpp"
#include "stream/format.hpp"
#include "stream/online.hpp"
#include "stream/ordered_pool.hpp"
#include "test_util.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/io.hpp"

namespace ictm::stream {
namespace {

// Temp paths, trace fixtures and the bit-identity assertion live in
// tests/test_util.hpp, shared with the scenario, topology-format and
// server suites.
using test::ExpectBitIdentical;
using test::RandomSeries;
using test::TempPath;

// ---- local fixtures --------------------------------------------------------

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Smooth diurnal TM series quantised to multiples of 256 bytes — the
// compressible fixture of the codec tests and bench_stream (measured
// SNMP byte counters are integral, and consecutive bins differ
// little, so delta + byte-shuffle collapses most planes to zeros).
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

// Current value of a registry counter (0 before its first use).
std::uint64_t CounterTotal(const std::string& name) {
  for (const auto& c : obs::Registry::Instance().snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// splitmix64: high-entropy deterministic bit patterns — genuinely
// incompressible payloads for the per-chunk raw-fallback tests.
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Hand-written ictmb v1 file (the pre-codec layout: version 1, frames
// of payload-length · doubles · CRC-32 of the payload alone).  The
// writer only emits v2 now, so the v1 compatibility tests synthesise
// their inputs byte by byte against the normative docs/FORMATS.md
// grammar.
void WriteV1TraceFile(const std::string& path,
                      const traffic::TrafficMatrixSeries& series,
                      std::size_t binsPerChunk) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  const auto put = [&out](const void* p, std::size_t nbytes) {
    out.write(static_cast<const char*>(p),
              static_cast<std::streamsize>(nbytes));
  };
  const char magic[8] = {'I', 'C', 'T', 'M', 'B', '1', '\r', '\n'};
  put(magic, 8);
  const std::uint32_t sentinel = 0x01020304u;
  const std::uint32_t version = 1;
  put(&sentinel, 4);
  put(&version, 4);
  const std::uint64_t nodes = series.nodeCount();
  const double binSeconds = series.binSeconds();
  const std::uint64_t bpc = binsPerChunk;
  put(&nodes, 8);
  put(&binSeconds, 8);
  put(&bpc, 8);

  const std::size_t n2 = series.nodeCount() * series.nodeCount();
  std::vector<std::uint64_t> records;  // {offset, binCount} pairs
  for (std::size_t t = 0; t < series.binCount(); t += binsPerChunk) {
    const std::size_t binCount =
        std::min(binsPerChunk, series.binCount() - t);
    records.push_back(static_cast<std::uint64_t>(out.tellp()));
    records.push_back(binCount);
    const std::uint64_t payloadLen = binCount * n2 * sizeof(double);
    put(&payloadLen, 8);
    std::uint32_t crc = 0;
    for (std::size_t b = 0; b < binCount; ++b) {
      put(series.binData(t + b), n2 * sizeof(double));
      crc = Crc32(series.binData(t + b), n2 * sizeof(double), crc);
    }
    put(&crc, 4);
  }

  const std::uint64_t indexOffset = static_cast<std::uint64_t>(out.tellp());
  const std::uint64_t marker = ~std::uint64_t{0};
  put(&marker, 8);
  std::vector<std::uint64_t> words;
  words.push_back(records.size() / 2);
  words.insert(words.end(), records.begin(), records.end());
  words.push_back(series.binCount());
  put(words.data(), words.size() * sizeof(std::uint64_t));
  const std::uint32_t indexCrc =
      Crc32(words.data(), words.size() * sizeof(std::uint64_t));
  put(&indexCrc, 4);
  put(&indexOffset, 8);
  const char endMagic[8] = {'I', 'C', 'T', 'M', 'B', 'E', 'O', 'F'};
  put(endMagic, 8);
  out.close();
  ASSERT_FALSE(out.fail()) << path;
}

// ---- binary format ---------------------------------------------------------

TEST(TraceFormat, RoundTripsAtFullPrecision) {
  const auto series = RandomSeries(5, 23, 7);
  const std::string path = TempPath("roundtrip.ictmb");
  // binsPerChunk = 4 forces several chunks plus a partial tail chunk.
  WriteTraceFile(path, series, 4);

  TraceReader reader(path);
  EXPECT_EQ(reader.info().nodes, 5u);
  EXPECT_EQ(reader.info().bins, 23u);
  EXPECT_DOUBLE_EQ(reader.info().binSeconds, 300.0);
  EXPECT_EQ(reader.info().binsPerChunk, 4u);
  EXPECT_EQ(reader.info().chunks, 6u);  // 5 full + 1 partial

  const auto back = reader.readAll();
  ExpectBitIdentical(series, back);
}

TEST(TraceFormat, StreamingWriterMatchesWholeSeriesWriter) {
  const auto series = RandomSeries(3, 10, 11);
  const std::string a = TempPath("writer_a.ictmb");
  const std::string b = TempPath("writer_b.ictmb");
  WriteTraceFile(a, series, 4);
  {
    TraceWriter writer(b, series.nodeCount(), series.binSeconds(), 4);
    for (std::size_t t = 0; t < series.binCount(); ++t) {
      writer.append(series.binData(t));
    }
    writer.close();
    EXPECT_EQ(writer.binsWritten(), 10u);
  }
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  std::string ca((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string cb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(ca, cb);  // byte-identical files
}

TEST(TraceFormat, RandomAccessSeek) {
  const auto series = RandomSeries(4, 17, 3);
  const std::string path = TempPath("seek.ictmb");
  WriteTraceFile(path, series, 5);

  TraceReader reader(path);
  std::vector<double> bin(16);
  for (std::size_t t : {13u, 2u, 16u, 0u, 9u}) {
    reader.seek(t);
    ASSERT_TRUE(reader.next(bin.data()));
    for (std::size_t k = 0; k < 16; ++k) {
      EXPECT_EQ(bin[k], series.binData(t)[k]) << "bin " << t;
    }
  }
  reader.seek(17);
  EXPECT_FALSE(reader.next(bin.data()));
  EXPECT_THROW(reader.seek(18), Error);
}

TEST(TraceFormat, RejectsTruncationAndCorruption) {
  const auto series = RandomSeries(3, 8, 5);
  const std::string path = TempPath("corrupt.ictmb");
  WriteTraceFile(path, series, 4);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Truncation loses the footer/index.
  {
    const std::string p = TempPath("truncated.ictmb");
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();
    EXPECT_THROW(TraceReader r(p), Error);
  }
  // A flipped payload byte fails the chunk CRC (header is 40 bytes;
  // offset 60 sits inside the first chunk's payload).
  {
    std::string damaged = bytes;
    damaged[60] = static_cast<char>(damaged[60] ^ 0x01);
    const std::string p = TempPath("bitflip.ictmb");
    std::ofstream out(p, std::ios::binary);
    out.write(damaged.data(),
              static_cast<std::streamsize>(damaged.size()));
    out.close();
    TraceReader reader(p);  // header/index still valid
    std::vector<double> bin(9);
    EXPECT_THROW(reader.next(bin.data()), Error);
  }
  // A flipped index byte fails the index CRC at open.
  {
    std::string damaged = bytes;
    damaged[damaged.size() - 30] =
        static_cast<char>(damaged[damaged.size() - 30] ^ 0x01);
    const std::string p = TempPath("badindex.ictmb");
    std::ofstream out(p, std::ios::binary);
    out.write(damaged.data(),
              static_cast<std::streamsize>(damaged.size()));
    out.close();
    EXPECT_THROW(TraceReader r(p), Error);
  }
  // Not a trace at all.
  {
    const std::string p = TempPath("not_a_trace.ictmb");
    std::ofstream out(p);
    out << "# ictm-tm nodes=2 bins=1 binSeconds=300\n1,2,3,4\n";
    out.close();
    EXPECT_FALSE(IsTraceFile(p));
    EXPECT_THROW(TraceReader r(p), Error);
  }
  EXPECT_TRUE(IsTraceFile(path));
}

TEST(TraceFormat, FailedChunkLoadNeverServesAStaleChunk) {
  // A v1 chunk is read into the reader's buffer before its CRC is
  // checked.  After chunk 1 fails, a seek back into chunk 0 must
  // reload it rather than serve the failed chunk's bytes.
  const auto series = RandomSeries(3, 12, 7);
  const std::string path = TempPath("stale_chunk.ictmb");
  WriteV1TraceFile(path, series, 8);  // chunks of 8 and 4 bins
  std::string bytes = ReadBytes(path);
  // 40-byte header, then chunk 0: 8-byte length, 8·9 doubles, CRC.
  const std::size_t chunk1Payload = 40 + (8 + 8 * 9 * 8 + 4) + 8;
  bytes[chunk1Payload] = static_cast<char>(bytes[chunk1Payload] ^ 0x01);
  WriteBytes(path, bytes);
  TraceReader reader(path);
  std::vector<double> bin(9);
  ASSERT_TRUE(reader.next(bin.data()));  // loads chunk 0
  reader.seek(8);
  EXPECT_THROW(reader.next(bin.data()), Error);
  reader.seek(1);
  ASSERT_TRUE(reader.next(bin.data()));
  for (std::size_t k = 0; k < 9; ++k) EXPECT_EQ(bin[k], series.binData(1)[k]);
}

TEST(TraceFormat, CsvConvertersRoundTrip) {
  const auto series = RandomSeries(4, 9, 13);
  const std::string csv = TempPath("convert_in.csv");
  const std::string trace = TempPath("convert.ictmb");
  const std::string csvBack = TempPath("convert_out.csv");
  traffic::WriteCsvFile(csv, series);

  ConvertCsvToTrace(csv, trace, 4);
  ExpectBitIdentical(series, ReadTraceFile(trace));

  ConvertTraceToCsv(trace, csvBack);
  ExpectBitIdentical(series, traffic::ReadCsvFile(csvBack));
}

TEST(TraceFormat, FailedConversionLeavesNoTrace) {
  // A non-finite cell in bin 1 fails the conversion after bin 0 was
  // appended; the writer must not survive as a readable 1-bin trace.
  auto series = RandomSeries(3, 4, 17);
  series.binData(1)[4] = std::nan("");
  const std::string csv = TempPath("convert_nan.csv");
  const std::string trace = TempPath("convert_nan.ictmb");
  traffic::WriteCsvFile(csv, series);
  EXPECT_THROW(ConvertCsvToTrace(csv, trace, 1), Error);
  EXPECT_FALSE(std::ifstream(trace).is_open())
      << "failed conversion left " << trace;
}

// ---- chunk codecs ----------------------------------------------------------

TEST(ChunkCodecs, NamesAndParsingRoundTrip) {
  for (std::size_t i = 0; i < kChunkCodecCount; ++i) {
    const ChunkCodec codec = static_cast<ChunkCodec>(i);
    ChunkCodec parsed = ChunkCodec::kRaw;
    EXPECT_TRUE(ParseChunkCodec(ChunkCodecName(codec), &parsed));
    EXPECT_EQ(parsed, codec);
  }
  ChunkCodec parsed = ChunkCodec::kRaw;
  EXPECT_FALSE(ParseChunkCodec("zstd", &parsed));
  EXPECT_FALSE(ParseChunkCodec("", &parsed));
}

TEST(ChunkCodecs, ByteShuffleIsInvertible) {
  stats::Rng rng(3);
  std::vector<double> values(37);
  for (double& v : values) v = rng.uniform(-1e9, 1e9);
  std::vector<std::uint8_t> shuffled(values.size() * sizeof(double));
  ByteShuffle(values.data(), values.size(), shuffled.data());
  std::vector<double> back(values.size());
  ByteUnshuffle(shuffled.data(), back.size(), back.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], back[i]) << "index " << i;
  }
}

TEST(ChunkCodecs, LzRoundTripsCompressibleAndIncompressibleData) {
  // Compressible: long runs and repeats must shrink.
  std::vector<std::uint8_t> repeats(4096);
  for (std::size_t i = 0; i < repeats.size(); ++i) {
    repeats[i] = static_cast<std::uint8_t>((i / 512) * 7);
  }
  const auto packed = LzCompress(repeats.data(), repeats.size());
  EXPECT_LT(packed.size(), repeats.size() / 4);
  std::vector<std::uint8_t> back(repeats.size());
  LzDecompress(packed.data(), packed.size(), back.data(), back.size());
  EXPECT_EQ(back, repeats);

  // Incompressible: splitmix64 bytes still round-trip and stay within
  // the declared worst-case bound.
  std::uint64_t state = 42;
  std::vector<std::uint8_t> noise(2048);
  for (std::size_t i = 0; i < noise.size(); i += 8) {
    const std::uint64_t w = SplitMix64(&state);
    std::memcpy(noise.data() + i, &w, 8);
  }
  const auto packedNoise = LzCompress(noise.data(), noise.size());
  EXPECT_LE(packedNoise.size(), LzBound(noise.size()));
  std::vector<std::uint8_t> backNoise(noise.size());
  LzDecompress(packedNoise.data(), packedNoise.size(), backNoise.data(),
               backNoise.size());
  EXPECT_EQ(backNoise, noise);

  // Empty input round-trips through the empty terminator sequence.
  const auto packedEmpty = LzCompress(noise.data(), 0);
  EXPECT_FALSE(packedEmpty.empty());
  LzDecompress(packedEmpty.data(), packedEmpty.size(), backNoise.data(), 0);
}

TEST(ChunkCodecs, LzDecompressRejectsCorruptStreams) {
  std::vector<std::uint8_t> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i / 64);
  }
  const auto packed = LzCompress(data.data(), data.size());
  std::vector<std::uint8_t> out(data.size());

  // Declared output size disagrees with what the stream decodes to.
  EXPECT_THROW(LzDecompress(packed.data(), packed.size(), out.data(),
                            data.size() - 1),
               Error);
  std::vector<std::uint8_t> bigger(data.size() + 1);
  EXPECT_THROW(LzDecompress(packed.data(), packed.size(), bigger.data(),
                            bigger.size()),
               Error);
  // Every truncation of the compressed stream is a typed error (or, if
  // a prefix happens to decode, it must disagree with the declared
  // size — either way LzDecompress throws, never reads past the end).
  for (std::size_t len = 0; len < packed.size(); ++len) {
    EXPECT_THROW(LzDecompress(packed.data(), len, out.data(), out.size()),
                 Error)
        << "prefix " << len;
  }
  // A zero match offset is invalid by construction.
  const std::uint8_t zeroOffset[] = {0x04, 0x00, 0x00};  // match, offset 0
  EXPECT_THROW(LzDecompress(zeroOffset, sizeof zeroOffset, out.data(), 8),
               Error);
}

TEST(ChunkCodecs, EncodeDecodeBitIdenticalForEveryCodec) {
  stats::Rng rng(17);
  const std::size_t binCount = 5, n2 = 16;
  std::vector<double> bins(binCount * n2);
  for (double& v : bins) v = rng.uniform(0.0, 1e9);
  for (std::size_t i = 0; i < kChunkCodecCount; ++i) {
    const ChunkCodec codec = static_cast<ChunkCodec>(i);
    SCOPED_TRACE(ChunkCodecName(codec));
    const auto payload = EncodeChunk(codec, bins.data(), binCount, n2);
    std::vector<double> back(bins.size());
    DecodeChunk(codec, payload.data(), payload.size(), back.data(),
                binCount, n2);
    for (std::size_t k = 0; k < bins.size(); ++k) {
      ASSERT_EQ(bins[k], back[k]) << "element " << k;
    }
  }
  // Unknown tags and empty chunks are typed errors.
  std::vector<double> out(bins.size());
  const auto payload =
      EncodeChunk(ChunkCodec::kRaw, bins.data(), binCount, n2);
  EXPECT_THROW(DecodeChunk(static_cast<ChunkCodec>(7), payload.data(),
                           payload.size(), out.data(), binCount, n2),
               Error);
  EXPECT_THROW(EncodeChunk(ChunkCodec::kRaw, bins.data(), 0, n2), Error);
}

// ---- ictmb v2: codecs, compression pool, prefetch --------------------------

TEST(TraceFormatV2, RoundTripsEveryCodecAndChunking) {
  const auto smooth = SmoothSeries(4, 70, 11);
  const auto noise = RandomSeries(4, 70, 12);
  for (const auto* series : {&smooth, &noise}) {
    for (std::size_t i = 0; i < kChunkCodecCount; ++i) {
      for (std::size_t binsPerChunk : {1u, 7u, 64u}) {
        TraceWriterOptions options;
        options.binsPerChunk = binsPerChunk;
        options.codec = static_cast<ChunkCodec>(i);
        SCOPED_TRACE(std::string(ChunkCodecName(options.codec)) +
                     " chunk=" + std::to_string(binsPerChunk));
        const std::string path = TempPath("v2_roundtrip.ictmb");
        WriteTraceFile(path, *series, options);
        TraceReader reader(path);
        EXPECT_EQ(reader.info().version, 2u);
        ExpectBitIdentical(*series, reader.readAll());
      }
    }
  }
}

TEST(TraceFormatV2, FileBytesIdenticalForEveryPoolSize) {
  const auto series = SmoothSeries(5, 50, 21);
  std::string reference;
  for (std::size_t threads : {0u, 1u, 2u, 5u}) {
    TraceWriterOptions options;
    options.binsPerChunk = 4;
    options.codec = ChunkCodec::kDelta;
    options.compressThreads = threads;
    const std::string path = TempPath("pool.ictmb");
    WriteTraceFile(path, series, options);
    const std::string bytes = ReadBytes(path);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "compressThreads=" << threads;
    }
  }
}

TEST(TraceFormatV2, DeltaHalvesTheSmoothFixture) {
  // The acceptance floor of the compression work: ≥ 2x reduction on
  // the smooth diurnal fixture (bench_stream gates the same bound in
  // CI on its own fixture).
  const auto series = SmoothSeries(6, 96, 31);
  const std::string rawPath = TempPath("ratio_raw.ictmb");
  const std::string deltaPath = TempPath("ratio_delta.ictmb");
  WriteTraceFile(rawPath, series,
                 TraceWriterOptions{16, ChunkCodec::kRaw, 0});
  WriteTraceFile(deltaPath, series,
                 TraceWriterOptions{16, ChunkCodec::kDelta, 0});
  const std::string raw = ReadBytes(rawPath);
  const std::string delta = ReadBytes(deltaPath);
  EXPECT_LE(2 * delta.size(), raw.size())
      << "delta " << delta.size() << " bytes vs raw " << raw.size();
  ExpectBitIdentical(series, ReadTraceFile(deltaPath));
}

TEST(TraceFormatV2, IncompressibleChunksFallBackToRaw) {
  // splitmix64 bit patterns cannot shrink, so every chunk must carry
  // the raw tag even though delta was requested — and the file can
  // never be larger than the raw-codec encoding of the same series.
  const std::size_t nodes = 3, bins = 8;
  traffic::TrafficMatrixSeries series(nodes, bins, 300.0);
  std::uint64_t state = 7;
  for (std::size_t t = 0; t < bins; ++t) {
    double* bin = series.binData(t);
    for (std::size_t k = 0; k < nodes * nodes; ++k) {
      // High entropy in all eight byte planes (exponent included), so
      // neither shuffling nor deltas can find structure; only NaN/Inf
      // patterns are excluded (NaN breaks bitwise == comparison).
      std::uint64_t word = SplitMix64(&state);
      if (((word >> 52) & 0x7FFu) == 0x7FFu) word ^= std::uint64_t{1} << 62;
      std::memcpy(&bin[k], &word, sizeof word);
    }
  }
  const std::string rawPath = TempPath("fallback_raw.ictmb");
  const std::string deltaPath = TempPath("fallback_delta.ictmb");
  WriteTraceFile(rawPath, series,
                 TraceWriterOptions{4, ChunkCodec::kRaw, 0});
  WriteTraceFile(deltaPath, series,
                 TraceWriterOptions{4, ChunkCodec::kDelta, 0});
  const std::string rawBytes = ReadBytes(rawPath);
  const std::string deltaBytes = ReadBytes(deltaPath);
  EXPECT_EQ(deltaBytes.size(), rawBytes.size());
  // First frame: u64 stored length at 40, u32 codec tag at 48.
  std::uint32_t tag = 0;
  std::memcpy(&tag, deltaBytes.data() + 48, 4);
  EXPECT_EQ(tag, 0u) << "incompressible chunk was not stored raw";
  ExpectBitIdentical(series, ReadTraceFile(deltaPath));
}

TEST(TraceFormatV2, PrefetchReaderBitIdenticalIncludingSeeks) {
  const auto series = SmoothSeries(4, 33, 41);
  const std::string path = TempPath("prefetch.ictmb");
  WriteTraceFile(path, series,
                 TraceWriterOptions{5, ChunkCodec::kShuffleLz, 0});

  TraceReader plain(path);
  TraceReader ahead(path, TraceReaderOptions{true});
  ExpectBitIdentical(plain.readAll(), ahead.readAll());

  // A seek-heavy access pattern (backwards, forwards, across chunks)
  // must serve the same bins whether or not prefetch is racing ahead.
  TraceReader seeker(path, TraceReaderOptions{true});
  std::vector<double> bin(16);
  for (std::size_t t : {30u, 2u, 17u, 3u, 32u, 0u, 19u}) {
    seeker.seek(t);
    ASSERT_TRUE(seeker.next(bin.data()));
    for (std::size_t k = 0; k < bin.size(); ++k) {
      ASSERT_EQ(bin[k], series.binData(t)[k]) << "bin " << t;
    }
  }

  // Larger chunks and 200 seeded seek-then-read runs: at most seeks a
  // read-ahead is still decoding, so it must be waited for and dropped
  // before the next one starts on the reader's second stream.
  const std::size_t nodes = 32, bins = 160;
  const auto big = SmoothSeries(nodes, bins, 47);
  const std::string bigPath = TempPath("prefetch_seeks.ictmb");
  WriteTraceFile(bigPath, big,
                 TraceWriterOptions{16, ChunkCodec::kDelta, 0});
  TraceReader reader(bigPath, TraceReaderOptions{true});
  std::vector<double> got(nodes * nodes);
  stats::Rng rng(53);
  for (int run = 0; run < 200; ++run) {
    const auto start = static_cast<std::size_t>(rng.uniformInt(0, bins - 1));
    const auto count = static_cast<std::size_t>(rng.uniformInt(1, 24));
    reader.seek(start);
    for (std::size_t t = start; t < std::min(start + count, bins); ++t) {
      ASSERT_TRUE(reader.next(got.data())) << "run " << run << " bin " << t;
      ASSERT_EQ(std::memcmp(got.data(), big.binData(t),
                            got.size() * sizeof(double)),
                0)
          << "run " << run << " bin " << t;
    }
  }
}

TEST(TraceFormatV2, PrefetchDefersErrorsToTheFailingChunk) {
  const auto series = SmoothSeries(3, 12, 43);
  const std::string path = TempPath("prefetch_err.ictmb");
  WriteTraceFile(path, series,
                 TraceWriterOptions{4, ChunkCodec::kDelta, 0});
  std::string bytes = ReadBytes(path);

  // Corrupt the second chunk's payload (first frame starts at 40; its
  // stored length names where the next frame begins).
  std::uint64_t stored0 = 0;
  std::memcpy(&stored0, bytes.data() + 40, 8);
  const std::size_t frame1 = 40 + 8 + 4 + 8 +
                             static_cast<std::size_t>(stored0) + 4;
  bytes[frame1 + 8 + 4 + 8 + 2] =
      static_cast<char>(bytes[frame1 + 8 + 4 + 8 + 2] ^ 0x40);
  const std::string damaged = TempPath("prefetch_err_damaged.ictmb");
  WriteBytes(damaged, bytes);

  // Chunk 0 reads fine; demanding chunk 1 surfaces the prefetch error.
  {
    TraceReader reader(damaged, TraceReaderOptions{true});
    std::vector<double> bin(9);
    for (std::size_t t = 0; t < 4; ++t) {
      ASSERT_TRUE(reader.next(bin.data())) << "bin " << t;
    }
    EXPECT_THROW(reader.next(bin.data()), Error);
  }
  // Seeking over the damaged chunk discards the stale prefetch result
  // (deferred error included) and serves chunk 2 correctly.
  {
    TraceReader reader(damaged, TraceReaderOptions{true});
    std::vector<double> bin(9);
    ASSERT_TRUE(reader.next(bin.data()));  // chunk 0; prefetch of 1 fails
    reader.seek(8);                        // skip the damaged chunk
    ASSERT_TRUE(reader.next(bin.data()));
    for (std::size_t k = 0; k < 9; ++k) {
      EXPECT_EQ(bin[k], series.binData(8)[k]);
    }
  }
}

TEST(TraceFormatV2, CodecMetricsAccumulate) {
  const auto before = obs::Registry::Instance().snapshot();
  const auto series = SmoothSeries(4, 20, 47);
  const std::string path = TempPath("codec_metrics.ictmb");
  WriteTraceFile(path, series,
                 TraceWriterOptions{8, ChunkCodec::kDelta, 0});
  ReadTraceFile(path);
  const auto after = obs::Registry::Instance().snapshot();
  const auto valueOf = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };
  EXPECT_GT(valueOf(after, "trace_codec.delta.compress_chunks"),
            valueOf(before, "trace_codec.delta.compress_chunks"));
  EXPECT_GT(valueOf(after, "trace_codec.delta.decompress_chunks"),
            valueOf(before, "trace_codec.delta.decompress_chunks"));
  EXPECT_GT(valueOf(after, "trace_codec.delta.compress_bytes_in"),
            valueOf(after, "trace_codec.delta.compress_bytes_out"));
}

TEST(TraceFormatV2, PrefetchSequentialReadCountsEachChunkOnce) {
  // The deterministic read counters count a chunk when next() first
  // serves a bin from it, so the prefetch thread racing the consumer
  // cannot change them.
  const auto series = SmoothSeries(16, 512, 59);
  const std::string path = TempPath("prefetch_sequential.ictmb");
  WriteTraceFile(path, series, TraceWriterOptions{64, ChunkCodec::kDelta, 0});
  const std::size_t chunks = TraceReader(path).info().chunks;
  std::vector<double> bin(16 * 16);
  for (int pass = 0; pass < 20; ++pass) {
    const std::uint64_t read = CounterTotal("trace_io.chunks_read");
    const std::uint64_t decoded =
        CounterTotal("trace_codec.delta.decompress_chunks");
    {
      TraceReader reader(path, TraceReaderOptions{true});
      while (reader.next(bin.data())) {
      }
    }
    EXPECT_EQ(CounterTotal("trace_io.chunks_read") - read, chunks)
        << "pass " << pass;
    EXPECT_EQ(CounterTotal("trace_codec.delta.decompress_chunks") - decoded,
              chunks)
        << "pass " << pass;
  }
}

TEST(TraceFormatV2, PrefetchOfAnUnreadChunkIsNotCounted) {
  // Reads confined to chunk 0 count one chunk, whether or not the
  // prefetch of chunk 1 ran before the reader closed.
  const auto series = SmoothSeries(16, 32, 67);
  const std::string path = TempPath("prefetch_unread.ictmb");
  WriteTraceFile(path, series, TraceWriterOptions{16, ChunkCodec::kDelta, 0});
  std::vector<double> bin(16 * 16);
  for (std::size_t i = 0; i < 200; ++i) {
    const std::uint64_t read = CounterTotal("trace_io.chunks_read");
    const std::uint64_t decoded =
        CounterTotal("trace_codec.delta.decompress_chunks");
    {
      TraceReader reader(path, TraceReaderOptions{true});
      reader.seek(i % 8);
      ASSERT_TRUE(reader.next(bin.data()));
      // Consumer work on the first bin gives the prefetch time to run.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      for (std::size_t t = 1; t < 8; ++t) ASSERT_TRUE(reader.next(bin.data()));
    }
    EXPECT_EQ(CounterTotal("trace_io.chunks_read") - read, 1u)
        << "lifetime " << i;
    EXPECT_EQ(CounterTotal("trace_codec.delta.decompress_chunks") - decoded,
              1u)
        << "lifetime " << i;
  }
}

// ---- ictmb v2: corruption matrix and fuzz battery --------------------------

// Small compressed fixture shared by the corruption tests: 3 nodes,
// 8 bins, 4 bins/chunk, delta codec → two compressed frames.
std::string CorruptionFixtureBytes() {
  const auto series = SmoothSeries(3, 8, 53);
  const std::string path = TempPath("corruption_fixture.ictmb");
  WriteTraceFile(path, series,
                 TraceWriterOptions{4, ChunkCodec::kDelta, 0});
  return ReadBytes(path);
}

TEST(TraceFormatV2, EveryTruncationPrefixIsRejected) {
  const std::string bytes = CorruptionFixtureBytes();
  const std::string path = TempPath("truncation.ictmb");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteBytes(path, bytes.substr(0, len));
    // Any truncation loses the footer (and usually the index), so the
    // reader must reject the file at open — loudly, never UB.
    EXPECT_THROW(TraceReader r(path), Error) << "prefix " << len;
  }
}

TEST(TraceFormatV2, BitFlipsInEveryFrameFieldAreRejected) {
  const std::string bytes = CorruptionFixtureBytes();
  std::uint64_t stored0 = 0;
  std::memcpy(&stored0, bytes.data() + 40, 8);
  const std::size_t frameEnd = 40 + 8 + 4 + 8 +
                               static_cast<std::size_t>(stored0) + 4;
  const std::string path = TempPath("bitflip_matrix.ictmb");
  // Flip one bit in every byte of the first frame in turn: the stored
  // length prefix, the codec tag, the uncompressed length, the whole
  // compressed payload, and the trailing CRC.  Each must surface as a
  // typed error when the chunk is read.
  for (std::size_t at = 40; at < frameEnd; ++at) {
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    WriteBytes(path, damaged);
    TraceReader reader(path);  // header and trailing index are intact
    std::vector<double> bin(9);
    EXPECT_THROW(reader.next(bin.data()), Error) << "byte " << at;
  }
}

TEST(TraceFormatV2, ForgedFrameHeadersWithValidCrcAreRejected) {
  const std::string bytes = CorruptionFixtureBytes();
  std::uint64_t stored0 = 0;
  std::memcpy(&stored0, bytes.data() + 40, 8);
  const std::size_t payloadAt = 40 + 8 + 4 + 8;
  const auto reforge = [&](std::uint32_t tag, std::uint64_t rawBytes) {
    std::string damaged = bytes;
    std::memcpy(damaged.data() + 48, &tag, 4);
    std::memcpy(damaged.data() + 52, &rawBytes, 8);
    std::uint32_t crc = Crc32(&tag, 4);
    crc = Crc32(&rawBytes, 8, crc);
    crc = Crc32(damaged.data() + payloadAt,
                static_cast<std::size_t>(stored0), crc);
    std::memcpy(damaged.data() + payloadAt + stored0, &crc, 4);
    return damaged;
  };
  const std::uint64_t rawExpected = 4 * 9 * sizeof(double);
  const std::string path = TempPath("forged.ictmb");
  struct Case {
    const char* what;
    std::uint32_t tag;
    std::uint64_t rawBytes;
  };
  // A recomputed CRC makes the frame internally consistent, so these
  // exercise the semantic validation, not the checksum.
  const Case cases[] = {
      {"unknown codec tag", 7, rawExpected},
      {"uncompressed length too small", 2, rawExpected - 8},
      {"uncompressed length too large", 2, rawExpected + 8},
      {"uncompressed length zero", 2, 0},
  };
  for (const Case& c : cases) {
    WriteBytes(path, reforge(c.tag, c.rawBytes));
    TraceReader reader(path);
    std::vector<double> bin(9);
    EXPECT_THROW(reader.next(bin.data()), Error) << c.what;
  }
}

TEST(TraceFormatV2, FuzzedCorruptionIsAlwaysATypedError) {
  // Seeded fuzz battery: random single-byte XORs, truncations and
  // range zeroing over a valid compressed trace.  Every mutation must
  // either fail with ictm::Error or decode bins bit-identical to the
  // original (a mutation of unprotected metadata, e.g. binSeconds,
  // may "succeed" — the payload guarantees still hold).  Under the
  // sanitizer CI jobs this doubles as a UB hunt.
  const auto series = SmoothSeries(3, 8, 53);
  const std::string bytes = CorruptionFixtureBytes();
  const std::string path = TempPath("fuzz.ictmb");
  stats::Rng rng(1234);
  int errors = 0, intact = 0;
  for (int iter = 0; iter < 200; ++iter) {
    std::string damaged = bytes;
    const int kind = int(rng.uniform(0.0, 3.0));
    if (kind == 0) {
      const auto at = std::size_t(
          rng.uniform(0.0, double(damaged.size())));
      const auto mask = 1 + int(rng.uniform(0.0, 255.0));
      damaged[at] = static_cast<char>(damaged[at] ^ mask);
    } else if (kind == 1) {
      damaged.resize(std::size_t(rng.uniform(0.0, double(damaged.size()))));
    } else {
      const auto at = std::size_t(
          rng.uniform(0.0, double(damaged.size())));
      const auto len = std::min(
          damaged.size() - at,
          1 + std::size_t(rng.uniform(0.0, 32.0)));
      std::memset(damaged.data() + at, 0, len);
    }
    WriteBytes(path, damaged);
    try {
      TraceReader reader(path);
      const auto back = reader.readAll();
      ExpectBitIdentical(series, back);
      ++intact;
    } catch (const Error&) {
      ++errors;  // the sanctioned failure mode
    }
  }
  // The battery must actually exercise the rejection paths.
  EXPECT_GT(errors, 100) << "fuzzer mutated too gently";
  (void)intact;
}

// ---- repack ----------------------------------------------------------------

TEST(Repack, IdempotentAndInheritsChunking) {
  const auto series = SmoothSeries(4, 30, 61);
  const std::string a = TempPath("rp_a.ictmb");
  WriteTraceFile(a, series, TraceWriterOptions{4, ChunkCodec::kRaw, 0});

  TraceWriterOptions delta;
  delta.binsPerChunk = 0;  // keep the input's chunking
  delta.codec = ChunkCodec::kDelta;
  const std::string b = TempPath("rp_b.ictmb");
  const std::string c = TempPath("rp_c.ictmb");
  const RepackResult r1 = RepackTrace(a, b, delta);
  const RepackResult r2 = RepackTrace(b, c, delta);
  EXPECT_EQ(r1.bins, 30u);
  EXPECT_EQ(r2.bins, 30u);
  EXPECT_EQ(ReadBytes(b), ReadBytes(c)) << "repack is not idempotent";

  TraceReader reader(b);
  EXPECT_EQ(reader.info().binsPerChunk, 4u);  // inherited
  ExpectBitIdentical(series, reader.readAll());

  EXPECT_THROW(RepackTrace(a, a, delta), Error);  // in-place refused
}

TEST(Repack, FailedRepackLeavesNoOutput) {
  // A payload bit flip in chunk 2 of a one-bin-per-chunk trace fails
  // the repack after two bins were appended; no readable 2-bin trace
  // may survive it.
  const auto series = RandomSeries(3, 5, 29);
  const std::string in = TempPath("rp_fail_in.ictmb");
  WriteTraceFile(in, series, TraceWriterOptions{1, ChunkCodec::kRaw, 0});
  std::string bytes = ReadBytes(in);
  // Header 40 bytes; a raw frame is length, codec, raw length, 9
  // doubles and a CRC.
  const std::size_t frame = 8 + 4 + 8 + 9 * sizeof(double) + 4;
  const std::size_t payload2 = 40 + 2 * frame + 8 + 4 + 8;
  bytes[payload2] = static_cast<char>(bytes[payload2] ^ 0x01);
  WriteBytes(in, bytes);

  const std::string out = TempPath("rp_fail_out.ictmb");
  TraceWriterOptions options;
  options.binsPerChunk = 0;
  EXPECT_THROW(RepackTrace(in, out, options), Error);
  EXPECT_FALSE(std::ifstream(out).is_open()) << "failed repack left " << out;
}

TEST(Repack, CrossCodecCycleRecoversTheOriginalBytes) {
  const auto series = SmoothSeries(5, 40, 67);
  const std::string raw = TempPath("cycle_raw.ictmb");
  WriteTraceFile(raw, series, TraceWriterOptions{8, ChunkCodec::kRaw, 0});

  const auto repackTo = [&](const std::string& in, const std::string& out,
                            ChunkCodec codec) {
    TraceWriterOptions options;
    options.binsPerChunk = 0;
    options.codec = codec;
    RepackTrace(in, out, options);
  };
  const std::string d = TempPath("cycle_delta.ictmb");
  const std::string s = TempPath("cycle_slz.ictmb");
  const std::string raw2 = TempPath("cycle_raw2.ictmb");
  repackTo(raw, d, ChunkCodec::kDelta);
  repackTo(d, s, ChunkCodec::kShuffleLz);
  repackTo(s, raw2, ChunkCodec::kRaw);
  EXPECT_EQ(ReadBytes(raw2), ReadBytes(raw))
      << "raw -> delta -> shuffle-lz -> raw did not recover the file";
  ExpectBitIdentical(series, ReadTraceFile(d));
  ExpectBitIdentical(series, ReadTraceFile(s));
}

TEST(Repack, UpgradesV1FilesToV2) {
  const auto series = RandomSeries(4, 18, 71);
  const std::string v1 = TempPath("legacy_v1.ictmb");
  WriteV1TraceFile(v1, series, 5);

  // The hand-written v1 file is readable as-is...
  {
    TraceReader reader(v1);
    EXPECT_EQ(reader.info().version, 1u);
    EXPECT_EQ(reader.info().binsPerChunk, 5u);
    EXPECT_EQ(reader.info().chunks, 4u);
    ExpectBitIdentical(series, reader.readAll());
  }
  // ...its corruption guarantees still hold (v1 payload CRC)...
  {
    std::string damaged = ReadBytes(v1);
    damaged[55] = static_cast<char>(damaged[55] ^ 0x01);  // first payload
    const std::string p = TempPath("legacy_v1_damaged.ictmb");
    WriteBytes(p, damaged);
    TraceReader reader(p);
    std::vector<double> bin(16);
    EXPECT_THROW(reader.next(bin.data()), Error);
  }
  // ...and repack upgrades it to a v2 container bit-exactly.
  TraceWriterOptions options;
  options.binsPerChunk = 0;
  options.codec = ChunkCodec::kDelta;
  const std::string v2 = TempPath("legacy_v2.ictmb");
  RepackTrace(v1, v2, options);
  TraceReader upgraded(v2);
  EXPECT_EQ(upgraded.info().version, 2u);
  EXPECT_EQ(upgraded.info().binsPerChunk, 5u);
  ExpectBitIdentical(series, upgraded.readAll());
}

// ---- writer close error path -----------------------------------------------

TEST(TraceWriter, CloseSurfacesWriteFailuresOnFullDevice) {
  // /dev/full fails every flush with ENOSPC — exactly the silent-loss
  // scenario the close() contract exists for.  Both the serial and the
  // pooled writer must surface it as ictm::Error from append()/close(),
  // never swallow it.
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const auto series = SmoothSeries(8, 256, 73);
  for (std::size_t threads : {0u, 2u}) {
    SCOPED_TRACE("compressThreads=" + std::to_string(threads));
    const auto run = [&] {
      TraceWriterOptions options;
      options.binsPerChunk = 16;
      options.codec = ChunkCodec::kRaw;  // incompressible-size output
      options.compressThreads = threads;
      TraceWriter writer("/dev/full", series.nodeCount(),
                         series.binSeconds(), options);
      for (std::size_t t = 0; t < series.binCount(); ++t) {
        writer.append(series.binData(t));
      }
      writer.close();
    };
    EXPECT_THROW(run(), Error);
  }
  // The destructor swallows the same failure by design (close() is the
  // sanctioned error path); destroying an unclosed writer must not
  // throw or crash.
  {
    TraceWriter writer("/dev/full", series.nodeCount(),
                       series.binSeconds(), 16);
    try {
      for (std::size_t t = 0; t < 64; ++t) {
        writer.append(series.binData(t));
      }
    } catch (const Error&) {
      // append may already surface the failure; the destructor of the
      // still-unclosed writer must stay silent either way.
    }
  }
}

// ---- ordered pool ----------------------------------------------------------

using IndexPool = OrderedPool<std::size_t, std::size_t>;

// Every worker thread runs a copy of the same stateless `work`.
template <typename Work>
auto OnEveryThread(Work work) {
  return [work] { return work; };
}

TEST(OrderedPool, EmitsInPushOrderForEveryShape) {
  // Seeded per-job delays finish jobs out of order; the results are
  // move-only, so the pool must move them, never copy.
  constexpr std::size_t kJobs = 64;
  stats::Rng rng(71);
  std::vector<int> delayUs(kJobs);
  for (int& d : delayUs) d = static_cast<int>(rng.uniform(0.0, 200.0));
  for (std::size_t workers : {1u, 2u, 8u}) {
    for (std::size_t capacity : {1u, 4u, 64u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " capacity=" + std::to_string(capacity));
      std::vector<std::size_t> seqs, values;
      OrderedPool<std::size_t, std::unique_ptr<std::size_t>> pool(
          workers, capacity, "test.ordered_pool",
          OnEveryThread([&](std::size_t job) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(delayUs[job]));
            return std::make_unique<std::size_t>(7 * job);
          }),
          [&](std::size_t seq, std::unique_ptr<std::size_t>&& result) {
            seqs.push_back(seq);
            values.push_back(*result);
          });
      for (std::size_t i = 0; i < kJobs; ++i) pool.push(i);
      pool.finish();
      ASSERT_EQ(seqs.size(), kJobs);
      for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(seqs[i], i);
        EXPECT_EQ(values[i], 7 * i);
      }
    }
  }
}

TEST(OrderedPool, ParkedResultsStayWithinCapacityPlusWorkers) {
  // Job 0 is held, so nothing can be emitted.  The other workers park
  // results up to capacity + workers - 1 ahead of it and then each
  // wait holding one more; the queue fills and push() blocks.
  for (std::size_t workers : {2u, 4u}) {
    for (std::size_t capacity : {1u, 4u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " capacity=" + std::to_string(capacity));
      const std::string prefix = "test.ordered_pool.bound." +
                                 std::to_string(workers) + "x" +
                                 std::to_string(capacity);
      obs::Gauge& parked = obs::GetGauge(
          (prefix + ".reorder_pending").c_str(), obs::MetricClass::kTiming);
      const std::size_t bound = capacity + workers;
      const std::size_t expectCompleted = bound - 1 + (workers - 1);
      const std::size_t expectAccepted = 1 + expectCompleted + capacity;
      const std::size_t jobs = 4 * bound + 8;

      std::promise<void> release;
      std::shared_future<void> held = release.get_future().share();
      std::atomic<std::size_t> completed{0}, accepted{0};
      std::vector<std::size_t> order;
      IndexPool pool(
          workers, capacity, prefix,
          OnEveryThread([&](std::size_t job) {
            if (job == 0) {
              held.wait();
            } else {
              ++completed;
            }
            return job;
          }),
          [&](std::size_t, std::size_t&& job) { order.push_back(job); });
      std::thread producer([&] {
        for (std::size_t i = 0; i < jobs; ++i) {
          pool.push(i);
          ++accepted;
        }
      });
      for (int ms = 0; ms < 10000 && (completed < expectCompleted ||
                                      accepted < expectAccepted);
           ++ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Nothing may move while job 0 is held.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::size_t completedWhileHeld = completed;
      const std::size_t acceptedWhileHeld = accepted;
      const bool emittedWhileHeld = !order.empty();
      const std::int64_t parkedWhileHeld = parked.maxValue();
      release.set_value();
      producer.join();
      pool.finish();

      EXPECT_EQ(completedWhileHeld, expectCompleted);
      EXPECT_EQ(acceptedWhileHeld, expectAccepted) << "push() did not block";
      EXPECT_FALSE(emittedWhileHeld);
      EXPECT_LE(parkedWhileHeld, static_cast<std::int64_t>(bound));
      EXPECT_LE(parked.maxValue(), static_cast<std::int64_t>(bound));
      ASSERT_EQ(order.size(), jobs);
      for (std::size_t i = 0; i < jobs; ++i) EXPECT_EQ(order[i], i);
    }
  }
}

TEST(OrderedPool, WorkAndEmitFailuresSurfaceFromPushAndFinish) {
  // Capacity 1 keeps push() blocked on a full queue when the failure
  // lands: the window in which a wakeup outside the mutex was lost.
  for (const bool inEmit : {false, true}) {
    for (std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(inEmit ? "emit" : "work") +
                   " workers=" + std::to_string(workers));
      IndexPool pool(
          workers, 1, "test.ordered_pool",
          OnEveryThread([&](std::size_t job) {
            if (!inEmit && job == 5) throw Error("work failed");
            return job;
          }),
          [&](std::size_t seq, std::size_t&&) {
            if (inEmit && seq == 5) throw Error("emit failed");
          });
      std::string message;
      try {
        for (std::size_t i = 0; i < 1000; ++i) pool.push(i);
        pool.finish();
      } catch (const Error& e) {
        message = e.what();
      }
      EXPECT_NE(message.find(inEmit ? "emit failed" : "work failed"),
                std::string::npos)
          << message;
      EXPECT_THROW(pool.finish(), Error);
      EXPECT_THROW(pool.push(0), Error);
    }
  }
}

TEST(OrderedPool, WorkFailureWhileAnEmitIsBlocked) {
  // emit(0) is still blocked when job 1 fails: push() must wake and
  // throw, and finish() rethrows once the emit returns.
  std::promise<void> emitStarted, release;
  std::shared_future<void> started = emitStarted.get_future().share();
  std::shared_future<void> held = release.get_future().share();
  IndexPool pool(
      2, 1, "test.ordered_pool",
      OnEveryThread([&](std::size_t job) {
        if (job == 1) {
          started.wait();
          throw Error("work failed");
        }
        return job;
      }),
      [&](std::size_t seq, std::size_t&&) {
        if (seq != 0) return;
        emitStarted.set_value();
        held.wait();
      });
  bool pushThrew = false;
  try {
    for (std::size_t i = 0; i < 1000; ++i) pool.push(i);
  } catch (const Error&) {
    pushThrew = true;
  }
  release.set_value();
  EXPECT_TRUE(pushThrew);
  EXPECT_THROW(pool.finish(), Error);
}

TEST(OrderedPool, DestructionWithoutFinishDrainsAndJoins) {
  std::vector<std::size_t> order;
  {
    IndexPool pool(
        4, 8, "test.ordered_pool",
        OnEveryThread([](std::size_t job) { return job; }),
        [&](std::size_t seq, std::size_t&&) { order.push_back(seq); });
    for (std::size_t i = 0; i < 50; ++i) pool.push(i);
  }
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  // A failed pool's destructor joins without throwing.
  IndexPool failing(
      2, 1, "test.ordered_pool",
      OnEveryThread(
          [](std::size_t) -> std::size_t { throw Error("work failed"); }),
      [](std::size_t, std::size_t&&) {});
  EXPECT_THROW(
      {
        for (std::size_t i = 0; i < 100; ++i) failing.push(i);
      },
      Error);
}

// ---- streaming estimator ---------------------------------------------------

struct StreamFixture {
  topology::Graph graph = topology::MakeRing(6, 2);
  linalg::CsrMatrix routing = topology::BuildRoutingCsr(graph);
  traffic::TrafficMatrixSeries truth = RandomSeries(6, 24, 99);
};

TEST(StreamingEstimator, BitIdenticalAcrossThreadsAndQueueSizes) {
  StreamFixture fx;
  StreamingOptions base;
  base.f = 0.25;
  base.window = 8;
  base.threads = 1;
  const StreamingRunResult serial =
      EstimateSeriesStreaming(fx.routing, fx.truth, base);

  for (std::size_t threads : {2u, 8u}) {
    for (std::size_t capacity : {1u, 3u, 64u}) {
      StreamingOptions opts = base;
      opts.threads = threads;
      opts.queueCapacity = capacity;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " capacity=" + std::to_string(capacity));
      const StreamingRunResult run =
          EstimateSeriesStreaming(fx.routing, fx.truth, opts);
      ExpectBitIdentical(serial.estimates, run.estimates);
      ExpectBitIdentical(serial.priors, run.priors);
    }
  }
}

TEST(StreamingEstimator, CompressedTraceReplayBitIdentical) {
  // The whole point of the codec layer: replaying a compressed trace
  // must produce byte-identical estimates to the raw trace, for every
  // codec and worker count.
  StreamFixture fx;
  const std::string rawPath = TempPath("replay_raw.ictmb");
  WriteTraceFile(rawPath, fx.truth,
                 TraceWriterOptions{8, ChunkCodec::kRaw, 0});

  StreamingOptions base;
  base.f = 0.25;
  base.window = 8;
  for (std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StreamingOptions opts = base;
    opts.threads = threads;
    TraceReader rawReader(rawPath, TraceReaderOptions{true});
    const StreamingRunResult reference =
        EstimateSeriesStreaming(fx.routing, rawReader.readAll(), opts);
    for (const ChunkCodec codec :
         {ChunkCodec::kShuffleLz, ChunkCodec::kDelta}) {
      SCOPED_TRACE(ChunkCodecName(codec));
      const std::string path = TempPath("replay_codec.ictmb");
      TraceWriterOptions writerOptions;
      writerOptions.binsPerChunk = 8;
      writerOptions.codec = codec;
      writerOptions.compressThreads = 2;
      WriteTraceFile(path, fx.truth, writerOptions);
      TraceReader reader(path, TraceReaderOptions{true});
      const StreamingRunResult run =
          EstimateSeriesStreaming(fx.routing, reader.readAll(), opts);
      ExpectBitIdentical(reference.estimates, run.estimates);
      ExpectBitIdentical(reference.priors, run.priors);
    }
  }
}

TEST(StreamingEstimator, MatchesBatchEstimateSeriesBitForBit) {
  StreamFixture fx;
  for (std::size_t window : {1u, 8u}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      StreamingOptions opts;
      opts.f = 0.25;
      opts.window = window;
      opts.threads = threads;
      SCOPED_TRACE("window=" + std::to_string(window) +
                   " threads=" + std::to_string(threads));
      const StreamingRunResult run =
          EstimateSeriesStreaming(fx.routing, fx.truth, opts);

      // The batch engine fed the exact priors the streaming path
      // derived must reproduce the streaming estimates bit for bit.
      core::EstimationOptions batch;
      batch.threads = 2;
      const auto reference = core::EstimateSeries(fx.routing, fx.truth,
                                                  run.priors, batch);
      ExpectBitIdentical(reference, run.estimates);
    }
  }
}

TEST(StreamingEstimator, WindowZeroReproducesBatchStableFPPrior) {
  StreamFixture fx;
  const linalg::Vector preference{0.30, 0.25, 0.15, 0.12, 0.10, 0.08};
  StreamingOptions opts;
  opts.f = 0.3;
  opts.preference = preference;
  opts.window = 0;
  opts.threads = 4;
  const StreamingRunResult run =
      EstimateSeriesStreaming(fx.routing, fx.truth, opts);

  const auto marginals = core::ExtractMarginals(fx.truth);
  const auto batchPrior = core::StableFPPrior(
      0.3, preference, marginals, fx.truth.binSeconds());
  ExpectBitIdentical(batchPrior, run.priors);
}

TEST(StreamingEstimator, RejectsBadConfiguration) {
  StreamFixture fx;
  auto noop = [](std::size_t, const double*, const double*) {};
  {
    StreamingOptions opts;
    opts.queueCapacity = 0;
    EXPECT_THROW(
        StreamingEstimator e(fx.routing, 6, opts, noop), Error);
  }
  {
    StreamingOptions opts;
    opts.f = 0.5;
    opts.window = 4;  // closed forms are singular at f = 1/2
    EXPECT_THROW(
        StreamingEstimator e(fx.routing, 6, opts, noop), Error);
  }
  // A preference with a negative, non-finite or all-zero entry set is
  // refused at construction and on resume from a checkpoint.
  const std::vector<linalg::Vector> badPreferences = {
      {2.0, -1.0, 1.0, 1.0, 1.0, 1.0},
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
      {1.0, 1.0, std::nan(""), 1.0, 1.0, 1.0},
      {1.0, 1.0, 1.0, 1.0, 1.0, HUGE_VAL}};
  for (const linalg::Vector& preference : badPreferences) {
    StreamingOptions opts;
    opts.preference = preference;
    EXPECT_THROW(
        StreamingEstimator e(fx.routing, 6, opts, noop), Error);
    StreamingOptions resumed;
    resumed.resume = StreamingCheckpoint{0, preference, linalg::Vector(6, 0.0),
                                         linalg::Vector(6, 0.0), 0};
    EXPECT_THROW(
        StreamingEstimator e(fx.routing, 6, resumed, noop), Error);
  }
  {
    StreamingOptions opts;
    StreamingEstimator e(fx.routing, 6, opts, noop);
    BinEvent bad;
    bad.linkLoads.assign(fx.routing.rows(), 0.0);
    bad.ingress.assign(5, 0.0);  // wrong length
    bad.egress.assign(6, 0.0);
    EXPECT_THROW(e.push(std::move(bad)), Error);
    e.finish();
    EXPECT_THROW(e.push(BinEvent{}), Error);
  }
}

TEST(StreamingEstimator, RefusesNonFiniteOrNegativeMeasurements) {
  // A NaN, infinite or negative value in any field is refused at push
  // with an error naming the bin, the field and the index, before the
  // window accumulators see it: the bins pushed before it still
  // finish, and the stream goes on exactly as if the bin never came.
  StreamFixture fx;
  StreamingOptions opts;
  opts.window = 2;
  std::vector<BinEvent> good;
  for (std::size_t t = 0; t < 5; ++t) {
    good.push_back(MakeBinEvent(fx.routing, 6, fx.truth.binData(t)));
  }
  auto run = [&](const BinEvent* bad, std::string* refusal) {
    std::vector<std::vector<double>> out;
    StreamingEstimator e(fx.routing, 6, opts,
                         [&](std::size_t seq, const double* estimate,
                             const double*) {
                           EXPECT_EQ(seq, out.size());
                           out.emplace_back(estimate, estimate + 36);
                         });
    for (std::size_t t = 0; t < good.size(); ++t) {
      if (t == 2 && bad != nullptr) {
        try {
          e.push(*bad);
          ADD_FAILURE() << "bad bin accepted";
        } catch (const Error& err) {
          *refusal = err.what();
        }
        EXPECT_EQ(e.pushedCount(), 2u);
      }
      e.push(good[t]);
    }
    e.finish();
    return out;
  };
  const auto clean = run(nullptr, nullptr);
  ASSERT_EQ(clean.size(), 5u);

  using Field = std::vector<double> BinEvent::*;
  const std::vector<std::pair<Field, std::string>> fields = {
      {&BinEvent::linkLoads, "link load"},
      {&BinEvent::ingress, "ingress"},
      {&BinEvent::egress, "egress"}};
  const std::vector<std::pair<double, std::string>> values = {
      {std::nan(""), "NaN"}, {HUGE_VAL, "infinite"}, {-1.0, "negative"}};
  for (const auto& [field, fieldName] : fields) {
    for (const auto& [value, cause] : values) {
      SCOPED_TRACE(fieldName + " = " + cause);
      BinEvent bad = good[2];
      (bad.*field)[3] = value;
      std::string refusal;
      const auto got = run(&bad, &refusal);
      EXPECT_EQ(refusal, "bin 2: " + fieldName + " 3 is " + cause +
                             "; measurements must be finite and "
                             "non-negative");
      // Bin 2 (refused) is skipped; later bins take its seq.
      ASSERT_EQ(got.size(), 5u);
      EXPECT_EQ(got, clean);
    }
  }
}

TEST(StreamingEstimator, WorkerFailurePropagatesWithoutDeadlock) {
  // Regression for the PR-6 TSan audit: fail() used to flip `failed`
  // and notify outside queueMutex, so a producer blocked on a full
  // queue could miss the wakeup and hang forever.  queueCapacity = 1
  // keeps push() blocked on notFull while the worker fails, which is
  // exactly the lost-wakeup window.
  StreamFixture fx;
  const std::size_t n = fx.truth.nodeCount();
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StreamingOptions opts;
    opts.threads = threads;
    opts.queueCapacity = 1;
    auto boom = [](std::size_t seq, const double*, const double*) {
      if (seq == 2) throw Error("callback exploded");
    };
    StreamingEstimator estimator(fx.routing, n, opts, boom);
    bool caught = false;
    try {
      for (std::size_t t = 0; t < fx.truth.binCount(); ++t) {
        estimator.push(MakeBinEvent(fx.routing, n, fx.truth.binData(t)));
      }
      estimator.finish();
    } catch (const Error& e) {
      caught = true;
      EXPECT_NE(std::string(e.what()).find("callback exploded"),
                std::string::npos);
    }
    EXPECT_TRUE(caught) << "worker failure was swallowed";
  }
}

// ---- connection aggregator -------------------------------------------------

TEST(ConnectionAggregator, ReproducesGeneratorSeriesAndLinkLoads) {
  const std::size_t n = 5;
  const std::size_t bins = 6;
  topology::Graph g = topology::MakeRing(n, 2);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);

  conngen::GeneratorConfig cfg;
  cfg.activities.assign(n, std::vector<double>(bins, 5e6));
  cfg.preferences.assign(n, 1.0);
  stats::Rng rng(21);
  std::vector<conngen::Connection> connections;
  const auto generated =
      conngen::GenerateTraffic(cfg, 300.0, rng, &connections);

  traffic::TrafficMatrixSeries rebuilt(n, bins, 300.0);
  std::vector<std::vector<double>> loads;
  ConnectionAggregator aggr(
      routing, n,
      [&](std::size_t bin, const BinEvent& event, const double* tmBin) {
        ASSERT_LT(bin, bins);
        std::copy(tmBin, tmBin + n * n, rebuilt.binData(bin));
        loads.push_back(event.linkLoads);
        // Marginals must match the accumulated bin.
        for (std::size_t i = 0; i < n; ++i) {
          double rowSum = 0.0, colSum = 0.0;
          for (std::size_t j = 0; j < n; ++j) {
            rowSum += tmBin[i * n + j];
            colSum += tmBin[j * n + i];
          }
          EXPECT_DOUBLE_EQ(event.ingress[i], rowSum);
          EXPECT_DOUBLE_EQ(event.egress[i], colSum);
        }
      });
  for (const auto& c : connections) aggr.add(c);
  aggr.flush();

  ASSERT_EQ(aggr.binsEmitted(), bins);
  ExpectBitIdentical(generated.series, rebuilt);

  // Link loads equal R · x for every emitted bin.
  std::vector<double> expected(routing.rows());
  for (std::size_t t = 0; t < bins; ++t) {
    routing.MultiplyInto(generated.series.binData(t), expected.data());
    for (std::size_t l = 0; l < expected.size(); ++l) {
      EXPECT_EQ(loads[t][l], expected[l]) << "bin " << t;
    }
  }
}

TEST(ConnectionAggregator, EmitsEmptyBinsForGapsAndRejectsRegression) {
  const std::size_t n = 3;
  topology::Graph g = topology::MakeRing(n, 1);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);

  std::vector<std::size_t> seen;
  ConnectionAggregator aggr(
      routing, n,
      [&](std::size_t bin, const BinEvent&, const double*) {
        seen.push_back(bin);
      });
  aggr.add({0, 1, 0, 100.0, 50.0, 2});  // first activity in bin 2
  aggr.add({1, 2, 0, 10.0, 5.0, 4});
  EXPECT_THROW(aggr.add({0, 1, 0, 1.0, 1.0, 3}), Error);  // goes back
  aggr.flush();
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ---- end-to-end: connections → aggregator → estimator ----------------------

TEST(StreamingPipeline, ConnectionsToEstimatesEndToEnd) {
  const std::size_t n = 6;
  const std::size_t bins = 12;
  topology::Graph g = topology::MakeRing(n, 2);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);

  conngen::GeneratorConfig cfg;
  cfg.activities.assign(n, std::vector<double>(bins, 2e7));
  cfg.preferences = {4.0, 3.0, 2.0, 1.0, 1.0, 1.0};
  stats::Rng rng(5);
  std::vector<conngen::Connection> connections;
  const auto generated =
      conngen::GenerateTraffic(cfg, 300.0, rng, &connections);

  StreamingOptions opts;
  opts.threads = 4;
  opts.window = 4;
  traffic::TrafficMatrixSeries estimates(n, bins, 300.0);
  StreamingEstimator estimator(
      routing, n, opts,
      [&](std::size_t seq, const double* estimate, const double*) {
        std::copy(estimate, estimate + n * n, estimates.binData(seq));
      });
  ConnectionAggregator aggr(
      routing, n,
      [&](std::size_t, const BinEvent& event, const double*) {
        estimator.push(BinEvent(event));
      });
  for (const auto& c : connections) aggr.add(c);
  aggr.flush();
  estimator.finish();

  EXPECT_EQ(estimator.emittedCount(), bins);
  EXPECT_TRUE(estimates.isValid());
  // Estimates respect the marginals (IPF step): ingress sums match.
  for (std::size_t t = 0; t < bins; ++t) {
    const auto estIn = estimates.ingress(t);
    const auto truthIn = generated.series.ingress(t);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(estIn[i], truthIn[i],
                  1e-6 * std::max(1.0, truthIn[i]));
    }
  }
}

}  // namespace
}  // namespace ictm::stream
