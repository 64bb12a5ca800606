#include "stream/format.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/ordered_pool.hpp"
#include "traffic/io.hpp"

namespace ictm::stream {

namespace {

constexpr std::array<char, 8> kMagic = {'I', 'C', 'T', 'M',
                                        'B', '1', '\r', '\n'};
constexpr std::array<char, 8> kEndMagic = {'I', 'C', 'T', 'M',
                                           'B', 'E', 'O', 'F'};
constexpr std::uint32_t kByteOrderSentinel = 0x01020304u;
// v1 frames carry the payload verbatim; v2 frames are self-describing
// (codec tag + uncompressed length).  The writer always emits v2; the
// reader accepts both.
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;
// Length-prefix value that marks the index frame; no real chunk can be
// this large.
constexpr std::uint64_t kIndexMarker = ~std::uint64_t{0};

// A cell a TM may hold: finite and non-negative (−0.0 included).
bool IsVolume(double v) {
  return v >= 0.0 && v <= std::numeric_limits<double>::max();
}

template <typename T>
void WriteRaw(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
void ReadRaw(std::istream& is, T& value, const std::string& what) {
  is.read(reinterpret_cast<char*>(&value), sizeof value);
  ICTM_REQUIRE(is.good(), "ictmb: truncated while reading " + what);
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len,
                    std::uint32_t seed) {
  // Slice-by-8 tables generated once from the reflected polynomial —
  // a byte-at-a-time table runs at ~300 MB/s, which would make CRC
  // validation (not disk) the bottleneck of chunk reads.
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();

  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  // 8 bytes per step; the unaligned loads are little-endian, which the
  // header sentinel already requires of the host.
  while (len >= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (std::size_t i = 0; i < len; ++i) {
    crc = tables[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---- TraceWriter -----------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, std::size_t nodes,
                         double binSeconds,
                         const TraceWriterOptions& options)
    : file_(path), nodes_(nodes), options_(options) {
  ICTM_REQUIRE(nodes > 0, "ictmb: node count must be positive");
  ICTM_REQUIRE(binSeconds > 0.0, "ictmb: binSeconds must be positive");
  ICTM_REQUIRE(options.binsPerChunk > 0,
               "ictmb: binsPerChunk must be positive");
  ICTM_REQUIRE(static_cast<std::size_t>(options.codec) < kChunkCodecCount,
               "ictmb: unknown chunk codec");
  buffer_.reserve(options.binsPerChunk * nodes * nodes);

  out_.write(kMagic.data(), kMagic.size());
  WriteRaw(out_, kByteOrderSentinel);
  WriteRaw(out_, kVersionV2);
  WriteRaw(out_, static_cast<std::uint64_t>(nodes));
  WriteRaw(out_, binSeconds);
  WriteRaw(out_, static_cast<std::uint64_t>(options.binsPerChunk));

  if (options.compressThreads > 0 && options.codec != ChunkCodec::kRaw) {
    const std::size_t n2 = nodes * nodes;
    pool_ = std::make_unique<EncodePool>(
        options.compressThreads, 2 * options.compressThreads,
        "trace_io.encode",
        [this, n2] {
          return [this, n2](std::vector<double> bins) {
            EncodedChunk chunk = encodeChunk(bins.data(), bins.size() / n2);
            if (chunk.codec == ChunkCodec::kRaw) chunk.bins = std::move(bins);
            return chunk;
          };
        },
        [this](std::size_t, EncodedChunk&& chunk) {
          writeFrame(chunk, chunk.bins.data());
        });
  }
}

// Out of line: OrderedPool is complete only here.
TraceWriter::~TraceWriter() = default;

void TraceWriter::append(const double* bin) {
  ICTM_REQUIRE(!closed_, "ictmb: append after close: " + file_.path());
  buffer_.insert(buffer_.end(), bin, bin + nodes_ * nodes_);
  ++binsWritten_;
  if (buffer_.size() == options_.binsPerChunk * nodes_ * nodes_) {
    flushChunk();
  }
}

TraceWriter::EncodedChunk TraceWriter::encodeChunk(
    const double* bins, std::size_t binCount) const {
  const std::size_t n2 = nodes_ * nodes_;
  const std::size_t rawBytes = binCount * n2 * sizeof(double);
  EncodedChunk encoded;
  encoded.binCount = binCount;
  if (options_.codec != ChunkCodec::kRaw) {
    encoded.payload = EncodeChunk(options_.codec, bins, binCount, n2);
    if (encoded.payload.size() < rawBytes) {
      encoded.codec = options_.codec;
      return encoded;
    }
    // Per-chunk fallback: incompressible data is stored raw, so a
    // codec can never inflate a chunk beyond the frame header cost.
    encoded.payload = {};
  }
  // Stored raw: the bins are the payload, so nothing is encoded or
  // copied; the raw codec's counters still count the chunk.
  CountEncodedChunk(ChunkCodec::kRaw, rawBytes, rawBytes);
  return encoded;
}

void TraceWriter::writeFrame(const EncodedChunk& chunk, const double* bins) {
  // Chunk/byte counts are pure functions of the workload; the write
  // time (CRC included) is wall clock.
  static obs::Counter& chunksWritten = obs::GetCounter(
      "trace_io.chunks_written", obs::MetricClass::kDeterministic);
  static obs::Counter& bytesWritten = obs::GetCounter(
      "trace_io.bytes_written", obs::MetricClass::kDeterministic);
  static obs::Counter& writeNs =
      obs::GetCounter("trace_io.write_ns", obs::MetricClass::kTiming);
  obs::Span span("chunk_write", "trace_io", &writeNs);
  const std::uint64_t rawBytes =
      chunk.binCount * nodes_ * nodes_ * sizeof(double);
  const bool raw = chunk.codec == ChunkCodec::kRaw;
  const void* payload = raw ? static_cast<const void*>(bins)
                            : static_cast<const void*>(chunk.payload.data());
  const std::uint64_t storedBytes = raw ? rawBytes : chunk.payload.size();
  const std::uint32_t codecTag = static_cast<std::uint32_t>(chunk.codec);
  const std::uint64_t offset = static_cast<std::uint64_t>(out_.tellp());
  WriteRaw(out_, storedBytes);
  WriteRaw(out_, codecTag);
  WriteRaw(out_, rawBytes);
  out_.write(static_cast<const char*>(payload),
             static_cast<std::streamsize>(storedBytes));
  std::uint32_t crc = Crc32(&codecTag, sizeof codecTag);
  crc = Crc32(&rawBytes, sizeof rawBytes, crc);
  crc = Crc32(payload, static_cast<std::size_t>(storedBytes), crc);
  WriteRaw(out_, crc);
  ICTM_REQUIRE(out_.good(), "ictmb: chunk write failed: " + file_.path());
  index_.push_back({offset, chunk.binCount});
  chunksWritten.add();
  bytesWritten.add(storedBytes);
}

void TraceWriter::flushChunk() {
  if (buffer_.empty()) return;
  const std::size_t n2 = nodes_ * nodes_;
  if (pool_ != nullptr) {
    pool_->push(std::exchange(buffer_, {}));
    buffer_.reserve(options_.binsPerChunk * n2);
    return;
  }
  writeFrame(encodeChunk(buffer_.data(), buffer_.size() / n2),
             buffer_.data());
  buffer_.clear();
}

void TraceWriter::close() {
  ICTM_REQUIRE(!closed_, "ictmb: close called twice: " + file_.path());
  closed_ = true;
  flushChunk();
  if (pool_ != nullptr) pool_->finish();

  // Index frame: marker, chunk count, per-chunk records, total bins,
  // CRC over everything after the marker.
  const std::uint64_t indexOffset =
      static_cast<std::uint64_t>(out_.tellp());
  WriteRaw(out_, kIndexMarker);
  std::vector<std::uint64_t> words;
  words.reserve(2 + 2 * index_.size());
  words.push_back(index_.size());
  for (const ChunkRecord& c : index_) {
    words.push_back(c.offset);
    words.push_back(c.binCount);
  }
  words.push_back(binsWritten_);
  out_.write(reinterpret_cast<const char*>(words.data()),
             static_cast<std::streamsize>(words.size() *
                                          sizeof(std::uint64_t)));
  WriteRaw(out_, Crc32(words.data(), words.size() * sizeof(std::uint64_t)));

  // Footer.
  WriteRaw(out_, indexOffset);
  out_.write(kEndMagic.data(), kEndMagic.size());
  file_.commit();
}

// ---- TraceReader -----------------------------------------------------------

TraceReader::TraceReader(const std::string& path,
                         const TraceReaderOptions& options)
    : in_(path, std::ios::binary), path_(path), options_(options) {
  ICTM_REQUIRE(in_.is_open(), "cannot open file for reading: " + path);

  std::array<char, 8> magic{};
  in_.read(magic.data(), magic.size());
  ICTM_REQUIRE(in_.good() && magic == kMagic,
               "ictmb: bad magic (not an ictmb trace): " + path);
  std::uint32_t sentinel = 0, version = 0;
  ReadRaw(in_, sentinel, "header");
  ICTM_REQUIRE(sentinel == kByteOrderSentinel,
               "ictmb: byte-order mismatch (file written on a host with "
               "different endianness): " + path);
  ReadRaw(in_, version, "header");
  ICTM_REQUIRE(version == kVersionV1 || version == kVersionV2,
               "ictmb: unsupported version " + std::to_string(version) +
                   ": " + path);
  std::uint64_t nodes = 0, binsPerChunk = 0;
  double binSeconds = 0.0;
  ReadRaw(in_, nodes, "header");
  ReadRaw(in_, binSeconds, "header");
  ReadRaw(in_, binsPerChunk, "header");
  ICTM_REQUIRE(nodes > 0 && binsPerChunk > 0 && binSeconds > 0.0,
               "ictmb: malformed header fields: " + path);
  // Keeps nodes² · 8 below 2^59 so the consistency check against the
  // index can never overflow.
  ICTM_REQUIRE(nodes <= (std::uint64_t{1} << 28),
               "ictmb: header node count is implausible: " + path);

  // Footer → index offset → index frame.
  in_.seekg(0, std::ios::end);
  fileSize_ = static_cast<std::uint64_t>(in_.tellg());
  ICTM_REQUIRE(fileSize_ >= 16,
               "ictmb: truncated (no footer): " + path);
  in_.seekg(static_cast<std::streamoff>(fileSize_ - 16));
  std::uint64_t indexOffset = 0;
  ReadRaw(in_, indexOffset, "footer");
  std::array<char, 8> endMagic{};
  in_.read(endMagic.data(), endMagic.size());
  ICTM_REQUIRE(in_.good() && endMagic == kEndMagic,
               "ictmb: truncated or missing footer: " + path);
  ICTM_REQUIRE(indexOffset < fileSize_,
               "ictmb: corrupt footer (index offset out of range): " +
                   path);

  in_.seekg(static_cast<std::streamoff>(indexOffset));
  std::uint64_t marker = 0;
  ReadRaw(in_, marker, "index marker");
  ICTM_REQUIRE(marker == kIndexMarker,
               "ictmb: corrupt footer (no index at recorded offset): " +
                   path);
  std::uint64_t chunkCount = 0;
  ReadRaw(in_, chunkCount, "index");
  ICTM_REQUIRE(chunkCount <= fileSize_ / 16,
               "ictmb: corrupt index (chunk count too large): " + path);
  std::vector<std::uint64_t> words(2 * chunkCount + 1);
  in_.read(reinterpret_cast<char*>(words.data()),
           static_cast<std::streamsize>(words.size() *
                                        sizeof(std::uint64_t)));
  ICTM_REQUIRE(in_.good(), "ictmb: truncated index: " + path);
  std::uint32_t storedCrc = 0;
  ReadRaw(in_, storedCrc, "index CRC");
  std::uint32_t crc = Crc32(&chunkCount, sizeof chunkCount);
  crc = Crc32(words.data(), words.size() * sizeof(std::uint64_t), crc);
  ICTM_REQUIRE(crc == storedCrc, "ictmb: index CRC mismatch: " + path);

  index_.resize(chunkCount);
  std::uint64_t firstBin = 0;
  for (std::uint64_t c = 0; c < chunkCount; ++c) {
    index_[c] = {words[2 * c], words[2 * c + 1], firstBin};
    ICTM_REQUIRE(index_[c].binCount > 0 && index_[c].offset < fileSize_,
                 "ictmb: corrupt index entry: " + path);
    firstBin += index_[c].binCount;
  }
  const std::uint64_t totalBins = words[2 * chunkCount];
  ICTM_REQUIRE(firstBin == totalBins,
               "ictmb: index bin counts do not sum to the total: " + path);

  // The header is not CRC-protected (a v1 legacy), so its node count
  // must be cross-checked against the CRC-protected index before any
  // caller sizes a buffer from it: even the strongest codec stores at
  // least one byte per ~255 raw bytes (v1 stores payloads verbatim),
  // so the implied raw size cannot exceed this multiple of the file.
  const std::uint64_t maxExpand = version == kVersionV1 ? 1 : 512;
  if (totalBins > 0) {
    ICTM_REQUIRE(nodes * nodes * sizeof(double) <=
                     fileSize_ * maxExpand / totalBins,
                 "ictmb: header node count is inconsistent with the "
                 "file size: " + path);
  }

  info_.nodes = static_cast<std::size_t>(nodes);
  info_.bins = static_cast<std::size_t>(totalBins);
  info_.binSeconds = binSeconds;
  info_.binsPerChunk = static_cast<std::size_t>(binsPerChunk);
  info_.chunks = static_cast<std::size_t>(chunkCount);
  info_.version = version;
}

void TraceReader::loadChunkData(std::istream& in, std::size_t chunk,
                                DecodedChunk& out) const {
  // Timing only: a read-ahead that a seek or close drops still took the
  // time.  loadChunk() counts the chunk itself.
  static obs::Counter& readNs =
      obs::GetCounter("trace_io.read_ns", obs::MetricClass::kTiming);
  static obs::Counter& crcVerifyNs =
      obs::GetCounter("trace_io.crc_verify_ns", obs::MetricClass::kTiming);
  obs::Span span("chunk_read", "trace_io", &readNs);
  const ChunkRecord& rec = index_[chunk];
  in.clear();
  in.seekg(static_cast<std::streamoff>(rec.offset));
  std::uint64_t storedBytes = 0;
  ReadRaw(in, storedBytes, "chunk length");
  const std::uint64_t n2 = info_.nodes * info_.nodes;
  const std::uint64_t rawExpected = rec.binCount * n2 * sizeof(double);

  std::vector<double>& bins = out.bins;
  out.storedBytes = storedBytes;
  out.codec.reset();
  if (info_.version == kVersionV1) {
    // v1 frame: payload length · payload doubles · CRC of payload.
    ICTM_REQUIRE(storedBytes == rawExpected,
                 "ictmb: chunk length disagrees with the index: " + path_);
    bins.resize(static_cast<std::size_t>(rawExpected / sizeof(double)));
    in.read(reinterpret_cast<char*>(bins.data()),
            static_cast<std::streamsize>(storedBytes));
    ICTM_REQUIRE(in.good(), "ictmb: truncated chunk payload: " + path_);
    std::uint32_t storedCrc = 0;
    ReadRaw(in, storedCrc, "chunk CRC");
    std::uint32_t computedCrc = 0;
    {
      obs::Span verify("crc_verify", "trace_io", &crcVerifyNs);
      computedCrc = Crc32(bins.data(), storedBytes);
    }
    ICTM_REQUIRE(computedCrc == storedCrc,
                 "ictmb: chunk CRC mismatch (corrupt data) in chunk " +
                     std::to_string(chunk) + ": " + path_);
  } else {
    // v2 frame: stored length · codec tag · uncompressed length ·
    // payload · CRC of (codec ‖ uncompressed length ‖ payload).  The
    // length prefix is untrusted until these checks pass: it must fit
    // inside the file and inside the codec's worst-case expansion of
    // the index-declared bin count, so a forged prefix cannot trigger
    // an oversized allocation or a read past EOF.
    ICTM_REQUIRE(storedBytes <= fileSize_ - rec.offset,
                 "ictmb: chunk length prefix runs past the end of the "
                 "file: " + path_);
    ICTM_REQUIRE(storedBytes <= LzBound(static_cast<std::size_t>(rawExpected)),
                 "ictmb: chunk length exceeds the codec expansion bound: " +
                     path_);
    std::uint32_t codecTag = 0;
    std::uint64_t rawBytes = 0;
    ReadRaw(in, codecTag, "chunk codec tag");
    ReadRaw(in, rawBytes, "chunk uncompressed length");
    ICTM_REQUIRE(codecTag < kChunkCodecCount,
                 "ictmb: unknown chunk codec tag " +
                     std::to_string(codecTag) + ": " + path_);
    ICTM_REQUIRE(rawBytes == rawExpected,
                 "ictmb: chunk uncompressed length disagrees with the "
                 "index: " + path_);
    const auto codec = static_cast<ChunkCodec>(codecTag);
    // A raw payload is the bins themselves, so it is read straight
    // into the bin buffer, once its stored length is known to match.
    const bool raw = codec == ChunkCodec::kRaw;
    ICTM_REQUIRE(!raw || storedBytes == rawExpected,
                 "ictmb: raw chunk payload size disagrees with the "
                 "declared size: " + path_);
    bins.resize(static_cast<std::size_t>(rawExpected / sizeof(double)));
    std::vector<std::uint8_t> payload(
        raw ? 0 : static_cast<std::size_t>(storedBytes));
    void* stored = raw ? static_cast<void*>(bins.data())
                       : static_cast<void*>(payload.data());
    in.read(static_cast<char*>(stored),
            static_cast<std::streamsize>(storedBytes));
    ICTM_REQUIRE(in.good(), "ictmb: truncated chunk payload: " + path_);
    std::uint32_t storedCrc = 0;
    ReadRaw(in, storedCrc, "chunk CRC");
    std::uint32_t crc = 0;
    {
      obs::Span verify("crc_verify", "trace_io", &crcVerifyNs);
      crc = Crc32(&codecTag, sizeof codecTag);
      crc = Crc32(&rawBytes, sizeof rawBytes, crc);
      crc = Crc32(stored, static_cast<std::size_t>(storedBytes), crc);
    }
    ICTM_REQUIRE(crc == storedCrc,
                 "ictmb: chunk CRC mismatch (corrupt data) in chunk " +
                     std::to_string(chunk) + ": " + path_);
    out.codec = codec;
    if (!raw) {
      DecodeChunk(codec, payload.data(), payload.size(), bins.data(),
                  static_cast<std::size_t>(rec.binCount),
                  static_cast<std::size_t>(n2));
    }
  }
}

void TraceReader::loadChunk(std::size_t chunk) {
  // Deterministic: counted once per chunk next() serves, never for a
  // read-ahead that nothing reads.
  static obs::Counter& chunksRead = obs::GetCounter(
      "trace_io.chunks_read", obs::MetricClass::kDeterministic);
  static obs::Counter& bytesRead = obs::GetCounter(
      "trace_io.bytes_read", obs::MetricClass::kDeterministic);
  loadedChunk_ = SIZE_MAX;  // a failed load must not leave chunk_ served
  if (ahead_.valid() && aheadChunk_ == chunk) {
    // Decoded once, by the read-ahead; its failure surfaces here, when
    // the chunk is demanded.
    chunk_ = ahead_.get();
  } else {
    loadChunkData(in_, chunk, chunk_);
  }
  loadedChunk_ = chunk;
  chunksRead.add();
  bytesRead.add(chunk_.storedBytes);
  if (chunk_.codec) {
    CountDecodedChunk(*chunk_.codec, chunk_.storedBytes,
                      chunk_.bins.size() * sizeof(double));
  }
  if (options_.prefetch && chunk + 1 < index_.size()) {
    // Wait for and drop a stale read-ahead first: assigning the new
    // future would release the old one only after the new task
    // started, and two tasks must never share aheadIn_.
    ahead_ = {};
    aheadChunk_ = chunk + 1;
    ahead_ = std::async(std::launch::async, [this, next = aheadChunk_] {
      if (!aheadIn_.is_open()) aheadIn_.open(path_, std::ios::binary);
      ICTM_REQUIRE(aheadIn_.is_open(),
                   "cannot open file for reading: " + path_);
      DecodedChunk decoded;
      loadChunkData(aheadIn_, next, decoded);
      return decoded;
    });
  }
}

bool TraceReader::next(double* outBin) {
  if (position_ >= info_.bins) return false;
  // Chunks are K bins each except possibly the last, so the owning
  // chunk is a division away; verify against the index anyway.
  std::size_t chunk = position_ / info_.binsPerChunk;
  if (chunk >= index_.size() || position_ < index_[chunk].firstBin ||
      position_ >= index_[chunk].firstBin + index_[chunk].binCount) {
    chunk = 0;
    while (position_ >=
           index_[chunk].firstBin + index_[chunk].binCount) {
      ++chunk;
    }
  }
  if (chunk != loadedChunk_) loadChunk(chunk);
  const std::size_t n2 = info_.nodes * info_.nodes;
  const double* bin =
      chunk_.bins.data() + (position_ - index_[chunk].firstBin) * n2;
  // Only finite, non-negative volumes are served, as the CSV reader
  // requires (−0.0 passes).  The check is per bin, so every bin before
  // a bad one is still served.
  bool valid = true;
  for (std::size_t k = 0; k < n2; ++k) valid &= IsVolume(bin[k]);
  if (!valid) {
    std::size_t k = 0;
    while (IsVolume(bin[k])) ++k;
    const char* cause = std::isnan(bin[k])   ? "NaN"
                        : std::isinf(bin[k]) ? "infinite"
                                             : "negative";
    throw Error("ictmb: bin " + std::to_string(position_) + " cell " +
                std::to_string(k) + " is " + cause + ": " + path_);
  }
  std::memcpy(outBin, bin, n2 * sizeof(double));
  ++position_;
  return true;
}

void TraceReader::seek(std::size_t bin) {
  ICTM_REQUIRE(bin <= info_.bins,
               "ictmb: seek past the end of the trace: " + path_);
  position_ = bin;
}

traffic::TrafficMatrixSeries TraceReader::readAll() {
  const std::size_t remaining = info_.bins - position_;
  ICTM_REQUIRE(remaining > 0, "ictmb: no bins left to read: " + path_);
  traffic::TrafficMatrixSeries series(info_.nodes, remaining,
                                      info_.binSeconds);
  for (std::size_t t = 0; t < remaining; ++t) {
    ICTM_REQUIRE(next(series.binData(t)),
                 "ictmb: unexpected end of trace: " + path_);
  }
  return series;
}

// ---- converters ------------------------------------------------------------

void WriteTraceFile(const std::string& path,
                    const traffic::TrafficMatrixSeries& series,
                    const TraceWriterOptions& options) {
  TraceWriter writer(path, series.nodeCount(), series.binSeconds(),
                     options);
  for (std::size_t t = 0; t < series.binCount(); ++t) {
    writer.append(series.binData(t));
  }
  writer.close();
}

traffic::TrafficMatrixSeries ReadTraceFile(const std::string& path) {
  TraceReader reader(path);
  return reader.readAll();
}

void ConvertCsvToTrace(const std::string& csvPath,
                       const std::string& tracePath,
                       const TraceWriterOptions& options) {
  RequireDistinctOutput(csvPath, tracePath);
  std::ifstream in(csvPath);
  ICTM_REQUIRE(in.is_open(), "cannot open file for reading: " + csvPath);
  const traffic::CsvHeader h = traffic::ReadCsvHeader(in);
  std::vector<double> bin(h.nodes * h.nodes);
  TraceWriter writer(tracePath, h.nodes, h.binSeconds, options);
  for (std::size_t t = 0; t < h.bins; ++t) {
    traffic::ReadCsvBin(in, h, t, bin.data());
    writer.append(bin.data());
  }
  writer.close();
}

void ConvertTraceToCsv(const std::string& tracePath,
                       const std::string& csvPath) {
  RequireDistinctOutput(tracePath, csvPath);
  TraceReader reader(tracePath);
  OutputFile out(csvPath);
  const TraceInfo& info = reader.info();
  traffic::WriteCsvHeader(out.stream(),
                          {info.nodes, info.bins, info.binSeconds});
  std::vector<double> bin(info.nodes * info.nodes);
  while (reader.next(bin.data())) {
    traffic::WriteCsvBin(out.stream(), info.nodes, bin.data());
  }
  out.commit();
}

bool IsTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  return in.good() && magic == kMagic;
}

// ---- repack ----------------------------------------------------------------

RepackResult RepackTrace(const std::string& inPath,
                         const std::string& outPath,
                         const TraceWriterOptions& options) {
  RequireDistinctOutput(inPath, outPath);
  TraceReaderOptions readerOptions;
  readerOptions.prefetch = true;
  TraceReader reader(inPath, readerOptions);
  const TraceInfo info = reader.info();
  TraceWriterOptions writerOptions = options;
  if (writerOptions.binsPerChunk == 0) {
    writerOptions.binsPerChunk = info.binsPerChunk;
  }
  std::vector<double> bin(info.nodes * info.nodes);
  TraceWriter writer(outPath, info.nodes, info.binSeconds, writerOptions);
  while (reader.next(bin.data())) writer.append(bin.data());
  writer.close();

  RepackResult result;
  result.bins = info.bins;
  result.inputBytes = std::filesystem::file_size(inPath);
  result.outputBytes = std::filesystem::file_size(outPath);
  return result;
}

}  // namespace ictm::stream
