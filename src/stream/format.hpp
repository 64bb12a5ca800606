// `ictmb` — the chunked binary trace container for TM series.
//
// The batch pipelines parse O(n²·T) CSV text before the first estimate
// can run; this format streams bins at memcpy speed with bounded
// memory and supports random access.  Layout (native little-endian
// byte order, validated by a sentinel; normative spec in
// docs/FORMATS.md):
//
//   header   magic "ICTMB1\r\n" · byte-order sentinel · version ·
//            nodes · binSeconds · binsPerChunk
//   chunks   repeated frames.  v2: u64 stored-payload length prefix ·
//            u32 codec tag · u64 uncompressed length · payload ·
//            u32 CRC-32 of (codec tag ‖ uncompressed length ‖
//            payload).  v1 frames (still readable) have no codec tag
//            or uncompressed length and the CRC covers the payload
//            alone.
//   index    frame with the length prefix set to the index marker:
//            chunk count · per-chunk {file offset, bin count} ·
//            total bins · u32 CRC-32 of the index
//   footer   u64 index offset · end magic "ICTMBEOF"
//
// The trailing index makes the file self-describing (total bin count
// without scanning) and gives TraceReader::seek O(1) random access —
// every chunk decodes independently of its neighbours, whatever its
// codec.  The per-chunk CRC turns truncation and bit rot into loud
// errors instead of corrupt estimates, and the reader refuses a bin
// holding a NaN, infinite or negative cell, as the CSV reader does.
// The \r\n in the magic catches text-mode transfer damage, as in PNG.
//
// Writers always emit version 2.  Each chunk records the codec its
// payload was actually stored with: a chunk whose compressed form
// would not be smaller than raw falls back to `raw` per chunk, so a
// codec can never inflate a file beyond the per-frame header cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/output_file.hpp"
#include "stream/codec.hpp"
#include "traffic/tm_series.hpp"

/// Streaming subsystem: chunked binary trace I/O, the online
/// estimator and the bounded in-order worker pool they share.
namespace ictm::stream {

template <typename Job, typename Result>
class OrderedPool;

/// Metadata of an open trace (header + trailing index).
struct TraceInfo {
  std::size_t nodes = 0;         ///< matrix dimension n
  std::size_t bins = 0;          ///< total bins (from the index)
  double binSeconds = 0.0;       ///< bin duration metadata
  std::size_t binsPerChunk = 0;  ///< frame granularity K
  std::size_t chunks = 0;        ///< number of chunk frames
  std::uint32_t version = 0;     ///< container version (1 or 2)
};

/// CRC-32 (polynomial 0xEDB88320, the zlib/PNG one) of a byte range;
/// chain calls by passing the previous result as `seed`.
std::uint32_t Crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0);

/// TraceWriter knobs.
struct TraceWriterOptions {
  std::size_t binsPerChunk = 64;              ///< frame granularity K
  ChunkCodec codec = ChunkCodec::kRaw;        ///< requested chunk codec
  /// Compression worker threads.  0 encodes and writes inline on the
  /// appending thread; N > 0 runs N encoders on an OrderedPool whose
  /// in-order emit lands frames in seal order, so the file bytes are
  /// identical for every pool size.  Memory stays bounded: append()
  /// blocks while 2N sealed chunks wait, and at most 3N encoded
  /// chunks are parked out of order.  Ignored for the raw codec: a
  /// raw chunk has nothing to encode, so its frame is always written
  /// inline, straight from the chunk buffer.
  std::size_t compressThreads = 0;
};

/// Appends bins to an `ictmb` v2 file without materialising the
/// series: bins are buffered into frames of `binsPerChunk`, encoded
/// with the configured codec (falling back to raw per chunk when
/// compression would not shrink it) and flushed with a self-describing
/// frame header and CRC.  A frame stored raw is written straight from
/// the chunk's bins.  close() writes the chunk index and footer
/// and commits the file: any write failure — including one detected
/// on a compression worker — surfaces there (or from an earlier
/// append()) as ictm::Error.  A writer destroyed without a successful
/// close() leaves no file behind (common/output_file.hpp), so a
/// failed run never leaves a sealed partial trace.
class TraceWriter {
 public:
  /// Opens `path` for writing and emits the header.
  TraceWriter(const std::string& path, std::size_t nodes,
              double binSeconds, const TraceWriterOptions& options = {});
  /// Joins the encoders; the file is removed unless close() succeeded.
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;             ///< non-copyable
  TraceWriter& operator=(const TraceWriter&) = delete;  ///< non-copyable

  /// Appends one bin (n² doubles in FlattenTm order).  The bin that
  /// seals a chunk rethrows a pending worker-pool failure instead of
  /// queueing more data.
  void append(const double* bin);

  /// Flushes the current chunk, drains the worker pool and writes the
  /// index + footer; the writer cannot append afterwards.  Throws
  /// ictm::Error on any IO failure, including short writes and full
  /// disks detected at the final flush, and then leaves no file.
  void close();

  /// Bins appended so far.
  std::size_t binsWritten() const noexcept { return binsWritten_; }

 private:
  /// One encoded chunk ready to land on disk.  A chunk stored raw has
  /// no payload: its bins are the stored bytes.
  struct EncodedChunk {
    ChunkCodec codec = ChunkCodec::kRaw;  // codec actually stored
    std::uint64_t binCount = 0;
    std::vector<std::uint8_t> payload;  // empty when stored raw
    std::vector<double> bins;  // a pool's chunk stored raw keeps them here
  };
  using EncodePool = OrderedPool<std::vector<double>, EncodedChunk>;

  void flushChunk();
  /// Writes `chunk`'s frame; `bins` are the chunk's bins, the stored
  /// bytes of a frame stored raw.
  void writeFrame(const EncodedChunk& chunk, const double* bins);
  EncodedChunk encodeChunk(const double* bins, std::size_t binCount) const;

  OutputFile file_;
  std::ostream& out_ = file_.stream();
  std::size_t nodes_ = 0;
  TraceWriterOptions options_;
  std::size_t binsWritten_ = 0;
  std::vector<double> buffer_;  // partial chunk, <= binsPerChunk bins
  struct ChunkRecord {
    std::uint64_t offset = 0;
    std::uint64_t binCount = 0;
  };
  std::vector<ChunkRecord> index_;
  bool closed_ = false;
  // Encoders when options_.compressThreads > 0 and the codec compresses;
  // its emit writes frames.
  // Last member, so it is joined before the state it writes goes.
  std::unique_ptr<EncodePool> pool_;
};

/// TraceReader knobs.
struct TraceReaderOptions {
  /// Once a chunk loads, read and decode the next one ahead on a
  /// std::async task with its own file handle, overlapping IO +
  /// decompression with the caller's consumption.  Decoded bins are
  /// bit-identical to the serial path; a read-ahead failure is
  /// rethrown only when the failing chunk is actually requested (and
  /// discarded if a seek skips it).  A chunk is decoded at most once
  /// per demand, and the deterministic read counters count it when
  /// next() first serves a bin from it, so read-aheads a seek or close
  /// drops never count.
  bool prefetch = false;
};

/// Streams bins out of an `ictmb` file (version 1 or 2).
/// Construction validates the header, footer and index; each chunk's
/// CRC is checked and its payload decoded when the chunk is first
/// read, so truncated or corrupted files fail loudly.
class TraceReader {
 public:
  /// Opens `path` and loads the trailing index.
  explicit TraceReader(const std::string& path,
                       const TraceReaderOptions& options = {});

  TraceReader(const TraceReader&) = delete;             ///< non-copyable
  TraceReader& operator=(const TraceReader&) = delete;  ///< non-copyable

  /// The trace metadata.
  const TraceInfo& info() const noexcept { return info_; }

  /// Reads the next bin into `outBin` (n² doubles); returns false when
  /// all bins have been read.  Throws ictm::Error "ictmb: bin <b> cell
  /// <k> is NaN|infinite|negative" for a bin holding such a cell,
  /// without serving it (the bins before it were served).
  bool next(double* outBin);

  /// Repositions so the following next() returns bin `bin` — O(1) via
  /// the chunk index.
  void seek(std::size_t bin);

  /// Bin index the following next() call will return.
  std::size_t position() const noexcept { return position_; }

  /// Reads every remaining bin from the current position into a series
  /// (convenience for batch interop; the series holds bins
  /// [position, bins)).
  traffic::TrafficMatrixSeries readAll();

 private:
  /// One decoded chunk plus what the read counters record for it.
  struct DecodedChunk {
    std::vector<double> bins;
    std::uint64_t storedBytes = 0;    // payload bytes on disk
    std::optional<ChunkCodec> codec;  // v2 frames only
  };

  void loadChunk(std::size_t chunk);
  /// Reads + CRC-checks + decodes chunk `chunk` from `in` into `out`.
  /// Shared by the synchronous path and the read-ahead task (which
  /// passes its own stream), so both decode identically.
  void loadChunkData(std::istream& in, std::size_t chunk,
                     DecodedChunk& out) const;

  std::ifstream in_;
  std::string path_;
  TraceInfo info_;
  std::uint64_t fileSize_ = 0;
  TraceReaderOptions options_;
  struct ChunkRecord {
    std::uint64_t offset = 0;
    std::uint64_t binCount = 0;
    std::uint64_t firstBin = 0;
  };
  std::vector<ChunkRecord> index_;
  DecodedChunk chunk_;                   // decoded loadedChunk_
  std::size_t loadedChunk_ = SIZE_MAX;   // index into index_, or none
  std::size_t position_ = 0;             // next bin to serve

  // Read-ahead (options_.prefetch): at most one task at a time decodes
  // chunk aheadChunk_ from aheadIn_, a stream only that task touches.
  // ahead_ is declared last, so destruction waits for an in-flight
  // decode before the state it reads goes.
  std::ifstream aheadIn_;
  std::size_t aheadChunk_ = SIZE_MAX;
  std::future<DecodedChunk> ahead_;
};

/// Writes a whole series as one `ictmb` file.
void WriteTraceFile(const std::string& path,
                    const traffic::TrafficMatrixSeries& series,
                    const TraceWriterOptions& options = {});

/// Reads a whole `ictmb` file into a series.
traffic::TrafficMatrixSeries ReadTraceFile(const std::string& path);

/// Converts a TM CSV into an `ictmb` trace one bin at a time (bounded
/// memory: one bin plus one chunk buffer).  Refuses a `tracePath`
/// that names the input.
void ConvertCsvToTrace(const std::string& csvPath,
                       const std::string& tracePath,
                       const TraceWriterOptions& options = {});

/// Converts an `ictmb` trace back into the TM CSV format, streaming
/// one bin at a time.  Refuses a `csvPath` that names the input.
void ConvertTraceToCsv(const std::string& tracePath,
                       const std::string& csvPath);

/// True when the file starts with the `ictmb` magic (format sniffing
/// for CLI inputs that may be CSV or binary).
bool IsTraceFile(const std::string& path);

/// Statistics of one RepackTrace run.
struct RepackResult {
  std::uint64_t bins = 0;         ///< bins copied
  std::uint64_t inputBytes = 0;   ///< input file size
  std::uint64_t outputBytes = 0;  ///< output file size
};

/// Rewrites the trace at `inPath` (version 1 or 2, any codec) to
/// `outPath` as version 2 with `options` — bounded memory, one chunk
/// at a time, prefetching the input.  `options.binsPerChunk == 0`
/// keeps the input's chunking.  Bin payloads are preserved
/// bit-exactly; repacking with identical options is idempotent
/// (byte-identical output).  Refuses an `outPath` that names the
/// input, however it is spelled.
RepackResult RepackTrace(const std::string& inPath,
                         const std::string& outPath,
                         const TraceWriterOptions& options);

}  // namespace ictm::stream
