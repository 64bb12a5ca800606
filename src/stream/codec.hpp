// Chunk codecs for the `ictmb` v2 trace container.
//
// A v2 chunk frame is self-describing: it names the codec its payload
// was stored with, so every chunk of a file can pick the encoding that
// fits its data (the DataSeries per-extent multi-codec design).  Three
// codecs exist:
//
//   raw         the doubles verbatim — the v1 payload, zero cost.
//               It has no encoder: TraceWriter writes a raw chunk's
//               bins as they are and TraceReader reads them in place.
//   shuffle-lz  byte-shuffle (the k-th byte of every double is
//               gathered into plane k) followed by a self-contained
//               LZ77 pass.  Doubles drawn from a common scale share
//               sign/exponent bytes, so the shuffled planes are long
//               runs the LZ stage collapses.
//   delta       every bin is XOR-ed against the previous bin of the
//               chunk before the shuffle+LZ pass.  Adjacent bins of
//               diurnal traffic are close (the paper's
//               cyclostationarity argument), so the XOR residue is
//               mostly zero bytes — the strongest codec on real
//               traces.
//
// All three are bit-lossless (pure byte permutations, XOR and LZ) and
// deterministic: the same input always encodes to the same bytes, on
// any thread, which is what keeps compressed traces byte-reproducible.
// Decoders treat their input as untrusted — every read and copy is
// bounds-checked and malformed streams raise ictm::Error, never UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ictm::stream {

/// Per-chunk payload encoding of the `ictmb` v2 container.  The
/// numeric values are the on-disk codec tags (docs/FORMATS.md).
enum class ChunkCodec : std::uint32_t {
  kRaw = 0,        ///< doubles verbatim
  kShuffleLz = 1,  ///< byte-shuffle + self-contained LZ
  kDelta = 2,      ///< previous-bin XOR delta + byte-shuffle + LZ
};

/// Number of defined codecs (valid tags are 0 .. kChunkCodecCount-1).
inline constexpr std::size_t kChunkCodecCount = 3;

/// The codec's CLI/metrics name: "raw", "shuffle-lz" or "delta".
const char* ChunkCodecName(ChunkCodec codec);

/// Parses a codec name as spelled by ChunkCodecName; returns false on
/// an unknown name.
bool ParseChunkCodec(const std::string& name, ChunkCodec* out);

/// Encodes one chunk of `binCount` bins x `valuesPerBin` doubles with
/// the compressing `codec` (shuffle-lz or delta; raw is refused) and
/// returns the payload bytes, counting it with CountEncodedChunk.
/// Deterministic: equal input yields equal bytes.
std::vector<std::uint8_t> EncodeChunk(ChunkCodec codec, const double* bins,
                                      std::size_t binCount,
                                      std::size_t valuesPerBin);

/// Decodes a chunk payload produced by EncodeChunk back into exactly
/// `binCount * valuesPerBin` doubles at `out`.  The payload is treated
/// as untrusted input: a codec other than shuffle-lz or delta,
/// truncation, trailing garbage, out-of-window matches and a decoded
/// size that disagrees with the declared one all raise ictm::Error.
/// Records only the timing-class decompress_ns; the caller counts the
/// chunk with CountDecodedChunk.
void DecodeChunk(ChunkCodec codec, const std::uint8_t* payload,
                 std::size_t payloadSize, double* out, std::size_t binCount,
                 std::size_t valuesPerBin);

/// Adds one chunk to the deterministic
/// `trace_codec.<codec>.compress_{chunks,bytes_in,bytes_out}` counters.
/// TraceWriter calls it for a chunk it stores raw.
void CountEncodedChunk(ChunkCodec codec, std::size_t rawBytes,
                       std::size_t payloadSize);

/// Adds one chunk to the deterministic
/// `trace_codec.<codec>.decompress_{chunks,bytes_in,bytes_out}`
/// counters.  TraceReader calls it when it first serves a bin of the
/// chunk, so a prefetch that nothing reads is never counted.
void CountDecodedChunk(ChunkCodec codec, std::size_t payloadSize,
                       std::size_t rawBytes);

/// Byte-shuffle `count` doubles: byte k of every double lands in plane
/// k of `dst` (dst[k*count + i] = byte k of src[i]).  `dst` must hold
/// count * 8 bytes.
void ByteShuffle(const double* src, std::size_t count, std::uint8_t* dst);

/// Inverse of ByteShuffle.
void ByteUnshuffle(const std::uint8_t* src, std::size_t count, double* dst);

/// Compresses `size` bytes with the self-contained LZ77 coder used by
/// the shuffle-lz and delta codecs (token format in docs/FORMATS.md).
/// The output never exceeds LzBound(size).
std::vector<std::uint8_t> LzCompress(const std::uint8_t* data,
                                     std::size_t size);

/// Worst-case LzCompress output size for `size` input bytes.
std::size_t LzBound(std::size_t size);

/// Decompresses an LzCompress stream into exactly `outSize` bytes at
/// `out`.  Malformed input — truncated tokens, zero or out-of-range
/// match offsets, or a stream that decodes to any size other than
/// `outSize` — raises ictm::Error.  Never reads or writes out of
/// bounds.
void LzDecompress(const std::uint8_t* data, std::size_t size,
                  std::uint8_t* out, std::size_t outSize);

}  // namespace ictm::stream
