#include "stream/codec.hpp"

#include <array>
#include <cstring>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ictm::stream {

namespace {

// LZ token geometry (docs/FORMATS.md "codec semantics"): a sequence is
// one token byte — literal length in the high nibble, match length
// minus kMinMatch in the low nibble, 15 meaning "extended by 255-run
// bytes" — followed by the literals, a 2-byte little-endian match
// offset and any match-length extension bytes.  A stream always ends
// with a literals-only sequence (possibly empty), which carries no
// offset; the decoder recognises it by input exhaustion.
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 15;

// Per-codec compression statistics, cached per the registry's static
// reference idiom.  All eight counters of a codec live in one struct
// so the call sites stay one lookup.
struct CodecMetrics {
  obs::Counter& compressChunks;
  obs::Counter& compressBytesIn;
  obs::Counter& compressBytesOut;
  obs::Counter& compressNs;
  obs::Counter& decompressChunks;
  obs::Counter& decompressBytesIn;
  obs::Counter& decompressBytesOut;
  obs::Counter& decompressNs;
};

CodecMetrics MakeCodecMetrics(const char* name) {
  const std::string prefix = std::string("trace_codec.") + name + ".";
  const auto counter = [&prefix](const char* leaf, obs::MetricClass cls)
      -> obs::Counter& {
    return obs::GetCounter((prefix + leaf).c_str(), cls);
  };
  return CodecMetrics{
      counter("compress_chunks", obs::MetricClass::kDeterministic),
      counter("compress_bytes_in", obs::MetricClass::kDeterministic),
      counter("compress_bytes_out", obs::MetricClass::kDeterministic),
      counter("compress_ns", obs::MetricClass::kTiming),
      counter("decompress_chunks", obs::MetricClass::kDeterministic),
      counter("decompress_bytes_in", obs::MetricClass::kDeterministic),
      counter("decompress_bytes_out", obs::MetricClass::kDeterministic),
      counter("decompress_ns", obs::MetricClass::kTiming),
  };
}

const CodecMetrics& MetricsFor(ChunkCodec codec) {
  static const std::array<CodecMetrics, kChunkCodecCount> metrics = {
      MakeCodecMetrics("raw"),
      MakeCodecMetrics("shuffle-lz"),
      MakeCodecMetrics("delta"),
  };
  return metrics[static_cast<std::size_t>(codec)];
}

// The codecs EncodeChunk and DecodeChunk implement.  A raw chunk's
// payload is its bins, which TraceWriter and TraceReader move as they
// are.
bool IsCompressed(ChunkCodec codec) {
  return codec == ChunkCodec::kShuffleLz || codec == ChunkCodec::kDelta;
}

// Appends the 255-run extension bytes for a nibble that saturated at
// 15: each 255 byte adds 255, the first byte below 255 terminates.
void EmitLengthExtension(std::vector<std::uint8_t>& out, std::size_t value) {
  while (value >= 255) {
    out.push_back(255);
    value -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

// Reads the extension bytes of a saturated nibble.  `ip` advances past
// the run; truncation raises.
std::size_t ReadLengthExtension(const std::uint8_t* in, std::size_t inSize,
                                std::size_t& ip, std::size_t base) {
  std::size_t len = base;
  while (true) {
    ICTM_REQUIRE(ip < inSize, "ictmb/lz: truncated length extension");
    const std::uint8_t b = in[ip++];
    len += b;
    if (b != 255) return len;
  }
}

// One sequence: literals [lit, lit+litLen) then, when matchLen > 0, a
// back-reference of matchLen bytes at `offset`.  matchLen == 0 emits
// the stream-final literals-only sequence.
void EmitSequence(std::vector<std::uint8_t>& out, const std::uint8_t* lit,
                  std::size_t litLen, std::size_t matchLen,
                  std::size_t offset) {
  const std::size_t litNibble = litLen < 15 ? litLen : 15;
  std::size_t matchNibble = 0;
  if (matchLen > 0) {
    const std::size_t code = matchLen - kMinMatch;
    matchNibble = code < 15 ? code : 15;
  }
  out.push_back(static_cast<std::uint8_t>((litNibble << 4) | matchNibble));
  if (litNibble == 15) EmitLengthExtension(out, litLen - 15);
  out.insert(out.end(), lit, lit + litLen);
  if (matchLen > 0) {
    out.push_back(static_cast<std::uint8_t>(offset & 0xFFu));
    out.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (matchNibble == 15) {
      EmitLengthExtension(out, matchLen - kMinMatch - 15);
    }
  }
}

// Gathers byte k of every 8-byte element into plane k.
void ShufflePlanes(const std::uint8_t* src, std::size_t count,
                   std::uint8_t* dst) {
  for (std::size_t k = 0; k < sizeof(double); ++k) {
    for (std::size_t i = 0; i < count; ++i) {
      dst[k * count + i] = src[i * sizeof(double) + k];
    }
  }
}

void UnshufflePlanes(const std::uint8_t* src, std::size_t count,
                     std::uint8_t* dst) {
  for (std::size_t k = 0; k < sizeof(double); ++k) {
    for (std::size_t i = 0; i < count; ++i) {
      dst[i * sizeof(double) + k] = src[k * count + i];
    }
  }
}

// XOR-deltas every bin against its predecessor (first bin kept
// verbatim so the chunk stays self-contained for O(1) seek), then
// byte-shuffles the residue.
std::vector<std::uint8_t> DeltaShuffle(const double* bins,
                                       std::size_t binCount,
                                       std::size_t valuesPerBin) {
  const std::size_t count = binCount * valuesPerBin;
  std::vector<std::uint64_t> words(count);
  std::memcpy(words.data(), bins, count * sizeof(double));
  for (std::size_t b = binCount; b-- > 1;) {
    std::uint64_t* cur = words.data() + b * valuesPerBin;
    const std::uint64_t* prev = cur - valuesPerBin;
    for (std::size_t v = 0; v < valuesPerBin; ++v) cur[v] ^= prev[v];
  }
  std::vector<std::uint8_t> shuffled(count * sizeof(double));
  ShufflePlanes(reinterpret_cast<const std::uint8_t*>(words.data()), count,
                shuffled.data());
  return shuffled;
}

}  // namespace

const char* ChunkCodecName(ChunkCodec codec) {
  switch (codec) {
    case ChunkCodec::kRaw:
      return "raw";
    case ChunkCodec::kShuffleLz:
      return "shuffle-lz";
    case ChunkCodec::kDelta:
      return "delta";
  }
  return "unknown";
}

bool ParseChunkCodec(const std::string& name, ChunkCodec* out) {
  for (std::size_t i = 0; i < kChunkCodecCount; ++i) {
    const auto codec = static_cast<ChunkCodec>(i);
    if (name == ChunkCodecName(codec)) {
      *out = codec;
      return true;
    }
  }
  return false;
}

void ByteShuffle(const double* src, std::size_t count, std::uint8_t* dst) {
  ShufflePlanes(reinterpret_cast<const std::uint8_t*>(src), count, dst);
}

void ByteUnshuffle(const std::uint8_t* src, std::size_t count, double* dst) {
  UnshufflePlanes(src, count, reinterpret_cast<std::uint8_t*>(dst));
}

std::size_t LzBound(std::size_t size) {
  // All-literals worst case: one extension byte per 255 input bytes
  // plus the token and terminator overhead.
  return size + size / 255 + 16;
}

std::vector<std::uint8_t> LzCompress(const std::uint8_t* data,
                                     std::size_t size) {
  // Positions are tracked in 32 bits in the hash table (pos + 1, so 0
  // can mean "empty"); chunk payloads are far below this bound.
  ICTM_REQUIRE(size < 0xFFFFFFFFu, "ictmb/lz: input too large");
  std::vector<std::uint8_t> out;
  out.reserve(size / 4 + 16);
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0);
  std::size_t anchor = 0;
  if (size >= kMinMatch) {
    const std::size_t limit = size - kMinMatch;
    std::size_t pos = 0;
    while (pos <= limit) {
      std::uint32_t v = 0;
      std::memcpy(&v, data + pos, 4);
      const std::uint32_t h = (v * 2654435761u) >> (32u - kHashBits);
      const std::uint32_t candPlus1 = table[h];
      table[h] = static_cast<std::uint32_t>(pos) + 1;
      if (candPlus1 != 0) {
        const std::size_t cand = candPlus1 - 1;
        std::uint32_t cv = 0;
        std::memcpy(&cv, data + cand, 4);
        if (cv == v && pos - cand <= kMaxOffset) {
          std::size_t len = kMinMatch;
          while (pos + len < size && data[cand + len] == data[pos + len]) {
            ++len;
          }
          EmitSequence(out, data + anchor, pos - anchor, len, pos - cand);
          pos += len;
          anchor = pos;
          continue;
        }
      }
      ++pos;
    }
  }
  EmitSequence(out, data + anchor, size - anchor, 0, 0);
  return out;
}

void LzDecompress(const std::uint8_t* data, std::size_t size,
                  std::uint8_t* out, std::size_t outSize) {
  std::size_t ip = 0;
  std::size_t op = 0;
  while (true) {
    ICTM_REQUIRE(ip < size, "ictmb/lz: truncated stream (missing token)");
    const std::uint8_t token = data[ip++];
    std::size_t litLen = static_cast<std::size_t>(token) >> 4;
    if (litLen == 15) litLen = ReadLengthExtension(data, size, ip, 15);
    ICTM_REQUIRE(litLen <= size - ip, "ictmb/lz: truncated literal run");
    ICTM_REQUIRE(litLen <= outSize - op,
                 "ictmb/lz: literal run overflows the declared size");
    std::memcpy(out + op, data + ip, litLen);
    ip += litLen;
    op += litLen;
    if (ip == size) break;  // stream-final literals-only sequence
    ICTM_REQUIRE(size - ip >= 2, "ictmb/lz: truncated match offset");
    const std::size_t offset = static_cast<std::size_t>(data[ip]) |
                               (static_cast<std::size_t>(data[ip + 1]) << 8);
    ip += 2;
    ICTM_REQUIRE(offset != 0, "ictmb/lz: zero match offset");
    ICTM_REQUIRE(offset <= op,
                 "ictmb/lz: match offset reaches before the output start");
    std::size_t matchLen = static_cast<std::size_t>(token) & 0x0Fu;
    if (matchLen == 15) matchLen = ReadLengthExtension(data, size, ip, 15);
    matchLen += kMinMatch;
    ICTM_REQUIRE(matchLen <= outSize - op,
                 "ictmb/lz: match overflows the declared size");
    // Byte-wise copy: offsets smaller than the match length replicate
    // the window (RLE-style), so memmove would be wrong here.
    const std::uint8_t* src = out + (op - offset);
    for (std::size_t i = 0; i < matchLen; ++i) out[op + i] = src[i];
    op += matchLen;
  }
  ICTM_REQUIRE(op == outSize,
               "ictmb/lz: decoded size disagrees with the declared size");
}

std::vector<std::uint8_t> EncodeChunk(ChunkCodec codec, const double* bins,
                                      std::size_t binCount,
                                      std::size_t valuesPerBin) {
  ICTM_REQUIRE(binCount > 0 && valuesPerBin > 0,
               "ictmb: cannot encode an empty chunk");
  ICTM_REQUIRE(IsCompressed(codec), "ictmb: not a compressing chunk codec");
  const CodecMetrics& m = MetricsFor(codec);
  const std::size_t count = binCount * valuesPerBin;
  const std::size_t rawBytes = count * sizeof(double);
  std::vector<std::uint8_t> payload;
  {
    obs::Span span("chunk_encode", "trace_codec", &m.compressNs);
    if (codec == ChunkCodec::kShuffleLz) {
      std::vector<std::uint8_t> shuffled(rawBytes);
      ByteShuffle(bins, count, shuffled.data());
      payload = LzCompress(shuffled.data(), shuffled.size());
    } else {
      const std::vector<std::uint8_t> shuffled =
          DeltaShuffle(bins, binCount, valuesPerBin);
      payload = LzCompress(shuffled.data(), shuffled.size());
    }
  }
  CountEncodedChunk(codec, rawBytes, payload.size());
  return payload;
}

void DecodeChunk(ChunkCodec codec, const std::uint8_t* payload,
                 std::size_t payloadSize, double* out, std::size_t binCount,
                 std::size_t valuesPerBin) {
  ICTM_REQUIRE(binCount > 0 && valuesPerBin > 0,
               "ictmb: cannot decode an empty chunk");
  ICTM_REQUIRE(IsCompressed(codec),
               "ictmb: no compressing chunk codec has tag " +
                   std::to_string(static_cast<std::uint32_t>(codec)));
  const std::size_t count = binCount * valuesPerBin;
  const std::size_t rawBytes = count * sizeof(double);
  obs::Span span("chunk_decode", "trace_codec",
                 &MetricsFor(codec).decompressNs);
  std::vector<std::uint8_t> shuffled(rawBytes);
  LzDecompress(payload, payloadSize, shuffled.data(), rawBytes);
  if (codec == ChunkCodec::kShuffleLz) {
    ByteUnshuffle(shuffled.data(), count, out);
  } else {
    std::vector<std::uint64_t> words(count);
    UnshufflePlanes(shuffled.data(), count,
                    reinterpret_cast<std::uint8_t*>(words.data()));
    for (std::size_t b = 1; b < binCount; ++b) {
      std::uint64_t* cur = words.data() + b * valuesPerBin;
      const std::uint64_t* prev = cur - valuesPerBin;
      for (std::size_t v = 0; v < valuesPerBin; ++v) cur[v] ^= prev[v];
    }
    std::memcpy(out, words.data(), rawBytes);
  }
}

void CountEncodedChunk(ChunkCodec codec, std::size_t rawBytes,
                       std::size_t payloadSize) {
  const CodecMetrics& m = MetricsFor(codec);
  m.compressChunks.add();
  m.compressBytesIn.add(rawBytes);
  m.compressBytesOut.add(payloadSize);
}

void CountDecodedChunk(ChunkCodec codec, std::size_t payloadSize,
                       std::size_t rawBytes) {
  const CodecMetrics& m = MetricsFor(codec);
  m.decompressChunks.add();
  m.decompressBytesIn.add(payloadSize);
  m.decompressBytesOut.add(rawBytes);
}

}  // namespace ictm::stream
