// Native-endian byte codec shared by the wire payloads (protocol.cpp)
// and the ICKS checkpoint body (checkpoint.cpp).  Internal to
// src/server/: the formats themselves are specified in
// docs/FORMATS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ictm::server::detail {

// Byte-at-a-time on purpose: GCC 12's -Wstringop-overflow misfires on
// vector::insert/memcpy of small scalar ranges inlined into the
// encode() bodies, and -Werror would turn that false positive fatal.
inline void PutBytes(std::vector<std::uint8_t>& out, const void* data,
                     std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) out.push_back(p[i]);
}

inline void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

inline void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  PutBytes(out, &v, sizeof(v));
}

inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  PutBytes(out, &v, sizeof(v));
}

inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  PutBytes(out, &v, sizeof(v));
}

inline void PutF64(std::vector<std::uint8_t>& out, double v) {
  PutBytes(out, &v, sizeof(v));
}

/// Sequential reader over a byte buffer; every get* fails sticky once
/// the buffer runs short, so decoders can chain reads and check ok()
/// or atEnd() once at the end.
class ByteCursor {
 public:
  explicit ByteCursor(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  bool atEnd() const noexcept { return ok_ && at_ == bytes_.size(); }

  std::uint8_t getU8() { return getScalar<std::uint8_t>(); }
  std::uint16_t getU16() { return getScalar<std::uint16_t>(); }
  std::uint32_t getU32() { return getScalar<std::uint32_t>(); }
  std::uint64_t getU64() { return getScalar<std::uint64_t>(); }
  double getF64() { return getScalar<double>(); }

  /// The next `len` bytes as a string.
  std::string getString(std::uint64_t len) {
    if (!take(len)) return {};
    return std::string(
        reinterpret_cast<const char*>(bytes_.data() + at_ - len),
        static_cast<std::size_t>(len));
  }

  /// True when `count` more doubles remain (bounds an allocation
  /// before getDoubles).
  bool holdsDoubles(std::uint64_t count) const noexcept {
    return ok_ && count <= (bytes_.size() - at_) / sizeof(double);
  }

  /// Copies the next `count` doubles into `out`; false (nothing
  /// written) when fewer remain.
  bool getDoubles(double* out, std::uint64_t count) {
    if (!holdsDoubles(count)) {
      ok_ = false;
      return false;
    }
    const std::size_t len = static_cast<std::size_t>(count) * sizeof(double);
    if (len > 0) std::memcpy(out, bytes_.data() + at_, len);
    at_ += len;
    return true;
  }

 private:
  template <typename T>
  T getScalar() {
    T v{};
    if (take(sizeof(T))) {
      std::memcpy(&v, bytes_.data() + at_ - sizeof(T), sizeof(T));
    }
    return v;
  }

  bool take(std::uint64_t len) {
    if (!ok_ || bytes_.size() - at_ < len) {
      ok_ = false;
      return false;
    }
    at_ += static_cast<std::size_t>(len);
    return true;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

}  // namespace ictm::server::detail
