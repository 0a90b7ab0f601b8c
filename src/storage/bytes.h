// Little-endian byte codec for the on-disk formats.
//
// ByteWriter appends fixed-width integers, varints, and length-prefixed
// blobs to a std::string. ByteReader is the checked inverse: every Get*
// validates the remaining length first and throws StorageError(kCorrupt)
// on truncation, so a parser built on it can never read past the end of
// a damaged file — the property fuzz_snapshot hammers on.
//
// All encodings are explicitly little-endian byte-at-a-time, so files
// are portable across hosts and independent of the compiler's layout.

#ifndef CAUSUMX_STORAGE_BYTES_H_
#define CAUSUMX_STORAGE_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "storage/storage_error.h"

namespace causumx {

/// Appends little-endian scalars / varints / length-prefixed blobs to an
/// owned byte string. The buffer is taken with `TakeBytes()`.
class ByteWriter {
 public:
  /// Single byte.
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  /// Fixed-width little-endian u32.
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }

  /// Fixed-width little-endian u64.
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }

  /// LEB128 varint (unsigned).
  void PutVarint(uint64_t v) {
    while (v >= 0x80u) {
      buf_.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }

  /// Zigzag-mapped signed varint (small magnitudes stay small).
  void PutVarintSigned(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  /// Double by IEEE-754 bit pattern — exact round trip, including NaN
  /// payloads, so restored caches stay bit-identical.
  void PutDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// Varint length prefix + raw bytes.
  void PutString(const std::string& s) {
    PutVarint(s.size());
    buf_.append(s);
  }

  /// Raw bytes, no prefix (caller owns framing).
  void PutRaw(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  /// Bytes written so far.
  size_t size() const { return buf_.size(); }

  /// Moves the accumulated buffer out; the writer is empty afterwards.
  std::string TakeBytes() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Checked reader over a borrowed byte span. Throws
/// StorageError(kCorrupt) whenever a read would run past the end.
class ByteReader {
 public:
  /// Reads the `len` bytes at `data`, which must outlive the reader.
  ByteReader(const void* data, size_t len)
      : p_(static_cast<const unsigned char*>(data)), end_(p_ + len) {}
  explicit ByteReader(const std::string& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  /// Single byte.
  uint8_t GetU8() {
    Need(1, "u8");
    return *p_++;
  }

  /// Fixed-width little-endian u32.
  uint32_t GetU32() {
    Need(4, "u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }

  /// Fixed-width little-endian u64.
  uint64_t GetU64() {
    Need(8, "u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }

  /// LEB128 varint; rejects encodings longer than 10 bytes.
  uint64_t GetVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      Need(1, "varint");
      unsigned char b = *p_++;
      v |= static_cast<uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
    }
    throw StorageError(StorageErrorKind::kCorrupt,
                       "storage: varint longer than 10 bytes");
  }

  /// Inverse of ByteWriter::PutVarintSigned.
  int64_t GetVarintSigned() {
    uint64_t z = GetVarint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  /// Inverse of ByteWriter::PutDouble (bit-exact).
  double GetDouble() {
    uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Varint length prefix + raw bytes.
  std::string GetString() {
    uint64_t n = GetVarint();
    Need(n, "string body");
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

  /// Returns a borrowed pointer to `len` raw bytes and advances.
  const unsigned char* GetRaw(size_t len, const char* what = "raw bytes") {
    Need(len, what);
    const unsigned char* r = p_;
    p_ += len;
    return r;
  }

  /// Bytes left unread.
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  /// True when every byte has been consumed.
  bool AtEnd() const { return p_ == end_; }

 private:
  void Need(uint64_t n, const char* what) const {
    if (n > remaining()) {
      throw StorageError(StorageErrorKind::kCorrupt,
                         std::string("storage: truncated input reading ") +
                             what);
    }
  }

  const unsigned char* p_;
  const unsigned char* end_;
};

}  // namespace causumx

#endif  // CAUSUMX_STORAGE_BYTES_H_
