// CRC32 (IEEE 802.3 polynomial, reflected) for page and segment
// headers in the on-disk formats. Table-driven software implementation
// (slicing-by-8): deterministic across platforms, and a restore reads
// every page through it, so it is on the warm-restart path.

#ifndef CAUSUMX_STORAGE_CRC32_H_
#define CAUSUMX_STORAGE_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace causumx {

/// CRC32 of `len` bytes at `data`, continuing from `seed` (pass the
/// previous return value to checksum a payload in chunks; 0 to start).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// Convenience overload over a byte string.
inline uint32_t Crc32(const std::string& bytes, uint32_t seed = 0) {
  return Crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace causumx

#endif  // CAUSUMX_STORAGE_CRC32_H_
