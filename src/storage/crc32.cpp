#include "storage/crc32.h"

#include <array>

namespace causumx {
namespace {

// Reflected CRC32 (polynomial 0xEDB88320), the same parameterization as
// zlib's crc32() so checked-in corpus files can be cross-verified with
// standard tools. Slicing-by-8: table k maps a byte to its CRC after k
// further zero bytes, so eight input bytes fold in with eight lookups
// and no serial per-byte dependency.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

const Tables& GetTables() {
  static const Tables kTables = BuildTables();
  return kTables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const Tables& t = GetTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    // Little-endian assembly, independent of the host's byte order.
    const uint32_t lo = (static_cast<uint32_t>(p[0]) |
                         static_cast<uint32_t>(p[1]) << 8 |
                         static_cast<uint32_t>(p[2]) << 16 |
                         static_cast<uint32_t>(p[3]) << 24) ^ c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace causumx
