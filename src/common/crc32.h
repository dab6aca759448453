// Software CRC-32 (ISO-HDLC polynomial 0xEDB88320, the zlib/PNG variant),
// slicing-by-8: eight table lookups per 8-byte word.  Used by the service
// write-ahead log to detect torn and corrupted records (docs/DURABILITY.md).
// The CRC runs in the commit hook, inside OTB's commit window (semantic
// locks held), over a whole batch's record — ~3 KB at 32 eight-step
// scripts — so bytewise lookups there cost a few microseconds per commit.
// The output is the bytewise algorithm's, bit for bit: the log format does
// not depend on how it is computed.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace otb {

namespace detail {
/// kCrc32Tables[0] is the bytewise table; kCrc32Tables[k][b] is the CRC
/// register after byte b followed by k zero bytes.
inline constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}
inline constexpr auto kCrc32Tables = make_crc32_tables();
}  // namespace detail

/// CRC-32 of `len` bytes at `data`; `seed` chains incremental updates
/// (pass a previous result to continue it).
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  // The word loads below put the first byte in the low bits.
  static_assert(std::endian::native == std::endian::little);
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; len -= 8, p += 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace otb
