#include "src/util/crc32.h"

#include <array>

namespace p2pdb {

namespace {

using Table = std::array<uint32_t, 256>;

// Slicing-by-8: tables[0] is the bytewise table, and tables[k][b] is the
// state change of byte b followed by k zero bytes, so eight bytes fold into
// the state with eight independent lookups.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = MakeTables();

// Four bytes as a little-endian word, whatever the host's byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t state, const uint8_t* data, size_t size) {
  const std::array<Table, 8>& t = kTables;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = state ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
            t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
            t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    state = t[0][(state ^ *data) & 0xffu] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Finish(Crc32Update(kCrc32Init, data, size));
}

}  // namespace p2pdb
