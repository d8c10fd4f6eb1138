// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), shared by every framed byte
// format in the tree: WAL records on disk and protocol message frames on the
// wire both guard their payloads with it.
#ifndef P2PDB_UTIL_CRC32_H_
#define P2PDB_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace p2pdb {

uint32_t Crc32(const uint8_t* data, size_t size);

/// Incremental form, for checksumming non-contiguous ranges without copying:
/// start from kCrc32Init, Crc32Update over each range, Crc32Finish at the end.
/// Crc32(d, n) == Crc32Finish(Crc32Update(kCrc32Init, d, n)).
inline constexpr uint32_t kCrc32Init = 0xffffffffu;
uint32_t Crc32Update(uint32_t state, const uint8_t* data, size_t size);
inline uint32_t Crc32Finish(uint32_t state) { return state ^ 0xffffffffu; }

}  // namespace p2pdb

#endif  // P2PDB_UTIL_CRC32_H_
