//===- support/Crc.h - CRC-32 checksum ------------------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// stream, computed incrementally. Shared by the `.dptm` serializer, the
/// certificate producer (verify/Certificate) and the independent
/// certificate checker (src/check) -- the producer/checker pair must
/// agree on the checksum without sharing any verifier code, so the
/// implementation lives here in support.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_CRC_H
#define DEEPT_SUPPORT_CRC_H

#include <cstddef>
#include <cstdint>

namespace deept {
namespace support {

/// Incremental CRC-32: update() over any number of chunks, value() at any
/// point (it does not reset the state). Slice-by-8: eight table lookups
/// fold eight bytes per step, so a megabyte certificate checksums in about
/// a millisecond instead of the bytewise loop's five.
class Crc32 {
public:
  void update(const void *Data, size_t N) {
    static const Tables &T = tables();
    const auto *P = static_cast<const unsigned char *>(Data);
    uint32_t C = State;
    for (; N >= 8; N -= 8, P += 8) {
      // Byte-order independent little-endian loads; compilers fuse them
      // into one 32-bit load each on little-endian targets.
      uint32_t Lo = C ^ (uint32_t(P[0]) | uint32_t(P[1]) << 8 |
                         uint32_t(P[2]) << 16 | uint32_t(P[3]) << 24);
      uint32_t Hi = uint32_t(P[4]) | uint32_t(P[5]) << 8 |
                    uint32_t(P[6]) << 16 | uint32_t(P[7]) << 24;
      C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^
          T[5][(Lo >> 16) & 0xFF] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xFF] ^
          T[2][(Hi >> 8) & 0xFF] ^ T[1][(Hi >> 16) & 0xFF] ^ T[0][Hi >> 24];
    }
    for (; N > 0; --N, ++P)
      C = T[0][(C ^ *P) & 0xFF] ^ (C >> 8);
    State = C;
  }
  uint32_t value() const { return State ^ 0xFFFFFFFFu; }

private:
  /// T[0] is the bytewise table; T[K][I] is the CRC of byte I followed by
  /// K zero bytes.
  using Tables = uint32_t[8][256];
  static const Tables &tables() {
    static Tables T;
    static bool Done = [] {
      for (uint32_t I = 0; I < 256; ++I) {
        uint32_t C = I;
        for (int K = 0; K < 8; ++K)
          C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
        T[0][I] = C;
      }
      for (int K = 1; K < 8; ++K)
        for (uint32_t I = 0; I < 256; ++I)
          T[K][I] = T[0][T[K - 1][I] & 0xFF] ^ (T[K - 1][I] >> 8);
      return true;
    }();
    (void)Done;
    return T;
  }
  uint32_t State = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a buffer.
inline uint32_t crc32(const void *Data, size_t N) {
  Crc32 C;
  C.update(Data, N);
  return C.value();
}

} // namespace support
} // namespace deept

#endif // DEEPT_SUPPORT_CRC_H
