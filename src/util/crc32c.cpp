#include "util/crc32c.h"

#include <array>
#include <cstring>

namespace cmmfo::util {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<std::uint32_t, 256> makeTable() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = makeTable();

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CMMFO_CRC32C_HW 1
/// The SSE4.2 `crc32` instruction folds the reflected Castagnoli polynomial
/// into the running (pre-inverted) register, one little-endian u64 or one
/// byte per step: the byte-table recurrence, eight bytes at a time.
__attribute__((target("sse4.2"))) std::uint32_t crc32cHw(
    const unsigned char* p, std::size_t size, std::uint32_t c) {
  std::uint64_t c64 = c;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    c64 = __builtin_ia32_crc32di(c64, v);
  }
  c = static_cast<std::uint32_t>(c64);
  for (; size > 0; ++p, --size) c = __builtin_ia32_crc32qi(c, *p);
  return c;
}

bool hasHw() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}
#endif

}  // namespace

std::uint32_t crc32cTable(const void* data, std::size_t size,
                          std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i)
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return ~c;
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
#ifdef CMMFO_CRC32C_HW
  if (hasHw())
    return ~crc32cHw(static_cast<const unsigned char*>(data), size, ~seed);
#endif
  return crc32cTable(data, size, seed);
}

}  // namespace cmmfo::util
