#pragma once

#include <cstddef>
#include <cstdint>

namespace cmmfo::util {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) over a
/// byte range: the same polynomial used by iSCSI/ext4 journal framing,
/// chosen over CRC-32 (IEEE) for its better burst-error detection on short
/// records. On x86-64 CPUs with SSE4.2 it runs on the `crc32` instruction
/// (8 bytes per step); elsewhere on a byte table. Both compute the same
/// polynomial, so the value never depends on the CPU. `seed` lets callers
/// chain ranges: crc32c(b, n2, crc32c(a, n1)) == crc32c(concat(a,b), n1+n2).
std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed = 0);

/// The table-driven implementation alone (the portable reference the
/// hardware path is checked against).
std::uint32_t crc32cTable(const void* data, std::size_t size,
                          std::uint32_t seed = 0);

}  // namespace cmmfo::util
