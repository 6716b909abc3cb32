#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cmmfo::util {

/// Length-prefixed, CRC-32C-framed record log: the checkpoint journal. Every
/// save atomically rewrites the whole file (write-to-temp + rename) with up to
/// three frames, the newest state and the generations it keeps.
///
/// On-disk layout per frame (little-endian):
///   magic   4 bytes  "CMJ1"
///   length  4 bytes  payload size in bytes (u32)
///   crc     4 bytes  crc32c over the payload bytes
///   payload N bytes
///
/// A reader scans frames front-to-back and stops at the first violation
/// (bad magic, impossible length, short payload, CRC mismatch): everything
/// before it is the intact prefix, everything from it on is the corrupt
/// tail. This turns torn writes and truncation — the crash outcomes a
/// non-atomic write or a damaged disk can leave — into detectable,
/// recoverable states instead of parse garbage.
struct FramedReadResult {
  /// Decoded payloads of every intact frame, in write order.
  std::vector<std::string> frames;
  /// Byte offset where the intact prefix ends (== file size when clean).
  std::uint64_t intact_bytes = 0;
  /// True when trailing bytes after the intact prefix failed validation.
  bool corrupt_tail = false;
  /// Human-readable reason for the first rejected frame (empty when clean).
  std::string tail_reason;
};

/// Frame `payload` into the on-wire byte string (magic + length + crc +
/// payload). Exposed for tests and for single-write composition.
std::string encodeFrame(const std::string& payload);

/// Parse every intact frame of `path`. A missing file yields an empty,
/// clean result. Never throws.
FramedReadResult readFrames(const std::string& path);

/// Atomically replace `path` with `bytes`: write `path`.tmp, flush, then
/// rename over `path`. Returns false (leaving `path` untouched) when the
/// temp file cannot be opened or written or the rename fails. Never throws.
bool writeFileAtomic(const std::string& path, const std::string& bytes);

/// Atomically replace `path` with exactly `payloads` (write-to-temp +
/// rename). Used for compaction and for quarantine-truncate recovery.
bool rewriteFrames(const std::string& path,
                   const std::vector<std::string>& payloads);

/// Copy the byte range [offset, EOF) of `path` into `quarantine_path`
/// (write-to-temp + rename), then truncate `path` to `offset` via a framed
/// rewrite of `keep` payloads. Returns false if any step fails; `path` is
/// only replaced after the quarantine copy succeeded, so evidence is never
/// destroyed before it is preserved.
bool quarantineTail(const std::string& path, std::uint64_t offset,
                    const std::vector<std::string>& keep,
                    const std::string& quarantine_path);

}  // namespace cmmfo::util
