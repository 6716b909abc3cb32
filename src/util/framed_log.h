#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cmmfo::util {

/// Length-prefixed, CRC-32C-framed record log: the checkpoint journal. Every
/// save atomically rewrites the whole file (write-to-temp + rename) with up to
/// three frames, the newest state and the generations it keeps. The atomic
/// replace is the crash-safety contract: a reader sees the old file or the
/// new one, never a mix.
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

/// The writer side of the log, one per journal path. It holds the frames it
/// wrote, so a save serializes and checksums the new frame only and never
/// reads the file back:
///  - a ring of `keep + 1` reused buffers holds the encoded frames (12-byte
///    header + payload); the newest payload is serialized straight into its
///    slot after the header gap, and its CRC-32C (util/crc32c, the SSE4.2
///    instruction where the CPU has it) is the only one computed;
///  - the file is rewritten with one POSIX open / writev / close of every
///    held frame to `path`.tmp, then renamed over `path`;
///  - the file is read once, at the writer's first save: its last `keep`
///    intact frames seed the ring. A stale file, one a rollback rewrote, a
///    legacy plain file (no intact frame) and a resumed run's journal thus
///    give exactly the bytes a read-before-every-save writer would.
/// A failed write re-arms that read, so the next save starts from whatever
/// the file holds. Nothing else may write `path` while the writer is live.
class FramedLogWriter {
 public:
  FramedLogWriter(std::string path, std::size_t keep);

  /// Append one frame and rewrite the file as the last `keep` frames plus
  /// it. `payload(out)` appends the frame's payload bytes to `out`. Returns
  /// false when the file cannot be written (the file is left as it was).
  template <class Fn>
  bool append(Fn&& payload) {
    std::string& slot = beginFrame();
    payload(slot);
    return commitFrame();
  }

 private:
  /// Seed the ring on first use, recycle the oldest slot when the ring is
  /// full, and return the new frame's slot holding only the header gap.
  std::string& beginFrame();
  /// Fill the new frame's header and write the file.
  bool commitFrame();

  std::string path_;
  std::vector<std::string> ring_;  ///< keep + 1 encoded-frame slots
  std::size_t head_ = 0;           ///< slot of the oldest held frame
  std::size_t held_ = 0;           ///< frames held, the new one included
  bool seeded_ = false;            ///< the one read of the file happened
};

/// Frame `payload` into the on-wire byte string (magic + length + crc +
/// payload). Exposed for tests and for single-write composition.
std::string encodeFrame(const std::string& payload);

/// Parse every intact frame of `path`. A missing file yields an empty,
/// clean result. Never throws.
FramedReadResult readFrames(const std::string& path);

/// Atomically replace `path` with `bytes`: write `path`.tmp (one POSIX
/// open / write / close, the path FramedLogWriter uses), then rename it over
/// `path`. Returns false (leaving `path` untouched) when the
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
