#include "util/framed_log.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/crc32c.h"

namespace cmmfo::util {

namespace {

constexpr char kMagic[4] = {'C', 'M', 'J', '1'};
constexpr std::size_t kHeaderBytes = 12;
// Single-record sanity bound: a checkpoint payload is O(100KB); anything
// claiming gigabytes is a torn/garbage length field, not a real frame.
constexpr std::uint32_t kMaxPayload = 1u << 30;

void putLe32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t getLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

bool writeFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string encodeFrame(const std::string& payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, 4);
  putLe32(out, static_cast<std::uint32_t>(payload.size()));
  putLe32(out, crc32c(payload.data(), payload.size()));
  out += payload;
  return out;
}

FramedReadResult readFrames(const std::string& path) {
  FramedReadResult out;
  std::ifstream f(path, std::ios::binary);
  if (!f) return out;  // missing file == empty clean log
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string bytes = ss.str();
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::uint64_t off = 0;
  while (off < bytes.size()) {
    if (bytes.size() - off < kHeaderBytes) {
      out.corrupt_tail = true;
      out.tail_reason = "short header (torn append)";
      break;
    }
    if (std::memcmp(p + off, kMagic, 4) != 0) {
      out.corrupt_tail = true;
      out.tail_reason = "bad magic";
      break;
    }
    const std::uint32_t len = getLe32(p + off + 4);
    const std::uint32_t crc = getLe32(p + off + 8);
    if (len >= kMaxPayload) {
      out.corrupt_tail = true;
      out.tail_reason = "implausible length";
      break;
    }
    if (bytes.size() - off - kHeaderBytes < len) {
      out.corrupt_tail = true;
      out.tail_reason = "short payload (truncated frame)";
      break;
    }
    if (crc32c(p + off + kHeaderBytes, len) != crc) {
      out.corrupt_tail = true;
      out.tail_reason = "crc mismatch";
      break;
    }
    out.frames.emplace_back(bytes, off + kHeaderBytes, len);
    off += kHeaderBytes + len;
  }
  out.intact_bytes = off;
  return out;
}

bool rewriteFrames(const std::string& path,
                   const std::vector<std::string>& payloads) {
  std::string bytes;
  for (const auto& p : payloads) bytes += encodeFrame(p);
  return writeFileAtomic(path, bytes);
}

bool quarantineTail(const std::string& path, std::uint64_t offset,
                    const std::vector<std::string>& keep,
                    const std::string& quarantine_path) {
  std::string tail;
  {
    std::ifstream f(path, std::ios::binary);
    if (!f) return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    const std::string bytes = ss.str();
    if (offset > bytes.size()) return false;
    tail.assign(bytes, offset, bytes.size() - offset);
  }
  if (!writeFileAtomic(quarantine_path, tail)) return false;
  return rewriteFrames(path, keep);
}

}  // namespace cmmfo::util
