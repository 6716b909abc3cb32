#include "util/framed_log.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
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

void putLe32(char* p, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) p[b] = static_cast<char>((v >> (8 * b)) & 0xFF);
}

std::uint32_t getLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Fill the header gap at the front of `frame` for the payload after it.
void sealFrame(std::string& frame) {
  const std::size_t len = frame.size() - kHeaderBytes;
  std::memcpy(frame.data(), kMagic, 4);
  putLe32(frame.data() + 4, static_cast<std::uint32_t>(len));
  putLe32(frame.data() + 8, crc32c(frame.data() + kHeaderBytes, len));
}

/// Write the buffers to `path`.tmp with one open / writev / close, then
/// rename it over `path`.
bool writeBuffersAtomic(const std::string& path, std::vector<iovec>& iov) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) return false;
  bool ok = true;
  iovec* v = iov.data();
  std::size_t left = iov.size(), bytes = 0;
  for (const iovec& b : iov) bytes += b.iov_len;
  while (ok && bytes > 0) {
    const ssize_t w = ::writev(fd, v, static_cast<int>(left));
    if (w <= 0) {
      ok = w < 0 && errno == EINTR;
      continue;
    }
    // Skip what a short write took, fully written buffers first.
    bytes -= static_cast<std::size_t>(w);
    auto done = static_cast<std::size_t>(w);
    for (; left > 0 && done >= v->iov_len; ++v, --left) done -= v->iov_len;
    if (left > 0) {
      v->iov_base = static_cast<char*>(v->iov_base) + done;
      v->iov_len -= done;
    }
  }
  ok = ::close(fd) == 0 && ok;
  return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

bool writeFileAtomic(const std::string& path, const std::string& bytes) {
  std::vector<iovec> iov{{const_cast<char*>(bytes.data()), bytes.size()}};
  return writeBuffersAtomic(path, iov);
}

std::string encodeFrame(const std::string& payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.assign(kHeaderBytes, '\0');
  out += payload;
  sealFrame(out);
  return out;
}

FramedLogWriter::FramedLogWriter(std::string path, std::size_t keep)
    : path_(std::move(path)), ring_(keep + 1) {}

std::string& FramedLogWriter::beginFrame() {
  const std::size_t cap = ring_.size();
  if (!seeded_) {
    // The one read: the file's last `keep` intact frames (none for a
    // missing, legacy or wholly corrupt file) are the generations kept.
    const FramedReadResult prev = readFrames(path_);
    const std::size_t n = prev.frames.size();
    head_ = held_ = 0;
    for (std::size_t i = n > cap - 1 ? n - (cap - 1) : 0; i < n; ++i) {
      std::string& slot = ring_[held_++];
      slot.assign(kHeaderBytes, '\0');
      slot += prev.frames[i];
      sealFrame(slot);
    }
    seeded_ = true;
  } else if (held_ == cap) {
    head_ = (head_ + 1) % cap;  // drop the oldest; its buffer is reused
    --held_;
  }
  std::string& slot = ring_[(head_ + held_++) % cap];
  slot.assign(kHeaderBytes, '\0');
  return slot;
}

bool FramedLogWriter::commitFrame() {
  const std::size_t cap = ring_.size();
  sealFrame(ring_[(head_ + held_ - 1) % cap]);
  std::vector<iovec> iov(held_);
  for (std::size_t i = 0; i < held_; ++i) {
    std::string& frame = ring_[(head_ + i) % cap];
    iov[i] = {frame.data(), frame.size()};
  }
  if (writeBuffersAtomic(path_, iov)) return true;
  seeded_ = false;  // the file kept its old bytes: re-read them next save
  return false;
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
