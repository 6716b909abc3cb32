// The journal write path: the hardware CRC-32C and the to_chars number
// emitter must reproduce the portable table and printf("%.17g") exactly, and
// a long-lived JournalWriter must write the bytes a writer that re-reads the
// file before every save would, whatever file it starts from.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "util/crc32c.h"
#include "util/framed_log.h"
#include "util/json.h"

namespace cmmfo {
namespace {

namespace fs = std::filesystem;

TEST(Crc32c, HardwareEqualsTable) {
  const char check[] = "123456789";
  EXPECT_EQ(util::crc32c(check, 9), 0xE3069283u);
  EXPECT_EQ(util::crc32cTable(check, 9), 0xE3069283u);

  std::mt19937_64 gen(26);
  std::vector<unsigned char> buf(4096 + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(gen());
  for (std::size_t len = 0; len <= 4096; ++len) {
    const std::size_t off = len % 8;  // every alignment of the start
    const unsigned char* p = buf.data() + off;
    ASSERT_EQ(util::crc32c(p, len), util::crc32cTable(p, len)) << len;
    // Chained: a seed carries the running value across a split.
    const std::size_t cut = len / 3;
    const std::uint32_t seed = static_cast<std::uint32_t>(gen());
    ASSERT_EQ(util::crc32c(p + cut, len - cut, util::crc32c(p, cut, seed)),
              util::crc32cTable(p, len, seed))
        << len;
  }
}

std::string printf17g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string putDouble(double v) {
  std::string out;
  util::putDouble(out, v);
  return out;
}

TEST(Json, PutDoubleMatchesPrintf17g) {
  std::mt19937_64 gen(17);
  for (int i = 0; i < 1000000; ++i) {
    const double v = std::bit_cast<double>(gen());
    ASSERT_EQ(putDouble(v), printf17g(v))
        << std::hex << std::bit_cast<std::uint64_t>(v);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double two53 = 9007199254740992.0;
  for (const double v :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), nan, std::copysign(nan, -1.0),
        two53 - 1.0, two53, two53 + 2.0, -(two53 + 2.0), 0.1, 1.0 / 3.0, 1e21,
        1e-7, 123456789012345678.0})
    EXPECT_EQ(putDouble(v), printf17g(v)) << printf17g(v);

  for (const long long v : {0LL, -1LL, 42LL,
                            std::numeric_limits<long long>::min(),
                            std::numeric_limits<long long>::max()}) {
    std::string out;
    util::putInt(out, v);
    EXPECT_EQ(out, std::to_string(v));
  }
  std::string out;
  util::putU64(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "\"18446744073709551615\"");
}

std::string readBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A state whose frame length varies with k.
core::CheckpointState stateNo(int k) {
  core::CheckpointState st;
  st.fingerprint = 0xC0FFEEULL + static_cast<std::uint64_t>(k);
  st.next_round = k;
  st.t = 2 * k;
  for (int i = 0; i <= k % 5; ++i) {
    st.data[0].configs.push_back(static_cast<std::size_t>(i + k));
    st.data[0].y.push_back({0.1 * i, 1.0 / (k + 1.0), -0.0});
  }
  st.surrogate_hypers = {{0.5 * k, -0.25}, {2.5}};
  return st;
}

/// The writer as it was before it held its generations: read the file's
/// intact frames, keep the last two, add the new one, rewrite.
void referenceSave(const std::string& path, const core::CheckpointState& st) {
  const util::FramedReadResult prev = util::readFrames(path);
  std::vector<std::string> keep;
  const std::size_t n = prev.frames.size();
  for (std::size_t i = n > 2 ? n - 2 : 0; i < n; ++i)
    keep.push_back(prev.frames[i]);
  keep.push_back(core::serializeCheckpoint(st));
  ASSERT_TRUE(util::rewriteFrames(path, keep));
}

TEST(Checkpoint, WriterBytesEqualOneShotSaves) {
  const fs::path dir = fs::path(testing::TempDir()) / "cmmfo_journal_writer";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string live = (dir / "live.ckpt").string();
  const std::string oneshot = (dir / "oneshot.ckpt").string();
  const std::string ref = (dir / "ref.ckpt").string();

  // Starting files: none, a stale journal of another run, a journal with a
  // torn tail that a resume rolled back, and a legacy plain-JSON file.
  std::string stale_bytes;
  for (int k = 90; k < 94; ++k)
    stale_bytes += util::encodeFrame(core::serializeCheckpoint(stateNo(k)));
  const std::string torn = util::encodeFrame("torn");
  const std::vector<std::pair<const char*, std::string>> starts = {
      {"missing", ""},
      {"stale", stale_bytes},
      {"rolled back", stale_bytes + torn.substr(0, torn.size() / 2)},
      {"legacy", core::serializeCheckpoint(stateNo(7))},
  };
  for (const auto& [name, bytes] : starts) {
    for (const std::string& p : {live, oneshot, ref}) {
      std::remove(p.c_str());
      if (!bytes.empty()) writeBytes(p, bytes);
    }
    if (std::string(name) == "rolled back") {
      // The resume's load quarantines the tail and rewrites each file.
      for (const std::string& p : {live, oneshot, ref}) {
        core::CheckpointState st;
        core::JournalLoadInfo info;
        ASSERT_TRUE(core::loadCheckpointAny(p, &st, nullptr, &info));
        ASSERT_TRUE(info.rolled_back);
      }
    }
    core::JournalWriter writer(live);
    for (int k = 0; k < 7; ++k) {
      ASSERT_TRUE(writer.save(stateNo(k)));
      ASSERT_TRUE(core::JournalWriter(oneshot).save(stateNo(k)));
      referenceSave(ref, stateNo(k));
      const std::string want = readBytes(ref);
      ASSERT_EQ(readBytes(live), want) << name << " save " << k;
      ASSERT_EQ(readBytes(oneshot), want) << name << " save " << k;
    }
    // Resume: a new writer (a restarted process) continues the journal.
    core::CheckpointState back;
    ASSERT_TRUE(core::loadCheckpointAny(live, &back));
    EXPECT_EQ(back.t, stateNo(6).t);
    core::JournalWriter resumed(live);
    for (int k = 7; k < 10; ++k) {
      ASSERT_TRUE(resumed.save(stateNo(k)));
      referenceSave(ref, stateNo(k));
      ASSERT_EQ(readBytes(live), readBytes(ref)) << name << " resumed " << k;
    }
  }

  // A failed write leaves the file as it was; the next save re-reads it.
  const std::string blocked = (dir / "blocked.ckpt").string();
  core::JournalWriter writer(blocked);
  ASSERT_TRUE(writer.save(stateNo(1)));
  fs::create_directories(blocked + ".tmp");  // the temp file cannot open
  EXPECT_FALSE(writer.save(stateNo(2)));
  fs::remove_all(blocked + ".tmp");
  writeBytes(ref, readBytes(blocked));
  ASSERT_TRUE(writer.save(stateNo(3)));
  referenceSave(ref, stateNo(3));
  EXPECT_EQ(readBytes(blocked), readBytes(ref));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cmmfo
