#include "obs/run_meta.h"

#include "util/json.h"

#ifndef CMMFO_GIT_SHA
#define CMMFO_GIT_SHA "unknown"
#endif
#ifndef CMMFO_BUILD_TYPE
#define CMMFO_BUILD_TYPE "unknown"
#endif

namespace cmmfo::obs {

RunMeta makeRunMeta() {
  RunMeta meta;
  meta.git_sha = CMMFO_GIT_SHA;
  meta.build_type = CMMFO_BUILD_TYPE;
  return meta;
}

std::string metaJsonLine(const RunMeta& meta) {
  std::string out = "{\"type\": \"meta\", \"git_sha\": ";
  util::putString(out, meta.git_sha);
  out += ", \"build_type\": ";
  util::putString(out, meta.build_type);
  if (!meta.tool.empty()) {
    out += ", \"tool\": ";
    util::putString(out, meta.tool);
  }
  if (meta.has_seed) {
    out += ", \"seed\": ";
    util::putU64Bare(out, meta.seed);
  }
  if (!meta.flags.empty()) {
    out += ", \"flags\": ";
    util::putString(out, meta.flags);
  }
  out += "}\n";
  return out;
}

std::string metaCsvComment(const RunMeta& meta) {
  std::string out = "# meta git_sha=" + meta.git_sha;
  out += " build_type=" + meta.build_type;
  if (!meta.tool.empty()) out += " tool=" + meta.tool;
  if (meta.has_seed) {
    out += " seed=";
    util::putU64Bare(out, meta.seed);
  }
  if (!meta.flags.empty()) out += " flags=" + meta.flags;
  out += '\n';
  return out;
}

}  // namespace cmmfo::obs
