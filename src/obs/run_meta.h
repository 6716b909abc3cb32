#pragma once

#include <cstdint>
#include <string>

namespace cmmfo::obs {

/// Provenance for one optimization run, prepended as a header line to every
/// observability dump (trace JSONL, metrics, diagnostics journal) so a file
/// found on disk later identifies the build and invocation that produced it.
struct RunMeta {
  std::string git_sha;     // configure-time sha of the source tree
  std::string build_type;  // CMake build type (Release, Debug, ...)
  std::string tool;        // producing binary, e.g. "cmmfo_cli"
  std::string flags;       // the command line as invoked, argv joined by ' '
  std::string benchmark;   // diagnostics journal manifest only
  std::string method;      // diagnostics journal manifest only
  std::uint64_t seed = 0;
  bool has_seed = false;
};

/// RunMeta pre-filled with the compile-time provenance (baked in via
/// CMMFO_GIT_SHA / CMMFO_BUILD_TYPE); callers add tool, flags, seed and,
/// for a diagnostics journal, benchmark and method.
RunMeta makeRunMeta();

/// One JSONL header line: {"type":"meta","git_sha":...}\n. All strings are
/// JSON-escaped; prepend to JSONL dumps. Omits benchmark and method.
std::string metaJsonLine(const RunMeta& meta);

/// One comment line for CSV dumps: "# meta git_sha=... seed=...\n". Omits
/// benchmark and method.
std::string metaCsvComment(const RunMeta& meta);

}  // namespace cmmfo::obs
