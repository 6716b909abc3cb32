#pragma once

#include <string>
#include <vector>

#include "util/json.h"

namespace cmmfo::obs {

/// A parsed diagnostics journal: one util::Json object per JSONL line, in
/// file order. Lines that fail to parse are skipped (counted) rather than
/// fatal, so a truncated journal from a crashed run still renders.
struct Journal {
  std::vector<util::Json> records;
  std::size_t skipped_lines = 0;
};

/// Parse JSONL text into a Journal. Never fails hard; an empty/garbage
/// input yields an empty journal with skipped_lines set.
Journal parseJournal(const std::string& text);

/// Load a journal file ("-" is NOT supported here; reports read files).
/// Returns false with `error` set when the file cannot be opened.
bool loadJournal(const std::string& path, Journal* out, std::string* error);

/// Render the journal into one self-contained HTML page: run manifest,
/// convergence curves (hypervolume / ADRS / charged seconds, inline SVG),
/// calibration summary (coverage and NLPD per fidelity, standardized
/// residual strip plot), decision timeline, and the health-warning table.
/// No external scripts, styles, or fonts — the file works offline and can
/// be archived as a CI artifact.
std::string renderHtmlReport(const Journal& journal);

}  // namespace cmmfo::obs
