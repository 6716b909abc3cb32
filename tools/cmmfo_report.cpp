// cmmfo_report — render a diagnostics journal into a self-contained HTML
// report.
//
//   cmmfo_report <journal.jsonl> [report.html]
//
// The journal is the JSONL file written by `cmmfo run --diag FILE`. The
// output (default: <journal>.html, or "-" for stdout) embeds everything
// inline — no external scripts, styles, or fonts — so the file renders
// offline and can be archived as a CI artifact.

#include <cstdio>
#include <string>

#include "obs/report.h"
#include "util/json.h"

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: cmmfo_report <journal.jsonl> [report.html|-]\n");
    return 2;
  }
  const std::string in = argv[1];
  std::string out = argc == 3 ? argv[2] : in + ".html";

  cmmfo::obs::Journal journal;
  std::string error;
  if (!cmmfo::obs::loadJournal(in, &journal, &error)) {
    std::fprintf(stderr, "cmmfo_report: %s\n", error.c_str());
    return 1;
  }
  if (journal.skipped_lines > 0)
    std::fprintf(stderr, "cmmfo_report: skipped %zu unparseable line(s)\n",
                 journal.skipped_lines);

  const std::string html = cmmfo::obs::renderHtmlReport(journal);
  if (!cmmfo::util::writeTextTo(out, html)) {
    std::fprintf(stderr, "cmmfo_report: cannot write %s\n", out.c_str());
    return 1;
  }
  if (out != "-")
    std::fprintf(stderr, "cmmfo_report: %zu records -> %s\n",
                 journal.records.size(), out.c_str());
  return 0;
}
