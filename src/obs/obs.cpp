#include "obs/obs.h"

#include "util/json.h"

namespace cmmfo::obs {

Observability& global() {
  static Observability instance;
  return instance;
}

bool writeDump(Dump what, const std::string& path, const RunMeta& meta) {
  std::string text;
  if (what == Dump::kTrace) {
    text = metaJsonLine(meta) + tracer().toJsonl();
  } else if (what == Dump::kChromeTrace) {
    text = tracer().toChromeTrace();
  } else if (path.ends_with(".json")) {
    text = metaJsonLine(meta) + metrics().toJson();
  } else {
    text = metaCsvComment(meta) + metrics().toCsv();
  }
  return util::writeTextTo(path, text);
}

}  // namespace cmmfo::obs
