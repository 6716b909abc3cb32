#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/calibration.h"
#include "obs/recorder.h"

namespace cmmfo::obs {

namespace {

using util::Json;

std::string htmlEscaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  if (std::isnan(v)) return "n/a";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.5g", v);
  return buf;
}

std::string fmtInt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

/// One polyline chart with a light frame and min/max labels. Points with a
/// NaN y are skipped (they break the polyline into segments).
std::string svgChart(const std::string& title, const std::vector<double>& xs,
                     const std::vector<double>& ys, const char* color) {
  const int w = 420, h = 180, pad = 34;
  std::string out = "<figure><figcaption>" + htmlEscaped(title) +
                    "</figcaption><svg width=\"" + std::to_string(w) +
                    "\" height=\"" + std::to_string(h) +
                    "\" viewBox=\"0 0 " + std::to_string(w) + " " +
                    std::to_string(h) + "\" role=\"img\">";
  double xmin = 0, xmax = 0, ymin = 0, ymax = 0;
  bool any = false;
  for (std::size_t i = 0; i < xs.size() && i < ys.size(); ++i) {
    if (std::isnan(ys[i])) continue;
    if (!any) {
      xmin = xmax = xs[i];
      ymin = ymax = ys[i];
      any = true;
    } else {
      xmin = std::min(xmin, xs[i]);
      xmax = std::max(xmax, xs[i]);
      ymin = std::min(ymin, ys[i]);
      ymax = std::max(ymax, ys[i]);
    }
  }
  if (!any) {
    out += "<text x=\"50%\" y=\"50%\" text-anchor=\"middle\">no data</text>"
           "</svg></figure>";
    return out;
  }
  if (xmax - xmin < 1e-12) xmax = xmin + 1.0;
  if (ymax - ymin < 1e-12) ymax = ymin + 1.0;
  const auto px = [&](double x) {
    return pad + (x - xmin) / (xmax - xmin) * (w - 2 * pad);
  };
  const auto py = [&](double y) {
    return h - pad - (y - ymin) / (ymax - ymin) * (h - 2 * pad);
  };
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" "
                "fill=\"none\" stroke=\"#ccc\"/>",
                pad, pad, w - 2 * pad, h - 2 * pad);
  out += buf;
  out += "<polyline fill=\"none\" stroke=\"";
  out += color;
  out += "\" stroke-width=\"1.5\" points=\"";
  for (std::size_t i = 0; i < xs.size() && i < ys.size(); ++i) {
    if (std::isnan(ys[i])) continue;
    std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", px(xs[i]), py(ys[i]));
    out += buf;
  }
  out += "\"/>";
  std::snprintf(buf, sizeof(buf),
                "<text x=\"%d\" y=\"%d\" font-size=\"10\">%s</text>"
                "<text x=\"%d\" y=\"%d\" font-size=\"10\">%s</text>",
                2, h - pad, fmt(ymin).c_str(), 2, pad + 4, fmt(ymax).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "<text x=\"%d\" y=\"%d\" font-size=\"10\">round %s..%s</text>",
                pad, h - 4, fmt(xmin).c_str(), fmt(xmax).c_str());
  out += buf;
  out += "</svg></figure>";
  return out;
}

/// Standardized-residual strip plot: round on x, z on y, one dot per
/// (sample, objective), dashed guides at z = +-1.96 and 0.
std::string svgResiduals(const std::vector<double>& rounds,
                         const std::vector<double>& zs) {
  const int w = 420, h = 200, pad = 34;
  std::string out =
      "<figure><figcaption>standardized residuals (predict-before-observe)"
      "</figcaption><svg width=\"420\" height=\"200\" viewBox=\"0 0 420 200\""
      " role=\"img\">";
  if (rounds.empty()) {
    out += "<text x=\"50%\" y=\"50%\" text-anchor=\"middle\">no data</text>"
           "</svg></figure>";
    return out;
  }
  double xmin = rounds[0], xmax = rounds[0];
  for (const double r : rounds) {
    xmin = std::min(xmin, r);
    xmax = std::max(xmax, r);
  }
  if (xmax - xmin < 1e-12) xmax = xmin + 1.0;
  double zlim = 3.0;
  for (const double z : zs)
    if (std::isfinite(z)) zlim = std::max(zlim, std::min(std::fabs(z), 8.0));
  const auto px = [&](double x) {
    return pad + (x - xmin) / (xmax - xmin) * (w - 2 * pad);
  };
  const auto py = [&](double z) {
    return h / 2.0 - z / zlim * (h / 2.0 - pad);
  };
  char buf[200];
  for (const double guide : {-kZ95, 0.0, kZ95}) {
    std::snprintf(buf, sizeof(buf),
                  "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" "
                  "stroke=\"#bbb\" stroke-dasharray=\"4 3\"/>",
                  pad, py(guide), w - pad, py(guide));
    out += buf;
  }
  for (std::size_t i = 0; i < rounds.size() && i < zs.size(); ++i) {
    if (!std::isfinite(zs[i])) continue;
    const double z = std::max(-zlim, std::min(zlim, zs[i]));
    std::snprintf(buf, sizeof(buf),
                  "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" "
                  "fill=\"#2b6cb0\" fill-opacity=\"0.6\"/>",
                  px(rounds[i]), py(z));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "<text x=\"2\" y=\"%.1f\" font-size=\"10\">+1.96</text>"
                "<text x=\"2\" y=\"%.1f\" font-size=\"10\">-1.96</text>",
                py(kZ95) + 3, py(-kZ95) + 3);
  out += buf;
  out += "</svg></figure>";
  return out;
}

const Json* firstOfType(const Journal& j, const char* type) {
  for (const Json& r : j.records)
    if (r.kind == Json::kObj && r.strOr("type", "") == type) return &r;
  return nullptr;
}

}  // namespace

Journal parseJournal(const std::string& text) {
  Journal out;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    Json j;
    if (util::parseJson(line, &j) && j.kind == Json::kObj)
      out.records.push_back(std::move(j));
    else
      ++out.skipped_lines;
  }
  return out;
}

bool loadJournal(const std::string& path, Journal* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    if (error) *error = "report: cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = parseJournal(ss.str());
  return true;
}

std::string renderHtmlReport(const Journal& journal) {
  std::string out =
      "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
      "<title>CMMFO run report</title><style>\n"
      "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:64em;"
      "color:#1a202c;padding:0 1em}\n"
      "h1{font-size:1.5em}h2{font-size:1.15em;border-bottom:1px solid #e2e8f0;"
      "padding-bottom:.2em;margin-top:2em}\n"
      "table{border-collapse:collapse;margin:.5em 0}\n"
      "th,td{border:1px solid #e2e8f0;padding:.25em .6em;text-align:right}\n"
      "th{background:#f7fafc}td.l,th.l{text-align:left}\n"
      "figure{display:inline-block;margin:.5em 1em .5em 0}\n"
      "figcaption{font-size:.85em;color:#4a5568}\n"
      ".warn{color:#c05621;font-weight:600}\n"
      ".ok{color:#2f855a}\n"
      "</style></head><body>\n<h1>CMMFO run report</h1>\n";

  // ---- manifest ----
  out += "<h2>Run manifest</h2>\n";
  if (const Json* m = firstOfType(journal, "manifest")) {
    out += "<table>\n";
    for (const auto& [key, val] : m->obj) {
      if (key == "type") continue;
      out += "<tr><th class=\"l\">" + htmlEscaped(key) + "</th><td class=\"l\">";
      if (val.kind == Json::kStr)
        out += htmlEscaped(val.str);
      else if (val.kind == Json::kNum)
        out += fmt(val.num);
      out += "</td></tr>\n";
    }
    out += "</table>\n";
  } else {
    out += "<p>(no manifest record)</p>\n";
  }

  // ---- convergence ----
  std::vector<double> rounds, hv, adrs, charged;
  for (const Json& r : journal.records) {
    if (r.kind != Json::kObj || r.strOr("type", "") != "convergence") continue;
    rounds.push_back(r.numOr("round", 0.0));
    hv.push_back(r.numOr("hypervolume",
                         std::numeric_limits<double>::quiet_NaN()));
    adrs.push_back(r.numOr("adrs", std::numeric_limits<double>::quiet_NaN()));
    charged.push_back(r.numOr("charged_seconds",
                              std::numeric_limits<double>::quiet_NaN()));
  }
  out += "<h2>Convergence</h2>\n";
  out += svgChart("hypervolume", rounds, hv, "#2b6cb0");
  out += svgChart("ADRS", rounds, adrs, "#c05621");
  out += svgChart("cumulative charged tool-seconds", rounds, charged,
                  "#2f855a");
  out += "\n";

  // ---- calibration ----
  out += "<h2>Surrogate calibration</h2>\n";
  {
    CalibrationAgg agg[kNumLevels][kNumObjectives];
    std::vector<double> zr, zv;
    for (const Json& r : journal.records) {
      if (r.kind != Json::kObj || r.strOr("type", "") != "calibration")
        continue;
      const int level = static_cast<int>(r.numOr("fidelity", -1));
      const Json* believer = r.find("believer");
      const bool fantasy =
          believer && believer->kind == Json::kBool && believer->b;
      const Json *y = r.find("y"), *mu = r.find("mu"), *var = r.find("var"),
                 *z = r.find("z");
      if (!y || !mu || !var) continue;
      std::vector<double> yv, muv, varv, zvv;
      util::getVec(*y, yv);
      util::getVec(*mu, muv);
      util::getVec(*var, varv);
      if (z) util::getVec(*z, zvv);
      for (std::size_t i = 0; i < zvv.size(); ++i) {
        zr.push_back(r.numOr("round", 0.0));
        zv.push_back(zvv[i]);
      }
      if (fantasy || level < 0 || level >= kNumLevels) continue;
      for (std::size_t i = 0;
           i < yv.size() && i < muv.size() && i < varv.size() &&
           i < static_cast<std::size_t>(kNumObjectives);
           ++i)
        agg[level][i].add(yv[i], muv[i], varv[i]);
    }
    out += svgResiduals(zr, zv);
    out += "<table>\n<tr><th class=\"l\">fidelity</th><th class=\"l\">"
           "objective</th><th>n</th><th>coverage95</th><th>mean NLPD</th>"
           "<th>mean z</th><th>std z</th></tr>\n";
    for (int l = 0; l < kNumLevels; ++l)
      for (int o = 0; o < kNumObjectives; ++o) {
        const CalibrationAgg& a = agg[l][o];
        if (a.n == 0) continue;
        const bool bad = a.coverage() < 0.75;
        out += std::string("<tr><td class=\"l\">") + levelName(l) +
               "</td><td class=\"l\">" + objectiveName(o) + "</td><td>" +
               std::to_string(a.n) + "</td><td class=\"" +
               (bad ? "warn" : "ok") + "\">" + fmt(a.coverage()) +
               "</td><td>" + fmt(a.meanNlpd()) + "</td><td>" +
               fmt(a.meanResid()) + "</td><td>" + fmt(a.residStddev()) +
               "</td></tr>\n";
      }
    out += "</table>\n";
  }

  // ---- model state ----
  out += "<h2>Model state</h2>\n";
  out += "<table>\n<tr><th>round</th><th class=\"l\">level</th><th>LML</th>"
         "<th>fit iters</th><th>cond log10</th><th>low-fid relevance</th>"
         "<th class=\"l\">K_task (off-diag)</th></tr>\n";
  for (const Json& r : journal.records) {
    if (r.kind != Json::kObj || r.strOr("type", "") != "model") continue;
    const int level = static_cast<int>(r.numOr("level", -1));
    std::string corr;
    if (const Json* k = r.find("k_task"); k && k->kind == Json::kArr)
      for (std::size_t i = 0; i < k->arr.size(); ++i)
        for (std::size_t j = i + 1; j < k->arr.size(); ++j)
          if (k->arr[i].kind == Json::kArr && j < k->arr[i].arr.size()) {
            if (!corr.empty()) corr += ", ";
            corr += fmt(k->arr[i].arr[j].num);
          }
    out += "<tr><td>" + fmtInt(r.numOr("round", -1)) + "</td><td class=\"l\">" +
           levelName(level) + "</td><td>" + fmt(r.numOr("lml", 0)) +
           "</td><td>" + fmtInt(r.numOr("fit_iters", 0)) + "/" +
           fmtInt(r.numOr("max_iters", 0)) + "</td><td>" +
           fmt(r.numOr("cond_log10", 0)) + "</td><td>" +
           fmt(r.numOr("lowfid_relevance",
                       std::numeric_limits<double>::quiet_NaN())) +
           "</td><td class=\"l\">" + htmlEscaped(corr) + "</td></tr>\n";
  }
  out += "</table>\n";

  // ---- decision timeline ----
  out += "<h2>Decision timeline</h2>\n";
  out += "<table>\n<tr><th>round</th><th>winner config</th><th class=\"l\">"
         "fidelity</th><th>PEIPV</th><th class=\"l\">per-fidelity "
         "penalty &middot; best (config: eipv&rarr;peipv)</th></tr>\n";
  for (const Json& r : journal.records) {
    if (r.kind != Json::kObj || r.strOr("type", "") != "decision") continue;
    std::string cells;
    if (const Json* fs = r.find("fidelities"); fs && fs->kind == Json::kArr)
      for (const Json& f : fs->arr) {
        if (f.kind != Json::kObj) continue;
        if (!cells.empty()) cells += " | ";
        cells += std::string(levelName(static_cast<int>(
                     f.numOr("fidelity", -1)))) +
                 " &times;" + fmt(f.numOr("cost_penalty", 1.0));
        if (const Json* cands = f.find("candidates");
            cands && cands->kind == Json::kArr && !cands->arr.empty()) {
          const Json& best = cands->arr[0];
          cells += " (" + fmtInt(best.numOr("config", -1)) + ": " +
                   fmt(best.numOr("eipv", 0)) + "&rarr;" +
                   fmt(best.numOr("peipv", 0)) + ")";
        }
      }
    out += "<tr><td>" + fmtInt(r.numOr("round", -1)) + "</td><td>" +
           fmtInt(r.numOr("winner_config", -1)) + "</td><td class=\"l\">" +
           levelName(static_cast<int>(r.numOr("winner_fidelity", -1))) +
           "</td><td>" + fmt(r.numOr("winner_peipv", 0)) +
           "</td><td class=\"l\">" + cells + "</td></tr>\n";
  }
  out += "</table>\n";

  // ---- health ----
  out += "<h2>Health checks</h2>\n";
  bool any_health = false;
  std::string health_rows;
  for (const Json& r : journal.records) {
    if (r.kind != Json::kObj || r.strOr("type", "") != "health") continue;
    any_health = true;
    health_rows += "<tr><td class=\"l warn\">" +
                   htmlEscaped(r.strOr("kind", "?")) + "</td><td>" +
                   fmtInt(r.numOr("round", -1)) + "</td><td>" +
                   fmt(r.numOr("value", 0)) + "</td><td>" +
                   fmt(r.numOr("threshold", 0)) + "</td><td class=\"l\">" +
                   htmlEscaped(r.strOr("message", "")) + "</td></tr>\n";
  }
  if (any_health) {
    out += "<table>\n<tr><th class=\"l\">kind</th><th>round</th><th>value"
           "</th><th>threshold</th><th class=\"l\">message</th></tr>\n" +
           health_rows + "</table>\n";
  } else {
    out += "<p class=\"ok\">No health warnings.</p>\n";
  }

  if (const Json* s = firstOfType(journal, "summary")) {
    out += "<h2>Summary</h2>\n<p>rounds=" + fmtInt(s->numOr("rounds", 0)) +
           " samples=" + fmtInt(s->numOr("samples", 0)) +
           " decisions=" + fmtInt(s->numOr("decisions", 0)) +
           " warnings=" + fmtInt(s->numOr("warnings", 0)) + "</p>\n";
  }
  if (journal.skipped_lines > 0)
    out += "<p class=\"warn\">" + std::to_string(journal.skipped_lines) +
           " unparseable journal line(s) skipped.</p>\n";
  out += "</body></html>\n";
  return out;
}

}  // namespace cmmfo::obs
