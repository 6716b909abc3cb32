#include "obs/metrics.h"

#include <algorithm>
#include <limits>

#include "util/json.h"

namespace cmmfo::obs {

namespace {

using util::putDouble;
using util::putString;

void putU64(std::string& out, std::uint64_t v) { util::putU64Bare(out, v); }

}  // namespace

const char* metricKindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void MetricsRegistry::setEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

std::vector<double> MetricsRegistry::defaultBounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4,
          1e5, 1e6};
}

std::vector<double> MetricsRegistry::conditionBounds() {
  return {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0};
}

std::vector<double> MetricsRegistry::countBounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
}

MetricPoint& MetricsRegistry::slot(const std::string& name) {
  const auto [it, inserted] = series_.try_emplace(name);
  if (inserted) it->second.name = name;
  return it->second;
}

MetricPoint& MetricsRegistry::upsert(const std::string& name,
                                     MetricKind kind) {
  MetricPoint& s = slot(name);
  if (s.count == 0 && s.buckets.empty()) s.kind = kind;
  return s;
}

void MetricsRegistry::defineHistogram(const std::string& name,
                                      std::vector<double> bounds) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  MetricPoint& s = slot(name);
  if (!s.bounds.empty()) return;  // layout is fixed once defined
  s.kind = MetricKind::kHistogram;
  s.bounds = std::move(bounds);
  s.buckets.assign(s.bounds.size() + 1, 0);
}

void MetricsRegistry::add(const std::string& name, double delta) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  MetricPoint& s = upsert(name, MetricKind::kCounter);
  s.value += delta;
  ++s.count;
}

void MetricsRegistry::set(const std::string& name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  MetricPoint& s = upsert(name, MetricKind::kGauge);
  s.kind = MetricKind::kGauge;
  s.value = value;
  ++s.count;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  MetricPoint& s = slot(name);
  if (s.bounds.empty()) {
    s.kind = MetricKind::kHistogram;
    s.bounds = defaultBounds();
    s.buckets.assign(s.bounds.size() + 1, 0);
  }
  if (s.count == 0) {
    s.min = s.max = value;
  } else {
    s.min = std::min(s.min, value);
    s.max = std::max(s.max, value);
  }
  ++s.count;
  s.sum += value;
  const auto it = std::lower_bound(s.bounds.begin(), s.bounds.end(), value);
  ++s.buckets[static_cast<std::size_t>(it - s.bounds.begin())];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.reserve(series_.size());
  for (const auto& [name, p] : series_) snap.push_back(p);
  return snap;  // std::map iteration is already name-sorted
}

void MetricsRegistry::restore(const MetricsSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  for (const MetricPoint& p : snap) series_.emplace(p.name, p);
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
}

std::string MetricsRegistry::toCsv() const {
  const MetricsSnapshot snap = snapshot();
  std::string out = "name,kind,value,count,sum,min,max,buckets\n";
  for (const MetricPoint& p : snap) {
    out += p.name;
    out += ',';
    out += metricKindName(p.kind);
    out += ',';
    putDouble(out, p.value);
    out += ',';
    putU64(out, p.count);
    out += ',';
    putDouble(out, p.sum);
    out += ',';
    putDouble(out, p.min);
    out += ',';
    putDouble(out, p.max);
    out += ',';
    for (std::size_t i = 0; i < p.buckets.size(); ++i) {
      if (i) out += ' ';
      out += "le_";
      if (i < p.bounds.size())
        putDouble(out, p.bounds[i]);
      else
        out += "inf";
      out += '=';
      putU64(out, p.buckets[i]);
    }
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::toJson() const {
  const MetricsSnapshot snap = snapshot();
  std::string out = "[";
  for (std::size_t k = 0; k < snap.size(); ++k) {
    const MetricPoint& p = snap[k];
    out += k ? ",\n" : "\n";
    out += "{\"name\": ";
    putString(out, p.name);
    out += ", \"kind\": \"";
    out += metricKindName(p.kind);
    out += "\", \"value\": ";
    putDouble(out, p.value);
    out += ", \"count\": ";
    putU64(out, p.count);
    out += ", \"sum\": ";
    putDouble(out, p.sum);
    out += ", \"min\": ";
    putDouble(out, p.min);
    out += ", \"max\": ";
    putDouble(out, p.max);
    out += ", \"bounds\": [";
    for (std::size_t i = 0; i < p.bounds.size(); ++i) {
      if (i) out += ',';
      putDouble(out, p.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < p.buckets.size(); ++i) {
      if (i) out += ',';
      putU64(out, p.buckets[i]);
    }
    out += "]}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace cmmfo::obs
