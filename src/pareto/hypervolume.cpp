#include "pareto/hypervolume.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <utility>

namespace cmmfo::pareto {

namespace {

/// Clip points to those strictly better than ref in every coordinate and
/// reduce to the non-dominated subset.
std::vector<Point> clipAndFilter(const std::vector<Point>& pts,
                                 const Point& ref) {
  std::vector<Point> keep;
  keep.reserve(pts.size());
  for (const auto& p : pts) {
    bool inside = true;
    for (std::size_t d = 0; d < ref.size(); ++d)
      if (p[d] >= ref[d]) {
        inside = false;
        break;
      }
    if (inside) keep.push_back(p);
  }
  return paretoFilter(keep);
}

double hv2(std::vector<Point> pts, const Point& ref) {
  // Sort by first objective ascending; second then descends along the front.
  std::sort(pts.begin(), pts.end());
  double vol = 0.0;
  double prev_y1 = ref[1];
  for (const auto& p : pts) {
    vol += (ref[0] - p[0]) * (prev_y1 - p[1]);
    prev_y1 = p[1];
  }
  return vol;
}

using Point3 = std::array<double, 3>;

/// Buffers of the 3-objective path, reused per thread: hypervolumeImprovement
/// runs it once per Monte-Carlo sample of every scanned candidate, and
/// per-point vectors made allocation its main cost.
struct Hv3Scratch {
  std::vector<Point3> pts, front;
  std::vector<std::pair<double, double>> stair;
};

Hv3Scratch& hv3Scratch() {
  thread_local Hv3Scratch s;
  return s;
}

/// dominates() on flat points, with the same comparisons.
bool dominates3(const Point3& a, const Point3& b) {
  bool strict = false;
  for (std::size_t d = 0; d < 3; ++d) {
    if (a[d] > b[d]) return false;
    if (a[d] < b[d]) strict = true;
  }
  return strict;
}

/// Hypervolume of s.pts (consumed). clipAndFilter and the sweep run on flat
/// points with the same comparisons, order and arithmetic as the general
/// path, so the volume is the same bit for bit.
double hv3(Hv3Scratch& s, const Point& ref) {
  std::erase_if(s.pts, [&](const Point3& p) {
    return p[0] >= ref[0] || p[1] >= ref[1] || p[2] >= ref[2];
  });
  s.front.clear();
  for (std::size_t i = 0; i < s.pts.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < s.pts.size() && !dominated; ++j)
      dominated = j != i && dominates3(s.pts[j], s.pts[i]);
    if (!dominated) s.front.push_back(s.pts[i]);
  }
  // Dimension sweep on z: process points by ascending z; between two
  // consecutive z-levels the dominated area in the (x, y) plane is the 2-D
  // hypervolume of the staircase of points already processed.
  std::sort(s.front.begin(), s.front.end(),
            [](const Point3& a, const Point3& b) { return a[2] < b[2]; });
  // Maintain the 2-D staircase as a sorted (x asc, y desc) non-dominated set.
  auto& stair = s.stair;
  stair.clear();
  double vol = 0.0;
  double area = 0.0;
  double prev_z = 0.0;
  bool first = true;

  auto staircaseArea = [&]() {
    double a = 0.0;
    double prev_y = ref[1];
    for (const auto& [x, y] : stair) {
      a += (ref[0] - x) * (prev_y - y);
      prev_y = y;
    }
    return a;
  };

  for (const auto& p : s.front) {
    if (!first) vol += area * (p[2] - prev_z);
    // Insert (x, y) into the staircase if 2-D non-dominated.
    const double x = p[0], y = p[1];
    bool dominated = false;
    for (const auto& [sx, sy] : stair)
      if (sx <= x && sy <= y) {
        dominated = true;
        break;
      }
    if (!dominated) {
      std::erase_if(stair, [&](const std::pair<double, double>& st) {
        return x <= st.first && y <= st.second;
      });
      stair.emplace_back(x, y);
      std::sort(stair.begin(), stair.end());
      area = staircaseArea();
    }
    prev_z = p[2];
    first = false;
  }
  if (!first) vol += area * (ref[2] - prev_z);
  return vol;
}

/// WFG-style recursion for M >= 4 (lower M take the sweeps): hv(S) over
/// sorted S is sum over i of exclusive contribution of S[i] against S[i+1..].
double hvWfg(std::vector<Point> pts, const Point& ref);

double exclusiveWfg(const Point& p, const std::vector<Point>& rest,
                    const Point& ref) {
  double box = 1.0;
  for (std::size_t d = 0; d < ref.size(); ++d) box *= ref[d] - p[d];
  if (rest.empty()) return box;
  // Limit the rest to the region dominated by p: q -> max(q, p).
  std::vector<Point> limited;
  limited.reserve(rest.size());
  for (const auto& q : rest) {
    Point lq(q.size());
    for (std::size_t d = 0; d < q.size(); ++d) lq[d] = std::max(q[d], p[d]);
    limited.push_back(std::move(lq));
  }
  return box - hvWfg(paretoFilter(limited), ref);
}

double hvWfg(std::vector<Point> pts, const Point& ref) {
  if (pts.empty()) return 0.0;
  // Sort to keep the recursion shallow (worse points first shrink fast).
  std::sort(pts.begin(), pts.end(),
            [](const Point& a, const Point& b) { return a.back() > b.back(); });
  double vol = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i)
    vol += exclusiveWfg(pts[i],
                        std::vector<Point>(pts.begin() + i + 1, pts.end()),
                        ref);
  return vol;
}

}  // namespace

double hypervolume(const std::vector<Point>& pts, const Point& ref) {
  const std::size_t m = ref.size();
  assert(m >= 1);
  if (m == 3) {
    Hv3Scratch& s = hv3Scratch();
    s.pts.clear();
    for (const auto& p : pts) s.pts.push_back({p[0], p[1], p[2]});
    return hv3(s, ref);
  }
  const std::vector<Point> front = clipAndFilter(pts, ref);
  if (front.empty()) return 0.0;
  if (m == 1) {
    double best = front[0][0];
    for (const auto& p : front) best = std::min(best, p[0]);
    return ref[0] - best;
  }
  if (m == 2) return hv2(front, ref);
  // The sweeps add non-negative terms only; the recursion subtracts, and
  // rounding could leave a volume a hair below zero.
  const double vol = hvWfg(front, ref);
  return vol < 0.0 ? 0.0 : vol;
}

double boxVolume(const Point& y, const Point& ref) {
  double box = 1.0;
  for (std::size_t d = 0; d < ref.size(); ++d) {
    if (y[d] >= ref[d]) return 0.0;
    box *= ref[d] - y[d];
  }
  return box;
}

double hypervolumeImprovement(const Point& y, const std::vector<Point>& pts,
                              const Point& ref) {
  // y outside the reference box contributes nothing; neither does a box
  // whose volume rounds to zero, as the covered volume is never negative.
  const double box = boxVolume(y, ref);
  if (box == 0.0 || pts.empty()) return box;
  // Exclusive volume: box minus what the limited set already covers.
  if (ref.size() == 3) {
    Hv3Scratch& s = hv3Scratch();
    s.pts.clear();
    for (const auto& p : pts)
      s.pts.push_back({std::max(p[0], y[0]), std::max(p[1], y[1]),
                       std::max(p[2], y[2])});
    return std::max(0.0, box - hv3(s, ref));
  }
  std::vector<Point> limited;
  limited.reserve(pts.size());
  for (const auto& p : pts) {
    Point lp(p.size());
    for (std::size_t d = 0; d < p.size(); ++d) lp[d] = std::max(p[d], y[d]);
    limited.push_back(std::move(lp));
  }
  const double covered = hypervolume(limited, ref);
  return std::max(0.0, box - covered);
}

Point referencePoint(const std::vector<Point>& pts, double margin_frac) {
  assert(!pts.empty());
  const std::size_t m = pts[0].size();
  Point lo = pts[0], hi = pts[0];
  for (const auto& p : pts)
    for (std::size_t d = 0; d < m; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  Point ref(m);
  for (std::size_t d = 0; d < m; ++d) {
    const double range = std::max(hi[d] - lo[d], 1e-12);
    ref[d] = hi[d] + margin_frac * range;
  }
  return ref;
}

}  // namespace cmmfo::pareto
