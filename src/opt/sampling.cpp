#include "opt/sampling.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "linalg/vec_ops.h"

namespace cmmfo::opt {

std::vector<std::size_t> randomSubset(std::size_t n, std::size_t k,
                                      rng::Rng& rng) {
  return rng.sampleWithoutReplacement(n, std::min(n, k));
}

std::vector<std::size_t> maximinSubset(
    const std::vector<std::vector<double>>& features, std::size_t k,
    rng::Rng& rng) {
  const std::size_t n = features.size();
  k = std::min(n, k);
  std::vector<std::size_t> chosen;
  if (k == 0) return chosen;

  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  std::size_t next = rng.index(n);
  for (std::size_t pick = 0; pick < k; ++pick) {
    chosen.push_back(next);
    // Update each candidate's distance to the chosen set and find the
    // farthest-from-everything candidate for the next pick.
    double best = -1.0;
    std::size_t arg = 0;
    for (std::size_t i = 0; i < n; ++i) {
      min_dist[i] =
          std::min(min_dist[i], linalg::dist2(features[i], features[next]));
      if (min_dist[i] > best) {
        best = min_dist[i];
        arg = i;
      }
    }
    next = arg;
  }
  return chosen;
}

}  // namespace cmmfo::opt
