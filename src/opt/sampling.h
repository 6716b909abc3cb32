#pragma once

#include <vector>

#include "rng/rng.h"

namespace cmmfo::opt {

/// Space-filling initial designs over a FINITE candidate set (the design
/// spaces here are enumerated, not continuous). Used for the BO
/// initialization step (Algorithm 2 line 4), where a well-spread seed set
/// noticeably stabilizes the first surrogate fits.

/// Uniform random subset without replacement (the paper's choice).
std::vector<std::size_t> randomSubset(std::size_t n, std::size_t k,
                                      rng::Rng& rng);

/// Greedy maximin design: start from a random point, then repeatedly add
/// the candidate maximizing its minimum Euclidean distance to the already
/// chosen points. O(n * k) distance evaluations.
std::vector<std::size_t> maximinSubset(
    const std::vector<std::vector<double>>& features, std::size_t k,
    rng::Rng& rng);

}  // namespace cmmfo::opt
