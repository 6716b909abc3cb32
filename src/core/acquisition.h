#pragma once

#include "gp/multitask_gp.h"
#include "linalg/cholesky.h"
#include "pareto/dominance.h"
#include "rng/rng.h"

namespace cmmfo::core {

/// Monte-Carlo estimate of the Expected Improvement of Pareto hyper-Volume
/// (Eq. 7) under a CORRELATED multivariate-normal posterior: sample joint
/// objective vectors y ~ N(mu, cov) and average the exact hypervolume
/// improvement of each sample against the current front.
///
/// `std_normals` holds pre-drawn iid N(0,1) blocks (samples x M). Sharing
/// one block across all candidates of an optimization step (common random
/// numbers) makes the argmax comparison far less noisy than independent
/// draws would.
double mcEipv(const gp::Vec& mu, const linalg::Matrix& cov,
              const std::vector<pareto::Point>& front,
              const pareto::Point& ref,
              const std::vector<std::vector<double>>& std_normals);

/// The Monte-Carlo draws of mcEipv for one candidate: y_s = mu + L z_s for
/// every row z_s of `std_normals`, or the mean alone when the covariance is
/// a (near-)point mass or cannot be factorized. The draws go into `out`,
/// which keeps its capacity and its points theirs, and `chol` is
/// refactorized in place, so a caller that reuses both allocates nothing
/// per candidate once they are sized.
void eipvSamplesInto(const gp::Vec& mu, const linalg::Matrix& cov,
                     const std::vector<std::vector<double>>& std_normals,
                     linalg::Cholesky& chol, std::vector<pareto::Point>& out);

/// eipvSamplesInto on fresh storage.
std::vector<pareto::Point> eipvSamples(
    const gp::Vec& mu, const linalg::Matrix& cov,
    const std::vector<std::vector<double>>& std_normals);

/// mean_s HVI(y_s) over the draws: mcEipv is
/// eipvOfSamples(eipvSamples(mu, cov, z), front, ref).
double eipvOfSamples(const std::vector<pareto::Point>& samples,
                     const std::vector<pareto::Point>& front,
                     const pareto::Point& ref);

/// mean_s boxVolume(y_s, ref), summed in the same order as eipvOfSamples.
/// Each HVI(y_s) = max(0, box_s - covered_s) with covered_s >= 0 is at most
/// box_s, and rounded addition and division are monotone, so this is an
/// upper bound on eipvOfSamples of the same draws in IEEE arithmetic too,
/// at the cost of the draws alone.
double eipvBound(const std::vector<pareto::Point>& samples,
                 const pareto::Point& ref);

/// One candidate of a PEIPV scan: its joint posterior over the objectives
/// in the scan's normalized objective space.
struct ScanCandidate {
  gp::Vec mu;
  linalg::Matrix cov;
};

/// Scores of one scanned candidate; `index` is its position in the scan.
struct ScanScore {
  std::size_t index = 0;
  double eipv = 0.0;
  double peipv = 0.0;
};

struct PeipvScan {
  /// True when some candidate became the argmax: it beat the incumbent, or
  /// there was no incumbent and the scan had a candidate.
  bool improved = false;
  /// The argmax (valid when improved) and its peipv = penalty * eipv.
  std::size_t best = 0;
  double peipv = 0.0;
  /// The top_k candidates by peipv, descending, ties in candidate order.
  std::vector<ScanScore> top;
  /// Candidates whose EIPV ran; the bound skipped the rest.
  std::size_t evaluated = 0;
};

/// The Eq. 10 argmax over one fidelity's candidates, exactly as a
/// sequential loop would find it: peipv_i = penalty * mcEipv(mu_i, cov_i),
/// and candidate i becomes the argmax when there is none yet or
/// peipv_i > the current one (strict, so the first index wins a tie).
/// `incumbent` is the argmax value carried in from earlier scans of the same
/// step (nullptr when none). With top_k > 0 the scan also returns the
/// top_k scores a full sort of every candidate would list first.
///
/// Candidates whose bound penalty * eipvBound cannot reach the argmax (nor,
/// with top_k > 0, the k-th best score so far) skip the HVI sweeps. A scan
/// of more than one chunk walks the candidates a chunk at a time and runs
/// each chunk's survivors on the fork-join pool; the reduction then runs in
/// candidate order. The result does not depend on the thread count, and
/// every returned bit matches the sequential loop. (With top_k > 0 a NaN
/// score has no place in the ranking, so from the first one on the scan
/// stops skipping.)
PeipvScan scanPeipv(const std::vector<ScanCandidate>& candidates,
                    const std::vector<pareto::Point>& front,
                    const pareto::Point& ref,
                    const std::vector<std::vector<double>>& std_normals,
                    double penalty, const double* incumbent,
                    std::size_t top_k);

/// Draw a common-random-number block for mcEipv.
std::vector<std::vector<double>> drawStdNormals(std::size_t samples,
                                                std::size_t m, rng::Rng& rng);

/// Cost penalty of Eq. (10): PEIPV_i = EIPV_i * T_impl / T_i, favoring
/// cheap fidelities unless the expensive ones promise proportionally more.
double costPenalty(double t_this_fidelity, double t_impl);

/// Single-objective expected improvement (Eq. 2), minimization convention:
///   EI = sigma * (lambda Phi(lambda) + phi(lambda)),
///   lambda = (best - xi - mu) / sigma,
/// where `best` is the incumbent objective value and `xi` the exploration
/// jitter. Used by the Fig. 4 toy and available for scalarized studies.
double expectedImprovement(double mu, double sigma, double best,
                           double xi = 0.01);

}  // namespace cmmfo::core
