#pragma once

#include "pareto/dominance.h"

namespace cmmfo::pareto {

/// Axis-aligned cell [lo, hi) in objective space.
struct Cell {
  Point lo;
  Point hi;
  double volume() const;
};

/// Grid decomposition of the reference box (Fig. 6 of the paper): the value
/// space is cut along every Pareto coordinate in every dimension, producing
/// a grid whose cells are each entirely dominated or entirely non-dominated
/// by the current front. Returns the NON-dominated cells C_nd — the region
/// where a new point can still improve the Pareto hypervolume (Eq. 8).
///
/// Cell count is O((|P|+1)^M); intended for M <= 3 and modest fronts, which
/// matches the paper's PPA setting.
std::vector<Cell> nonDominatedCells(const std::vector<Point>& front,
                                    const Point& ref);

/// E[(hi - max(lo, y))^+] for y ~ N(mu, sigma^2): the expected dominated
/// extent of one cell edge. `lo` may be -infinity (open cell). Building
/// block of the independent closed form below (and of the correlated 2-D
/// quadrature that tests/test_eipv2.cpp uses as an oracle for core::mcEipv).
double expectedDominatedEdge(double lo, double hi, double mu, double sigma);

/// Exact EIPV for INDEPENDENT Gaussian marginals (used by baselines and as
/// a Monte-Carlo cross-check): for each non-dominated cell, the expected
/// dominated volume separates into per-dimension 1-D Gaussian integrals.
/// `mu` / `sigma` are the per-objective predictive means / stddevs.
double exactEipvIndependent(const Point& mu, const Point& sigma,
                            const std::vector<Point>& front, const Point& ref);

}  // namespace cmmfo::pareto
