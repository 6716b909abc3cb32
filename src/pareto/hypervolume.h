#pragma once

#include "pareto/dominance.h"

namespace cmmfo::pareto {

/// Pareto hypervolume PV_ref(P) (Eq. 6): Lebesgue measure of the region
/// dominated by P and dominating the reference point `ref` (minimization;
/// every member of P must weakly dominate ref for its box to count).
///
/// Exact algorithms: sort-sweep for M = 2, dimension-sweep for M = 3 and a
/// WFG-style recursion for general M (intended for M <= 8).
double hypervolume(const std::vector<Point>& pts, const Point& ref);

/// Volume of the box [y, ref]: the product of (ref_d - y_d) in coordinate
/// order, or 0 when y does not strictly dominate ref. It is the first term
/// of hypervolumeImprovement and, bit for bit, an upper bound on it.
double boxVolume(const Point& y, const Point& ref);

/// Hypervolume improvement of adding y to P:
///   HVI(y, P) = PV(P ∪ {y}) - PV(P)
/// computed via the exclusive-volume identity
///   HVI = Vol([y, ref]) - PV({max(p, y) : p in P}, ref),
/// which avoids recomputing PV(P). Clamps to 0 for dominated y. The
/// subtracted volume is never negative, so the result never exceeds
/// boxVolume(y, ref), also after rounding.
double hypervolumeImprovement(const Point& y, const std::vector<Point>& pts,
                              const Point& ref);

/// Default reference point: componentwise max over `pts` plus a margin of
/// `margin_frac` of the per-component range (the paper's v_ref of "extremely
/// large values", made scale-free).
Point referencePoint(const std::vector<Point>& pts, double margin_frac = 0.1);

}  // namespace cmmfo::pareto
