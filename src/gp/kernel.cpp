#include "gp/kernel.h"

namespace cmmfo::gp {

linalg::Matrix Kernel::gram(const Dataset& x) const {
  // Blocked lower-triangle sweep writing straight into contiguous row-major
  // storage; entry values are pure functions of (i, j), so this is
  // bit-identical to the naive loop while keeping the mirrored writes in
  // cache for large n.
  return linalg::assembleSymmetricBlocked(
      x.size(), [&](std::size_t i, std::size_t j) { return eval(x[i], x[j]); });
}

void Kernel::gramGradTrace(const Dataset& x, const linalg::Matrix& w,
                           Vec& tr) const {
  const std::size_t n = x.size();
  tr.assign(numParams(), 0.0);
  for (std::size_t p = 0; p < tr.size(); ++p) {
    const linalg::Matrix dk = gramGrad(x, p);
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) s += w(i, j) * dk(i, j);
    tr[p] = s;
  }
}

linalg::Matrix Kernel::cross(const Dataset& x, const Dataset& z) const {
  linalg::Matrix k(x.size(), z.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < z.size(); ++j) k(i, j) = eval(x[i], z[j]);
  return k;
}

Vec Kernel::crossVec(const Dataset& x, const Vec& z) const {
  Vec k(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) k[i] = eval(x[i], z);
  return k;
}

}  // namespace cmmfo::gp
