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
