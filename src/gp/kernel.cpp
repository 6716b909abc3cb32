#include "gp/kernel.h"

namespace cmmfo::gp {

void PairCache::bind(const Dataset& x) {
  this->x = &x;
  const std::size_t pairs = x.size() * (x.size() + 1) / 2;
  value.resize(pairs);
  dshape.resize(pairs);
}

linalg::Matrix Kernel::gram(const Dataset& x) const {
  PairCache pairs;
  pairs.bind(x);
  linalg::Matrix k;
  pairGram(pairs, k);
  return k;
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
