#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/stats.h"
#include "linalg/vec_ops.h"
#include "rng/rng.h"

namespace cmmfo::linalg {
namespace {

Matrix randomSpd(std::size_t n, rng::Rng& rng, double noise = 1e-3) {
  // A = G G^T + noise * I is SPD for any G.
  Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.normal();
  Matrix a = g.matmul(g.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += noise;
  return a;
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, IdentityAndDiag) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3.trace(), 3.0);
  const Matrix d = Matrix::diag({2.0, 5.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulIdentityIsNoop) {
  rng::Rng rng(1);
  const Matrix a = randomSpd(5, rng);
  EXPECT_LT(a.matmul(Matrix::identity(5)).maxAbsDiff(a), 1e-14);
}

TEST(Matrix, TransposeInvolution) {
  Matrix a = {{1, 2, 3}, {4, 5, 6}};
  EXPECT_LT(a.transposed().transposed().maxAbsDiff(a), 1e-15);
  EXPECT_EQ(a.transposed().rows(), 3u);
}

TEST(Matrix, MatvecMatchesMatmul) {
  Matrix a = {{1, 2}, {3, 4}, {5, 6}};
  const std::vector<double> v = {2.0, -1.0};
  const auto out = a.matvec(v);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[2], 4.0);
}

TEST(Matrix, VecmatIsTransposedMatvec) {
  Matrix a = {{1, 2}, {3, 4}, {5, 6}};
  const std::vector<double> v = {1.0, 1.0, 1.0};
  const auto out = a.vecmat(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 9.0);
  EXPECT_DOUBLE_EQ(out[1], 12.0);
}

TEST(Matrix, SymmetrizeMakesSymmetric) {
  Matrix a = {{1, 2}, {4, 1}};
  a.symmetrize();
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{1, 1}, {1, 1}};
  const Matrix c = a + b * 2.0 - b;
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 5.0);
}

TEST(VecOps, DotAndNorms) {
  const std::vector<double> a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(normInf({-7.0, 2.0}), 7.0);
  EXPECT_DOUBLE_EQ(dist2({0.0, 0.0}, a), 5.0);
}

TEST(VecOps, AxpyConcatHadamard) {
  std::vector<double> y = {1.0, 1.0};
  axpy(2.0, {1.0, 2.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  const auto c = concat({1.0}, {2.0, 3.0});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[2], 3.0);
  const auto h = hadamard({2.0, 3.0}, {4.0, 5.0});
  EXPECT_DOUBLE_EQ(h[1], 15.0);
}

class CholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizes, ReconstructsMatrix) {
  rng::Rng rng(GetParam());
  const Matrix a = randomSpd(GetParam(), rng);
  const auto chol = Cholesky::factorize(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix l = chol->lower();
  EXPECT_LT(l.matmul(l.transposed()).maxAbsDiff(a), 1e-9 * a.frobeniusNorm());
}

TEST_P(CholeskySizes, SolveSatisfiesSystem) {
  rng::Rng rng(GetParam() + 100);
  const std::size_t n = GetParam();
  const Matrix a = randomSpd(n, rng);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.normal();
  const auto chol = Cholesky::factorize(a);
  ASSERT_TRUE(chol.has_value());
  const auto x = chol->solve(b);
  const auto ax = a.matvec(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-7);
}

TEST_P(CholeskySizes, LogDetMatchesProductOfPivots) {
  rng::Rng rng(GetParam() + 200);
  const Matrix a = randomSpd(GetParam(), rng);
  const auto chol = Cholesky::factorize(a);
  ASSERT_TRUE(chol.has_value());
  // Cross-check against the inverse: logdet(A) = -logdet(A^{-1}).
  const auto inv_chol = Cholesky::factorize(chol->inverse());
  ASSERT_TRUE(inv_chol.has_value());
  EXPECT_NEAR(chol->logDet(), -inv_chol->logDet(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40));

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = {{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factorize(a).has_value());
}

TEST(Cholesky, JitterRescuesSingular) {
  // Rank-1 matrix: plain factorization fails, jitter succeeds.
  Matrix a = {{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_FALSE(Cholesky::factorize(a).has_value());
  const auto chol = Cholesky::factorizeWithJitter(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_GT(chol->jitterUsed(), 0.0);
}

TEST(Cholesky, InverseTimesMatrixIsIdentity) {
  rng::Rng rng(5);
  const Matrix a = randomSpd(6, rng);
  const auto chol = Cholesky::factorize(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_LT(a.matmul(chol->inverse()).maxAbsDiff(Matrix::identity(6)), 1e-7);
}

TEST(Cholesky, IdentityLogDetZero) {
  const auto chol = Cholesky::factorize(Matrix::identity(4));
  ASSERT_TRUE(chol.has_value());
  EXPECT_NEAR(chol->logDet(), 0.0, 1e-12);
}

// Every entry's bit pattern, signed zeros included.
bool sameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// A = G G^T with G n x ceil(n/2): rank deficient for n >= 2, so the plain
// factorization fails and the jitter ladder has to climb.
Matrix rankDeficient(std::size_t n, rng::Rng& rng) {
  const std::size_t r = (n + 1) / 2;
  Matrix g(n, r);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < r; ++j) g(i, j) = rng.normal();
  return g.matmul(g.transposed());
}

// The scalar left-looking loop the blocked factor replaced, kept as the
// oracle: each l(i, j) is a(i, j) [+ jitter], minus l(i, k) * l(j, k) for k
// ascending, then sqrt or / l_jj.
std::optional<Matrix> scalarFactor(const Matrix& a, double jitter) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) return std::nullopt;
    const double ljj = std::sqrt(d);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      const double* li = l.rowPtr(i);
      const double* lj = l.rowPtr(j);
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      l(i, j) = s / ljj;
    }
  }
  return l;
}

TEST(Cholesky, BlockedFactorBitwiseEqualsScalarLoop) {
  rng::Rng rng(17);
  for (std::size_t n : {1, 2, 3, 4, 5, 7, 9, 15, 16, 17, 31, 33, 47, 63, 64,
                        65, 99, 130}) {
    const Matrix spd = randomSpd(n, rng);
    const auto chol = Cholesky::factorize(spd);
    const auto ref = scalarFactor(spd, 0.0);
    ASSERT_TRUE(chol.has_value() && ref.has_value()) << "n=" << n;
    EXPECT_TRUE(sameBits(chol->lower(), *ref)) << "spd n=" << n;

    // Jitter ladder: the jittered factor equals the scalar loop run with
    // the jitter the ladder settled on.
    const Matrix low_rank = rankDeficient(n, rng);
    const auto jittered = Cholesky::factorizeWithJitter(low_rank);
    ASSERT_TRUE(jittered.has_value()) << "n=" << n;
    const auto jref = scalarFactor(low_rank, jittered->jitterUsed());
    ASSERT_TRUE(jref.has_value()) << "n=" << n;
    EXPECT_TRUE(sameBits(jittered->lower(), *jref)) << "jitter n=" << n;

    // A refactorize() that reuses the object's storage gives the same bits.
    Cholesky reused;
    ASSERT_TRUE(reused.refactorize(spd));
    ASSERT_TRUE(reused.refactorize(low_rank));
    EXPECT_TRUE(sameBits(reused.lower(), *jref)) << "reused n=" << n;

    // Indefinite: both give up.
    Matrix bad = spd;
    bad(n - 1, n - 1) = -1.0;
    EXPECT_EQ(Cholesky::factorize(bad).has_value(),
              scalarFactor(bad, 0.0).has_value())
        << "n=" << n;
  }

  // One object refactorized down across the register-block boundary, as a
  // reused sampler factor is: each size still gets the scalar loop's bits,
  // also after a failed factorization left stale rows behind.
  Cholesky shrinking;
  for (std::size_t n : {20, 3, 1, 16, 2, 15}) {
    const Matrix spd = randomSpd(n, rng);
    Matrix bad = spd;
    bad(0, 0) = -1.0;
    EXPECT_FALSE(shrinking.refactorize(bad, 1e-12, 1)) << "n=" << n;
    ASSERT_TRUE(shrinking.refactorize(spd)) << "n=" << n;
    EXPECT_TRUE(sameBits(shrinking.lower(), *scalarFactor(spd, 0.0)))
        << "reused down to n=" << n;
    const Matrix low_rank = rankDeficient(n, rng);
    ASSERT_TRUE(shrinking.refactorize(low_rank)) << "n=" << n;
    EXPECT_TRUE(sameBits(shrinking.lower(),
                         *scalarFactor(low_rank, shrinking.jitterUsed())))
        << "reused jitter n=" << n;
  }
}

TEST(Cholesky, IdentityInverseBitwiseEqualsGenericSolve) {
  rng::Rng rng(19);
  for (std::size_t n = 1; n <= 200; ++n) {
    const auto spd = Cholesky::factorize(randomSpd(n, rng));
    ASSERT_TRUE(spd.has_value()) << "n=" << n;
    EXPECT_TRUE(sameBits(spd->inverse(), spd->solve(Matrix::identity(n))))
        << "spd n=" << n;
    // Jitter-ladder factors; inverseInto on a reused, wrongly sized buffer.
    if (n % 3 != 0) continue;
    const auto jittered = Cholesky::factorizeWithJitter(rankDeficient(n, rng));
    ASSERT_TRUE(jittered.has_value()) << "n=" << n;
    Matrix out(n + 1, 2, -1.0);
    jittered->inverseInto(out);
    EXPECT_TRUE(sameBits(out, jittered->solve(Matrix::identity(n))))
        << "jitter n=" << n;
  }
}

TEST(Cholesky, MvnSampleCovarianceMatches) {
  rng::Rng rng(6);
  Matrix cov = {{2.0, 0.8}, {0.8, 1.0}};
  const auto chol = Cholesky::factorize(cov);
  ASSERT_TRUE(chol.has_value());
  const std::vector<double> mu = {1.0, -1.0};
  const int n = 40000;
  double m0 = 0, m1 = 0, c00 = 0, c01 = 0, c11 = 0;
  std::vector<double> z;
  for (int i = 0; i < n; ++i) {
    mvnSample(mu, *chol, {rng.normal(), rng.normal()}, z);
    m0 += z[0];
    m1 += z[1];
    c00 += (z[0] - mu[0]) * (z[0] - mu[0]);
    c01 += (z[0] - mu[0]) * (z[1] - mu[1]);
    c11 += (z[1] - mu[1]) * (z[1] - mu[1]);
  }
  EXPECT_NEAR(m0 / n, 1.0, 0.03);
  EXPECT_NEAR(m1 / n, -1.0, 0.03);
  EXPECT_NEAR(c00 / n, 2.0, 0.06);
  EXPECT_NEAR(c01 / n, 0.8, 0.04);
  EXPECT_NEAR(c11 / n, 1.0, 0.03);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_NEAR(sampleStddev(v), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(minElem(v), 1.0);
  EXPECT_DOUBLE_EQ(maxElem(v), 4.0);
}

TEST(Stats, StandardizerRoundTrip) {
  const std::vector<double> v = {10.0, 20.0, 30.0};
  const auto s = Standardizer::fit(v);
  for (double x : v) EXPECT_NEAR(s.inverse(s.transform(x)), x, 1e-12);
  const auto t = s.transform(v);
  EXPECT_NEAR(mean(t), 0.0, 1e-12);
}

TEST(Stats, StandardizerConstantTargets) {
  const auto s = Standardizer::fit({5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(s.stddev, 1.0);  // guards against divide-by-zero
  EXPECT_DOUBLE_EQ(s.transform(5.0), 0.0);
}

TEST(Stats, MinMaxScaler) {
  const auto s = MinMaxScaler::fit({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(s.transform(2.0), 0.0);
  EXPECT_DOUBLE_EQ(s.transform(6.0), 1.0);
  EXPECT_DOUBLE_EQ(s.transform(4.0), 0.5);
  EXPECT_DOUBLE_EQ(s.inverse(0.5), 4.0);
}

}  // namespace
}  // namespace cmmfo::linalg
