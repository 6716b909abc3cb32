#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "opt/adam.h"
#include "opt/lbfgs.h"
#include "opt/multistart.h"

namespace cmmfo::opt {
namespace {

// Convex quadratic with minimum at (1, -2, 3).
double quadratic(const std::vector<double>& x, std::vector<double>& g) {
  const std::vector<double> c = {1.0, -2.0, 3.0};
  double f = 0.0;
  g.assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - c[i];
    f += (i + 1) * d * d;
    g[i] = 2.0 * (i + 1) * d;
  }
  return f;
}

double rosenbrock(const std::vector<double>& x, std::vector<double>& g) {
  const double a = 1.0, b = 100.0;
  const double f = (a - x[0]) * (a - x[0]) +
                   b * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0]);
  g.resize(2);
  g[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
  g[1] = 2.0 * b * (x[1] - x[0] * x[0]);
  return f;
}

TEST(Lbfgs, SolvesQuadratic) {
  const auto res = minimizeLbfgs(quadratic, {0.0, 0.0, 0.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
  EXPECT_NEAR(res.x[1], -2.0, 1e-5);
  EXPECT_NEAR(res.x[2], 3.0, 1e-5);
  EXPECT_NEAR(res.value, 0.0, 1e-9);
}

TEST(Lbfgs, SolvesRosenbrock) {
  LbfgsOptions opts;
  opts.max_iters = 500;
  const auto res = minimizeLbfgs(rosenbrock, {-1.2, 1.0}, opts);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 1.0, 1e-3);
}

TEST(Lbfgs, HandlesInfiniteStart) {
  GradObjectiveFn bad = [](const std::vector<double>&, std::vector<double>& g) {
    g = {0.0};
    return std::numeric_limits<double>::infinity();
  };
  const auto res = minimizeLbfgs(bad, {0.0});
  EXPECT_TRUE(std::isinf(res.value));
}

TEST(Lbfgs, RespectsIterationBudget) {
  LbfgsOptions opts;
  opts.max_iters = 3;
  const auto res = minimizeLbfgs(rosenbrock, {-1.2, 1.0}, opts);
  EXPECT_LE(res.iterations, 3);
}

TEST(Adam, SolvesQuadratic) {
  AdamOptions opts;
  opts.max_iters = 2000;
  opts.learning_rate = 0.05;
  const auto res = minimizeAdam(quadratic, {0.0, 0.0, 0.0}, opts);
  EXPECT_NEAR(res.x[0], 1.0, 1e-2);
  EXPECT_NEAR(res.x[1], -2.0, 1e-2);
  EXPECT_NEAR(res.x[2], 3.0, 1e-2);
}

TEST(Adam, StepperMovesAgainstGradient) {
  AdamStepper stepper(1);
  std::vector<double> p = {0.0};
  stepper.step(p, {1.0});
  EXPECT_LT(p[0], 0.0);
}

// Double-well along x: f = (x^2 - 1)^2 + tilt * x. With tilt 0 the wells
// at x = +-1 are exact mirror images, so starts at +-a end at bit-equal
// values with opposite x.
GradObjectiveFn doubleWell(double tilt) {
  return [tilt](const std::vector<double>& x, std::vector<double>& g) {
    const double v = x[0] * x[0] - 1.0;
    g = {4.0 * v * x[0] + tilt};
    return v * v + tilt * x[0];
  };
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(MinimizeFromStarts, EscapesBadStart) {
  // The tilt puts the global minimum at x = -1; the first start sits in
  // the worse well, the explicit spread reaches the better one.
  const auto res = minimizeFromStarts([] { return doubleWell(0.1); },
                                      {{0.9}, {1.7}, {0.2}, {-0.4}, {-2.5}});
  EXPECT_NEAR(res.best.x[0], -1.0, 0.1);
}

TEST(MinimizeFromStarts, MatchesSequentialLbfgsLoop) {
  // Rosenbrock from several starts, one start where the objective is
  // infinite, and a duplicate start (an exact tie the earlier copy wins).
  GradObjectiveFn f = [](const std::vector<double>& x, std::vector<double>& g) {
    if (x[0] > 5.0) {
      g.assign(2, 0.0);
      return std::numeric_limits<double>::infinity();
    }
    return rosenbrock(x, g);
  };
  const std::vector<std::vector<double>> starts = {
      {-1.2, 1.0}, {9.0, 0.0}, {0.5, -0.3}, {2.0, 2.0}, {0.5, -0.3}, {-0.7, 0.4}};
  LbfgsOptions opts;
  opts.max_iters = 40;

  OptResult seq;
  seq.value = std::numeric_limits<double>::infinity();
  int iters = 0;
  for (const auto& s : starts) {
    const OptResult r = minimizeLbfgs(f, s, opts);
    iters += r.iterations;
    if (std::isfinite(r.value) && r.value < seq.value) seq = r;
  }

  const auto res = minimizeFromStarts([&] { return f; }, starts, opts);
  ASSERT_EQ(res.best.x.size(), seq.x.size());
  for (std::size_t i = 0; i < seq.x.size(); ++i)
    EXPECT_TRUE(sameBits(res.best.x[i], seq.x[i])) << i;
  EXPECT_TRUE(sameBits(res.best.value, seq.value));
  EXPECT_EQ(res.best.iterations, seq.iterations);
  EXPECT_EQ(res.best.converged, seq.converged);
  EXPECT_EQ(res.iterations, iters);
  EXPECT_EQ(res.budget, 6 * 40);
}

TEST(MinimizeFromStarts, FirstStartWinsExactTie) {
  for (const double first : {-0.9, 0.9}) {
    const auto res =
        minimizeFromStarts([] { return doubleWell(0.0); }, {{first}, {-first}});
    ASSERT_EQ(res.best.x.size(), 1u);
    EXPECT_NEAR(res.best.x[0], first > 0.0 ? 1.0 : -1.0, 1e-3);
  }
}

TEST(MinimizeFromStarts, AllStartsInfiniteLeavesNoBest) {
  const auto res = minimizeFromStarts(
      [] {
        return GradObjectiveFn([](const std::vector<double>&,
                                  std::vector<double>& g) {
          g = {0.0};
          return std::numeric_limits<double>::infinity();
        });
      },
      {{0.0}, {1.0}, {2.0}});
  EXPECT_TRUE(std::isinf(res.best.value));
  EXPECT_TRUE(res.best.x.empty());
  EXPECT_EQ(res.iterations, 0);
}

TEST(MinimizeFromStarts, NestedAndConcurrentSearchesComplete) {
  // Every start of the outer searches runs a whole inner search: callers
  // help with their own batches, so nesting on a shared pool cannot stall.
  const auto outer = [] {
    return minimizeFromStarts(
        [] {
          return GradObjectiveFn([](const std::vector<double>& x,
                                    std::vector<double>& g) {
            const auto inner = minimizeFromStarts(
                [] { return doubleWell(0.1); }, {{0.9}, {-0.9}, {0.1}});
            return inner.best.value + quadratic(x, g);
          });
        },
        {{0.0, 0.0, 0.0}, {2.0, -1.0, 1.0}, {-3.0, 0.0, 4.0}});
  };
  const auto solo = outer();
  MultiStartResult a, b;
  std::thread ta([&] { a = outer(); });
  std::thread tb([&] { b = outer(); });
  ta.join();
  tb.join();
  for (const auto* r : {&a, &b}) {
    EXPECT_TRUE(sameBits(r->best.value, solo.best.value));
    EXPECT_EQ(r->iterations, solo.iterations);
  }
}

TEST(MinimizeFromStarts, PropagatesObjectiveExceptions) {
  EXPECT_THROW(minimizeFromStarts(
                   [] {
                     return GradObjectiveFn(
                         [](const std::vector<double>&,
                            std::vector<double>&) -> double {
                           throw std::runtime_error("objective failed");
                         });
                   },
                   {{0.0}, {1.0}, {2.0}, {3.0}}),
               std::runtime_error);
}

}  // namespace
}  // namespace cmmfo::opt
