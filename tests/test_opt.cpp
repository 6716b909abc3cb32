#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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
double quadratic(const std::vector<double>& x, std::vector<double>* g) {
  const std::vector<double> c = {1.0, -2.0, 3.0};
  double f = 0.0;
  if (g) g->assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - c[i];
    f += (i + 1) * d * d;
    if (g) (*g)[i] = 2.0 * (i + 1) * d;
  }
  return f;
}

double rosenbrock(const std::vector<double>& x, std::vector<double>* g) {
  const double a = 1.0, b = 100.0;
  const double f = (a - x[0]) * (a - x[0]) +
                   b * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0]);
  if (g) {
    g->resize(2);
    (*g)[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
    (*g)[1] = 2.0 * b * (x[1] - x[0] * x[0]);
  }
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
  GradObjectiveFn bad = [](const std::vector<double>&, std::vector<double>* g) {
    if (g) *g = {0.0};
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

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Rosenbrock that logs every call: the point and whether a gradient was
// asked for.
struct CallLog {
  std::vector<std::vector<double>> x;
  std::vector<bool> grad;
};

GradObjectiveFn loggedRosenbrock(CallLog& log) {
  return [&log](const std::vector<double>& x, std::vector<double>* g) {
    log.x.push_back(x);
    log.grad.push_back(g != nullptr);
    return rosenbrock(x, g);
  };
}

TEST(Lbfgs, AsksForGradientsOnlyAtStartAndAcceptedSteps) {
  CallLog log;
  LbfgsOptions opts;
  opts.max_iters = 500;
  const std::vector<double> x0 = {-1.2, 1.0};
  const auto res = minimizeLbfgs(loggedRosenbrock(log), x0, opts);
  ASSERT_FALSE(log.x.empty());
  EXPECT_TRUE(log.grad[0]);
  EXPECT_TRUE(samePoint(log.x[0], x0));
  // Every later gradient request re-asks at the point of the value call
  // just before it, the trial the line search accepted; every other trial
  // is value-only, and some were rejected.
  std::size_t grads = 0, rejected = 0;
  for (std::size_t i = 1; i < log.x.size(); ++i) {
    if (log.grad[i]) {
      ++grads;
      EXPECT_FALSE(log.grad[i - 1]) << i;
      EXPECT_TRUE(samePoint(log.x[i], log.x[i - 1])) << i;
    } else if (i + 1 == log.x.size() || !log.grad[i + 1]) {
      ++rejected;
    }
  }
  EXPECT_GT(grads, 0u);
  EXPECT_GT(rejected, 0u);
  // The result is the last accepted point.
  std::size_t last = log.x.size();
  while (!log.grad[--last]) {
  }
  EXPECT_TRUE(samePoint(res.x, log.x[last]));
}

TEST(Lbfgs, LazyGradientsMatchAnAlwaysFilledGradient) {
  // An objective that computes and writes its gradient on every call (into
  // scratch when none is asked for) must steer the search exactly as one
  // that skips the gradient on value-only calls. The pinned bits are what
  // the search returned when every line-search trial computed a gradient.
  struct Pinned {
    std::vector<double> x0;
    std::uint64_t x[2], value;
    int iterations;
  };
  const Pinned pinned[] = {
      {{-1.2, 1.0}, {0x3ff000000495849bull, 0x3ff0000008f8ebecull},
       0x3cb8d88209fe031dull, 40},
      {{0.5, -0.3}, {0x3feffffffe3656c9ull, 0x3feffffffdf8ac70ull},
       0x3cce4f21e3feffacull, 40},
      {{2.0, 2.0}, {0x3ff000000b7452d3ull, 0x3ff0000016e762b9ull},
       0x3ce066930e560826ull, 28},
      {{-0.7, 0.4}, {0x3fefffffeaf5d4d8ull, 0x3fefffffd5b319b2ull},
       0x3cdbf8d39acacae8ull, 33}};
  const auto bitsOf = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  const GradObjectiveFn eager = [](const std::vector<double>& x,
                                   std::vector<double>* g) {
    std::vector<double> scratch;
    const double f = rosenbrock(x, &scratch);
    if (g) *g = scratch;
    return f;
  };
  LbfgsOptions opts;
  opts.max_iters = 500;
  for (const Pinned& p : pinned) {
    const auto lazy = minimizeLbfgs(rosenbrock, p.x0, opts);
    const auto full = minimizeLbfgs(eager, p.x0, opts);
    ASSERT_EQ(lazy.x.size(), 2u);
    ASSERT_EQ(full.x.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(bitsOf(lazy.x[i]), p.x[i]) << p.x0[0] << " x" << i;
      EXPECT_TRUE(sameBits(full.x[i], lazy.x[i])) << p.x0[0] << " x" << i;
    }
    EXPECT_EQ(bitsOf(lazy.value), p.value) << p.x0[0];
    EXPECT_TRUE(sameBits(full.value, lazy.value)) << p.x0[0];
    EXPECT_EQ(lazy.iterations, p.iterations) << p.x0[0];
    EXPECT_EQ(full.iterations, lazy.iterations) << p.x0[0];
    EXPECT_TRUE(lazy.converged && full.converged) << p.x0[0];
  }
}

// A run that `max_iters` ends asks for no gradient at its last accepted
// point: nothing reads it. Its x, value, iterations and converged bits are
// the ones the search returned when it still asked (pinned from that
// build); runs that converge at the budget's edge keep every gradient.
TEST(Lbfgs, AsksForNoGradientAfterTheLastIteration) {
  struct Pinned {
    std::vector<double> x0;
    int max_iters;
    std::uint64_t x[2], value;
    int iterations;
    bool converged;
    int gradients;  // start + accepted steps that later iterations read
  };
  const Pinned pinned[] = {
      {{-1.2, 1.0}, 5, {0xbff055e49b3d8a8dull, 0x3ff0dff8d464f23aull},
       0x401065d67e1957abull, 5, false, 5},
      {{0.5, -0.3}, 12, {0xbfd4aff8b4097674ull, 0x3fb79a479bb7fc34ull},
       0x3ffc41c95071f0f2ull, 12, false, 12},
      {{2.0, 2.0}, 1, {0x3ff0000000000000ull, 0x4001ff5c5d52c6cbull},
       0x40638580e0f924a7ull, 1, false, 1},
      {{-0.7, 0.4}, 25, {0x3fedd344f3d7db46ull, 0x3febc75c16ecad9cull},
       0x3f73123e551e995bull, 25, false, 25},
      {{-1.2, 1.0}, 40, {0x3ff000000495849bull, 0x3ff0000008f8ebecull},
       0x3cb8d88209fe031dull, 40, true, 40},
      {{2.0, 2.0}, 28, {0x3ff000000b7452d3ull, 0x3ff0000016e762b9ull},
       0x3ce066930e560826ull, 28, true, 28}};
  const auto bitsOf = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  for (const Pinned& p : pinned) {
    CallLog log;
    LbfgsOptions opts;
    opts.max_iters = p.max_iters;
    const auto res = minimizeLbfgs(loggedRosenbrock(log), p.x0, opts);
    ASSERT_EQ(res.x.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_EQ(bitsOf(res.x[i]), p.x[i]) << p.max_iters << " x" << i;
    EXPECT_EQ(bitsOf(res.value), p.value) << p.max_iters;
    EXPECT_EQ(res.iterations, p.iterations) << p.max_iters;
    EXPECT_EQ(res.converged, p.converged) << p.max_iters;
    int gradients = 0;
    for (const bool g : log.grad) gradients += g ? 1 : 0;
    EXPECT_EQ(gradients, p.gradients) << p.max_iters;
    if (!p.converged) {
      // The run ends on a value-only call at the point it returns.
      ASSERT_FALSE(log.x.empty());
      EXPECT_FALSE(log.grad.back()) << p.max_iters;
      EXPECT_TRUE(samePoint(log.x.back(), res.x)) << p.max_iters;
    }
  }
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
  return [tilt](const std::vector<double>& x, std::vector<double>* g) {
    const double v = x[0] * x[0] - 1.0;
    if (g) *g = {4.0 * v * x[0] + tilt};
    return v * v + tilt * x[0];
  };
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
  GradObjectiveFn f = [](const std::vector<double>& x, std::vector<double>* g) {
    if (x[0] > 5.0) {
      if (g) g->assign(2, 0.0);
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
                                  std::vector<double>* g) {
          if (g) *g = {0.0};
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
                                    std::vector<double>* g) {
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
                            std::vector<double>*) -> double {
                           throw std::runtime_error("objective failed");
                         });
                   },
                   {{0.0}, {1.0}, {2.0}, {3.0}}),
               std::runtime_error);
}

}  // namespace
}  // namespace cmmfo::opt
