#include <gtest/gtest.h>

#include "pareto/dominance.h"
#include "rng/rng.h"

namespace cmmfo::pareto {
namespace {

TEST(Dominance, Definition) {
  EXPECT_TRUE(dominates({1.0, 2.0}, {2.0, 3.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));   // equal in one coord
  EXPECT_FALSE(dominates({1.0, 2.0}, {1.0, 2.0}));  // equal: not strict
  EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0}));  // incomparable
  EXPECT_FALSE(dominates({2.0, 3.0}, {1.0, 2.0}));
}

TEST(Dominance, WeakIncludesEquality) {
  EXPECT_TRUE(weaklyDominates({1.0, 2.0}, {1.0, 2.0}));
  EXPECT_TRUE(weaklyDominates({1.0, 2.0}, {1.0, 3.0}));
  EXPECT_FALSE(weaklyDominates({1.5, 2.0}, {1.0, 3.0}));
}

TEST(Dominance, AntisymmetryOfStrictDominance) {
  rng::Rng rng(1);
  for (int t = 0; t < 200; ++t) {
    Point a = {rng.uniform(), rng.uniform(), rng.uniform()};
    Point b = {rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_FALSE(dominates(a, b) && dominates(b, a));
  }
}

TEST(Dominance, Transitivity) {
  rng::Rng rng(2);
  for (int t = 0; t < 500; ++t) {
    Point a = {rng.uniform(), rng.uniform()};
    Point b = {a[0] + rng.uniform(0.0, 0.5), a[1] + rng.uniform(0.0, 0.5)};
    Point c = {b[0] + rng.uniform(0.0, 0.5), b[1] + rng.uniform(0.0, 0.5)};
    if (dominates(a, b) && dominates(b, c)) {
      EXPECT_TRUE(dominates(a, c));
    }
  }
}

TEST(ParetoFilter, SimpleFront) {
  const std::vector<Point> pts = {{1, 4}, {2, 2}, {4, 1}, {3, 3}, {5, 5}};
  const auto front = paretoFilter(pts);
  EXPECT_EQ(front.size(), 3u);  // (1,4), (2,2), (4,1)
}

TEST(ParetoFilter, AllIncomparableKept) {
  const std::vector<Point> pts = {{1, 3}, {2, 2}, {3, 1}};
  EXPECT_EQ(paretoFilter(pts).size(), 3u);
}

TEST(ParetoFilter, DuplicatesAllKept) {
  const std::vector<Point> pts = {{1, 1}, {1, 1}, {2, 2}};
  EXPECT_EQ(paretoFilter(pts).size(), 2u);  // both copies of (1,1)
}

TEST(ParetoFilter, NoMemberDominatedProperty) {
  rng::Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    std::vector<Point> pts;
    for (int i = 0; i < 60; ++i)
      pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    const auto front = paretoFilter(pts);
    ASSERT_FALSE(front.empty());
    for (const auto& f : front)
      for (const auto& p : pts) EXPECT_FALSE(dominates(p, f));
    // Every excluded point is dominated by some front member.
    for (const auto& p : pts) {
      bool in_front = false;
      for (const auto& f : front)
        if (f == p) in_front = true;
      if (in_front) continue;
      bool covered = false;
      for (const auto& f : front)
        if (dominates(f, p)) covered = true;
      EXPECT_TRUE(covered);
    }
  }
}

TEST(ParetoFront, InsertAndEvict) {
  ParetoFront front;
  EXPECT_TRUE(front.insert({2, 2}, 0));
  EXPECT_TRUE(front.insert({1, 3}, 1));
  EXPECT_FALSE(front.insert({3, 3}, 2));  // dominated by (2,2)
  EXPECT_EQ(front.size(), 2u);
  EXPECT_TRUE(front.insert({1, 1}, 3));  // dominates everything
  EXPECT_EQ(front.size(), 1u);
  EXPECT_EQ(front.ids()[0], 3u);
}

TEST(ParetoFront, DuplicateRejected) {
  ParetoFront front;
  EXPECT_TRUE(front.insert({1, 2}));
  EXPECT_FALSE(front.insert({1, 2}));  // weakly dominated by the existing
  EXPECT_EQ(front.size(), 1u);
}

TEST(ParetoFront, WouldAcceptDoesNotMutate) {
  ParetoFront front;
  front.insert({2, 2});
  EXPECT_TRUE(front.wouldAccept({1, 3}));
  EXPECT_FALSE(front.wouldAccept({3, 3}));
  EXPECT_EQ(front.size(), 1u);
}

TEST(ParetoFront, MatchesBatchFilter) {
  rng::Rng rng(4);
  std::vector<Point> pts;
  for (int i = 0; i < 100; ++i) pts.push_back({rng.uniform(), rng.uniform()});
  ParetoFront front;
  for (std::size_t i = 0; i < pts.size(); ++i) front.insert(pts[i], i);
  EXPECT_EQ(front.size(), paretoFilter(pts).size());
}

TEST(ParetoFront, IdsTrackPoints) {
  ParetoFront front;
  front.insert({5, 1}, 10);
  front.insert({1, 5}, 20);
  front.insert({3, 3}, 30);
  ASSERT_EQ(front.size(), 3u);
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (front.ids()[i] == 30) {
      EXPECT_EQ(front.points()[i], (Point{3, 3}));
    }
  }
}

}  // namespace
}  // namespace cmmfo::pareto
