#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "exp/harness.h"
#include "exp/table.h"

namespace cmmfo::exp {
namespace {

// The simulator and the space's encoder point into the context's own
// benchmark, so a moved or copied context would read a moved-from kernel.
static_assert(!std::is_move_constructible_v<BenchmarkContext>);
static_assert(!std::is_copy_constructible_v<BenchmarkContext>);
static_assert(!std::is_move_assignable_v<BenchmarkContext>);

TEST(Harness, AdrsZeroForTrueParetoIndices) {
  BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  const auto& idx = ctx.groundTruth().paretoIndices();
  EXPECT_NEAR(ctx.adrsOf({idx.begin(), idx.end()}), 0.0, 1e-12);
}

TEST(Harness, AdrsPositiveForSingleBadConfig) {
  BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  // Baseline config (index of all-defaults) is generally not the whole front.
  std::vector<std::size_t> one = {0};
  EXPECT_GT(ctx.adrsOf(one), 0.0);
}

TEST(Harness, AdrsWorsensWhenDroppingFrontMembers) {
  BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  const auto& idx = ctx.groundTruth().paretoIndices();
  ASSERT_GT(idx.size(), 2u);
  std::vector<std::size_t> all(idx.begin(), idx.end());
  std::vector<std::size_t> half(idx.begin(), idx.begin() + idx.size() / 2);
  EXPECT_GE(ctx.adrsOf(half), ctx.adrsOf(all));
}

TEST(Harness, AdrsFiniteForEmptySelection) {
  BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  const double a = ctx.adrsOf({});
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_GT(a, 0.1);  // the worst-corner fallback is far from the front
}

TEST(Harness, EvaluateMethodAggregates) {
  BenchmarkContext ctx(bench_suite::makeSpmvCrs());
  baselines::RandomMethod random(20);
  const MethodStats s = evaluateMethod(ctx, random, 4, 42);
  EXPECT_EQ(s.runs.size(), 4u);
  EXPECT_EQ(s.method, "Random");
  EXPECT_GT(s.time_mean, 0.0);
  EXPECT_GE(s.adrs_std, 0.0);
  double acc = 0.0;
  for (const auto& r : s.runs) acc += r.adrs;
  EXPECT_NEAR(s.adrs_mean, acc / 4.0, 1e-12);
}

TEST(Harness, RepeatsFromEnvOverrides) {
  ::setenv("CMMFO_REPEATS", "3", 1);
  EXPECT_EQ(repeatsFromEnv(10), 3);
  ::unsetenv("CMMFO_REPEATS");
  EXPECT_EQ(repeatsFromEnv(10), 10);
}

TEST(Harness, FastModeFromEnv) {
  ::setenv("CMMFO_FAST", "1", 1);
  EXPECT_TRUE(fastModeFromEnv());
  EXPECT_EQ(repeatsFromEnv(10), 2);
  ::unsetenv("CMMFO_FAST");
  EXPECT_FALSE(fastModeFromEnv());
}

BenchmarkResults fakeResults() {
  BenchmarkResults row;
  row.benchmark = "fake";
  MethodStats ours;
  ours.method = "Ours";
  ours.adrs_mean = 0.1;
  ours.adrs_std = 0.01;
  ours.time_mean = 100.0;
  ours.wall_mean = 25.0;  // a 4-wide farm
  ours.runs.push_back({0.1, 100.0, 25.0, 10, 5});
  MethodStats ann;
  ann.method = "ANN";
  ann.adrs_mean = 0.2;
  ann.adrs_std = 0.02;
  ann.time_mean = 200.0;
  ann.wall_mean = 200.0;  // sequential
  ann.runs.push_back({0.2, 200.0, 200.0, 48, 9});
  row.by_method["Ours"] = ours;
  row.by_method["ANN"] = ann;
  return row;
}

TEST(Table, NormalizesToAnn) {
  std::ostringstream os;
  printTable1({fakeResults()}, {"Ours", "ANN"}, "ANN", os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Normalized ADRS"), std::string::npos);
  EXPECT_NE(out.find("0.50"), std::string::npos);  // ours/ann = 0.5
  EXPECT_NE(out.find("1.00"), std::string::npos);  // ann/ann = 1
  EXPECT_NE(out.find("Average"), std::string::npos);
}

TEST(Table, CsvDumpHasHeaderAndRows) {
  std::ostringstream os;
  writeRunsCsv({fakeResults()}, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("benchmark,method,run"), std::string::npos);
  EXPECT_NE(out.find("fake,ANN,0,0.2"), std::string::npos);
}

TEST(Table, MissingNormalizerHandled) {
  BenchmarkResults row = fakeResults();
  row.by_method.erase("ANN");
  std::ostringstream os;
  printTable1({row}, {"Ours"}, "ANN", os);
  EXPECT_NE(os.str().find("Ours"), std::string::npos);
}

}  // namespace
}  // namespace cmmfo::exp
