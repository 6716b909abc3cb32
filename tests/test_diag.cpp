// Flight-recorder (diagnostics) tests. The load-bearing property mirrors the
// observability layer's: recording must never perturb the optimization — the
// seed-77 golden trajectory pinned in test_runtime.cpp must come out
// bit-for-bit identical with the recorder fully on. On top of that:
// calibration math against hand-computed references (1e-12), JSON escaping
// and %.17g round-trips of the checkpointable digest, seeded health checks
// firing into both journal and summary, "-" stdout dumps, and the HTML
// report renderer. All suites are named Diag* so the TSan smoke
// (run_benches.sh --tsan-smoke) picks them up — the concurrent health
// emission test is the no-tear witness for concurrent server driver slots.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.h"
#include "core/checkpoint.h"
#include "core/optimizer.h"
#include "obs/calibration.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "runtime/eval_cache.h"
#include "runtime/scheduler.h"
#include "util/json.h"

namespace cmmfo {
namespace {

using obs::CalibrationAgg;
using obs::CalibrationSample;
using obs::DiagState;
using obs::HealthKind;
using obs::HealthThresholds;
using obs::HealthWarning;
using obs::kZ95;
using sim::Fidelity;

// The recorder is process-global (scheduler workers reach it without
// plumbing), so every test that touches it wipes it on entry and exit.
struct GlobalDiagGuard {
  GlobalDiagGuard() { reset(); }
  ~GlobalDiagGuard() { reset(); }
  static void reset() {
    obs::recorder().setEnabled(false);
    obs::recorder().clear();
    obs::recorder().setThresholds(HealthThresholds{});
    obs::recorder().setAdrsScorer({});
  }
};

struct Fixture {
  Fixture()
      : bm(bench_suite::makeSpmvCrs()),
        space(hls::DesignSpace::buildPruned(bm.kernel, bm.spec)),
        sim(bm.kernel, sim::DeviceModel::virtex7Vc707(), bm.sim_params, 42) {}
  bench_suite::Benchmark bm;
  hls::DesignSpace space;
  sim::FpgaToolSim sim;
};

core::OptimizerOptions fastOpts() {
  core::OptimizerOptions o;
  o.n_iter = 10;
  o.mc_samples = 16;
  o.max_candidates = 60;
  o.refit_every = 5;
  o.surrogate.mtgp.mle_restarts = 0;
  o.surrogate.mtgp.max_mle_iters = 25;
  o.surrogate.gp.mle_restarts = 0;
  o.surrogate.gp.max_mle_iters = 25;
  return o;
}

// ------------------------------------------------------- calibration ----

// Hand-computed references: y = 1.3, mu = 1.0, var = 0.04 (sigma = 0.2).
// z = 0.3 / 0.2 = 1.5 exactly; NLPD = 0.5 ln(2 pi 0.04) + 0.09 / 0.08.
TEST(DiagCalibration, MatchesHandComputedReference) {
  const double y = 1.3, mu = 1.0, var = 0.04;
  EXPECT_NEAR(obs::standardizedResidual(y, mu, var), 1.5, 1e-12);
  const double expected_nlpd =
      0.5 * std::log(2.0 * M_PI * var) + 0.09 / (2.0 * var);
  EXPECT_NEAR(obs::nlpd(y, mu, var), expected_nlpd, 1e-12);
  EXPECT_TRUE(obs::in95(y, mu, var));  // |z| = 1.5 < 1.96

  // The exact 95% boundary counts as inside; a hair beyond is outside.
  const double sigma = 0.2;
  EXPECT_TRUE(obs::in95(mu + kZ95 * sigma, mu, var));
  EXPECT_FALSE(obs::in95(mu + (kZ95 + 1e-9) * sigma, mu, var));
  EXPECT_TRUE(obs::in95(mu - kZ95 * sigma, mu, var));
}

TEST(DiagCalibration, NonpositiveVarianceIsClampedNotNan) {
  for (const double var : {0.0, -1.0}) {
    EXPECT_TRUE(std::isfinite(obs::nlpd(1.0, 1.0, var)));
    EXPECT_TRUE(std::isfinite(obs::standardizedResidual(1.0, 1.0, var)));
    // y == mu has residual 0 regardless of the clamp.
    EXPECT_DOUBLE_EQ(obs::standardizedResidual(1.0, 1.0, var), 0.0);
  }
}

TEST(DiagCalibration, AggregateMatchesDirectComputation) {
  CalibrationAgg agg;
  EXPECT_TRUE(std::isnan(agg.coverage()));
  EXPECT_TRUE(std::isnan(agg.meanNlpd()));

  // Four samples around N(0, 1): three inside the 95% interval, one far out.
  const std::vector<double> ys = {0.5, -1.2, 0.3, 4.0};
  double nlpd_sum = 0.0, z_sum = 0.0, z_sq = 0.0;
  for (const double y : ys) {
    agg.add(y, 0.0, 1.0);
    nlpd_sum += obs::nlpd(y, 0.0, 1.0);
    z_sum += y;  // sigma = 1, mu = 0 => z = y
    z_sq += y * y;
  }
  EXPECT_EQ(agg.n, 4);
  EXPECT_EQ(agg.n_in95, 3);
  EXPECT_NEAR(agg.coverage(), 0.75, 1e-12);
  EXPECT_NEAR(agg.meanNlpd(), nlpd_sum / 4.0, 1e-12);
  EXPECT_NEAR(agg.meanResid(), z_sum / 4.0, 1e-12);
  const double mean = z_sum / 4.0;
  EXPECT_NEAR(agg.residStddev(), std::sqrt(z_sq / 4.0 - mean * mean), 1e-12);
}

// --------------------------------------------------- golden invariance ----

// The same seed-77 trajectory test_runtime.cpp pins with diagnostics off,
// re-run with the flight recorder fully on. The recorder's extra predict()
// calls draw no RNG and feed nothing back, so every pick, every fidelity and
// the charged seconds must come out bit-for-bit identical.
TEST(DiagInvariance, GoldenTrajectoryIdenticalWithRecorderOn) {
  GlobalDiagGuard guard;
  obs::recorder().setAdrsScorer(
      [](const std::vector<std::size_t>& sel) -> double {
        return static_cast<double>(sel.size());
      });
  obs::recorder().setEnabled(true);

  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.seed = 77;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  const auto res = opt.run();

  const std::vector<std::pair<std::size_t, Fidelity>> golden = {
      {275, Fidelity::kImpl}, {184, Fidelity::kImpl}, {132, Fidelity::kImpl},
      {228, Fidelity::kSyn},  {20, Fidelity::kSyn},   {89, Fidelity::kHls},
      {194, Fidelity::kHls},  {57, Fidelity::kHls},   {75, Fidelity::kHls},
      {35, Fidelity::kHls},   {3, Fidelity::kHls},    {0, Fidelity::kHls},
      {7, Fidelity::kHls},    {5, Fidelity::kHls},    {17, Fidelity::kHls},
      {52, Fidelity::kHls},   {1, Fidelity::kHls},    {15, Fidelity::kHls},
  };
  ASSERT_EQ(res.cs.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(res.cs[i].config, golden[i].first) << "at index " << i;
    EXPECT_EQ(res.cs[i].fidelity, golden[i].second) << "at index " << i;
  }
  EXPECT_DOUBLE_EQ(res.tool_seconds, 3062.9170931904364);
  EXPECT_EQ(res.tool_runs, 18);

  // The journal is populated: one decision per BO pick, one model record
  // per (round, level), calibration joins for the valid picks, convergence
  // lines carrying the oracle ADRS — and every line is valid JSON.
  const DiagState st = obs::recorder().state();
  EXPECT_EQ(st.decisions, 10);  // n_iter = 10 picks
  EXPECT_GT(st.rounds, 0);
  EXPECT_GT(st.samples, 0);
  long long agg_n = 0;
  for (int l = 0; l < obs::kNumLevels; ++l)
    for (int m = 0; m < obs::kNumObjectives; ++m) agg_n += st.agg[l][m].n;
  EXPECT_GT(agg_n, 0);

  const std::string journal = obs::recorder().journal();
  std::size_t lines = 0, pos = 0;
  bool saw_decision = false, saw_model = false, saw_calibration = false,
       saw_convergence = false, saw_adrs = false;
  while (pos < journal.size()) {
    const std::size_t nl = journal.find('\n', pos);
    const std::string line = journal.substr(pos, nl - pos);
    pos = nl == std::string::npos ? journal.size() : nl + 1;
    if (line.empty()) continue;
    ++lines;
    util::Json j;
    std::string err;
    ASSERT_TRUE(util::parseJson(line, &j, &err)) << err << "\n" << line;
    const std::string type = j.strOr("type", "");
    saw_decision |= type == "decision";
    saw_model |= type == "model";
    saw_calibration |= type == "calibration";
    if (type == "convergence") {
      saw_convergence = true;
      saw_adrs |= j.numOr("adrs", -1.0) > 0.0;
    }
  }
  EXPECT_GE(lines, 3u);
  EXPECT_TRUE(saw_decision);
  EXPECT_TRUE(saw_model);
  EXPECT_TRUE(saw_calibration);
  EXPECT_TRUE(saw_convergence);
  EXPECT_TRUE(saw_adrs);
}

TEST(DiagInvariance, DisabledRecorderIngestsNothing) {
  GlobalDiagGuard guard;
  ASSERT_FALSE(obs::recorder().enabled());
  CalibrationSample s;
  s.y = {1.0};
  s.mu = {0.0};
  s.var = {1.0};
  obs::recorder().addCalibrationSample(std::move(s));
  obs::recorder().addDecision({});
  obs::recorder().addModelRecord({});
  obs::recorder().endRound(0, 1.0, {}, 0.0, 0, 0);
  obs::recorder().health({});
  EXPECT_EQ(obs::recorder().recordCount(), 0u);
  EXPECT_EQ(obs::recorder().healthCount(), 0u);
}

// ----------------------------------------------------- JSON round-trip ----

TEST(DiagJson, StringEscapingRoundTripsThroughParser) {
  const std::string nasty =
      "quote \" backslash \\ newline \n tab \t cr \r bell \b ff \f ctrl \x01 "
      "unicode \xc3\xa9";
  std::string out;
  util::putString(out, nasty);
  // The escaped form is pure ASCII-visible JSON: no raw control bytes.
  for (const char c : out)
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20) << "raw control byte";
  util::Json j;
  std::string err;
  ASSERT_TRUE(util::parseJson(out, &j, &err)) << err;
  ASSERT_EQ(j.kind, util::Json::kStr);
  EXPECT_EQ(j.str, nasty);  // byte-exact, UTF-8 payload untouched
}

TEST(DiagJson, NonFiniteDoublesSerializeAsNull) {
  std::string out;
  util::putDoubleOrNull(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "null");
  out.clear();
  util::putDoubleOrNull(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  out.clear();
  util::putVecOrNull(out, {1.5, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(out, "[1.5,null]");
  util::Json j;
  ASSERT_TRUE(util::parseJson(out, &j, nullptr));
  ASSERT_EQ(j.arr.size(), 2u);
  EXPECT_EQ(j.arr[1].kind, util::Json::kNull);
}

TEST(DiagJson, HealthMessagesWithSpecialCharsSurviveTheJournal) {
  GlobalDiagGuard guard;
  obs::recorder().setEnabled(true);
  HealthWarning w;
  w.kind = HealthKind::kRetryStorm;
  w.fidelity = 1;
  w.message = "path \"C:\\tools\"\nline2\ttab";
  obs::recorder().health(w);
  const std::string journal = obs::recorder().journal();
  // Every journal line parses, and the message round-trips byte-exact.
  const obs::Journal parsed = obs::parseJournal(journal);
  EXPECT_EQ(parsed.skipped_lines, 0u);
  bool found = false;
  for (const util::Json& j : parsed.records)
    if (j.strOr("type", "") == "health") {
      EXPECT_EQ(j.strOr("message", ""), w.message);
      found = true;
    }
  EXPECT_TRUE(found);
}

// ------------------------------------------------ checkpoint round-trip ----

// %.17g round-trips IEEE-754 binary64 exactly — including denormals — so
// the diagnostics digest restored from a checkpoint journal is the one that
// was saved, bit for bit (operator== compares every double exactly).
TEST(DiagCheckpoint, DigestRoundTripsThroughJournalExactly) {
  core::CheckpointState st;
  st.has_diag = true;
  DiagState& dg = st.diag;
  dg.rounds = 12;
  dg.samples = 34;
  dg.decisions = 56;
  dg.agg[0][0] = {17, 16, 123.45678901234567, -0.000123456789012345,
                  98.76543210987654};
  dg.agg[1][2] = {3, 2, 5e-324,  // denormal min
                  std::numeric_limits<double>::denorm_min(),
                  std::numeric_limits<double>::min()};
  dg.agg[2][1] = {1, 1, std::numeric_limits<double>::max(),
                  -std::numeric_limits<double>::max(),
                  1.0 + std::numeric_limits<double>::epsilon()};
  HealthWarning w;
  w.kind = HealthKind::kGramConditionBlowup;
  w.round = 3;
  w.fidelity = 2;
  w.value = 13.000000000000002;
  w.threshold = 12.0;
  w.message = "Gram \"blowup\" at level impl\nnumerics suspect\t(1e13)";
  dg.warnings.push_back(w);

  const std::string text = core::serializeCheckpoint(st);
  core::CheckpointState back;
  std::string err;
  ASSERT_TRUE(core::parseCheckpoint(text, &back, &err)) << err;
  ASSERT_TRUE(back.has_diag);
  EXPECT_TRUE(back.diag == st.diag);
}

// Kind 3 (cache_hit_collapse) is no longer emitted, but journals written
// while it was hold it: such a digest must still parse, keep its kind and
// serialize back to the same bytes.
TEST(DiagCheckpoint, RetiredCacheHitCollapseKindStillParses) {
  core::CheckpointState st;
  st.has_diag = true;
  st.diag.rounds = 11;
  HealthWarning w;
  w.kind = static_cast<HealthKind>(3);
  w.round = 11;
  w.value = 0.0;
  w.threshold = 0.01;
  w.message = "evaluation-cache hit rate collapsed";
  st.diag.warnings.push_back(w);

  const std::string text = core::serializeCheckpoint(st);
  EXPECT_NE(text.find("\"kind\": 3"), std::string::npos) << text;
  core::CheckpointState back;
  std::string err;
  ASSERT_TRUE(core::parseCheckpoint(text, &back, &err)) << err;
  ASSERT_TRUE(back.has_diag);
  EXPECT_TRUE(back.diag == st.diag);
  ASSERT_EQ(back.diag.warnings.size(), 1u);
  EXPECT_STREQ(obs::healthKindName(back.diag.warnings[0].kind),
               "cache_hit_collapse");
  EXPECT_EQ(core::serializeCheckpoint(back), text);
}

TEST(DiagCheckpoint, JournalsWithoutDiagKeyStillLoad) {
  core::CheckpointState st;
  ASSERT_FALSE(st.has_diag);
  const std::string text = core::serializeCheckpoint(st);
  EXPECT_EQ(text.find("\"diag\""), std::string::npos);
  core::CheckpointState back;
  std::string err;
  ASSERT_TRUE(core::parseCheckpoint(text, &back, &err)) << err;
  EXPECT_FALSE(back.has_diag);
}

TEST(DiagCheckpoint, RecorderStateRestoreIsExact) {
  GlobalDiagGuard guard;
  obs::recorder().setEnabled(true);
  CalibrationSample s;
  s.round = 1;
  s.config = 42;
  s.fidelity = 0;
  s.y = {1.25, 2.5, 0.125};
  s.mu = {1.0, 2.0, 0.25};
  s.var = {0.04, 0.25, 0.01};
  obs::recorder().addCalibrationSample(s);
  obs::recorder().endRound(1, 0.5, {42}, 100.0, 0, 1);
  const DiagState before = obs::recorder().state();

  obs::recorder().clear();
  EXPECT_FALSE(obs::recorder().state() == before);
  obs::recorder().restore(before);
  EXPECT_TRUE(obs::recorder().state() == before);
}

// ----------------------------------------------------- health checks ----

// Seeded ill-conditioned Gram: a model record whose condition estimate
// exceeds the threshold must fire kGramConditionBlowup into BOTH the
// journal and the end-of-run summary — once, not once per round.
TEST(DiagHealth, IllConditionedGramFiresInJournalAndSummary) {
  GlobalDiagGuard guard;
  obs::recorder().setEnabled(true);
  obs::ModelRecord m;
  m.round = 2;
  m.level = 1;
  m.cond_log10 = 14.5;  // past the default 12.0
  obs::recorder().addModelRecord(m);
  m.round = 3;
  obs::recorder().addModelRecord(m);  // same (kind, level): deduped

  ASSERT_EQ(obs::recorder().healthCount(), 1u);
  const std::vector<HealthWarning> ws = obs::recorder().healthWarnings();
  EXPECT_EQ(ws[0].kind, HealthKind::kGramConditionBlowup);
  EXPECT_EQ(ws[0].fidelity, 1);
  EXPECT_DOUBLE_EQ(ws[0].value, 14.5);

  const obs::Journal parsed = obs::parseJournal(obs::recorder().journal());
  EXPECT_EQ(parsed.skipped_lines, 0u);
  int health_lines = 0;
  for (const util::Json& j : parsed.records)
    if (j.strOr("type", "") == "health" &&
        j.strOr("kind", "") == "gram_condition_blowup")
      ++health_lines;
  EXPECT_EQ(health_lines, 1);

  const std::string summary = obs::recorder().summaryText();
  EXPECT_NE(summary.find("gram_condition_blowup"), std::string::npos);
  EXPECT_NE(summary.find("level=syn"), std::string::npos);
}

// Tightened thresholds force the seeded Gram check through a REAL optimizer
// run end-to-end: threshold below any achievable conditioning, so the first
// model record fires it, and the warning survives into journal + summary.
TEST(DiagHealth, SeededGramCheckFiresThroughOptimizerRun) {
  GlobalDiagGuard guard;
  HealthThresholds t;
  t.max_gram_log10 = -1.0;  // log10(cond) >= 0 always: guaranteed to trip
  obs::recorder().setThresholds(t);
  obs::recorder().setEnabled(true);

  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.seed = 77;
  o.n_iter = 2;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  opt.run();

  bool fired = false;
  for (const HealthWarning& w : obs::recorder().healthWarnings())
    fired |= w.kind == HealthKind::kGramConditionBlowup;
  EXPECT_TRUE(fired);
  EXPECT_NE(obs::recorder().summaryText().find("gram_condition_blowup"),
            std::string::npos);
  const obs::Journal parsed = obs::parseJournal(obs::recorder().journal());
  bool in_journal = false;
  for (const util::Json& j : parsed.records)
    in_journal |= j.strOr("kind", "") == "gram_condition_blowup";
  EXPECT_TRUE(in_journal);
}

TEST(DiagHealth, SchedulerWorkersEmitRetryStormWarnings) {
  GlobalDiagGuard guard;
  obs::recorder().setEnabled(true);

  Fixture f;
  sim::FaultParams faults;
  faults.persistent_failure_prob = 1.0;  // every config dies persistently
  f.sim.setFaultParams(faults);
  runtime::EvalCache cache;
  runtime::RetryPolicy policy;
  policy.max_attempts = 2;
  runtime::ToolScheduler sched(f.space, f.sim, cache, 4, policy);
  sched.runBatch({{0, Fidelity::kImpl},
                  {1, Fidelity::kImpl},
                  {2, Fidelity::kHls},
                  {3, Fidelity::kSyn}});

  // Worker threads emitted concurrently; every failed job left a warning.
  EXPECT_GE(obs::recorder().healthCount(), 1u);
  for (const HealthWarning& w : obs::recorder().healthWarnings())
    EXPECT_EQ(w.kind, HealthKind::kRetryStorm);
}

// No-tear witness for the TSan smoke: many threads hammer health() while a
// reader polls the lock-free counter and snapshots the warning list. Under
// ThreadSanitizer any unsynchronized access reports; functionally, every
// emission must land exactly once and every snapshot must be internally
// consistent.
TEST(DiagHealth, ConcurrentHealthEmissionIsNeverTorn) {
  GlobalDiagGuard guard;
  obs::recorder().setEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;

  std::atomic<bool> stop{false};
  std::thread reader([&stop] {
    std::size_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t n = obs::recorder().healthCount();
      EXPECT_GE(n, last);  // monotone, never torn
      last = n;
      const auto ws = obs::recorder().healthWarnings();
      EXPECT_LE(ws.size(), static_cast<std::size_t>(kThreads * kPerThread));
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        HealthWarning w;
        w.kind = HealthKind::kRetryStorm;
        w.fidelity = t % 3;
        w.value = static_cast<double>(t * kPerThread + i);
        w.message = "storm from worker " + std::to_string(t);
        obs::recorder().health(std::move(w));
      }
    });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(obs::recorder().healthCount(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(obs::recorder().healthWarnings().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// ------------------------------------------------------- stdout dumps ----

TEST(DiagStdout, DashWritesToStdout) {
  const std::string text = "line one\nline two\n";
  testing::internal::CaptureStdout();
  EXPECT_TRUE(util::writeTextTo("-", text));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), text);
}

TEST(DiagStdout, JournalDashWritesToStdout) {
  GlobalDiagGuard guard;
  obs::recorder().setEnabled(true);
  obs::RunMeta man;
  man.tool = "test";
  man.benchmark = "spmv";
  obs::recorder().setRunMeta(std::move(man));
  testing::internal::CaptureStdout();
  EXPECT_TRUE(obs::recorder().writeJournal("-"));
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out, obs::recorder().journal());
  EXPECT_NE(out.find("\"manifest\""), std::string::npos);
}

// ------------------------------------------------------ pinned bytes ----

// The journal format is a contract with cmmfo_report and archived runs, so
// these literals must not change: every record type once, %.17g doubles,
// escaped strings, and the pooled per-level coverage and NLPD arrays.
obs::RunMeta pinnedRunMeta() {
  obs::RunMeta meta;
  meta.git_sha = "0123abcd4567";
  meta.build_type = "Release";
  meta.tool = "cmmfo";
  meta.flags = "run --benchmark \"spmv_crs\"\t--seed 77";
  meta.benchmark = "spmv_crs";
  meta.method = "ours";
  meta.seed = 18446744073709551615ull;
  meta.has_seed = true;
  return meta;
}

TEST(DiagPinned, ManifestLineForFullRunMeta) {
  GlobalDiagGuard guard;
  obs::recorder().setRunMeta(pinnedRunMeta());
  obs::recorder().setEnabled(true);
  EXPECT_EQ(obs::recorder().journal(),
            R"j({"type": "manifest", "git_sha": "0123abcd4567", "build_type": "Rel)j"
            R"j(ease", "tool": "cmmfo", "flags": "run --benchmark \"spmv_crs\"\t--)j"
            R"j(seed 77", "benchmark": "spmv_crs", "method": "ours", "seed": 18446)j"
            R"j(744073709551615})j" "\n"
            R"j({"type": "summary", "rounds": 0, "samples": 0, "decisions": 0, "wa)j"
            R"j(rnings": 0, "coverage": [null,null,null], "mean_nlpd": [null,null,)j"
            R"j(null]})j" "\n");
}

TEST(DiagPinned, EveryRecordTypeAndSummary) {
  GlobalDiagGuard guard;
  obs::recorder().setRunMeta(pinnedRunMeta());
  obs::recorder().setEnabled(true);
  CalibrationSample c;
  c.round = 0;
  c.config = 11;
  c.fidelity = 1;
  c.y = {1.0, 2.0, 3.0};
  c.mu = {1.1, 1.5, 3.0};
  c.var = {0.04, 0.01, 0.0};
  obs::recorder().addCalibrationSample(c);
  c.config = 12;
  c.fidelity = 0;
  c.y = {0.5, 0.25, 0.125};
  c.mu = {0.4, 0.3, 0.1};
  c.var = {0.01, 0.02, 0.03};
  obs::recorder().addCalibrationSample(c);
  c.config = 13;
  c.believer = true;
  obs::recorder().addCalibrationSample(c);
  obs::DecisionRecord d;
  d.round = 0;
  d.winner_config = 11;
  d.winner_fidelity = 1;
  d.winner_peipv = 0.75;
  d.believer_depth = 2;
  d.believer_invalidations = 3;
  d.rationale = "argmax PEIPV across fidelities";
  obs::FidelityAudit a;
  a.fidelity = 1;
  a.cost_penalty = 1.0 / 3.0;
  a.top = {{11, 2.25, 0.75}, {4, 1.5, 0.5}};
  d.fidelities.push_back(a);
  obs::recorder().addDecision(d);
  obs::ModelRecord m;
  m.round = 0;
  m.level = 2;
  m.correlated = true;
  m.task_corr = {{1.0, 1.0, 0.2}, {1.0, 1.0, 0.1}, {0.2, 0.1, 1.0}};
  m.lml = -12.5;
  m.fit_iters = 40;
  m.max_iters = 40;
  m.cond_log10 = 13.0;
  m.lowfid_relevance = 0.25;
  obs::recorder().addModelRecord(m);
  obs::RecoveryRecord r;
  r.round = 0;
  r.level = 2;
  r.action = "dense_refit";
  r.reason = "cond \"high\"";
  r.value = 13.0;
  obs::recorder().addRecovery(r);
  obs::recorder().endRound(0, 0.625, {11, 12}, 3600.5, 1, 30);
  HealthWarning w;
  w.kind = HealthKind::kRetryStorm;
  w.fidelity = 1;
  w.value = 3;
  w.threshold = 3;
  w.message = "config 11 exhausted its retry budget";
  obs::recorder().health(w);

  EXPECT_EQ(obs::recorder().journal(),
            R"j({"type": "manifest", "git_sha": "0123abcd4567", "build_type": "Rel)j"
            R"j(ease", "tool": "cmmfo", "flags": "run --benchmark \"spmv_crs\"\t--)j"
            R"j(seed 77", "benchmark": "spmv_crs", "method": "ours", "seed": 18446)j"
            R"j(744073709551615})j" "\n"
            R"j({"type": "calibration", "round": 0, "config": 11, "fidelity": 1, ")j"
            R"j(believer": false, "y": [1,2,3], "mu": [1.1000000000000001,1.5,3], )j"
            R"j("var": [0.040000000000000001,0.01,0], "z": [-0.50000000000000044,5)j"
            R"j(,0], "nlpd": [-0.56549937922942739,11.116353440210627,-353.2792707)j"
            R"j(3292739], "in95": [true,false,true]})j" "\n"
            R"j({"type": "calibration", "round": 0, "config": 12, "fidelity": 0, ")j"
            R"j(believer": false, "y": [0.5,0.25,0.125], "mu": [0.4000000000000000)j"
            R"j(2,0.29999999999999999,0.10000000000000001], "var": [0.01,0.02,0.02)j"
            R"j(9999999999999999], "z": [0.99999999999999978,-0.35355339059327368,)j"
            R"j(0.14433756729740641], "nlpd": [-0.88364655978937301,-0.97457296950)j"
            R"j(940031,-0.8239237487886516], "in95": [true,true,true]})j" "\n"
            R"j({"type": "calibration", "round": 0, "config": 13, "fidelity": 0, ")j"
            R"j(believer": true, "y": [0.5,0.25,0.125], "mu": [0.40000000000000002)j"
            R"j(,0.29999999999999999,0.10000000000000001], "var": [0.01,0.02,0.029)j"
            R"j(999999999999999], "z": [0.99999999999999978,-0.35355339059327368,0)j"
            R"j(.14433756729740641], "nlpd": [-0.88364655978937301,-0.974572969509)j"
            R"j(40031,-0.8239237487886516], "in95": [true,true,true]})j" "\n"
            R"j({"type": "decision", "round": 0, "winner_config": 11, "winner_fide)j"
            R"j(lity": 1, "winner_peipv": 0.75, "believer_depth": 2, "believer_inv)j"
            R"j(alidations": 3, "rationale": "argmax PEIPV across fidelities", "fi)j"
            R"j(delities": [{"fidelity": 1, "cost_penalty": 0.33333333333333331, ")j"
            R"j(candidates": [{"config": 11, "eipv": 2.25, "peipv": 0.75},{"config)j"
            R"j(": 4, "eipv": 1.5, "peipv": 0.5}]}]})j" "\n"
            R"j({"type": "model", "round": 0, "level": 2, "correlated": true, "k_t)j"
            R"j(ask": [[1,1,0.20000000000000001],[1,1,0.10000000000000001],[0.2000)j"
            R"j(0000000000001,0.10000000000000001,1]], "lml": -12.5, "fit_iters": )j"
            R"j(40, "max_iters": 40, "cond_log10": 13, "lowfid_relevance": 0.25})j" "\n"
            R"j({"type": "health", "kind": "gram_condition_blowup", "round": 0, "f)j"
            R"j(idelity": 2, "value": 13, "threshold": 12, "message": "Gram condit)j"
            R"j(ion estimate 1e13.000000 at level impl — posterior numerics are su)j"
            R"j(spect"})j" "\n"
            R"j({"type": "health", "kind": "mle_non_convergence", "round": 0, "fid)j"
            R"j(elity": 2, "value": 40, "threshold": 40, "message": "hyperparamete)j"
            R"j(r MLE used its full budget of 40 iterations at level impl"})j" "\n"
            R"j({"type": "health", "kind": "degenerate_k_task", "round": 0, "fidel)j"
            R"j(ity": 2, "value": 1, "threshold": 0.999, "message": "task correlat)j"
            R"j(ion power/delay is degenerate at level impl"})j" "\n"
            R"j({"type": "recovery", "round": 0, "level": 2, "action": "dense_refi)j"
            R"j(t", "reason": "cond \"high\"", "value": 13})j" "\n"
            R"j({"type": "convergence", "round": 0, "hypervolume": 0.625, "adrs": )j"
            R"j(null, "charged_seconds": 3600.5, "cache_hits": 1, "cache_misses": )j"
            R"j(30, "coverage": [1,0.66666666666666663,null]})j" "\n"
            R"j({"type": "health", "kind": "retry_storm", "round": -1, "fidelity":)j"
            R"j( 1, "value": 3, "threshold": 3, "message": "config 11 exhausted it)j"
            R"j(s retry budget"})j" "\n"
            R"j({"type": "summary", "rounds": 1, "samples": 3, "decisions": 1, "wa)j"
            R"j(rnings": 4, "coverage": [1,0.66666666666666663,null], "mean_nlpd":)j"
            R"j( [-0.89404775936247505,-114.24280555731541,null]})j" "\n");
  EXPECT_EQ(obs::recorder().summaryText(),
            R"j(diag: rounds=1 samples=3 decisions=1 warnings=4)j" "\n"
            R"j(diag: hls: n=3 coverage95=1.000 mean_nlpd=-0.8940)j" "\n"
            R"j(diag: syn: n=3 coverage95=0.667 mean_nlpd=-114.2428)j" "\n"
            R"j(diag: WARN [gram_condition_blowup] round=0 level=impl: Gram condit)j"
            R"j(ion estimate 1e13.000000 at level impl — posterior numerics are su)j"
            R"j(spect)j" "\n"
            R"j(diag: WARN [mle_non_convergence] round=0 level=impl: hyperparamete)j"
            R"j(r MLE used its full budget of 40 iterations at level impl)j" "\n"
            R"j(diag: WARN [degenerate_k_task] round=0 level=impl: task correlatio)j"
            R"j(n power/delay is degenerate at level impl)j" "\n"
            R"j(diag: WARN [retry_storm] round=-1 level=syn: config 11 exhausted i)j"
            R"j(ts retry budget)j" "\n");
}

// ------------------------------------------------------- HTML report ----

TEST(DiagReport, RendersSelfContainedHtmlFromRealJournal) {
  GlobalDiagGuard guard;
  obs::recorder().setEnabled(true);
  obs::RunMeta man;
  man.git_sha = "abc123def456";
  man.tool = "cmmfo";
  man.benchmark = "spmv_crs";
  man.method = "ours";
  man.seed = 77;
  man.has_seed = true;
  obs::recorder().setRunMeta(std::move(man));

  Fixture f;
  core::OptimizerOptions o = fastOpts();
  o.seed = 77;
  o.n_iter = 4;
  core::CorrelatedMfMoboOptimizer opt(f.space, f.sim, o);
  opt.run();

  const obs::Journal journal =
      obs::parseJournal(obs::recorder().journal());
  EXPECT_EQ(journal.skipped_lines, 0u);
  const std::string html = obs::renderHtmlReport(journal);

  // Self-contained: a real document with inline SVG charts and zero
  // external fetches (no http(s) URLs, scripts, or stylesheet links).
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  // Manifest fields are rendered.
  EXPECT_NE(html.find("abc123def456"), std::string::npos);
  EXPECT_NE(html.find("spmv_crs"), std::string::npos);
}

TEST(DiagReport, GarbageJournalRendersWithSkippedLineNote) {
  const obs::Journal journal =
      obs::parseJournal("not json\n{\"type\": \"summary\"}\n{broken\n");
  EXPECT_EQ(journal.skipped_lines, 2u);
  EXPECT_EQ(journal.records.size(), 1u);
  const std::string html = obs::renderHtmlReport(journal);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("2"), std::string::npos);  // skipped count shown
}

}  // namespace
}  // namespace cmmfo
