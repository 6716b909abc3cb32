// Chaos-sweep harness: the crash-only supervision acceptance gate.
//
// Eight concurrent campaigns run under deterministic seeded fault
// injection, a mid-flight daemon kill, deliberate journal corruption, and a
// protocol fuzz barrage — and every single campaign must still finish
// BIT-IDENTICAL to its fault-free isolated golden:
//
//   phase 0  goldens: each spec alone (own cache/pool), no faults;
//   phase 1  daemon A: all 8 submitted with chaos on (seeded step faults +
//            hung evals, watchdog deadline + heartbeats armed), stopped
//            mid-flight once every campaign has checkpointed >= 1 round;
//   sabotage three victims' journals: a torn frame appended to one
//            checkpoint, another truncated to zero bytes, a third's
//            checkpoint + final marker deleted outright;
//   phase 2  daemon B: --resume over the sabotaged journal dir, chaos still
//            on, while a seeded fuzz corpus hammers the request path; the
//            daemon must quarantine/cold-start the sabotaged campaigns,
//            restart every faulted step from its last good checkpoint, and
//            drain all 8 to completion.
//
// Exits non-zero if any campaign fails to complete, any trajectory deviates
// from its golden by a single bit, or any fuzz reply is not well-formed
// JSON. --out PATH writes the sweep counters as JSON; CMMFO_FAST=1 shrinks
// per-campaign iterations (never the campaign count — 8 is the acceptance
// floor).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign_stepper.h"
#include "exp/harness.h"
#include "scenario/generator.h"
#include "server/server.h"
#include "util/json.h"

using namespace cmmfo;
namespace fs = std::filesystem;

namespace {

core::OptimizeResult runIsolated(const server::CampaignSpec& spec) {
  const auto space = server::makeSpaceFor(spec.benchmark);
  const auto bm = scenario::resolveBenchmark(spec.benchmark);
  const auto sim = bench_suite::makeToolSim(bm, spec.sim_seed);
  core::CampaignStepper stepper(*space, *sim, spec.opts);
  while (!stepper.done()) stepper.step();
  return stepper.finish();
}

/// Bitwise trajectory equality (the bench-grade version of the test
/// helper): configs, fidelities, acquisition values, and accounting must
/// all agree exactly.
bool sameTrajectory(const core::OptimizeResult& a,
                    const core::OptimizeResult& b, std::string* why) {
  const auto fail = [&](const std::string& w) {
    if (why != nullptr) *why = w;
    return false;
  };
  if (a.cs.size() != b.cs.size()) return fail("cs size");
  for (std::size_t i = 0; i < a.cs.size(); ++i) {
    if (a.cs[i].config != b.cs[i].config) return fail("cs config");
    if (a.cs[i].fidelity != b.cs[i].fidelity) return fail("cs fidelity");
    if (a.cs[i].report.tool_seconds != b.cs[i].report.tool_seconds)
      return fail("cs tool_seconds");
  }
  if (a.iterations.size() != b.iterations.size()) return fail("iter size");
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    if (a.iterations[i].config != b.iterations[i].config)
      return fail("iter config");
    if (a.iterations[i].fidelity != b.iterations[i].fidelity)
      return fail("iter fidelity");
    if (a.iterations[i].peipv != b.iterations[i].peipv)
      return fail("iter peipv");
  }
  if (a.picks_per_fidelity != b.picks_per_fidelity) return fail("picks");
  if (a.tool_seconds != b.tool_seconds) return fail("tool_seconds");
  if (a.tool_runs != b.tool_runs) return fail("tool_runs");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  const bool fast = exp::fastModeFromEnv();
  constexpr int kCampaigns = 8;  // the acceptance floor; never shrunk
  const int n_iter = fast ? 6 : 10;

  const fs::path dir = fs::temp_directory_path() / "cmmfo_chaos_sweep";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<server::CampaignSpec> specs;
  for (int i = 0; i < kCampaigns; ++i) {
    server::CampaignSpec spec;
    spec.id = "c" + std::to_string(i);
    spec.benchmark = "spmv_crs";
    spec.sim_seed = 40 + static_cast<std::uint64_t>(i);
    spec.opts.seed = 100 + static_cast<std::uint64_t>(i);
    spec.opts.n_iter = n_iter;
    spec.opts.batch_size = 2;
    spec.opts.mc_samples = 16;
    spec.opts.max_candidates = 60;
    spec.opts.refit_every = 5;
    spec.opts.surrogate.mtgp.mle_restarts = 0;
    spec.opts.surrogate.gp.mle_restarts = 0;
    spec.opts.surrogate.mtgp.max_mle_iters = 25;
    spec.opts.surrogate.gp.max_mle_iters = 25;
    specs.push_back(spec);
  }

  std::printf("chaos_sweep: %d campaigns, n_iter=%d%s\n\n", kCampaigns,
              n_iter, fast ? " (fast mode)" : "");

  // ---- Phase 0: fault-free isolated goldens. ----
  std::vector<core::OptimizeResult> golden;
  golden.reserve(specs.size());
  for (const auto& s : specs) golden.push_back(runIsolated(s));

  server::ServerOptions opts;
  opts.workers = 8;
  opts.slots = 4;
  opts.journal_dir = dir.string();
  opts.max_restarts = 64;
  opts.restart_backoff_ms = 1;
  opts.step_deadline_seconds = 0.003;
  opts.heartbeat_seconds = 0.02;
  opts.chaos.seed = 20260808;
  opts.chaos.step_fault_prob = 0.15;
  opts.chaos.step_hang_prob = 0.05;
  opts.chaos.hang_ms = 5;

  std::mutex ev_mu;
  std::size_t ev_restarts = 0, ev_stalls = 0, ev_heartbeats = 0;
  const auto sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(ev_mu);
    if (line.find("\"event\":\"restart\"") != std::string::npos) ++ev_restarts;
    if (line.find("\"event\":\"stall\"") != std::string::npos) ++ev_stalls;
    if (line.find("\"event\":\"heartbeat\"") != std::string::npos)
      ++ev_heartbeats;
  };

  // ---- Phase 1: chaos-injected daemon, killed mid-flight. ----
  server::OptimizationServer first(opts);
  first.subscribe(sink);
  first.start();
  for (const auto& s : specs) {
    std::string err;
    if (!first.submit(s, &err)) {
      std::fprintf(stderr, "submit %s failed: %s\n", s.id.c_str(),
                   err.c_str());
      return 1;
    }
  }
  const auto all_checkpointed = [&] {
    for (const auto& s : specs) {
      const auto snap = first.campaign(s.id)->snapshot();
      if (snap.rounds < 1 && snap.state != server::CampaignState::kFailed)
        return false;
    }
    return true;
  };
  while (!all_checkpointed())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  first.stop();
  const server::ServerStats s1 = first.stats();

  // ---- Sabotage three victims' journals. ----
  // c0: torn frame appended to the checkpoint (quarantine + rollback).
  {
    const std::string garbage("CMJ1\x40\x00\x00\x00 torn tail bytes", 24);
    std::ofstream out(dir / "c0.ckpt.json", std::ios::binary | std::ios::app);
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  fs::remove(dir / "c0.final.json");
  // c1: checkpoint truncated to zero bytes (lenient cold start).
  std::ofstream(dir / "c1.ckpt.json", std::ios::trunc).close();
  fs::remove(dir / "c1.final.json");
  // c2: checkpoint and final marker deleted (re-queue from spec).
  fs::remove(dir / "c2.ckpt.json");
  fs::remove(dir / "c2.final.json");

  // ---- Phase 2: resume over the sabotaged journals, chaos still on,
  // fuzz frames hammering the request path while campaigns drain. ----
  server::ServerOptions ropts = opts;
  ropts.resume = true;
  server::OptimizationServer second(ropts);
  second.subscribe(sink);
  second.start();

  std::mt19937_64 fuzz_rng(0xDEADBEEFULL);
  std::size_t fuzz_frames = 0, fuzz_well_formed = 0;
  for (int i = 0; i < 64; ++i) {
    std::string line;
    const std::size_t len = 1 + fuzz_rng() % 80;
    for (std::size_t k = 0; k < len; ++k) {
      char c = static_cast<char>(1 + fuzz_rng() % 255);
      if (c == '\n' || c == '\r') c = '?';
      line.push_back(c);
    }
    bool quit = false;
    int sub_token = -1;
    const std::string reply =
        second.handleLine(line, nullptr, &quit, &sub_token);
    ++fuzz_frames;
    util::Json j;
    std::string jerr;
    if (util::parseJson(reply, &j, &jerr)) ++fuzz_well_formed;
  }
  second.drain();
  const server::ServerStats s2 = second.stats();

  // ---- Verdict: every campaign done, every trajectory bit-identical. ----
  int done = 0, resumed = 0, mismatches = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& id = specs[i].id;
    // A campaign that finished in phase 1 (journaled final, not sabotaged)
    // is not resurrected by --resume; its result lives in daemon A.
    auto c = second.campaign(id);
    if (c != nullptr) ++resumed;
    if (c == nullptr) c = first.campaign(id);
    if (c == nullptr || c->snapshot().state != server::CampaignState::kDone) {
      std::fprintf(stderr, "FAIL: campaign %s did not complete\n", id.c_str());
      ++mismatches;
      continue;
    }
    ++done;
    const auto result = c->result();
    std::string why;
    if (!result.has_value() || !sameTrajectory(golden[i], *result, &why)) {
      std::fprintf(stderr, "FAIL: campaign %s deviates from golden (%s)\n",
                   id.c_str(), why.c_str());
      ++mismatches;
    }
  }
  second.stop();

  const std::size_t restarts = s1.supervision.restarts + s2.supervision.restarts;
  const std::size_t stalls =
      s1.supervision.stalled_steps + s2.supervision.stalled_steps;
  const bool fuzz_ok = fuzz_well_formed == fuzz_frames;
  const bool pass = mismatches == 0 && done == kCampaigns && fuzz_ok;

  std::printf("%-38s %8d\n", "campaigns completed", done);
  std::printf("%-38s %8d\n", "campaigns resumed by daemon B", resumed);
  std::printf("%-38s %8zu\n", "supervised restarts", restarts);
  std::printf("%-38s %8zu\n", "watchdog stalls reported", stalls);
  std::printf("%-38s %8zu\n", "heartbeats streamed", ev_heartbeats);
  std::printf("%-38s %5zu/%zu\n", "fuzz replies well-formed", fuzz_well_formed,
              fuzz_frames);
  std::printf("%-38s %8d\n", "trajectory mismatches vs goldens", mismatches);
  std::printf("\nchaos-sweep: %s\n", pass ? "PASS" : "FAIL");

  if (!out_path.empty()) {
    std::string j = "{\"campaigns\":";
    util::putInt(j, kCampaigns);
    j += ",\"n_iter\":";
    util::putInt(j, n_iter);
    j += ",\"completed\":";
    util::putInt(j, done);
    j += ",\"resumed\":";
    util::putInt(j, resumed);
    j += ",\"restarts\":";
    util::putU64Bare(j, restarts);
    j += ",\"stalled_steps\":";
    util::putU64Bare(j, stalls);
    j += ",\"heartbeats\":";
    util::putU64Bare(j, ev_heartbeats);
    j += ",\"restart_events\":";
    util::putU64Bare(j, ev_restarts);
    j += ",\"stall_events\":";
    util::putU64Bare(j, ev_stalls);
    j += ",\"fuzz_frames\":";
    util::putU64Bare(j, fuzz_frames);
    j += ",\"fuzz_well_formed\":";
    util::putU64Bare(j, fuzz_well_formed);
    j += ",\"mismatches\":";
    util::putInt(j, mismatches);
    j += ",\"pass\":";
    j += pass ? "true" : "false";
    j += "}\n";
    util::writeTextTo(out_path, j);
  }

  fs::remove_all(dir);
  return pass ? 0 : 1;
}
