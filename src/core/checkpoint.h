#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "rng/rng.h"
#include "runtime/scheduler.h"
#include "sim/tool.h"
#include "util/framed_log.h"

namespace cmmfo::core {

/// Crash-safe snapshot of the full BO driver state, written to a versioned
/// JSON journal after every round. Everything the optimizer needs to
/// continue trajectory-identically is here:
///  - the per-fidelity datasets (configs + objective vectors, penalized
///    entries included) and the candidate set CS;
///  - the RNG state (counters + Marsaglia cache) and the surrogate's packed
///    hyperparameters (fit() warm-starts from them);
///  - the iteration log and accounting ledgers (scheduler totals + the
///    simulator's own accumulator, which can differ in the last bits under
///    parallel summation);
///  - the evaluation-cache contents as (config, highest fidelity) keys —
///    reports are recomputable because the simulated tool is deterministic.
///
/// Doubles are serialized with 17 significant digits, which round-trips
/// IEEE-754 binary64 exactly, so a resumed run is bit-for-bit the
/// uninterrupted one.
struct CheckpointState {
  static constexpr int kVersion = 1;

  int version = kVersion;
  /// Guards against resuming with a different benchmark/options/seed.
  std::uint64_t fingerprint = 0;

  int next_round = 0;  ///< first BO round the resumed process should run
  int t = 0;           ///< proposals executed so far

  rng::Rng::State rng;

  struct FidelityData {
    std::vector<std::size_t> configs;
    std::vector<std::vector<double>> y;
  };
  std::array<FidelityData, sim::kNumFidelities> data;

  struct CsEntry {
    std::size_t config = 0;
    int fidelity = 0;
    sim::Report report;
  };
  std::vector<CsEntry> cs;

  struct IterEntry {
    int iteration = 0;
    int fidelity = 0;
    std::size_t config = 0;
    double peipv = 0.0;
    int round = 0;
  };
  std::vector<IterEntry> iterations;
  std::array<int, sim::kNumFidelities> picks_per_fidelity{};

  runtime::SchedulerStats totals;
  double sim_tool_seconds = 0.0;

  /// In-flight believer jobs at checkpoint time (async pipeline only):
  /// (config, fidelity, absolute simulated dispatch time). The resume path
  /// re-dispatches each with its ORIGINAL sim_start — possibly before the
  /// checkpoint's clock — so the simulated completion order, and with it
  /// the whole trajectory, replays exactly. Optional in the journal:
  /// synchronous-mode files never carry the key and parse to empty.
  struct InflightEntry {
    std::size_t config = 0;
    int fidelity = 0;
    double sim_start = 0.0;
  };
  std::vector<InflightEntry> async_inflight;

  std::vector<std::pair<std::size_t, int>> cache;  // (config, highest stage)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  std::vector<std::vector<double>> surrogate_hypers;

  /// Per-model dense-base point counts of the surrogate's committed
  /// posterior (hyperState() order). Resume rebuilds each factor as a dense
  /// factorization of the first `base` points followed by sequential
  /// rank-appends of the remainder — bit-identical to the factor the
  /// journaling run evolved incrementally. Optional in the journal: files
  /// without it (or empty, e.g. pre-fit init checkpoints) fall back to a
  /// full dense refit on the next round. Journals written while the
  /// surrogate had a GBRT fallback also carry that fallback's per-level MLE
  /// fail streaks and training sizes under two more keys; the reader
  /// ignores them.
  std::vector<std::uint64_t> surrogate_base;

  /// Metrics ledger at checkpoint time (empty when metrics are disabled).
  /// Optional in the journal — version-1 files without it still load.
  obs::MetricsSnapshot metrics;

  /// Diagnostics digest (calibration aggregates, counters, health warnings)
  /// at checkpoint time. Optional in the journal — files without it still
  /// load (has_diag stays false) and resume simply restarts the aggregates.
  obs::DiagState diag;
  bool has_diag = false;
};

/// JSON round-trip (self-contained writer/parser; no external deps).
std::string serializeCheckpoint(const CheckpointState& st);
bool parseCheckpoint(const std::string& text, CheckpointState* out,
                     std::string* error = nullptr);

/// What a framed-journal load found and (when necessary) repaired.
struct JournalLoadInfo {
  bool framed = false;       ///< file was in CMJ1 framed format
  bool rolled_back = false;  ///< a corrupt tail forced rollback to an
                             ///< earlier intact frame
  std::size_t frames = 0;    ///< intact frames present before repair
  std::string quarantine_path;  ///< where the corrupt tail was preserved
  std::string note;             ///< human-readable recovery description
};

/// The journal writer: the file holds the last few checkpoints as CRC-32C
/// frames (util/framed_log), rewritten atomically (write-to-temp + rename)
/// each round with a small rollback window (the current state plus up to
/// two predecessors). Torn writes / external truncation are detected
/// frame-by-frame on load; the corrupt tail is quarantined to
/// `<path>.quarantine` and the load rolls back to the newest frame that
/// both CRC-checks and parses.
///
/// A campaign keeps one writer for its journal. It reads the file once, at
/// its first save (after any resume or rollback has rewritten it), and from
/// then on holds the two generations it keeps in a ring of reused buffers
/// (util::FramedLogWriter): each save serializes the state straight into a
/// frame buffer, checksums that frame alone (hardware CRC-32C where the CPU
/// has it) and rewrites the file from memory. The bytes are those of a
/// writer that re-read the file before every save.
class JournalWriter {
 public:
  explicit JournalWriter(std::string path);
  /// Append `st` as the newest frame. Returns false on I/O error.
  bool save(const CheckpointState& st);

 private:
  util::FramedLogWriter log_;
};

/// Load `path` in either format: CMJ1-framed (validated, self-repairing as
/// described above) or plain JSON (the legacy unframed format, still read
/// so old journals resume; the next save upgrades the file to frames). On
/// framed corruption the quarantine + rollback happens here so every caller
/// recovers identically; `info` (optional) reports what was done.
bool loadCheckpointAny(const std::string& path, CheckpointState* out,
                       std::string* error = nullptr,
                       JournalLoadInfo* info = nullptr);

}  // namespace cmmfo::core
