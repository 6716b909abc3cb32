#!/bin/sh
# Runs every bench binary (the repo's reproduction sweep).
#
#   ./run_benches.sh [ARCHIVE]     run all benches from build/bench; micro
#                                  and gated benches additionally emit JSON,
#                                  merged into ARCHIVE (e.g. BENCH_15.json,
#                                  the perf trajectory archive); without
#                                  ARCHIVE the merge is skipped
#   ./run_benches.sh --tsan-smoke  build the test binary under ThreadSanitizer
#                                  (CMMFO_SANITIZE=thread) and run the
#                                  runtime, server, parallel MLE and
#                                  parallel acquisition-scan tests under it

if [ "$1" = "--tsan-smoke" ]; then
  set -e
  cmake -B build-tsan -S . -DCMMFO_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j --target cmmfo_tests
  exec ./build-tsan/tests/cmmfo_tests \
    --gtest_filter='EvalCache*:Scheduler*:ToolSim*:BatchedOptimizer*:FaultInjection*:SchedulerFaults*:OptimizerFaults*:Backoff*:Checkpoint*:Obs*:Diag*:Server*:Chaos*:Scenario*:Async*:GpRegressor*:MultiTaskGp*:MinimizeFromStarts*:LmlGradients*:Surrogate*:ForkJoin*:Acquisition*'
fi

OUTDIR=bench-out
mkdir -p "$OUTDIR"

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "====================================================================="
  echo "===== $b"
  echo "====================================================================="
  case "$(basename "$b")" in
    micro_*)
      # Google-benchmark binaries archive their results as JSON so the perf
      # trajectory accumulates across revisions.
      "$b" --benchmark_out="$OUTDIR/$(basename "$b").json" \
           --benchmark_out_format=json
      ;;
    server_throughput)
      # The multi-campaign server harness archives its own JSON summary.
      "$b" --out "$OUTDIR/server_throughput.json"
      ;;
    chaos_sweep)
      # Crash-only supervision gate: exits non-zero on any trajectory
      # deviation; counters are archived alongside the perf numbers.
      "$b" --out "$OUTDIR/chaos_sweep.json"
      ;;
    scenario_matrix)
      # Procedural-scenario acceptance gates: pruning-audit soundness,
      # budgeted oracle-ADRS, multi-die fidelity gap, diag capture.
      "$b" --out "$OUTDIR/scenario_matrix.json"
      ;;
    async_scaling)
      # Event-driven pipeline vs the round barrier; archives the
      # speedup/ADRS numbers behind the CMMFO_PERF_GATE CI gate.
      "$b" --out "$OUTDIR/async_scaling.json"
      ;;
    *)
      "$b"
      ;;
  esac
done

# Merge the per-binary JSON files into one archive keyed by binary name.
if [ -z "$1" ]; then
  echo "no archive name given: per-bench JSON left in $OUTDIR/, nothing merged"
elif command -v python3 > /dev/null 2>&1 && [ -n "$(ls "$OUTDIR" 2>/dev/null)" ]; then
  python3 - "$OUTDIR" "$1" <<'EOF'
import json, os, sys
outdir, dest = sys.argv[1], sys.argv[2]
merged = {}
for f in sorted(os.listdir(outdir)):
    if not f.endswith(".json"):
        continue
    try:
        with open(os.path.join(outdir, f)) as fh:
            merged[f[:-5]] = json.load(fh)
    except (OSError, ValueError):
        pass
with open(dest, "w") as fh:
    json.dump(merged, fh, indent=1)
print("archived %d bench result set(s) -> %s" % (len(merged), dest))
EOF
fi
