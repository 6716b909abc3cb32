#!/usr/bin/env python3
"""End-to-end benchmark of the CMMFO stack.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/, runs one workload and prints, as the
last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1). The full record, with provenance, sample counts and
spreads, is written to .bench_out/.

Usage (from the repository root):
    python3 perfbench/run.py --workload paper_sync --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --self-test                      # smoke checks
    python3 perfbench/run.py --compare OLD.json NEW.json      # two records
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"
WORKLOADS = ("paper_sync", "async_scan", "fleet")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Provenance fields two records must share before they may be compared.
COMPARABLE = ("bench_digest", "build_type", "nproc", "workload", "seed",
              "trace", "run_seconds", "smoke")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def digest(paths):
    """sha256 over the relative names and bytes of every file under paths."""
    h = hashlib.sha256()
    for base in paths:
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no library sources in %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    t0 = time.monotonic()
    for cmd in steps:
        left = BUILD_TIMEOUT_S - (time.monotonic() - t0)
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr, timeout=max(left, 1))
        if res.returncode != 0:
            raise SystemExit("perfbench: build failed: %s" % " ".join(cmd))


def run_binary(workload, seed, seconds, trace, smoke=False, perturb=False):
    """Run the binary once; returns its record with provenance added."""
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d%s%s" % (workload, seed, trace,
                                       "-smoke" if smoke else "",
                                       "-perturbed" if perturb else "")
    spans = OUT / (stem + ".spans.jsonl")
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(spans)]
    if smoke:
        cmd.append("--smoke")
    if perturb:
        cmd.append("--perturb-fingerprint")
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                         text=True)
    if res.returncode != 0:
        raise SystemExit("perfbench: benchmark exited with %d" % res.returncode)
    rec = json.loads(res.stdout.strip().splitlines()[-1])
    rec.update({
        "run_seconds": seconds,
        "source_digest": digest([ROOT / "src", HERE]),
        "bench_digest": digest([HERE]),
        "argv": cmd[1:],
    })
    if trace:
        rec["spans_file"] = str(spans.relative_to(ROOT))
    (OUT / (stem + ".json")).write_text(
        json.dumps(rec, indent=1, sort_keys=True))
    return rec


def result_line(rec, names):
    """The contract line: exactly the named metrics, value and unit only."""
    table = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
    missing = [n for n in names if n not in table]
    if missing:
        raise SystemExit("perfbench: benchmark did not report %s" % missing)
    return {
        "correct": bool(rec["correct"]),
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {n: {"value": table[n]["value"], "unit": table[n]["unit"]}
                    for n in names},
    }


def print_table(rec):
    print("%s seed %d trace %d: %d repeats (+%d traced), correct=%s, "
          "failed %d/%d, git %s %s, nproc %d" % (
              rec["workload"], rec["seed"], rec["trace"], rec["repeats"],
              rec["traced_repeats"], rec["correct"], rec["failed"],
              rec["attempted"], rec["git_sha"], rec["build_type"],
              rec["nproc"]))
    for key in ("end_to_end", "per_layer"):
        for name, m in rec[key].items():
            print("  %-28s %14.6g %-6s n=%-5d spread=%.3f" % (
                name, m["value"], m["unit"], m["samples"], m["spread"]))
    for p in rec["problems"]:
        print("  PROBLEM: " + p)


def names_for(trace):
    return [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]


def cmd_run(args):
    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for w in workloads:
        rec = run_binary(w, args.seed, args.seconds, args.trace)
        print_table(rec)
        line = result_line(rec, names_for(args.trace))
        if len(workloads) > 1:
            print(w + " " + json.dumps(line))
        lines.append((w, line))
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
        return
    merged = {
        "correct": all(l["correct"] for _, l in lines),
        "attempted": sum(l["attempted"] for _, l in lines),
        "failed": sum(l["failed"] for _, l in lines),
        "metrics": {"%s.%s" % (w, k): v for w, l in lines
                    for k, v in l["metrics"].items()},
    }
    print(json.dumps(merged))


def cmd_compare(paths):
    """Compare two records; refuse when their provenance differs."""
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    diff = [k for k in COMPARABLE if a.get(k) != b.get(k)]
    if diff:
        print("refused: provenance differs in " + ", ".join(
            "%s (%r vs %r)" % (k, a.get(k), b.get(k)) for k in diff))
        return 3
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    print("%s seed %d: %s (%s) -> %s (%s)" % (
        a["workload"], a["seed"], a["git_sha"], a["source_digest"],
        b["git_sha"], b["source_digest"]))
    worse = 0
    for key in ("end_to_end", "per_layer"):
        for name, ma in a[key].items():
            mb = b[key].get(name)
            if mb is None:
                continue
            va, vb = ma["value"], mb["value"]
            rel = (vb - va) / abs(va) if va else 0.0
            flag = ""
            if name in bounds:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                if sign * rel > bounds[name]["bound"]:
                    flag = "  WORSE than bound %.2f" % bounds[name]["bound"]
                    worse += 1
            print("  %-28s %14.6g -> %-14.6g %+7.1f%% %s%s" % (
                name, va, vb, 100 * rel, ma["unit"], flag))
    same = a["fingerprints"] == b["fingerprints"]
    print("  fingerprints %s" % ("identical" if same else "DIFFER"))
    return 1 if worse or not same else 0


def cmd_self_test():
    """Smoke configuration: every metric is printed with its unit, a
    perturbed fingerprint fails the run, and compare refuses records whose
    provenance differs."""
    build()
    bench = spec()
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            rec = run_binary(w, 1, 2, trace, smoke=True)
            line = result_line(rec, names_for(trace))
            for name, m in line["metrics"].items():
                if m["unit"] != units[name]:
                    log("self-test: %s %s unit %r, expected %r" % (
                        w, name, m["unit"], units[name]))
                    ok = False
            if not line["correct"] or line["failed"]:
                log("self-test: %s trace %d not correct: %s" % (
                    w, trace, rec["problems"]))
                ok = False
    rec = run_binary("fleet", 1, 2, 0, smoke=True, perturb=True)
    if rec["correct"] or rec["failed"] < 1:
        log("self-test: perturbed fingerprint was not caught")
        ok = False
    a = dict(rec, nproc=rec["nproc"] + 1)
    pa, pb = OUT / "selftest-a.json", OUT / "selftest-b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(rec))
    if cmd_compare([pa, pb]) != 3:
        log("self-test: compare accepted records with different provenance")
        ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RECORD")
    args = ap.parse_args()
    if args.compare:
        return cmd_compare(args.compare)
    if args.self_test:
        return cmd_self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    cmd_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
