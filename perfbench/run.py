#!/usr/bin/env python3
"""perfbench: the repository's one benchmark command.

Run one pass of one workload:

    python3 perfbench/run.py --workload fig12-sweep --seed 7 --seconds 20 --trace 0

from the root of a source checkout. The script builds the harness and the
libraries it drives (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build), runs it, prints its notes, checks and metrics, stamps the
result with a host and build fingerprint, appends it to the ledger
(<build dir>/perfbench/ledger.jsonl) and prints, as the last line, one JSON
object with exactly the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
and reports the per-layer metrics.

Compare two ledgers (say, parent and change):

    python3 perfbench/run.py compare parent.jsonl change.jsonl

Comparison refuses (exit 3) when the two ledgers' fingerprints differ in
host, toolchain, build type or benchmark code; only the program's source
may differ. It exits 4 when an output digest of the same workload and
seed differs between the two ledgers. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fig12-sweep", "fig15-jsonl", "serve-mixed")
HARNESS_TIMEOUT_S = 170
# Fingerprint fields that must match before two results are compared.
MATCH_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "bench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build the harness; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def tree_hash(paths, skip_suffix=None):
    """sha256 over the relative names and bytes of every file under paths
    (files ending in skip_suffix left out)."""
    h = hashlib.sha256()
    for top in paths:
        full = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for name in sorted(filenames):
                if skip_suffix and name.endswith(skip_suffix):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(harness):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    source = tree_hash(["src"])
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "compiler": harness.get("compiler", "unknown"),
        "build_type": harness.get("build_type", "unknown"),
        # The program's identity: the git commit when the checkout has
        # one, else a hash of the sources the harness built.
        "commit": git_commit() or "src-" + source,
        "source": source,
        # The benchmark's code, not its docs.
        "bench": tree_hash(["perfbench"], skip_suffix=".md"),
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this pass, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_harness(binary, args, work_dir, span_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--span-path", span_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if err.strip():
        log(err.rstrip())
    if proc.returncode != 0:
        log("perfbench: harness exited with %d" % proc.returncode)
        return None
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("perfbench: harness printed no result")
        return None
    for line in lines[:-1]:
        print(line)
    return result


def cmd_run(args):
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    binary = os.path.join(out_dir, "perfbench")
    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    span_dir = os.path.join(out_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    # One span file per workload, replaced by its next traced pass.
    span_path = os.path.join(span_dir, "%s.jsonl" % args.workload)
    harness = run_harness(binary, args, work_dir, span_path)
    if harness is None:
        return 1

    metrics = harness["metrics"]
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(metrics):
        log("perfbench: metrics %s do not match BENCHMARK.json %s"
            % (sorted(metrics), sorted(expected)))
        return 1

    fp = fingerprint(harness)
    attempted = int(harness["attempted"])
    failed = int(harness["failed"])
    print("error_rate %.6f (%d failed of %d attempted)"
          % (failed / attempted if attempted else 1.0, failed, attempted))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if args.trace:
        for path in sorted(os.listdir(span_dir)):
            if path.startswith(args.workload):
                print("spans written to "
                      + os.path.relpath(os.path.join(span_dir, path), ROOT))

    record = {
        "fingerprint": fp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": harness["threads"],
        "correct": harness["correct"],
        "attempted": attempted,
        "failed": failed,
        "checks": harness["checks"],
        "digests": harness["digests"],
        "self_s": harness["self_s"],
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "ledger.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": bool(harness["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }), flush=True)
    return 0


def load_ledger(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def digest_changes(sides):
    """(workload, seed, parent digests, change digests) for every untraced
    workload and seed both ledgers ran whose output digests differ."""
    keyed = []
    for records in sides:
        by_key = {}
        for r in records:
            if not r["trace"]:
                by_key.setdefault((r["workload"], r["seed"]), set()).add(
                    json.dumps(r["digests"], sort_keys=True))
        keyed.append(by_key)
    common = sorted(set(keyed[0]) & set(keyed[1]))
    print("digests: %d workload/seed pairs in both ledgers" % len(common))
    return [(w, seed, keyed[0][(w, seed)], keyed[1][(w, seed)])
            for (w, seed) in common
            if keyed[0][(w, seed)] != keyed[1][(w, seed)]]


def cmd_compare(args):
    sides = [load_ledger(args.parent), load_ledger(args.change)]
    differ = [k for k in MATCH_KEYS
              if len({r["fingerprint"].get(k)
                      for side in sides for r in side}) > 1]
    if differ:
        print("perfbench: refusing to compare: fingerprints differ in "
              + ", ".join(differ))
        for k in differ:
            values = sorted({str(r["fingerprint"].get(k))
                             for side in sides for r in side})
            print("  %s: %s" % (k, ", ".join(values)))
        return 3
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for side in sides for r in side})
    print("%-12s %-18s %14s %14s %8s %8s  %s"
          % ("workload", "metric", "parent median", "change median",
             "delta", "bound", "verdict"))
    for w in workloads:
        for name, spec in bounds.items():
            cols = []
            for records in sides:
                vals = [r["metrics"][name]["value"] for r in records
                        if r["workload"] == w and not r["trace"]
                        and name in r["metrics"]]
                cols.append(vals)
            if not cols[0] or not cols[1]:
                continue
            p_lo, p_med, p_hi = quartiles(cols[0])
            c_med = statistics.median(cols[1])
            delta = (c_med - p_med) / p_med
            worse = delta if spec["better"] == "lower" else -delta
            spread = (p_hi - p_lo) / p_med
            if worse > spec["bound"]:
                verdict = "REGRESSION"
            elif abs(delta) <= spread:
                verdict = "within parent spread"
            else:
                verdict = "better" if worse < 0 else "worse, within bound"
            print("%-12s %-18s %14.6g %14.6g %+7.2f%% %7.0f%%  %s"
                  % (w, name, p_med, c_med, 100 * delta,
                     100 * spec["bound"], verdict))
    changed = digest_changes(sides)
    for w, seed, parent, change in changed:
        print("OUTPUT CHANGED %s seed %d: parent %s, change %s"
              % (w, seed, " | ".join(sorted(parent)),
                 " | ".join(sorted(change))))
    if changed:
        print("perfbench: %d workload/seed pairs changed their output "
              "digests; the speed verdicts above do not stand"
              % len(changed))
        return 4
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
