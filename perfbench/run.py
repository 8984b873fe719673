#!/usr/bin/env python3
"""Runs one workload of the dna-skew benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `perfbench` package from
source (into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload
in a fresh process and prints, as the last line of standard output, one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end metrics. With `--trace 1`
it runs the workload untraced and then traced, each in its own process
and each on a quarter of the schedule (the traced process replays every
operation layer by layer, which takes several times as long), and prints
the per-layer metrics of the traced run plus `trace.overhead_pct`: how
much slower the read operation ran in the traced process than in the
untraced one.

Lines before the last carry the environment record and diagnostics. The
full reports and the trace spans are kept under `.perfbench/`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("noisy-decode", "serve-mixed", "serve-recover")
TRACE_SHARE = 1 / 4
# A run ends within this many seconds of starting its first workload
# process, build excluded.
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 850
# The traced run's layers must account for its read operation to within
# this share (trace.unattributed_pct), or the run is not correct.
ATTRIBUTION_TOLERANCE_PCT = 10.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_DEADLINE_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"run.py: build failed with exit code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def run_child(binary, workload, seed, seconds, trace, deadline):
    """Runs one workload process; returns its report, or None."""
    work = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run.py: {workload} did not finish in time")
        return None
    finally:
        for entry in os.listdir(work):
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    if proc.returncode != 0:
        log(f"run.py: {workload} exited with code {proc.returncode}")
        return None
    lines = out.strip().splitlines()
    if not lines:
        log(f"run.py: {workload} printed nothing")
        return None
    with open(os.path.join(work, "report.json"), "w") as f:
        f.write(lines[-1] + "\n")
    return json.loads(lines[-1])


def revision():
    """The git revision when there is one, and a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        rev = rev.stdout.strip() if rev.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unavailable"
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    rev, digest = revision()

    seconds = args.seconds * (TRACE_SHARE if args.trace else 1.0)
    plain = run_child(binary, args.workload, args.seed, seconds, False, deadline)
    if plain is None:
        return 3
    reports = [plain]
    if args.trace:
        traced = run_child(binary, args.workload, args.seed, seconds, True, deadline)
        if traced is None:
            return 3
        reports.append(traced)

    env = dict(plain["environment"], git_revision=rev, source_digest=digest)
    print(json.dumps({"environment": env}))
    for r in reports:
        print(json.dumps({"trace": r["trace"], "diagnostics": r["diagnostics"],
                          "counts": r["counts"]}))

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    mismatched = sum(r["mismatched"] for r in reports)
    replay_mismatches = sum(r["counts"].get("replay_mismatches", 0) for r in reports)
    if args.trace:
        metrics = dict(traced["layers"])
        overhead = 100.0 * (traced["read_mean_ms"] / plain["read_mean_ms"] - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        unattributed = metrics["trace.unattributed_pct"]["value"]
        attributed = abs(unattributed) <= ATTRIBUTION_TOLERANCE_PCT
        print(json.dumps({"attribution": {
            "unattributed_pct": unattributed,
            "tolerance_pct": ATTRIBUTION_TOLERANCE_PCT,
            "within_tolerance": attributed}}))
    else:
        metrics = plain["metrics"]
        attributed = True
    correct = failed == 0 and replay_mismatches == 0 and attributed and all(
        isinstance(m["value"], (int, float)) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    # Wrong bytes on a serve path are never a measurement to keep.
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
