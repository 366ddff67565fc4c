#!/usr/bin/env python3
"""Build and run the popan benchmark; print its metrics and a result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve|ingest_repro> --seed <n> \
        --seconds <s> --trace <0|1> [size flags passed to the binary]

The benchmark binary is the package in this directory. It is built with
cargo into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run from
the repository root with ``POPAN_THREADS=1``.

``--trace 0`` makes one untraced run and reports the end-to-end metrics
of ``BENCHMARK.json``; peak resident memory comes from the kernel's
accounting of the finished child. ``--trace 1`` makes the same untraced
run and then a traced one: it reports every per-layer metric of
``BENCHMARK.json`` (layers the workload never calls read 0) plus
``trace_overhead.<metric>``, the traced minus the untraced value of each
end-to-end metric. Spans are written to
``<target dir>/perfbench-traces/<workload>-seed<seed>.csv``. Times are
host-speed adjusted by the binary (``perfbench/src/calib.rs``); the
report lines show each measured value beside the adjusted one.

The last line of stdout is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``. Exit status is 0
whenever a result was printed; a failed build or run exits 1 without one.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A whole run must end within 180 s; each child gets a share of it.
CHILD_LIMIT_S = 80


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"building the benchmark: {e}")
    if r.returncode != 0:
        fail(f"building the benchmark failed with status {r.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def run_child(binary, args):
    """Runs the binary; returns (parsed result line, peak RSS in MB)."""
    env = dict(os.environ, POPAN_THREADS="1")
    p = subprocess.Popen([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_LIMIT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        fail(f"{' '.join(args[:2])}: benchmark exited with status {p.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    # ru_maxrss is in KiB on Linux.
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    binary = build()
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds)] + extra
    runs = []
    untraced, rss = run_child(binary, base + ["--trace", "0"])
    untraced["e2e"]["peak_rss_mb"] = {"value": rss, "unit": "MB", "n": 1, "note": "ru_maxrss"}
    runs.append(untraced)
    if args.trace:
        trace_out = os.path.join(target_dir(), "perfbench-traces",
                                 f"{args.workload}-seed{args.seed}.csv")
        traced, rss = run_child(binary, base + ["--trace", "1", "--trace-out", trace_out])
        traced["e2e"]["peak_rss_mb"] = {"value": rss, "unit": "MB", "n": 1, "note": "ru_maxrss"}
        runs.append(traced)
        for kernel in ("stream", "sort"):
            traced["layers"][f"host.calibration_{kernel}_us"] = {
                "value": traced[f"calibration_{kernel}_us"], "unit": "us",
                "n": traced["calibration_n"], "note": "median calibration kernel time"}
        for m in spec["end_to_end"]:
            name = m["name"]
            traced["layers"][f"trace_overhead.{name}"] = {
                "value": traced["e2e"][name]["value"] - untraced["e2e"][name]["value"],
                "unit": m["unit"], "n": 1, "note": "traced minus untraced"}
        wanted, source = spec["per_layer"], traced["layers"]
    else:
        wanted, source = spec["end_to_end"], untraced["e2e"]

    metrics, correct = {}, True
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for r in runs:
        print(f"  {'traced' if r['traced'] else 'untraced'} run: calibration medians "
              f"stream {r['calibration_stream_us']:.3f} us, sort {r['calibration_sort_us']:.3f} us "
              f"over {r['calibration_n']} samples; times are host-speed adjusted "
              "(perfbench/src/calib.rs)")
    for m in wanted:
        got = source.get(m["name"])
        if got is None and args.trace:
            got = {"value": 0.0, "unit": m["unit"], "n": 0, "note": "not exercised by this workload"}
        if got is None or got["value"] is None or not math.isfinite(got["value"]) \
                or got["unit"] != m["unit"]:
            correct = False
            print(f"  {m['name']:<36} missing or malformed: {got}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print(f"  {m['name']:<36} {got['value']:>14.6g} {m['unit']:<6} n={got['n']:<7} {got['note']}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for f in r["failures"]:
            print(f"  FAILED ({'traced' if r['traced'] else 'untraced'}): {f}")
    print(f"  ops failed / attempted: {failed} / {attempted}")
    correct = correct and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
