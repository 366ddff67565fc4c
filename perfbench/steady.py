#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/steady.py --workloads serve,ingest_repro \
        --seeds 1-10 [--seconds S] [--out FILE.json] [--md FILE.md]

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the metric's bound from ``BENCHMARK.json``, and
flags a spread above a third of the bound. ``--out`` also writes the raw
values and the host description (nproc, caches, rustc, git revision)
as JSON, ``--md`` the same as Markdown tables. Runs are sequential: one
benchmark process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def host():
    caches = [line.split(":", 1)[1].strip() for line in capture(["lscpu"]).splitlines()
              if line.startswith(("L2 cache", "L3 cache"))]
    return {
        "nproc": os.cpu_count(),
        "l2_l3": caches,
        "rustc": capture(["rustc", "--version"]),
        "git_rev": capture(["git", "rev-parse", "--short", "HEAD"]) or "unknown",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="serve,ingest_repro")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    ap.add_argument("--md")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"host": host(), "seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n{r.stdout}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload:<7} {name:<14} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.3f} bound {bounds[name]}{flag}")
        record["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    if args.md:
        with open(args.md, "w") as f:
            f.write(markdown(record, args.seeds))


def markdown(record, seeds):
    h = record["host"]
    out = [f"Host: nproc {h['nproc']}, L2/L3 {' / '.join(h['l2_l3'])}, {h['rustc']}, "
           f"git rev {h['git_rev']}. {record['seconds']:g} s per run, seeds {seeds}.", ""]
    for workload, rows in record["workloads"].items():
        out += [f"`{workload}`:", "",
                "| metric | median | Q1 | Q3 | spread (Q3−Q1)/median | bound | below bound/3 |",
                "|---|---|---|---|---|---|---|"]
        for name, r in rows.items():
            ok = "yes" if r["spread"] < r["bound"] / 3 else "**no**"
            out.append(f"| `{name}` | {r['median']:.6g} | {r['q1']:.6g} | {r['q3']:.6g} "
                       f"| {r['spread']:.3f} | {r['bound']} | {ok} |")
        out.append("")
    return "\n".join(out)


if __name__ == "__main__":
    main()
