"""Compare the benchmark's end-to-end metrics of two source trees.

    python scripts/bench.py PARENT_DIR CHANGE_DIR --seed S --pairs N \\
        [--claim W:METRIC ...] [--out BENCH_n.json]

PARENT_DIR and CHANGE_DIR are checkouts of the repository (each holds
``perfbench/`` and ``src/``).  For every workload of ``BENCHMARK.json``
the script runs ``perfbench/run.py --trace 0`` for its ``run_seconds``, N
times in each tree, as pairs that alternate which tree runs first, reads
the final JSON line of each run and writes one JSON file with, per
workload and end-to-end metric (the names, units and directions of
``BENCHMARK.json``): every value, the median and quartiles of each side,
and in how many pairs the change was better (ties count for neither side).
The file names both trees by absolute path.  ``setup_s`` moves with the
directory a checkout sits in, so the script warns when the two trees do
not share a parent directory.

Each ``--claim`` names a workload and metric that the change claims to
improve.  The file records whether the claim holds: the change wins at
least nine tenths of the pairs, and the medians differ, in its favour, by
more than the parent's interquartile range.  The exit code is 1 when a
claim does not hold, and when a run fails or prints no JSON line, which
also ends the script with that run's error output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`; its final JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{tree}: {workload} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {"parent": summary(parent), "change": summary(change), "change_wins": wins,
            "pairs": len(parent)}


def claim_holds(row: dict, better: str) -> dict:
    p, c = row["parent"], row["change"]
    gain = p["median"] - c["median"] if better == "lower" else c["median"] - p["median"]
    iqr = p["q3"] - p["q1"]
    return {"median_gain": gain, "parent_iqr": iqr,
            "holds": 10 * row["change_wins"] >= 9 * row["pairs"] and gain > iqr}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    p.add_argument("--out", default=None, help="output file (default: standard output)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    trees = {side: os.path.abspath(getattr(args, side)) for side in ("parent", "change")}
    if os.path.dirname(trees["parent"]) != os.path.dirname(trees["change"]):
        print("warning: the trees do not share a parent directory, and setup_s depends on "
              "where a checkout sits; put them side by side", file=sys.stderr)
    seconds = spec["run_seconds"]
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    for w, m in claims:
        if w not in names or m not in metrics:
            p.error(f"--claim {w}:{m} names no benchmarked workload and end-to-end metric")

    report = {"seed": args.seed, "pairs": args.pairs, "seconds": seconds, "trees": trees,
              "host": {"machine": platform.machine(), "processor": platform.processor(),
                       "python": platform.python_version(), "cpus": os.cpu_count()},
              "workloads": {}, "claims": []}
    for w in names:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(trees[side], w, args.seed, seconds)
                runs[side].append(res)
                print(f"{w} pair {i + 1}/{args.pairs} {side}: wall_s "
                      f"{res['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        row = {"failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
               "correct": all(r["correct"] for rs in runs.values() for r in rs)}
        for name, m in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            row[name] = {"unit": m["unit"], "better": m["better"],
                         **compare(values["parent"], values["change"], m["better"])}
        report["workloads"][w] = row
    ok = True
    for w, m in claims:
        verdict = claim_holds(report["workloads"][w][m], metrics[m]["better"])
        report["claims"].append({"workload": w, "metric": m, **verdict})
        ok &= verdict["holds"]

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
