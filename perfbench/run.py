"""semimc benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload prob-kleene --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload is generated from
the seed (model files plus a query list with reference answers, see
`workloads`), then a fresh single-threaded worker process (`worker.py`)
imports semimc from ``src/``, times its set-up and runs the query list
through ``semimc.cli.main(argv)`` with ``--format json`` in a closed loop
with one client for --seconds.  Every answer is checked against the
benchmark's own reference.

--trace 0 prints the end-to-end metrics, with times scaled to a reference
processor speed (see worker.py); --trace 1 runs an untraced and a traced
worker, each for half the time, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

A query fails when its answer is wrong, when it exits 2 although the
reference has an answer, or on any other exit code or uncaught exception;
failures are counted in "failed" and listed by id.  "correct" is false
when the checks themselves cannot be trusted: a query whose outcome
changes between passes of the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 170


def write_plan(b: workloads.Workload, plan_dir: str) -> str:
    """Writes the models and plan.json; returns the workload fingerprint, a
    hash of the model files and the query list."""
    os.makedirs(plan_dir)
    h = hashlib.sha256()
    for fname in sorted(b.models):
        with open(os.path.join(plan_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(b.models[fname])
        h.update(f"{fname}\n{b.models[fname]}\n".encode())
    queries = [{"qid": q.qid, "argv": q.argv, "expect": q.expect} for q in b.queries]
    h.update(json.dumps(queries, sort_keys=True).encode())
    with open(os.path.join(plan_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump({"queries": queries}, fh)
    return h.hexdigest()[:16]


def run_worker(plan_dir: str, seconds: float, trace: bool) -> dict:
    result = os.path.join(plan_dir, f"result-{int(trace)}.json")
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"), plan_dir,
           os.path.join(ROOT, "src"), str(seconds), str(int(trace)), result]
    subprocess.run(cmd, check=True, timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(res: dict) -> dict:
    """Outcome counts per pass of the query list."""
    kinds = {"wrong": 0, "undecided": 0, "error": 0}
    failed = []
    for qid, outcome, detail in res["outcomes"]:
        if outcome != "ok":
            kinds[outcome] += 1
            failed.append((qid, outcome, detail))
    n = len(res["outcomes"])
    return {"queries": n, "passes": len(res["walls"]), "kinds": kinds, "failed": failed,
            "failed_share": len(failed) / n}


def end_to_end(res: dict, s: dict) -> dict:
    """Times are scaled to the reference speed (see worker.py); each
    query's latency is its median over the passes."""
    per_query = [statistics.median(ts) for ts in zip(*res["latencies_scaled"])]
    lat = sorted(t * 1000 for t in per_query)
    return {
        "wall_s": (sum(per_query), "s"),
        "query_p50_ms": (statistics.median(lat), "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
        "correct_share": (1 - s["failed_share"], "ratio"),
        "setup_s": (statistics.median(res["setup_scaled_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(base: dict, traced: dict) -> dict:
    """Semiring counts of the first traced pass, the only one that counts
    them; every other metric of the later pass with the median wall time.
    Taking those from one pass keeps the self times adding up to its wall
    time."""
    units = dict(tracing.metric_names())
    first, *timed = traced["layers"]
    passes = sorted(timed, key=lambda p: p["traced_wall_s"])
    chosen = passes[(len(passes) - 1) // 2]
    out = {name: ((first if name.startswith("semiring.") else chosen)[name], units[name])
           for name in units if name != "tracing_overhead"}
    out["tracing_overhead"] = (out["traced_wall_s"][0] / statistics.median(base["walls"]),
                               "ratio")
    return out


def report_layers(m: dict):
    wall = m["traced_wall_s"][0]
    print(f"traced wall_s {wall:.4f}  (tracing_overhead {m['tracing_overhead'][0]:.3f})")
    total = 0.0
    for layer in tracing.LAYERS + ("uncovered",):
        t = m[f"self_s.{layer}"][0]
        total += t
        print(f"  self time {layer:<12} {t:9.4f} s  {100 * t / wall:5.1f} %")
    print(f"  sum of self times + uncovered {total:.4f} s, traced wall_s {wall:.4f} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semimc", "cli.py")):
        print(f"error: no semimc sources under {ROOT}/src", file=sys.stderr)
        return 1

    b = workloads.build(args.workload, args.seed)
    out_dir = os.path.join(HERE, "out")
    plan_dir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        fingerprint = write_plan(b, plan_dir)
        if args.trace:
            base = run_worker(plan_dir, args.seconds / 2, False)
            res = run_worker(plan_dir, args.seconds / 2, True)
            shutil.copy(os.path.join(plan_dir, "spans.jsonl"),
                        os.path.join(out_dir, f"spans-{args.workload}.jsonl"))
        else:
            res = run_worker(plan_dir, args.seconds, False)
    finally:
        shutil.rmtree(plan_dir, ignore_errors=True)

    s = summarize(res)
    print(f"workload {args.workload}  seed {args.seed}  fingerprint {fingerprint}")
    print(f"queries {s['queries']}  passes {s['passes']}  latency samples {s['queries']} "
          f"(median of {s['passes']} per query)  setup repeats {len(res['setup_s'])}")
    print(f"unscaled: median pass {statistics.median(res['walls']):.4f} s, "
          f"median set-up {statistics.median(res['setup_s']):.4f} s")
    print(f"failed_share {s['failed_share']:.4f} ({len(s['failed'])}/{s['queries']} per pass): "
          + ", ".join(f"{k} {v}" for k, v in s["kinds"].items()))
    for qid, outcome, detail in s["failed"]:
        print(f"  FAILED {qid} {outcome}: {detail}")
    metrics = per_layer(base, res) if args.trace else end_to_end(res, s)
    if args.trace:
        report_layers(metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["stable"],
        "attempted": s["queries"] * s["passes"],
        "failed": len(s["failed"]) * s["passes"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
