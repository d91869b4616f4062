"""Runs one workload's query list in a fresh single-threaded process.

    python3 -S perfbench/worker.py PLAN_DIR SRC_DIR SECONDS TRACE RESULT

PLAN_DIR holds the model files and ``plan.json`` written by ``run.py``;
SRC_DIR is the ``src`` directory semimc is imported from.  The worker
times the set-up (import semimc, then parse and validate every model)
several times, each in a fresh interpreter (`setup_once.py`), then runs
the query list as a closed loop with one client until SECONDS have passed
(at least one pass), checks every answer and writes its measurements to
RESULT as JSON.  With TRACE=1 it patches semimc through `tracing` first
and reports per-layer metrics instead.

Speed calibration: on a shared host the processor's speed for this process
swings by a factor of up to two in phases lasting seconds to minutes, far
more than any change worth detecting.  The worker therefore runs a fixed
piece of interpreter work (`calibrate`, a few ms) between queries every
tenth of a second and before and after each set-up, and scales the times
it reports to the reference speed at which that piece takes
CALIBRATION_REF_S: scaled = measured * CALIBRATION_REF_S / calibration
time nearby.  The calibration work is the benchmark's own code and no
change to semimc can alter it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 30
CALIBRATION_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 0.5
CALIBRATION_REF_S = 0.005


def calibrate() -> float:
    """Time a fixed mix of Fraction arithmetic and dict updates."""
    start = time.perf_counter()
    x, table = Fraction(0), {}
    for i in range(600):
        x = x * Fraction(99, 100) + Fraction(1, 3)
        table[i % 50] = x
        x = Fraction(x.numerator % 10**12, x.denominator % 10**12 or 1)
    return time.perf_counter() - start


def scaled(times: list[float], starts: list[float], cal: list[tuple[float, float]]):
    """Scale each time by the median calibration within the window around
    its start (the nearest calibration when none is that close)."""
    out = []
    for t, at in zip(times, starts):
        near = [d for c_at, d in cal if abs(c_at - at) <= CALIBRATION_WINDOW_S]
        if not near:
            near = [min(cal, key=lambda c: abs(c[0] - at))[1]]
        out.append(t * CALIBRATION_REF_S / statistics.median(near))
    return out


def setup(plan_dir: str, src_dir: str):
    """Times SETUP_REPEATS set-ups, each in a fresh interpreter, after
    importing semimc here (which also writes its bytecode cache); returns
    the times of each repetition, unscaled and scaled, and semimc.cli."""
    cli = importlib.import_module("semimc.cli")
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        raise SystemExit(f"semimc was imported from {where}, not from {src_dir}")
    cmd = [sys.executable, "-S", os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                              "setup_once.py"), plan_dir, src_dir]
    times, scaled_times = [], []
    for _ in range(SETUP_REPEATS):
        before = [calibrate() for _ in range(3)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S).stdout
        elapsed, *after = map(float, out.split())
        times.append(elapsed)
        scaled_times.append(elapsed * CALIBRATION_REF_S / statistics.median(before + after))
    return times, scaled_times, cli


def run_query(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # an uncaught exception is a failed query, not a crash
        code = None
        err.write(traceback.format_exc(limit=3))
    return start, time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def main():
    plan_dir, src_dir, seconds, trace, result_path = sys.argv[1:6]
    seconds, trace = float(seconds), trace == "1"
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [src_dir, here]
    import check

    with open(os.path.join(plan_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(plan_dir)

    setup_times, setup_scaled, cli = setup(plan_dir, src_dir)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.count_ops(True)
    main_fn = cli.main

    queries = plan["queries"]
    walls, latencies_scaled, outcomes, layer_metrics = [], [], None, []
    stable = True
    # a traced run counts semiring operations in its first pass and
    # times the layers in the later ones
    min_passes = 2 if tracer else 1
    deadline = time.perf_counter() + seconds
    while len(walls) < min_passes or time.perf_counter() < deadline:
        results, cal = [], []
        if tracer:
            tracer.reset()
        start = last_cal = time.perf_counter()
        for q in queries:
            if tracer:
                tracer.qid = q["qid"]
            elif time.perf_counter() - last_cal >= CALIBRATION_EVERY_S:
                last_cal = time.perf_counter()
                cal.append((last_cal, calibrate()))
            results.append(run_query(main_fn, q["argv"]))
        wall = time.perf_counter() - start - sum(d for _, d in cal)
        walls.append(wall)
        if not tracer:
            cal.append((time.perf_counter(), calibrate()))
            latencies_scaled.append(scaled([r[1] for r in results], [r[0] for r in results], cal))
        verdicts = [check.verdict(q, r[2], r[3], r[4]) for q, r in zip(queries, results)]
        if outcomes is None:
            outcomes = verdicts
        elif [v[0] for v in verdicts] != [v[0] for v in outcomes]:
            stable = False
        if tracer:
            layer_metrics.append(tracer.metrics(wall))
            tracer.keep = False
            tracer.count_ops(False)

    result = {
        "setup_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "walls": walls,
        "latencies_scaled": latencies_scaled,
        "outcomes": [[q["qid"], v[0], v[1]] for q, v in zip(queries, outcomes)],
        "stable": stable,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = layer_metrics
        with open(os.path.join(plan_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for name, start, end, parent, qid in tracer.spans:
                fh.write(json.dumps([name, start, end, parent, qid]) + "\n")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
