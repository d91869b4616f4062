#!/usr/bin/env python3
"""Run the probe table of ROADMAP.md (P1-P10), one command-line call per row.

    python scripts/probes.py --timeout 60

Each row runs ``python -m semimc.cli ...`` from ``src/`` in its own
subprocess, which is killed when --timeout seconds pass; a timeout is a
result, not an error.  The script prints one line per row: the probe id,
the exit code or ``timeout``, the seconds taken and the first lines of
the output (standard error when it holds a traceback or standard output
is empty), clipped.  It exits 0 whatever the rows print.

The probe models are the ones the table names: ``EQ``, ``BR``, ``BR2``
and ``DOUBLING`` from ``tests/test_probes.py``, ``po.model`` and the random
3-successor family of ROADMAP item 8 at n = 600, seed 7 (P9, ``--mu`` and
``--nu``).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from test_probes import BR, BR2, DOUBLING, EQ  # noqa: E402

# P7: u = min(1, (u/2 + 10^-12)/(1/2 + 10^-12)), least solution 1
PO = ("semiring prob label a/1 label e/0 "
      "state u { 1/2 a -> u; 1/1000000000000 e } offset u = 500000000001/1000000000000")
P8_FORMULA = ("nu X. [a](mu Y. ([a](X) | [b](Y) | [c](mu Z. ([c](Y) | [b](Z))))) "
              "| [b](X) | [c](X)")
CLIP = 72  # characters of output shown per row
SHOWN = 3  # output lines shown per row


def three_successor(n: int, seed: int = 7) -> str:
    """The random 3-successor prob family of ROADMAP item 8: per state an
    `a`, a `b` and a `c` transition of weight 1-20 to uniformly random
    states and an `e` exit of weight 1-3, over a total that leaves 0-2
    units unassigned; per state the three weights, the three successors,
    the exit weight and the slack are drawn in that order."""
    rng = random.Random(seed)
    lines = ["semiring prob", "label a/1", "label b/1", "label c/1", "label e/0"]
    for i in range(n):
        weights = [rng.randint(1, 20) for _ in range(3)]
        succs = [rng.randrange(n) for _ in range(3)]
        exit_ = rng.randint(1, 3)
        total = sum(weights) + exit_ + rng.randint(0, 2)
        moves = "; ".join(f"{w}/{total} {lbl} -> s{s}" for w, lbl, s in zip(weights, "abc", succs))
        lines.append(f"state s{i} {{ {moves}; {exit_}/{total} e }}")
    return "\n".join(lines) + "\n"


def rows(tmp: pathlib.Path) -> list[tuple[str, list[str]]]:
    """The probe rows as (id, command-line arguments), the models written to `tmp`."""
    models = {"eq": EQ, "br": BR, "br2": BR2, "po": PO, "doubling": DOUBLING,
              "doubling-offset": DOUBLING + "offset s13 = 1\n", "p9": three_successor(600)}
    path = {}
    for name, text in models.items():
        path[name] = str(tmp / f"{name}.model")
        pathlib.Path(path[name]).write_text(text)
    two_rate = str(ROOT / "corpus" / "two-rate.prob.model")
    counterexample = str(ROOT / "corpus" / "counterexample.prob.model")
    return [
        ("P1", ["eval", two_rate, "mu X. mu Y. ([a](X) | [e])"]),
        ("P2", ["extent", "--mu", path["br"]]),
        ("P3", ["lt", path["eq"], "e", "--state", "d"]),
        ("P4", ["equiv", path["eq"], "c", "d", "--depth", "2"]),
        ("P5", ["extent", "--nu", path["doubling-offset"]]),
        ("P6", ["eval", path["doubling"], "nu X. [f](2 * X, X) | [e]"]),
        ("P7", ["extent", "--mu", path["po"]]),
        ("P8", ["eval", counterexample, P8_FORMULA, "--max-iters", "1000"]),
        ("P9mu", ["extent", "--mu", path["p9"]]),
        ("P9nu", ["extent", "--nu", path["p9"]]),
        ("P10", ["extent", "--nu", path["br2"]]),
    ]


def run_row(argv: list[str], timeout: float) -> tuple[str, float, str]:
    """One call of the command-line tool: its exit code or 'timeout', the
    seconds taken and its first output lines, joined and clipped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "semimc.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:  # subprocess.run has killed the call
        return "timeout", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    # standard error when it holds a traceback or standard output is empty
    out = proc.stderr if "Traceback" in proc.stderr or not proc.stdout.strip() else proc.stdout
    shown = " | ".join(out.strip().splitlines()[:SHOWN])
    if len(shown) > CLIP:
        shown = shown[:CLIP - 3] + "..."
    return str(proc.returncode), seconds, shown


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--timeout", type=float, default=60.0,
                    help="seconds before a row's call is killed (default 60)")
    args = ap.parse_args()
    if args.timeout <= 0:
        ap.error("--timeout must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        for probe, argv in rows(pathlib.Path(tmp)):
            code, seconds, shown = run_row(argv, args.timeout)
            print(f"{probe:<5} {code:<7} {seconds:7.2f}s  {shown}".rstrip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
