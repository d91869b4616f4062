#!/usr/bin/env python3
"""Random sweep comparing the step-wise evaluator against the path oracle.

Draws random models and random qualitative formulas per semiring, unrolls
the fixpoints, and reports the worst per-state discrepancy observed.
Exact semirings must come out at zero; probabilistic runs stay within the
certificate-derived tolerance.

    python scripts/semantics_crosscheck.py --samples 50 --seed 7
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from semimc import EvalConfig, compare_semantics
from randgen import DESCRIPTORS, pick_unroll, random_model, random_qualitative_formula


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=50, help="samples per semiring")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-states", type=int, default=4)
    ap.add_argument("--max-unroll", type=int, default=3)
    ap.add_argument("--enum-cap", type=int, default=200_000)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    cfg = EvalConfig(enum_cap=args.enum_cap)
    failures = 0
    for kind, descriptor in DESCRIPTORS.items():
        worst = 0
        started = time.monotonic()
        for _ in range(args.samples):
            m = random_model(rng, descriptor, max_states=args.max_states,
                             max_labels=3)
            phi = random_qualitative_formula(rng, m.signature, max_size=12,
                                             max_fnd=2, max_modal_depth=2)
            k = pick_unroll(m, phi, args.enum_cap // 4, args.max_unroll)
            rep = compare_semantics(m, phi, k, cfg)
            if not rep.ok:
                failures += 1
                print(f"MISMATCH ({kind}):")
                print(rep.to_text(m.descriptor))
            if rep.max_discrepancy != 0 and rep.max_discrepancy > worst:
                worst = rep.max_discrepancy
        elapsed = time.monotonic() - started
        print(f"{kind:18s} {args.samples} samples in {elapsed:5.1f}s, "
              f"worst discrepancy {float(worst):.3e}"
              if worst else
              f"{kind:18s} {args.samples} samples in {elapsed:5.1f}s, "
              f"all exact")
    if failures:
        print(f"{failures} mismatches")
        return 1
    print("all samples within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
