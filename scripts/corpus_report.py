#!/usr/bin/env python3
"""Evaluate the bundled corpus: extents, reference formulas and behaviours.

Run from the repository root:

    python scripts/corpus_report.py [--corpus DIR]

Exits 1 when any oracle cross-check reports a mismatch.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from semimc import (EvalConfig, compare_semantics, eval_formula, lt, mu_extent,
                    nu_extent, parse_formula, parse_fragment, parse_model,
                    validate)
from semimc.semiring import render_certified

REFERENCE_FORMULAS = {
    "extent-example": "mu X. ([a](T) | [b](X) | [c](X))",
    "offset": "nu X. mu Y. ([a](X) | [b](Y))",
    "deadlock": "[b](T)",
    "counterexample": "[a](T)",
}


def formula_for(name: str) -> str | None:
    for prefix, formula in REFERENCE_FORMULAS.items():
        if name.startswith(prefix):
            return formula
    return None


def report(path: pathlib.Path, cfg: EvalConfig) -> bool:
    """Print the report for one model; False on an oracle mismatch."""
    model = parse_model(path.read_text())
    d = model.descriptor
    print(f"== {path.name} ({d.short_name}, {len(model.states)} states, "
          f"{'plain' if model.is_plain else 'offset'})")
    for diag in validate(model):
        print(f"   {diag.render()}")

    nu = nu_extent(model, cfg)
    mu = mu_extent(model, cfg)
    print("   nu-extent: " + ", ".join(f"{s}={render_certified(nu[s], d, cfg.epsilon)}" for s in model.states))
    print("   mu-extent: " + ", ".join(f"{s}={render_certified(mu[s], d, cfg.epsilon)}" for s in model.states))

    ok = True
    text = formula_for(path.name)
    if text:
        f = parse_formula(text, model.signature, d)
        v = eval_formula(model, f, cfg=cfg)
        print(f"   [[{text}]]: "
              + ", ".join(f"{s}={render_certified(v[s], d, cfg.epsilon)}" for s in model.states))
        rep = compare_semantics(model, f, 3, cfg)
        ok = rep.ok
        disc = rep.max_discrepancy
        shown = f"{float(disc):.3e}" if disc != 0 else "0"
        print(f"   oracle cross-check at unroll 3: max discrepancy "
              f"{shown} ({'ok' if rep.ok else 'MISMATCH'})")

    if path.name.startswith("counterexample"):
        for s in ("x", "u"):
            v = lt(model, s, parse_fragment("a(T)", model.signature), cfg)
            print(f"   lt({s}, a(T)) = {render_certified(v, d, cfg.epsilon)}")
    print()
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", default=None, help="directory of .model files")
    args = ap.parse_args()
    corpus = pathlib.Path(args.corpus) if args.corpus else \
        pathlib.Path(__file__).resolve().parent.parent / "corpus"
    cfg = EvalConfig()
    results = [report(path, cfg) for path in sorted(corpus.glob("*.model"))]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
