#!/usr/bin/env python3
"""Compare two source trees' answers on random models and formulas.

    python scripts/differential.py PARENT CHANGE --samples N --seed S

PARENT and CHANGE are checkouts of this repository (each with ``src/``).
Each tree runs in its own process on the same seeded samples, drawn by
this repository's ``tests/randgen.py``: N random models per semiring
(bool, prob, trop, trop[5]; trop ones may have offsets) and for each a
random closed qualitative formula (unrolled at most twice for the
oracle, whose exact values double their digits with each level), a
random trace fragment and a pair of states.  Each sample calls the
library entry points ``eval_formula``, ``nu_extent``, ``mu_extent``,
``lt`` (at every state), ``equiv_upto`` and ``compare_semantics``, and
records each result as ``Semiring.render`` prints it (the report as
``to_dict``), or an error as its class and message.  The script prints
the first result on which the trees differ, with the model and formula,
and exits 1; or it prints one summary line and exits 0.  To compare a
change with its parent:

    git archive HEAD~1 | tar -x -C ../parent
    python scripts/differential.py ../parent . --samples 200 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("boolean", "probabilistic", "tropical", "bounded_tropical")


def _fragment_text(rng: random.Random, labels, depth: int) -> str:
    """A random trace fragment of depth at most `depth`, as text."""
    if depth == 0 or rng.random() < 0.2:
        return "T"
    label = rng.choice(labels)
    if not label.arity:
        return label.name
    args = ", ".join(_fragment_text(rng, labels, depth - 1) for _ in range(label.arity))
    return f"{label.name}({args})"


def _results(sample: tuple):
    """(call, text) for each entry point on one sample; an error is its
    class and message."""
    from semimc import (EvalConfig, compare_semantics, equiv_upto, eval_formula, lt,
                        mu_extent, nu_extent, parse_fragment, render_fragment)
    m, phi, k, frag_text, (c, d), kind = sample
    cfg, render = EvalConfig(enum_cap=20_000), m.semiring.render

    def values(pred):
        return " ".join(f"{s}={render(v)}" for s, v in pred.items())

    def equiv():
        r = equiv_upto(m, c, d, 2, kind, cfg)
        if r.equivalent:
            return f"equivalent ({r.fragments_checked} fragments)"
        return (f"witness {render_fragment(r.witness)}: {render(r.left_value)} vs "
                f"{render(r.right_value)} ({r.fragments_checked} fragments)")

    frag = parse_fragment(frag_text, m.signature)
    calls = [
        ("eval_formula", lambda: values(eval_formula(m, phi, cfg=cfg))),
        ("nu_extent", lambda: values(nu_extent(m, cfg))),
        ("mu_extent", lambda: values(mu_extent(m, cfg))),
        (f"lt {frag_text}", lambda: values({s: lt(m, s, frag, cfg) for s in m.states})),
        (f"equiv_upto {c} {d} --kind {kind}", equiv),
        (f"compare_semantics unroll {k}",
         lambda: json.dumps(compare_semantics(m, phi, k, cfg).to_dict(m.descriptor))),
    ]
    for name, call in calls:
        try:
            text = call()
        except Exception as e:  # every error is a result to compare
            text = f"{type(e).__name__}: {e}"
        yield name, text


def worker(tree: str, samples: int, seed: int) -> int:
    """Print one JSON line per result, run on the semimc under `tree`."""
    sys.path[:0] = [os.path.join(os.path.abspath(tree), "src"), os.path.join(ROOT, "tests")]
    import semimc
    from semimc import render_formula, render_model
    from randgen import DESCRIPTORS, pick_unroll, random_model, random_qualitative_formula

    print(json.dumps(semimc.__file__))
    rng = random.Random(seed)
    for kind in KINDS:
        descriptor = DESCRIPTORS[kind]
        for i in range(samples):
            m = random_model(rng, descriptor, max_states=4, max_labels=3, allow_offsets=True)
            phi = random_qualitative_formula(rng, m.signature, max_size=12, max_fnd=2,
                                             max_modal_depth=2)
            sample = (m, phi, pick_unroll(m, phi, 5_000, 2),
                      _fragment_text(rng, m.signature.labels, 3),
                      (rng.choice(m.states), rng.choice(m.states)), rng.choice(("lt", "tr")))
            case = [descriptor.short_name, i, render_model(m),
                    render_formula(phi, descriptor)]
            for name, text in _results(sample):
                print(json.dumps([case, name, text]))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="the parent's source tree")
    p.add_argument("change", help="the changed source tree")
    p.add_argument("--samples", type=int, default=50, help="random models per semiring")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:  # `parent` names the one tree to run
        return worker(args.parent, args.samples, args.seed)

    procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), tree, "-",
                               "--worker", "--samples", str(args.samples),
                               "--seed", str(args.seed)],
                              stdout=subprocess.PIPE, text=True)
             for tree in (args.parent, args.change)]
    outputs = [proc.communicate()[0].splitlines() for proc in procs]
    for tree, proc, lines in zip((args.parent, args.change), procs, outputs):
        if proc.returncode or not lines:
            print(f"{tree}: the worker exited with code {proc.returncode}")
            return 2
        loaded = json.loads(lines[0])
        if not os.path.abspath(loaded).startswith(os.path.abspath(tree) + os.sep):
            print(f"{tree}: semimc was imported from {loaded}, outside the tree")
            return 2
    left, right = outputs[0][1:], outputs[1][1:]
    for a, b in zip(left, right):
        if a != b:
            (case, name, parent), (case2, name2, change) = json.loads(a), json.loads(b)
            print(f"first difference: {case[0]} sample {case[1]}, {name}")
            if case != case2 or name != name2:
                print("  the samples themselves differ")
            print("  model:\n    " + case[2].rstrip("\n").replace("\n", "\n    "))
            print(f"  formula: {case[3]}")
            print(f"  parent: {parent}\n  change: {change if name == name2 else (name2, change)}")
            return 1
    if len(left) != len(right):
        print(f"the trees give {len(left)} and {len(right)} results")
        return 1
    print(f"no difference: {len(left)} results on {args.samples} samples per semiring "
          f"({', '.join(KINDS)}) at seed {args.seed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
