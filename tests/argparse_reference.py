"""The argparse parser that `semimc.cli` used before its command table, kept
as the reference for the table's parser (`tests/test_fuzz.py`).  Its option
types are the command line's own converters; a ValueError from one is a
usage error here too."""

from __future__ import annotations

import argparse

from semimc.cli import _int_at_least, _positive_rational


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semimc",
        description="semiring-parametric model checker for quantitative "
                    "linear-time fixpoint logics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formula=False, fragment=False, state=False, solver=False, enum=False):
        sp.add_argument("model", help="model file")
        if formula:
            sp.add_argument("formula", help="formula text or file")
        if fragment:
            sp.add_argument("fragment", help="trace fragment text or file")
        if state:
            sp.add_argument("--state", required=True, help="state to query")
        if solver:
            sp.add_argument("--epsilon", type=_positive_rational, default=argparse.SUPPRESS)
            sp.add_argument("--max-iters", type=_int_at_least(1), default=argparse.SUPPRESS,
                            dest="max_iterations")
            sp.add_argument("--promote-bound", type=_int_at_least(0), default=argparse.SUPPRESS)
        if enum:
            sp.add_argument("--enum-cap", type=_int_at_least(1), default=argparse.SUPPRESS)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    common(sub.add_parser("check"))
    common(sub.add_parser("eval"), formula=True, solver=True)
    ext = common(sub.add_parser("extent"), solver=True)
    g = ext.add_mutually_exclusive_group()
    g.add_argument("--nu", action="store_true")
    g.add_argument("--mu", action="store_true")
    common(sub.add_parser("lt"), fragment=True, state=True, solver=True)
    tr = common(sub.add_parser("tr"), fragment=True, state=True)
    tr.add_argument("--n", type=_int_at_least(0), default=None)
    common(sub.add_parser("ftr"), fragment=True, state=True)
    eq = common(sub.add_parser("equiv"), solver=True, enum=True)
    eq.add_argument("left")
    eq.add_argument("right")
    eq.add_argument("--kind", choices=("lt", "tr"), default="lt")
    eq.add_argument("--depth", type=_int_at_least(0), default=2)
    orc = common(sub.add_parser("oracle"), formula=True, solver=True, enum=True)
    orc.add_argument("--unroll", type=_int_at_least(0), default=2)
    common(sub.add_parser("info"))
    return p
