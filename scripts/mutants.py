#!/usr/bin/env python3
"""Flip one operator of a module at a time and report the mutants that no test kills.

    python scripts/mutants.py MODULE TESTS... [--timeout S] [--scratch DIR]

MODULE is a source file of this repository (``src/semimc/_linear.py``) and
TESTS are the pytest arguments that should catch a change to it
(``tests/test_graph.py tests/test_evaluator.py``).  The script copies the
repository (``src/``, ``tests/``, ``corpus/``, ``perfbench/``, without
caches) into a scratch directory, checks that TESTS pass there, then
visits every mutation site of MODULE in source order, using only the
standard library's ``ast``:

* a comparison operator: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in`` swap;
* an arithmetic operator: ``+`` and ``-`` swap, ``*`` and ``//`` swap,
  ``/``, ``%`` and ``**`` become ``//``, ``//``, ``*``; ``<<`` and ``>>``
  swap, ``&`` and ``|`` swap, ``^`` becomes ``|``; augmented assignments
  (``x += 1``) too;
* a boolean operator: ``and`` and ``or`` swap.

Type annotations are left alone.

For each site it writes the module with that one operator flipped into
the copy and runs ``pytest -x -q TESTS`` on it.  A mutant is killed when
the run fails or exceeds --timeout (a flipped loop bound may not end);
it survives when every test passes.  Each survivor is printed as
``MODULE:LINE:COL  OLD -> NEW  | source line``, then one summary line.
The exit code is 0 whether or not mutants survive, 1 when TESTS do not
pass on the unmutated copy.  The checkout itself is never written.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "corpus", "perfbench")

FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.FloorDiv, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/",
    ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&",
    ast.BitOr: "|", ast.BitXor: "^", ast.And: "and", ast.Or: "or",
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int]]:
    """Every flippable operator of `tree` in source order, outside type
    annotations: (node, the index in `ops` for a comparison, else -1)."""
    hints = set()
    for node in ast.walk(tree):
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if hint is not None:
                hints.update(map(id, ast.walk(hint)))
    out = []
    for node in ast.walk(tree):
        if id(node) in hints:
            continue
        if isinstance(node, ast.Compare):
            out += [(node, k) for k, op in enumerate(node.ops) if type(op) in FLIP]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in FLIP:
            out.append((node, -1))
    return sorted(out, key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))


def flip(node: ast.AST, k: int):
    """Flip the operator of one site; returns its old and new symbols and
    the function that undoes the flip."""
    if k >= 0:
        old = node.ops[k]
        node.ops[k] = FLIP[type(old)]()
        new = node.ops[k]
        undo = lambda: node.ops.__setitem__(k, old)
    else:
        old = node.op
        node.op = new = FLIP[type(old)]()
        undo = lambda: setattr(node, "op", old)
    return SYMBOL[type(old)], SYMBOL[type(new)], undo


def run_tests(copy: str, tests: list[str], timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in `copy`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("module", help="a source file of this repository, e.g. src/semimc/_linear.py")
    p.add_argument("tests", nargs="+", help="pytest arguments, e.g. tests/test_graph.py")
    p.add_argument("--timeout", type=float, default=300,
                   help="seconds before a mutant's test run counts as killed (default 300)")
    p.add_argument("--scratch", help="directory for the copy (default: a new temporary one)")
    args = p.parse_args(argv)

    module = os.path.relpath(os.path.abspath(args.module), ROOT)
    with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    todo = sites(tree)

    copy = tempfile.mkdtemp(prefix="mutants-", dir=args.scratch)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for name in COPIED:
        if os.path.isdir(os.path.join(ROOT, name)):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name), ignore=ignore)
    target = os.path.join(copy, module)
    try:
        if run_tests(copy, args.tests, args.timeout) != "passed":
            print(f"error: {' '.join(args.tests)} do not pass on the unmutated copy",
                  file=sys.stderr)
            return 1
        killed = survived = 0
        start = time.perf_counter()
        for node, k in todo:
            old, new, undo = flip(node, k)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(ast.unparse(tree))
            undo()
            if run_tests(copy, args.tests, args.timeout) == "passed":
                survived += 1
                print(f"{module}:{node.lineno}:{node.col_offset}  {old} -> {new}  "
                      f"| {lines[node.lineno - 1].strip()}", flush=True)
            else:
                killed += 1
        print(f"{module}: {len(todo)} sites, {killed} killed, {survived} survived "
              f"({time.perf_counter() - start:.0f} s)")
        return 0
    finally:
        shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
