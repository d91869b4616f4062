"""Deep inputs: every structural walk runs on an explicit stack, so a
formula or fragment thousands of levels deep costs no Python frames, and
a nest of binders costs a fixed number of frames per binder."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import semimc
from semimc import EvaluationError, ValidationError, cli, evaluator
from semimc.evaluator import KleeneReport, KleeneResult, eval_formula
from semimc.logic import (BOT, TOP, Modal, Nu, Var, WeightedSum, alpha_equal, classify,
                          fnd, free_vars, modal_depth, render_formula, size, substitute,
                          unroll)
from semimc.model import parse_model
from semimc.path_oracle import PathNode, StateLeaf, cyl_measure, enum_fragments, frag_sat
from semimc.traces import (TOP_LEAF, TraceNode, check_fragment, depth, finite_tr,
                           fragment_to_formula, is_completed, lt, render_fragment,
                           tr_approx)

DEEP = 3000  # three times the default recursion limit
ONE_STATE = "semiring prob\nlabel a/1\nlabel e/0\nstate x { 1/2 a -> x; 1/2 e }\n"
TWO_STATES = ONE_STATE + "state y { 1/2 a -> y; 1/2 e }\n"


@pytest.fixture(scope="module")
def model():
    return parse_model(ONE_STATE)


def chain(leaf, wrap, n: int = DEEP):
    for _ in range(n):
        leaf = wrap(leaf)
    return leaf


def a_modal(f):
    return Modal((("a", (f,)),))


def test_formula_walks(model):
    f = chain(Var("X"), a_modal)
    g = Nu("X", f)
    cls = classify(f)
    assert (cls.closed, cls.qualitative, cls.modal_only, cls.modal_depth) == \
        (False, True, False, DEEP)
    assert free_vars(f) == {"X"} and free_vars(g) == frozenset()
    assert (modal_depth(f), fnd(g), size(g)) == (DEEP, 1, DEEP + 2)
    # records compare on an explicit stack, so deep results compare by ==;
    # alpha_equal compares the results that differ in a bound name
    assert unroll(g, 1) == chain(TOP, a_modal)
    assert substitute(f, "X", BOT) == chain(BOT, a_modal)
    assert alpha_equal(g, Nu("Y", substitute(f, "X", Var("Y"))))
    assert not alpha_equal(g, Nu("Y", chain(Var("Y"), a_modal, DEEP - 1)))
    text = render_formula(g, model.descriptor)
    assert text == "nu X. " + "[a](" * DEEP + "X" + ")" * DEEP
    # a sum at the bottom of the chain is rendered in parentheses after '*'
    s = WeightedSum(((Fraction(1, 2), chain(TOP, a_modal)),))
    assert render_formula(s, model.descriptor).startswith("1/2*[a]([a](")


def test_deep_records_compare_hash_and_print():
    # ==, hash and repr walk nested records and tuples on an explicit stack
    f, g = chain(TOP, a_modal), chain(TOP, a_modal)
    assert f == g and not f != g and hash(f) == hash(g)
    assert f != chain(Var("X"), a_modal) and f != chain(TOP, a_modal, DEEP - 1)
    assert Nu("X", f) == Nu("X", g) and Nu("X", f) != Nu("Y", g)
    assert {f: 1}[g] == 1
    assert repr(f) == "Modal(disjuncts=(('a', (" * DEEP + "T" + ",)),))" * DEEP
    cut = chain(TOP_LEAF, lambda b: TraceNode("a", (b,)))
    assert repr(cut) == "TraceNode(label='a', children=(" * DEEP + "T" + ",))" * DEEP
    q = chain(StateLeaf("x"), lambda c: PathNode("x", "a", (c,)))
    assert q == chain(StateLeaf("x"), lambda c: PathNode("x", "a", (c,)))
    assert q != chain(StateLeaf("y"), lambda c: PathNode("x", "a", (c,)))


def test_values_the_walks_do_not_enter_end_in_recursion_error():
    # Python compares and hashes a list or a namedtuple itself, so deep inside
    # one, == and hash end in RecursionError at once, as Python's own do: only
    # the outermost record walks, so the levels below it retry nothing.  The
    # subprocess turns a regression into a failure instead of a hang
    code = ("from collections import namedtuple\n"
            "from semimc.logic import Var\n"
            "P = namedtuple('P', 'x')\n"
            "def chain(wrap):\n"
            "    x = Var('X')\n"
            f"    for _ in range({DEEP}):\n"
            "        x = Var(wrap(x))\n"
            "    return x\n"
            "for wrap, op in ((lambda v: [v], '=='), (P, '=='), (P, 'hash')):\n"
            "    a, b = chain(wrap), chain(wrap)\n"
            "    try:\n"
            "        a == b if op == '==' else hash(a)\n"
            "    except RecursionError:\n"
            "        print(op, 'RecursionError')\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(semimc.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.splitlines() == ["== RecursionError"] * 2 + ["hash RecursionError"]


def test_eval_formula(model):
    # x = 1/2 * (value below): 2^-DEEP at T, and the valuation at the bottom
    assert eval_formula(model, chain(TOP, a_modal)) == {"x": Fraction(1, 2 ** DEEP)}
    f = chain(Var("X"), a_modal)
    assert eval_formula(model, f, {"X": {"x": Fraction(1, 3)}}) == \
        {"x": Fraction(1, 3 * 2 ** DEEP)}


def test_trace_fragment_walks(model):
    cut = chain(TOP_LEAF, lambda b: TraceNode("a", (b,)))
    done = chain(TraceNode("e", ()), lambda b: TraceNode("a", (b,)))
    assert depth(cut) == DEEP and depth(done) == DEEP + 1
    assert not is_completed(cut) and is_completed(done)
    check_fragment(cut, model.signature)
    assert render_fragment(cut) == "a(" * DEEP + "T" + ")" * DEEP
    assert fragment_to_formula(cut) == chain(TOP, a_modal)
    assert lt(model, "x", cut) == Fraction(1, 2 ** DEEP)
    assert finite_tr(model, "x", done) == Fraction(1, 2 ** (DEEP + 1))
    assert tr_approx(model, "x", cut, DEEP) == Fraction(1, 2 ** DEEP)


def test_path_fragment_walks(model):
    q = chain(StateLeaf("x"), lambda c: PathNode("x", "a", (c,)))
    assert cyl_measure(model, q) == Fraction(1, 2 ** DEEP)
    assert frag_sat(q, chain(TOP, a_modal))
    assert not frag_sat(q, chain(BOT, a_modal))
    # one path from x, so one fragment at every depth, of measure 1
    loop = parse_model("semiring prob\nlabel a/1\nstate x { 1 a -> x }\n")
    (r,) = enum_fragments(loop, "x", DEEP)
    assert cyl_measure(loop, r) == 1 and frag_sat(r, chain(TOP, a_modal))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_deep_unroll(tmp_path, capsys, fmt):
    path = tmp_path / "one.prob.model"
    path.write_text(ONE_STATE)
    code, out, err = run(capsys, "oracle", str(path), "mu X. [a](X) | [e]",
                         "--unroll", "450", "--format", fmt)
    assert code == 0 and not err
    if fmt == "json":
        report = json.loads(out)["report"]
        assert (report["unroll"], report["depth"], report["ok"]) == (450, 450, True)
    else:
        lines = out.splitlines()
        assert lines[0].startswith("semantics cross-check (unroll 450, depth 450, ")
        assert lines[1].startswith("  x: stepwise=") and lines[1].endswith(" diff=0 ok")
        assert lines[2] == "  max discrepancy: 0"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_deep_equiv(tmp_path, capsys, fmt):
    path = tmp_path / "two.prob.model"
    path.write_text(TWO_STATES)
    code, out, err = run(capsys, "equiv", str(path), "x", "y", "--depth", "600",
                         "--format", fmt)
    assert code == 0 and not err
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["depth"], payload["equivalent"]) == (600, True)
    else:
        assert out == "equivalent up to depth 600 (1201 fragments)\n"


def test_binder_nest_frame_budget(tmp_path, capsys, monkeypatch):
    # the deepest nest of binders the parser accepts, on a prob model with
    # an offset, so that every block runs a chain; the stub chain applies
    # the operator once through one extra call, the frame `_prob_kleene`
    # takes, so each binder costs the five frames it may
    def apply(op, start):
        return op(list(start))

    def once(semiring, op, start, *args, **kwargs):
        return KleeneResult(apply(op, start), KleeneReport(1))

    monkeypatch.setattr(evaluator, "kleene", once)
    path = tmp_path / "offset.prob.model"
    path.write_text(ONE_STATE + "offset x = 1/2\n")
    nest = 158
    formula = "".join(f"mu X{i}. " for i in range(nest)) + "[a](X0) | [e]"
    assert run(capsys, "eval", str(path), formula)[0] == 0
    # one level more is past the parser's depth limit: a parse error
    deeper = "mu Y. " + formula
    code, _, err = run(capsys, "eval", str(path), deeper)
    assert code == 1 and "input nested deeper than 160 levels" in err


def test_walks_keep_the_first_error_and_short_circuits(model):
    # checks run on each node before the nodes below it, as the recursion did
    with pytest.raises(ValidationError, match="unknown label 'q'"):
        check_fragment(TraceNode("q", (TraceNode("r", ()),)), model.signature)
    inner = PathNode("x", "b", (StateLeaf("x"),))
    with pytest.raises(ValidationError, match=r"missing transition x -c-> \('x',\)"):
        cyl_measure(model, PathNode("x", "c", (inner,)))
    with pytest.raises(ValidationError, match="top leaf above the truncation depth"):
        tr_approx(model, "x", TraceNode("a", (TOP_LEAF,)), 2)
    # satisfaction stops at the first failing argument: the second, deeper
    # than the cut, is never asked
    q = PathNode("x", "f", (StateLeaf("x"), StateLeaf("x")))
    assert not frag_sat(q, Modal((("f", (BOT, a_modal(TOP))),)))
    with pytest.raises(EvaluationError, match="deeper than the fragment cut"):
        frag_sat(q, Modal((("f", (TOP, a_modal(TOP))),)))
