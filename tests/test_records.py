"""Value semantics of semimc's record classes, and what `import semimc.cli`
loads at start-up."""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import semimc
from semimc import (ComparisonReport, Diagnostic, EquivResult, EvalConfig, KleeneReport,
                    Label, Modal, Model, Mu, Nu, PathNode, SemiringDescriptor, Signature,
                    StateLeaf, TOP, TOP_LEAF, Top, TopLeaf, TraceNode, Transition, Var,
                    WeightedSum, classify, parse_model)
from semimc.model import CompiledModel

MODEL = "semiring prob label a/1 label e/0 state x { 1/2 a -> x; 1/2 e }"


def _frozen_values():
    """Two equal but distinct values of every frozen record class, built
    fresh on each call, with a field to assign to (None: no fields)."""
    m = parse_model(MODEL)
    cm = m.compiled
    return [
        (Top(), None),
        (Var("X"), "name"),
        (WeightedSum(((Fraction(1, 2), Var("X")),)), "terms"),
        (Modal((("a", (TOP,)),)), "disjuncts"),
        (Mu("X", Modal((("a", (Var("X"),)),))), "body"),
        (Nu("X", TOP), "var"),
        (classify(Modal((("a", (TOP,)),))), "modal_depth"),
        (Label("a", 1), "arity"),
        (Signature((Label("a", 1), Label("e", 0))), "labels"),
        (Transition(Fraction(1, 2), "a", ("x",)), "weight"),
        (m, "states"),
        (CompiledModel(cm.semiring, cm.states, dict(cm.label_ids), cm.max_arity, cm.rows,
                       cm.offsets, cm.offset_ids), "rows"),
        (SemiringDescriptor("bounded_tropical", 3), "bound"),
        (TopLeaf(), None),
        (TraceNode("a", (TOP_LEAF,)), "children"),
        (StateLeaf("x"), "state"),
        (PathNode("x", "a", (StateLeaf("x"),)), "label"),
    ]


FROZEN = [type(v).__name__ for v, _ in _frozen_values()]


@pytest.mark.parametrize("i", range(len(FROZEN)), ids=FROZEN)
def test_frozen_records_are_values(i):
    value, field = _frozen_values()[i]
    twin, _ = _frozen_values()[i]
    assert value is not twin and value == twin and not value != twin
    assert copy.copy(value) == value
    if type(value) not in (Model, CompiledModel):  # they hold dicts
        assert hash(value) == hash(twin)
    if field is not None:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_equality_takes_the_type_into_account():
    body = Modal((("a", (Var("X"),)),))
    assert Mu("X", body) != Nu("X", body) and Mu("X", body) == Mu("X", body)
    assert Var("X") != ("X",) and ("X",) != Var("X")
    assert TraceNode("a", ()) != PathNode("x", "a", ())
    assert TOP != TOP_LEAF and Top() == TOP and TopLeaf() == TOP_LEAF
    assert repr(TOP) == repr(TOP_LEAF) == "T"
    assert repr(Var("X")) == "Var(name='X')"


def test_mutable_records_take_keywords_and_defaults():
    cfg = EvalConfig(max_iterations=7)
    assert (cfg.epsilon, cfg.max_iterations, cfg.promote_bound, cfg.enum_cap) == (
        Fraction(1, 10**9), 7, None, 200_000)
    cfg.max_iterations = 8
    assert cfg == EvalConfig(max_iterations=8) and cfg != EvalConfig()
    with pytest.raises(TypeError, match="epsilon must be an int or a Fraction, got 0.5"):
        EvalConfig(epsilon=0.5)
    assert KleeneReport(3) == KleeneReport(iterations=3, last_delta=None, tail_bound=None,
                                           promoted=())
    assert Diagnostic("warning", "deadlock: y").render() == "warning: deadlock: y"
    assert Diagnostic("error", "m", col=4, line=2).render() == "2:4: error: m"
    res = EquivResult(True, fragments_checked=5)
    assert (res.witness, res.left_value, res.right_value, res.fragments_checked) == (
        None, None, None, 5)
    a = ComparisonReport("prob", 1, 1, 0)
    b = ComparisonReport(semiring="prob", unroll_depth=1, enum_depth=1, tolerance=0)
    a.rows.append("row")
    assert b.rows == [] and (b.max_discrepancy, b.approximant_distance, b.certificate) == (
        0, 0, None)
    for value in (cfg, res, a):
        with pytest.raises(TypeError):
            hash(value)
    with pytest.raises(TypeError):
        KleeneReport()
    with pytest.raises(TypeError):
        Var("X", "Y")


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    # the baseline is every standard module semimc imports itself, so what
    # they load on this Python version does not count; the linear solver
    # and the graph searches load on first use
    code = ("import sys\n"
            "import re, fractions, functools, heapq, itertools, math, operator, os\n"
            "before = set(sys.modules)\n"
            "import semimc.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = os.path.dirname(os.path.dirname(semimc.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    loaded = set(proc.stdout.split())
    assert "semimc.cli" in loaded
    assert not loaded & {"dataclasses", "typing", "inspect", "json", "argparse", "gettext",
                         "semimc._linear", "semimc._graph"}, sorted(loaded)
