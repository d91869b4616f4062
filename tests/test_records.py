"""Value semantics of semimc's record classes, and what `import semimc.cli`
loads at start-up."""

from __future__ import annotations

import copy
import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semimc
from semimc import (ComparisonReport, Diagnostic, EquivResult, EvalConfig, KleeneReport,
                    Label, Modal, Model, Mu, Nu, PathNode, SemiringDescriptor, Signature,
                    StateLeaf, TOP, TOP_LEAF, Top, TopLeaf, TraceNode, Transition, Var,
                    WeightedSum, classify, parse_model)
from semimc._record import Record, _deep_eq, _hash, _walk
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


# values for the walks of `_record`: records of one and two fields, a
# mutable (unhashable) one, Top with its own repr, tuples and a namedtuple
# (tuple's == and hash, its own repr) over leaves that are equal across
# types (1, 1.0, Fraction(1), True), one NaN object (equal to itself only
# as a tuple item) and a fresh NaN
_NAN = float("nan")
_Pair = namedtuple("_Pair", "x y")
_LEAVES = st.sampled_from([0, 1, 1.0, Fraction(1), True, "a", None, _NAN, TOP, ()])
_NESTED = st.recursive(_LEAVES | st.just(float("nan")), lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(tuple), st.builds(Var, inner), st.builds(Label, inner, inner),
    st.builds(Modal, inner), st.builds(TraceNode, inner, inner), st.builds(_Pair, inner, inner),
    st.builds(KleeneReport, inner)), max_leaves=12)
_ONE = (1, 1.0, Fraction(1), True)


def _twin(x, rng: random.Random):
    """A value of `x`'s shape whose leaves 1 may be any of the equal `_ONE`."""
    if isinstance(x, Record) and type(x).__repr__ is Record.__repr__:
        return type(x)(*[_twin(getattr(x, n), rng) for n in x._fields])
    if isinstance(x, tuple):
        return type(x)(*[_twin(v, rng) for v in x]) if hasattr(x, "_fields") else \
            tuple(_twin(v, rng) for v in x)
    return rng.choice(_ONE) if x in _ONE and not isinstance(x, str) else x


def _native_repr(x) -> str:
    """`repr` with Record's as it was written: each field through `!r`."""
    old = Record.__repr__
    Record.__repr__ = lambda r: (f"{type(r).__name__}("
                                 f"{', '.join(f'{n}={getattr(r, n)!r}' for n in r._fields)})")
    try:
        return repr(x)
    finally:
        Record.__repr__ = old


def _outcome(f, *args):
    try:
        return f(*args)
    except TypeError as e:  # unhashable
        return str(e)


@given(_NESTED, _NESTED, st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_walks_give_what_python_gives(a, b, rng):
    # the walks that `==`, `hash` and `repr` fall back on past the recursion
    # limit agree with Python's own on values shallow enough for both
    for x, y in ((Var(a), Var(_twin(a, rng))), (Var(a), Var(b)),
                 (Label(a, b), Label(_twin(a, rng), _twin(b, rng))), (Label(a, b), Label(b, a))):
        assert _deep_eq(x, y) == (x == y)
        assert _outcome(lambda v: hash(_walk(v, _hash, "__hash__")), x) == _outcome(hash, x)
        if x == y:
            assert _outcome(hash, x) == _outcome(hash, y)
        assert repr(x) == _native_repr(x)
