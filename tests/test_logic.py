"""Formula grammar, classification, substitution and unrolling."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimc import (BOT, TOP, EvalConfig, Modal, Mu, Nu, ParseError, Var,
                    WeightedSum, alpha_equal, classify, eval_formula, fnd,
                    modal_depth, parse_formula, parse_model, render_formula, substitute,
                    unroll)
from semimc.logic import FormulaClass, _children, _rebuild, free_vars, size
from conftest import leq_pointwise
from randgen import DESCRIPTORS, random_model, random_qualitative_formula


@pytest.fixture(scope="module")
def sig(extent_prob):
    return extent_prob.signature


@pytest.fixture(scope="module")
def prob():
    return DESCRIPTORS["probabilistic"]


def test_parse_mu_disjunction(sig, prob):
    f = parse_formula("mu X. ([a](T) | [b](X) | [c](X))", sig, prob)
    assert isinstance(f, Mu)
    assert [lbl for lbl, _ in f.body.disjuncts] == ["a", "b", "c"]


def test_parse_weighted_sum(sig, prob):
    f = parse_formula("1/2*[a](T) + 1/4*[b](T)", sig, prob)
    assert isinstance(f, WeightedSum) and len(f.terms) == 2
    assert f.terms[0][0] == Fraction(1, 2)


def test_parse_nullary_modality(sig, prob):
    f = parse_formula("[*]", sig, prob)
    assert f == Modal((("*", ()),))


@pytest.mark.parametrize("text,message", [
    ("[a](T) | [a](F)", "duplicate label"),
    ("T + T", "weight"),
    ("1/2*T + T", "weight"),
    ("[d](T)", "unknown label"),
    ("[a](T, F)", "arity"),
    ("[a]", "arity"),
    ("3/4*T + 1/2*T", "undefined"),
    ("mu T. T", "reserved"),
    ("(T", "expected"),
])
def test_parse_errors(text, message, sig, prob):
    with pytest.raises(ParseError, match=message):
        parse_formula(text, sig, prob)


@pytest.mark.parametrize("opening,closing,width", [
    ("[a](", ")", 4), ("(", ")", 1), ("mu X. ", "", 6), ("1/2*(\n", ")", 0)])
def test_deep_nesting_is_a_parse_error(sig, prob, opening, closing, width):
    f = parse_formula(opening * 150 + "T" + closing * 150, sig, prob)
    assert modal_depth(f) == (150 if "[a]" in opening else 0)
    with pytest.raises(ParseError, match="nested deeper than 160 levels") as info:
        parse_formula(opening * 10_000 + "T" + closing * 10_000, sig, prob)
    # the position of the first formula past the limit
    if width:
        assert (info.value.line, info.value.col) == (1, 160 * width + 1)
    else:
        assert (info.value.line, info.value.col) == (161, 1)


def test_closed_formula_required(sig, prob):
    with pytest.raises(ParseError, match="unbound"):
        parse_formula("[a](X)", sig, prob, require_closed=True)


def test_classify(sig, prob):
    top = classify(parse_formula("T", sig, prob))
    assert (top.closed, top.qualitative, top.modal_only, top.modal_depth) == (True, True, True, 0)
    f = classify(parse_formula("mu X. [a](X)", sig, prob))
    assert f.closed and f.qualitative and not f.modal_only
    w = classify(parse_formula("1/2*T + 1/2*T", sig, prob))
    assert not w.qualitative
    assert classify(parse_formula("[a]([b](T))", sig, prob)).modal_depth == 2


def test_fnd(sig, prob):
    assert fnd(parse_formula("nu X. mu Y. ([a](X) | [b](Y))", sig, prob)) == 2
    assert fnd(parse_formula("[a](T)", sig, prob)) == 0
    assert fnd(parse_formula("[a](mu X. [a](X))", sig, prob)) == 1
    assert fnd(parse_formula("1/2*(mu X. [a](X)) + 1/2*T", sig, prob)) == 1


def test_substitute(sig, prob):
    aX = parse_formula("[a](X)", sig, prob)
    assert substitute(aX, "X", BOT) == Modal((("a", (BOT,)),))
    assert substitute(TOP, "X", aX) == TOP
    muX = parse_formula("mu X. [a](X)", sig, prob)
    assert substitute(muX, "X", TOP) == muX


def test_walks_keep_argument_order():
    # a binary label: rebuilding must put each argument back in its place
    f = Modal((("p", (TOP, Var("X"))), ("q", (Var("X"), BOT))))
    assert substitute(f, "X", BOT) == Modal((("p", (TOP, BOT)), ("q", (BOT, BOT))))
    g = Nu("X", Modal((("p", (BOT, Var("X"))),)))
    assert unroll(g, 1) == Modal((("p", (BOT, TOP)),))


@pytest.mark.parametrize("text,expected", [
    ("T", 1),
    ("F", 1),
    ("[a](T)", 2),
    ("[a](T) | [b](X) | [*]", 3),
    ("1/2*[a](T) + 1/4*F", 4),
    ("nu X. mu Y. ([a](X) | [b](Y))", 5),
])
def test_size(text, expected, sig, prob):
    assert size(parse_formula(text, sig, prob)) == expected


@pytest.mark.parametrize("left,right", [
    ("1/2*[a](T) + 1/4*[b](T)", "1/4*[a](T) + 1/4*[b](T)"),  # coefficient
    ("[a](T) | [b](T)", "[a](T) | [c](T)"),  # label
    ("[a](T) | [b](T)", "[a](T) | [b](F)"),  # argument
    ("mu X. [a](X)", "nu X. [a](X)"),  # binder kind
    ("mu X. mu Y. X", "mu X. mu Y. Y"),  # which binder a variable refers to
])
def test_alpha_equal_rejects(left, right, sig, prob):
    f, g = parse_formula(left, sig, prob), parse_formula(right, sig, prob)
    assert not alpha_equal(f, g) and not alpha_equal(g, f)
    assert alpha_equal(f, f) and alpha_equal(g, g)


def test_alpha_equal_ignores_bound_names(sig, prob):
    assert alpha_equal(parse_formula("mu X. nu Y. ([a](X) | [b](Y))", sig, prob),
                       parse_formula("mu Z. nu W. ([a](Z) | [b](W))", sig, prob))


def test_substitute_capture_avoiding(prob, sig):
    # replacement contains free Y; the binder on Y must be renamed
    body = Nu("Y", Modal((("a", (Var("X"),)), ("b", (Var("Y"),)))))
    out = substitute(body, "X", Var("Y"))
    assert isinstance(out, Nu) and out.var != "Y"
    assert "Y" in free_vars(out)


def test_unroll_bases(sig, prob):
    assert unroll(parse_formula("mu X. [a](X)", sig, prob), 0) == BOT
    assert unroll(parse_formula("nu X. [a](X)", sig, prob), 2) == \
        Modal((("a", (Modal((("a", (TOP,)),)),)),))


def test_unroll_nested_inner_then_outer(sig, prob):
    g = parse_formula("nu X. mu Y. ([a](X) | [b](Y))", sig, prob)
    # one unrolling step each: inner mu from F, then outer nu from T
    assert unroll(g, 1) == parse_formula("[a](T) | [b](F)", sig, prob)


def test_unroll_properties(sig, prob):
    g = parse_formula("nu X. mu Y. ([a](X) | [b](Y))", sig, prob)
    bound_base = max(1, modal_depth(g))
    for k in range(5):
        u = unroll(g, k)
        cls = classify(u)
        assert cls.modal_only and cls.qualitative
        assert fnd(u) == 0
        assert modal_depth(u) <= (k + 1) ** fnd(g) * bound_base


def _tree_copy(f):
    """`f` with no inner node shared: every occurrence is a node of its own."""
    return _rebuild(f, [_tree_copy(c) for c in _children(f)])


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_unrolled_dags_fold_as_their_trees(seed):
    # unroll shares each approximant among its occurrences; the folds walk
    # the DAG once per node and give what they give on the tree
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["probabilistic"], max_states=2, max_arity=2)
    u = unroll(random_qualitative_formula(rng, m.signature, max_fnd=2), rng.randint(0, 3))
    t = _tree_copy(u)
    assert (classify(u), size(u), modal_depth(u), fnd(u)) == \
        (classify(t), size(t), modal_depth(t), fnd(t))


def test_deep_unrolling_is_walked_as_a_dag():
    # 2^41 - 1 nodes as a tree, 41 distinct ones: the tree walk of the
    # folds (and of unroll's substitution) would not finish
    m = parse_model("semiring prob label f/2 label e/0 state x { 1/2 f -> x x; 1/2 e }")
    phi = parse_formula("nu X. [f](X, X) | [e]", m.signature, m.descriptor)
    u = unroll(phi, 40)
    assert size(u) == 2 ** 41 - 1
    assert classify(u) == FormulaClass(True, True, True, 40)
    assert (modal_depth(u), fnd(u)) == (40, 0)
    # a binder inside the body: each outer step substitutes into the inner
    # binder's approximant, a DAG of its own
    psi = unroll(parse_formula("nu X. mu Y. [f](X, Y) | [e]", m.signature, m.descriptor), 40)
    assert modal_depth(psi) == 40 * 40


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_unroll_preserves_qualitative_and_kills_fnd(seed):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["boolean"])
    f = random_qualitative_formula(rng, m.signature)
    k = rng.randint(0, 3)
    u = unroll(f, k)
    cls = classify(u)
    assert cls.modal_only and cls.qualitative and fnd(u) == 0
    assert modal_depth(u) <= (k + 1) ** fnd(f) * max(1, modal_depth(f))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_unroll_idempotent_and_substitute_of_non_free_is_identity(seed):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["boolean"])
    f = random_qualitative_formula(rng, m.signature)
    k, j = rng.randint(0, 3), rng.randint(0, 3)
    u = unroll(f, k)
    assert unroll(u, j) == u
    # a binder's body may have its variable free; randgen names binders X<i>
    for g in (f, f.body) if isinstance(f, (Mu, Nu)) else (f,):
        for v in ("X0", "X1", "X2", "Z"):
            if v not in free_vars(g):
                assert substitute(g, v, TOP) == g


@given(st.integers(min_value=0, max_value=10**9),
       st.sampled_from(["boolean", "bounded_tropical", "probabilistic"]))
@settings(max_examples=40, deadline=None)
def test_unroll_chain_monotone_for_single_fixpoints(seed, kind):
    """mu-approximants increase and nu-approximants decrease with k."""
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], max_states=4, max_labels=3)
    cfg = EvalConfig()
    sr = m.semiring
    # guarded body: one step over the full signature applied to the variable
    guard = Modal(tuple(
        (l.name, tuple(Var("W") for _ in range(l.arity)))
        for l in m.signature.labels))
    for binder in (Mu, Nu):
        f = binder("W", guard)
        prev = None
        for k in range(4):
            cur = eval_formula(m, unroll(f, k), cfg=cfg)
            if prev is not None:
                if binder is Mu:
                    assert leq_pointwise(sr, prev, cur)
                else:
                    assert leq_pointwise(sr, cur, prev)
            prev = cur


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=80, deadline=None)
def test_parse_render_round_trip(seed):
    rng = random.Random(seed)
    kind = rng.choice(sorted(DESCRIPTORS))
    m = random_model(rng, DESCRIPTORS[kind])
    f = random_qualitative_formula(rng, m.signature)
    text = render_formula(f, m.descriptor)
    f2 = parse_formula(text, m.signature, m.descriptor)
    assert alpha_equal(f, f2), text


def test_render_round_trip_weighted(sig, prob):
    for text in ["1/2*[a](T) + 1/4*(mu X. [b](X))",
                 "1/2*([a](T) | [b](T)) + 1/2*F",
                 "nu X. mu Y. ([a](X) | [b](Y) | [c](T))",
                 "1/3*T + 1/3*F"]:
        f = parse_formula(text, sig, prob)
        assert alpha_equal(f, parse_formula(render_formula(f, prob), sig, prob))


def test_shadowing_renamed(sig, prob):
    f = parse_formula("mu X. [a](mu X. [b](X))", sig, prob)
    inner = f.body.disjuncts[0][1][0]
    assert isinstance(inner, Mu) and inner.var != f.var
    # inner occurrence binds to the inner binder
    assert free_vars(f) == frozenset()


def test_rename_does_not_capture_free_variable(sig, prob):
    f = parse_formula("mu X. [a](mu X. [b](X_1))", sig, prob)
    inner = f.body.disjuncts[0][1][0]
    assert inner.var != "X_1"
    assert "X_1" in free_vars(f)
