"""Trace-fragment behaviours: lt, finite_tr, tr approximants, equivalence."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimc import (EvalConfig, Label, OffsetUnsupported, ParseError, Signature, SizingError,
                    TOP_LEAF, TraceNode, ValidationError, enumerate_fragments, equiv_upto,
                    eval_formula, finite_tr, fragment_to_formula, lt,
                    nu_extent, parse_fragment, parse_formula, render_fragment,
                    tr_approx, truncations)
from semimc.logic import classify
from semimc.traces import is_completed
from randgen import DESCRIPTORS, random_model

EPS = Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# fragment syntax and translation


def test_fragment_parse_render(extent_prob):
    sig = extent_prob.signature
    for text in ["T", "a(T)", "a(*)", "c(a(b(T)))", "*"]:
        frag = parse_fragment(text, sig)
        assert parse_fragment(render_fragment(frag), sig) == frag


def test_fragment_errors(extent_prob):
    sig = extent_prob.signature
    with pytest.raises(Exception, match="unknown label"):
        parse_fragment("q(T)", sig)
    with pytest.raises(Exception, match="arity"):
        parse_fragment("a(T, T)", sig)


def test_deep_fragment_is_a_parse_error(extent_prob):
    sig = extent_prob.signature
    frag = parse_fragment("a(" * 150 + "T" + ")" * 150, sig)
    assert render_fragment(frag) == "a(" * 150 + "T" + ")" * 150
    with pytest.raises(ParseError, match="nested deeper than 160 levels") as info:
        parse_fragment("a(" * 10_000 + "T" + ")" * 10_000, sig)
    # the first child past the limit
    assert (info.value.line, info.value.col) == (1, 2 * 161 + 1)


def test_fragment_to_formula(extent_prob):
    sig = extent_prob.signature
    f = fragment_to_formula(parse_fragment("a(b(T))", sig))
    cls = classify(f)
    assert cls.modal_only and cls.qualitative and cls.modal_depth == 2
    assert fragment_to_formula(TOP_LEAF) == parse_formula("T", sig, extent_prob.descriptor)


def test_binary_fragment(corpus_models):
    m = corpus_models["fork.btrop.model"]
    frag = parse_fragment("fork(stop, T)", m.signature)
    assert frag == TraceNode("fork", (TraceNode("stop", ()), TOP_LEAF))
    # weight 1 fork, left child completes at cost 0, right cut at extent
    ext = nu_extent(m)
    assert lt(m, "r", frag) == m.semiring.times(
        m.semiring.times(1, finite_tr(m, "m", TraceNode("stop", ()))), ext["m"])


# ---------------------------------------------------------------------------
# lt


def test_lt_top_leaf_is_extent(corpus_models):
    for name, m in corpus_models.items():
        ext = nu_extent(m)
        for s in m.states:
            assert lt(m, s, TOP_LEAF) == ext[s], name


def test_lt_counterexample_values(counterexample_prob):
    aT = parse_fragment("a(T)", counterexample_prob.signature)
    assert lt(counterexample_prob, "x", aT) == Fraction(1, 2)
    assert lt(counterexample_prob, "u", aT) == Fraction(1, 4)


def test_enumeration_cap_counts_every_fragment(counterexample_prob):
    sig = counterexample_prob.signature
    assert list(enumerate_fragments(sig, 1, cap=4)) == [
        TOP_LEAF, *(TraceNode(l, (TOP_LEAF,)) for l in ("a", "b", "c"))]
    # the top leaf counts too: a cap of 0 admits no fragment
    for cap, depth in ((0, 0), (3, 1)):
        with pytest.raises(SizingError,
                           match=f"^fragment enumeration exceeds cap {cap} at depth {depth}$"):
            list(enumerate_fragments(sig, 1, cap=cap))
    # so does equiv_upto: a cap of 1 admits the top leaf and nothing more
    with pytest.raises(SizingError, match="exceeds cap 1 at depth 1"):
        equiv_upto(counterexample_prob, "x", "u", 1, "lt", EvalConfig(enum_cap=1))
    # truncations count the same way: a(a(T)) .. c(c(T)) are 9 at depth 2
    assert len(list(truncations(sig, 2, cap=9))) == 9
    with pytest.raises(SizingError, match="^truncation enumeration exceeds cap 8 at depth 2$"):
        list(truncations(sig, 2, cap=8))


def test_lt_cross_path_identity_corpus(corpus_models):
    # lt agrees with evaluating the fragment's formula translation
    for name, m in corpus_models.items():
        for frag in enumerate_fragments(m.signature, 2, cap=50_000):
            val = eval_formula(m, fragment_to_formula(frag))
            for s in m.states:
                assert lt(m, s, frag) == val[s], (name, render_fragment(frag), s)


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(sorted(DESCRIPTORS)))
@settings(max_examples=25, deadline=None)
def test_lt_cross_path_identity_random(seed, kind):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], max_states=4, max_labels=3,
                     allow_offsets=True)
    frags = list(enumerate_fragments(m.signature, 2, cap=20_000))
    sample = rng.sample(frags, min(8, len(frags)))
    for frag in sample:
        val = eval_formula(m, fragment_to_formula(frag))
        for s in m.states:
            assert lt(m, s, frag) == val[s]


# ---------------------------------------------------------------------------
# finite_tr


def test_finite_tr_single_path(extent_prob):
    frag = parse_fragment("a(*)", extent_prob.signature)
    assert finite_tr(extent_prob, "x", frag) == Fraction(1, 4)


def test_finite_tr_absent_label_is_zero(extent_prob):
    frag = parse_fragment("c(a(*))", extent_prob.signature)
    assert finite_tr(extent_prob, "x", frag) == 0


def test_finite_tr_requires_completed(extent_prob):
    with pytest.raises(ValidationError, match="completed"):
        finite_tr(extent_prob, "x", parse_fragment("a(T)", extent_prob.signature))


def test_finite_tr_rejects_offsets(corpus_models):
    m = corpus_models["offset-s.trop.model"]
    with pytest.raises(OffsetUnsupported):
        finite_tr(m, "s", parse_fragment("a(*)", m.signature))
    with pytest.raises(OffsetUnsupported):
        tr_approx(m, "s", TOP_LEAF, 0)
    with pytest.raises(OffsetUnsupported):
        equiv_upto(m, "s", "t", 1, "tr")


def test_unknown_equiv_kind_is_a_validation_error(corpus_models, monkeypatch):
    # checked before any extent: neither kind's work starts, and "LT" is
    # not read as "tr" on a model with offsets
    def no_extent(*args, **kwargs):
        raise AssertionError("extent computed before the kind was checked")

    monkeypatch.setattr("semimc.traces.nu_extent", no_extent)
    for name, c, d in (("extent-example.prob.model", "x", "z"), ("offset-s.trop.model", "s", "t")):
        for kind in ("bogus", "LT"):
            with pytest.raises(ValidationError, match="unknown kind"):
                equiv_upto(corpus_models[name], c, d, 1, kind)


def test_negative_depth_is_a_validation_error(extent_prob, monkeypatch):
    # where a depth of -1 yielded the top leaf, or equiv_upto reported it
    # as a witness; checked before any extent
    def no_extent(*args, **kwargs):
        raise AssertionError("extent computed before the depth was checked")

    monkeypatch.setattr("semimc.traces.nu_extent", no_extent)
    calls = [lambda: enumerate_fragments(extent_prob.signature, -1),
             lambda: truncations(extent_prob.signature, -1),
             lambda: equiv_upto(extent_prob, "x", "y", -1),
             lambda: equiv_upto(extent_prob, "x", "y", -1, "tr")]
    for call in calls:
        with pytest.raises(ValidationError, match="^depth must be at least 0, got -1$"):
            call()


def _unknown_state_calls(model, frag, n):
    """Every public entry point, called with the unknown state 'nope' on
    each side it takes a state."""
    return [lambda: lt(model, "nope", frag), lambda: finite_tr(model, "nope", frag),
            lambda: tr_approx(model, "nope", frag, n)] + [
        lambda c=c, d=d, kind=kind: equiv_upto(model, c, d, 1, kind)
        for kind in ("lt", "tr") for c, d in ((model.states[0], "nope"), ("nope", "nope"))]


def test_unknown_state_is_a_validation_error(extent_prob, monkeypatch):
    # the name is checked first: before any extent, and before the fragment
    def no_extent(*args, **kwargs):
        raise AssertionError("extent computed before the state name was checked")

    monkeypatch.setattr("semimc.traces.nu_extent", no_extent)
    for frag in (parse_fragment("a(*)", extent_prob.signature), TraceNode("q", (TOP_LEAF,))):
        for call in _unknown_state_calls(extent_prob, frag, 2):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == "unknown state 'nope'"
    with pytest.raises(ValidationError, match=r"^unknown state '" + "s" * 32 + r"'\.\.\. "):
        lt(extent_prob, "s" * 40, TOP_LEAF)


def test_unknown_state_comes_before_offset_check(corpus_models):
    m = corpus_models["offset-s.trop.model"]
    for call in _unknown_state_calls(m, parse_fragment("a(*)", m.signature), 2):
        with pytest.raises(ValidationError, match="^unknown state 'nope'$"):
            call()


def _bool_path_search(model, state, trace) -> bool:
    """Existence of a completed run matching `trace`, by explicit search
    over transition choices."""
    if not trace.children:
        return any(t.label == trace.label and not t.successors
                   for t in model.transitions[state])
    for t in model.transitions[state]:
        if t.label != trace.label or len(t.successors) != len(trace.children):
            continue
        if all(_bool_path_search(model, s, c)
               for s, c in zip(t.successors, trace.children)):
            return True
    return False


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_finite_tr_boolean_matches_path_search(seed):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["boolean"], max_states=4, max_labels=3)
    completed = [f for f in enumerate_fragments(m.signature, 3, cap=30_000)
                 if is_completed(f)]
    for frag in rng.sample(completed, min(10, len(completed))):
        for s in m.states:
            assert finite_tr(m, s, frag) == (1 if _bool_path_search(m, s, frag) else 0)


# ---------------------------------------------------------------------------
# tr approximants


def test_tr_base_case(corpus_models):
    for m in corpus_models.values():
        if not m.is_plain:
            continue
        for s in m.states:
            assert tr_approx(m, s, TOP_LEAF, 0) == m.semiring.one


def test_tr_one_step(extent_prob):
    frag = parse_fragment("a(T)", extent_prob.signature)
    assert tr_approx(extent_prob, "x", frag, 1) == Fraction(1, 2)


def test_tr_validates_truncation_shape(extent_prob):
    sig = extent_prob.signature
    with pytest.raises(ValidationError):
        tr_approx(extent_prob, "x", parse_fragment("a(T)", sig), 2)
    with pytest.raises(ValidationError):
        tr_approx(extent_prob, "x", parse_fragment("a(b(T))", sig), 1)
    # nullary completions above the cut are fine
    assert tr_approx(extent_prob, "y", parse_fragment("*", sig), 3) == Fraction(1, 2)


def test_tr_decreasing_and_above_lt(counterexample_prob):
    m = counterexample_prob
    sr = m.semiring
    word = ["a", "c", "a", "c", "a"]
    prev = None
    for n in range(len(word) + 1):
        frag = TOP_LEAF
        for lbl in reversed(word[:n]):
            frag = TraceNode(lbl, (frag,))
        v = tr_approx(m, "x", frag, n)
        # the trace approximant dominates the linear-time value of the cut
        assert sr.leq(lt(m, "x", frag), v)
        if prev is not None:
            assert sr.leq(v, prev)
        prev = v


def test_lt_below_tr_on_truncations(corpus_models):
    for name, m in corpus_models.items():
        if not m.is_plain:
            continue
        sr = m.semiring
        for n in range(3):
            for frag in truncations(m.signature, n, cap=20_000):
                for s in m.states:
                    assert sr.leq(lt(m, s, frag), tr_approx(m, s, frag, n)), \
                        (name, s, render_fragment(frag))


def _recursive_truncs(signature, n):
    """The reference: depth-n truncations by recursion on n, rebuilding
    the level below once per non-nullary label."""
    if n == 0:
        yield TOP_LEAF
        return
    for label in signature.labels:
        if label.arity == 0:
            yield TraceNode(label.name, ())
        else:
            for combo in product(list(_recursive_truncs(signature, n - 1)), repeat=label.arity):
                yield TraceNode(label.name, combo)


@pytest.mark.parametrize("labels, depth", [
    ((("a", 1), ("b", 1), ("c", 1), ("e", 0)), 6),
    ((("e", 0), ("f", 2), ("a", 1)), 4),
])
def test_truncations_match_the_recursive_definition(labels, depth):
    sig = Signature(tuple(Label(name, arity) for name, arity in labels))
    for n in range(depth + 1):
        assert list(truncations(sig, n)) == list(_recursive_truncs(sig, n)), n


# ---------------------------------------------------------------------------
# equivalence checks


def test_equiv_reflexive(extent_prob):
    assert equiv_upto(extent_prob, "x", "x", 2, "lt").equivalent
    assert equiv_upto(extent_prob, "x", "x", 2, "tr").equivalent


def test_equiv_counterexample_lt(counterexample_prob):
    res = equiv_upto(counterexample_prob, "x", "u", 1, "lt")
    assert not res.equivalent
    assert render_fragment(res.witness) == "a(T)"
    assert (res.left_value, res.right_value) == (Fraction(1, 2), Fraction(1, 4))


def test_equiv_duplicated_state():
    # duplicating a state verbatim yields equivalence at every tested depth
    rng = random.Random(7)
    m = random_model(rng, DESCRIPTORS["probabilistic"], max_states=3, max_labels=3)
    dup = {s: list(ts) for s, ts in m.transitions.items()}
    first = m.states[0]
    dup["dup"] = list(m.transitions[first])
    from semimc import Model
    m2 = Model(m.descriptor, m.signature, m.states + ("dup",), dup, {})
    for kind in ("lt", "tr"):
        res = equiv_upto(m2, first, "dup", 3, kind, EvalConfig(enum_cap=100_000))
        assert res.equivalent, (kind, res.witness)


def test_equiv_lt_implies_tr_on_unit_extent_models():
    # depth-bounded echo of: linear-time equivalence refines trace
    # equivalence.  At finite depth this implication needs every extent to
    # be the unit (then the cut leaves of both recursions carry the same
    # value); with absorbing extents the lt values can collapse while
    # finite trace approximants still differ.
    rng = random.Random(42)
    tested = 0
    while tested < 15:
        kind = rng.choice(["boolean", "probabilistic", "bounded_tropical"])
        m = random_model(rng, DESCRIPTORS[kind], max_states=4, max_labels=2)
        if len(m.states) < 2:
            continue
        sr = m.semiring
        if any(v != sr.one for v in nu_extent(m).values()):
            continue
        tested += 1
        c, d = rng.sample(list(m.states), 2)
        cfg = EvalConfig(enum_cap=100_000)
        if equiv_upto(m, c, d, 2, "lt", cfg).equivalent:
            assert equiv_upto(m, c, d, 2, "tr", cfg).equivalent
        # with unit extents the approximant equals the linear-time value
        # of the same truncation
        for n in range(3):
            for frag in truncations(m.signature, n, cap=20_000):
                assert tr_approx(m, c, frag, n) == lt(m, c, frag)
