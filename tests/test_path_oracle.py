"""Path enumeration, cylinder measures and the two-semantics cross-check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimc import (INF, EvalConfig, EvaluationError, PathNode, SizingError,
                    StateLeaf, TOP, ValidationError, compare_semantics,
                    cyl_measure, enum_fragments, eval_formula, frag_sat,
                    nu_extent, oracle_eval, parse_formula, parse_model, unroll)
from semimc.path_oracle import _render_diff, count_fragments
from randgen import DESCRIPTORS, pick_unroll, random_model, random_qualitative_formula

EPS = Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# enumeration


def test_negative_depth_is_a_validation_error(extent_prob):
    # where compare_semantics with k = -1 ran and reported ok, and path
    # enumeration at depth -1 recursed until RecursionError
    phi = parse_formula("nu X. [a](X) | [*]", extent_prob.signature, extent_prob.descriptor)
    with pytest.raises(ValidationError, match="^unrolling depth must be at least 0, got -1$"):
        compare_semantics(extent_prob, phi, -1)
    with pytest.raises(ValidationError, match="^depth must be at least 0, got -1$"):
        list(enum_fragments(extent_prob, "x", -1))


def test_depth_zero_is_state_leaf(extent_prob):
    assert list(enum_fragments(extent_prob, "x", 0)) == [StateLeaf("x")]


def test_depth_one_from_x(extent_prob):
    frags = list(enum_fragments(extent_prob, "x", 1))
    assert frags == [PathNode("x", "a", (StateLeaf("y"),)),
                     PathNode("x", "b", (StateLeaf("z"),))]


def test_deadlock_state_has_no_fragments(deadlock_bool):
    assert list(enum_fragments(deadlock_bool, "y", 1)) == []
    # and beyond the deadlock the whole branch dies
    assert list(enum_fragments(deadlock_bool, "x", 2)) == []


def test_nullary_terminates_branch(extent_prob):
    frags = list(enum_fragments(extent_prob, "y", 2))
    # (y,*) completes at depth 1; (y,c)(x,...) goes on to depth 2
    assert PathNode("y", "*", ()) in frags
    assert all(isinstance(f, PathNode) for f in frags)


def test_enum_cap(extent_prob):
    with pytest.raises(SizingError):
        list(enum_fragments(extent_prob, "x", 6, cap=10))


BRANCHING = "semiring prob label f/2 label e/0 state x { 1/2 f -> x x; 1/2 e }"


def test_count_fragments_stops_past_the_cap():
    # c(d + 1) = c(d)^2 + 1: doubly exponential without a cap
    m = parse_model(BRANCHING)
    exact = [1, 2, 5, 26, 677, 458330]
    assert [count_fragments(m, "x", d) for d in range(6)] == exact
    for cap in (0, 1, 5, 25, 26, 677, 10**6):
        assert [count_fragments(m, "x", d, cap) for d in range(6)] == \
            [min(c, cap + 1) for c in exact]
    assert count_fragments(m, "x", 10_000, 200_000) == 200_001


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_capped_count_is_exact_up_to_the_cap(seed):
    rng = random.Random(seed)
    kind = rng.choice(sorted(DESCRIPTORS))
    m = random_model(rng, DESCRIPTORS[kind], max_states=4, max_arity=3)
    depth, cap = rng.randint(0, 5), rng.randint(0, 300)
    for s in m.states:
        assert count_fragments(m, s, depth, cap) == min(count_fragments(m, s, depth), cap + 1)


def test_enum_cap_message_does_not_count_past_the_cap():
    # the exact count at depth 40 has about 2^40 bits
    with pytest.raises(SizingError, match="^more than 200000 path fragments at depth 40$"):
        next(enum_fragments(parse_model(BRANCHING), "x", 40, cap=200_000))


# ---------------------------------------------------------------------------
# cylinder measures


def test_state_leaf_measure_is_extent(corpus_models):
    for name, m in corpus_models.items():
        ext = nu_extent(m)
        for s in m.states:
            assert cyl_measure(m, StateLeaf(s), _extent=ext) == ext[s], name


def test_single_step_measure(extent_prob):
    ext = nu_extent(extent_prob)
    q = PathNode("x", "a", (StateLeaf("y"),))
    assert abs(cyl_measure(extent_prob, q, _extent=ext) - Fraction(3, 10)) < EPS


def test_cylinder_measures_offset_only_at_offset_states(corpus_models, monkeypatch):
    # oslash(v, one) == v, so a plain model makes no oslash call, and a
    # model with offsets one per distinct fragment node at an offset state
    for name, m in corpus_models.items():
        sr, ext = m.semiring, nu_extent(m)
        moved = {s for s in m.states if m.offsets[s] != sr.one}
        calls, oslash = [], type(sr).oslash

        def counted(self, v, t, oslash=oslash):
            calls.append(t)
            return oslash(self, v, t)
        monkeypatch.setattr(type(sr), "oslash", counted)
        expected = 0
        for s in m.states:
            fragments, memo, nodes = list(enum_fragments(m, s, 3, cap=100_000)), {}, {}
            for q in fragments:
                cyl_measure(m, q, _extent=ext, _memo=memo)
            todo = fragments[:]
            while todo:
                q = todo.pop()
                if isinstance(q, PathNode) and id(q) not in nodes:
                    nodes[id(q)] = q
                    todo += q.children
            expected += sum(q.state in moved for q in nodes.values())
        monkeypatch.undo()
        assert len(calls) == expected and (moved or not calls), name
        assert all(t != sr.one for t in calls), name


def test_unknown_transition_is_an_error(extent_prob):
    with pytest.raises(ValidationError, match="missing transition"):
        cyl_measure(extent_prob, PathNode("x", "c", (StateLeaf("x"),)))


def test_partition_law_corpus(corpus_models):
    # summed cylinder measures at any uniform depth reproduce the extent
    for name, m in corpus_models.items():
        sr = m.semiring
        ext = nu_extent(m)
        tol = EPS * 64 if m.descriptor.kind == "probabilistic" else 0
        for depth in range(4):
            for s in m.states:
                total = sr.sum([cyl_measure(m, q, _extent=ext)
                                for q in enum_fragments(m, s, depth, cap=100_000)])
                if tol:
                    assert abs(total - ext[s]) <= tol, (name, s, depth)
                else:
                    assert total == ext[s], (name, s, depth)


def test_prefix_coherence(corpus_models):
    # refining one state leaf into all its one-step extensions preserves
    # the cylinder's measure
    for name, m in corpus_models.items():
        if m.descriptor.kind == "probabilistic" and not m.is_plain:
            continue
        sr = m.semiring
        ext = nu_extent(m)
        tol = EPS * 64 if m.descriptor.kind == "probabilistic" else 0

        def refine_last(q):
            if isinstance(q, StateLeaf):
                outs = []
                for t in m.transitions[q.state]:
                    if t.successors:
                        outs.append(PathNode(q.state, t.label,
                                             tuple(StateLeaf(s) for s in t.successors)))
                    else:
                        outs.append(PathNode(q.state, t.label, ()))
                return outs
            if not q.children:
                return None
            refined = refine_last(q.children[-1])
            if refined is None:
                return None
            return [PathNode(q.state, q.label, q.children[:-1] + (r,)) for r in refined]

        for s in m.states:
            for q in enum_fragments(m, s, 2, cap=50_000):
                refined = refine_last(q)
                if refined is None:
                    continue
                total = sr.sum([cyl_measure(m, r, _extent=ext) for r in refined])
                base = cyl_measure(m, q, _extent=ext)
                if tol:
                    assert abs(total - base) <= tol, (name, s)
                else:
                    assert total == base, (name, s)


# ---------------------------------------------------------------------------
# satisfaction and oracle evaluation


def test_frag_sat_basics(extent_prob):
    sig, d = extent_prob.signature, extent_prob.descriptor
    q = PathNode("x", "a", (StateLeaf("y"),))
    assert frag_sat(q, TOP)
    assert not frag_sat(q, parse_formula("[b](T)", sig, d))
    assert frag_sat(q, parse_formula("[a](T) | [b](T)", sig, d))
    assert not frag_sat(q, parse_formula("F", sig, d))


def test_frag_sat_rejects_deep_formula(extent_prob):
    sig, d = extent_prob.signature, extent_prob.descriptor
    with pytest.raises(EvaluationError, match="deeper"):
        frag_sat(StateLeaf("x"), parse_formula("[a](T)", sig, d))


def test_frag_sat_rejects_quantitative(extent_prob):
    sig, d = extent_prob.signature, extent_prob.descriptor
    with pytest.raises(EvaluationError):
        frag_sat(PathNode("x", "a", (StateLeaf("y"),)),
                 parse_formula("1/2*T + 1/2*T", sig, d))


def test_oracle_eval_top_is_extent(extent_prob):
    ext = nu_extent(extent_prob)
    for depth in range(3):
        for s in extent_prob.states:
            v = oracle_eval(extent_prob, TOP, s, depth)
            assert abs(v - ext[s]) < EPS * 64


def test_oracle_eval_matches_stepwise(extent_prob):
    sig, d = extent_prob.signature, extent_prob.descriptor
    aT = parse_formula("[a](T)", sig, d)
    v = oracle_eval(extent_prob, aT, "x", 1)
    assert abs(v - Fraction(3, 10)) < EPS
    assert abs(eval_formula(extent_prob, aT)["x"] - v) < EPS


def test_oracle_eval_depth_check(extent_prob):
    sig, d = extent_prob.signature, extent_prob.descriptor
    with pytest.raises(EvaluationError, match="depth"):
        oracle_eval(extent_prob, parse_formula("[a]([b](T))", sig, d), "x", 1)


def test_oracle_boolean_existence(deadlock_bool):
    # value 1 exactly when some satisfying fragment has a nonempty
    # cylinder, i.e. measure 1; a satisfying fragment cut at a deadlocked
    # state has measure 0 and carries no maximal runs
    m = deadlock_bool
    sig, d = m.signature, m.descriptor
    ext = nu_extent(m)
    bT = parse_formula("[b](T)", sig, d)
    for s in m.states:
        witness = any(frag_sat(q, bT) and cyl_measure(m, q, _extent=ext) == 1
                      for q in enum_fragments(m, s, 1))
        v = oracle_eval(m, bT, s, 1)
        assert (v == 1) == witness
        assert v == eval_formula(m, bT)[s]
    # the deadlock makes exactly that happen from x
    assert any(frag_sat(q, bT) for q in enum_fragments(m, "x", 1))
    assert oracle_eval(m, bT, "x", 1) == 0


# ---------------------------------------------------------------------------
# compare_semantics


def test_compare_top_zero_discrepancy(corpus_models):
    for name, m in corpus_models.items():
        rep = compare_semantics(m, TOP, 3)
        assert rep.ok, name
        if m.descriptor.kind != "probabilistic":
            assert rep.max_discrepancy == 0, name


def test_compare_formula_probabilistic(extent_prob):
    phi = parse_formula("mu X. ([a](T) | [b](X) | [c](X))",
                        extent_prob.signature, extent_prob.descriptor)
    rep = compare_semantics(extent_prob, phi, 12)
    assert rep.ok
    assert rep.max_discrepancy <= Fraction(1, 10**6)
    # the unrolled approximant sits near the fixpoint
    assert rep.approximant_distance < Fraction(1, 100)
    expect = {"x": Fraction(2, 5), "y": Fraction(1, 10), "z": Fraction(1, 5)}
    for row in rep.rows:
        assert abs(row.stepwise - expect[row.state]) < Fraction(1, 100)


def test_compare_classifies_each_formula_once(extent_prob, monkeypatch):
    # phi and its unrolling are classified once each, not once per state;
    # the extent is solved exactly, so both semantics agree exactly
    from semimc import logic, path_oracle
    seen = []

    def counting(f):
        seen.append(f)
        return logic.classify(f)

    monkeypatch.setattr(path_oracle, "classify", counting)
    phi = parse_formula("mu X. ([a](T) | [b](X) | [c](X))",
                        extent_prob.signature, extent_prob.descriptor)
    rep = compare_semantics(extent_prob, phi, 3)
    assert seen == [phi, unroll(phi, 3)]
    assert rep.ok and rep.tolerance == 0 and rep.max_discrepancy == 0


def test_compare_computes_the_extent_once(corpus_models, monkeypatch):
    # T serves the oracle's state leaves and both step-wise evaluations
    from semimc import evaluator
    calls = []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    solve = evaluator._extent
    monkeypatch.setattr(evaluator, "_extent", counting)
    for name, m in corpus_models.items():
        label = m.signature.labels[0]
        formulas = [TOP, parse_formula(f"nu X. [{label.name}]" + (
            f"({', '.join(['X'] * label.arity)})" if label.arity else ""), m.signature,
            m.descriptor)]
        if all(m.signature.has(l) and m.signature.arity(l) == 1 for l in "abc"):
            formulas.append(parse_formula("mu X. ([a](T) | [b](X) | [c](X))",
                                          m.signature, m.descriptor))
        for phi in formulas:
            calls.clear()
            rep = compare_semantics(m, phi, 2)
            assert len(calls) == 1 and rep.ok, (name, phi)


def test_compare_rejects_quantitative(extent_prob):
    phi = parse_formula("1/2*T + 1/2*T", extent_prob.signature, extent_prob.descriptor)
    with pytest.raises(EvaluationError, match="qualitative"):
        compare_semantics(extent_prob, phi, 1)


def test_render_diff_goes_through_the_report_semiring(default_digit_limit):
    # only a prob difference with a denominator of 1000 or more has its
    # own format; everything else prints as the semiring renders it
    trop, prob = DESCRIPTORS["tropical"], DESCRIPTORS["probabilistic"]
    assert _render_diff(2 * 10**4300 - 2, trop) == "~1.999999999999999e+4300"
    assert _render_diff(INF, trop) == "inf" and _render_diff(None, trop) is None
    assert _render_diff(0, prob) == "0" and _render_diff(Fraction(1, 3), prob) == "1/3"
    assert _render_diff(Fraction(1, 3000), prob) == "3.333e-04"


def test_compare_report_serialises(extent_trop):
    phi = parse_formula("mu X. ([a](T) | [b](X) | [c](X))",
                        extent_trop.signature, extent_trop.descriptor)
    rep = compare_semantics(extent_trop, phi, 3)
    d = rep.to_dict(extent_trop.descriptor)
    assert d["ok"] is True and len(d["rows"]) == 3
    assert "stepwise" in d["rows"][0] and "verdict" in d["rows"][0]
    text = rep.to_text(extent_trop.descriptor)
    assert "max discrepancy" in text


NEAR_CRITICAL = ("semiring prob label s/2 label a/1 label e/0 state x { 1/2 s -> x x; "
                 "1/1000000000000 a -> y; 499999999999/1000000000000 e } state y { 1 e }")


def test_compare_keeps_its_verdict_when_the_fixpoint_does_not_converge():
    # under [s] and [e], x = 1/2 x^2 + c with c = 1/2 - 10^-12 loses mass,
    # so its value is below 1 and the formula's own chain, rising like 1/n
    # from 0, finds no fixpoint in 200 iterations; its 2-step approximant
    # is c^2/2 + c both ways, and only the diagnostic distance is unavailable
    m = parse_model(NEAR_CRITICAL)
    phi = parse_formula("mu X. ([s](X, X) | [e])", m.signature, m.descriptor)
    rep = compare_semantics(m, phi, 2, EvalConfig(max_iterations=200))
    c = Fraction(499999999999, 10**12)
    assert rep.ok and rep.rows[0].stepwise == rep.rows[0].oracle == c * c / 2 + c
    assert rep.approximant_distance is None
    assert rep.to_dict(m.descriptor)["approximant_distance"] is None
    assert rep.to_text(m.descriptor).endswith("approximant vs fixpoint distance (diagnostic): n/a")


@given(st.integers(min_value=0, max_value=10**9),
       st.sampled_from(["boolean", "bounded_tropical"]))
@settings(max_examples=40, deadline=None)
def test_compare_random_models_exact(seed, kind):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], max_states=4, max_labels=3)
    phi = random_qualitative_formula(rng, m.signature, max_size=12, max_fnd=2,
                                     max_modal_depth=2)
    k = pick_unroll(m, phi)
    rep = compare_semantics(m, phi, k, EvalConfig(enum_cap=150_000))
    assert rep.ok and rep.max_discrepancy == 0


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=15, deadline=None)
def test_compare_random_models_probabilistic(seed):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["probabilistic"], max_states=4, max_labels=3)
    phi = random_qualitative_formula(rng, m.signature, max_size=10, max_fnd=2,
                                     max_modal_depth=2)
    k = pick_unroll(m, phi)
    rep = compare_semantics(m, phi, k, EvalConfig(enum_cap=150_000))
    assert rep.ok
    assert rep.max_discrepancy <= Fraction(1, 10**6)
