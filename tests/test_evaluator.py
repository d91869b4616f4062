"""Kleene engine, extents and step-wise evaluation."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimc import (BOT, INF, TOP, TOP_LEAF, EvalConfig, KleeneResult, Label, Model, Mu, Nu,
                    NonConvergence, NonMonotoneChain, EvaluationError, Modal,
                    OffsetUnsupported, SemiringDescriptor, Signature, Transition, Var,
                    WeightedSum, eval_formula, eval_with_certificate, finite_tr, kleene,
                    mu_extent, mu_extent_result, nu_extent, nu_extent_result,
                    parse_formula, parse_fragment, parse_model, semiring_for, tr_approx, unroll)
from semimc import evaluator
from semimc.logic import _children, free_vars, size
from semimc._linear import _RHS, _eliminate
from conftest import leq_pointwise, load_corpus_model
from test_kernel import naive_step
from randgen import (DESCRIPTORS, _prob_weights, carrier_values, random_model,
                     random_qualitative_formula)

EPS = Fraction(1, 10**9)
PROB = semiring_for(DESCRIPTORS["probabilistic"])


def _on_pairs(fn):
    """A kleene operator on integer pairs (the prob kernel form) from
    `fn` on Fractions."""
    return lambda p: PROB.pack(fn(PROB.unpack(p)))


def close(pred, expected, tol=EPS):
    return all(abs(pred[s] - v) < tol for s, v in expected.items())


# ---------------------------------------------------------------------------
# extents on the corpus examples


def test_prob_extents(extent_prob):
    expected = {"x": Fraction(2, 5), "y": Fraction(3, 5), "z": Fraction(1, 5)}
    assert close(nu_extent(extent_prob), expected)
    assert close(mu_extent(extent_prob), expected)


def test_trop_extents(extent_trop):
    assert nu_extent(extent_trop) == {"x": 1, "y": 1, "z": 0}
    assert mu_extent(extent_trop) == {"x": 4, "y": 2, "z": 4}


def test_btrop_extents(corpus_models):
    m = corpus_models["extent-example.btrop.model"]
    assert nu_extent(m) == {"x": 1, "y": 1, "z": 0}
    assert mu_extent(m) == {"x": 4, "y": 2, "z": 4}


def test_deadlock_extent_is_zero(deadlock_bool):
    assert nu_extent(deadlock_bool) == {"x": 0, "y": 0}
    assert mu_extent(deadlock_bool) == {"x": 0, "y": 0}


def test_deadlock_tropical_zero_is_inf():
    m = parse_model("semiring trop label a/1 state x { 1 a -> y } state y { }")
    assert nu_extent(m) == {"x": INF, "y": INF}


def test_single_nullary_state():
    m = parse_model("semiring prob label halt/0 state s { 2/3 halt }")
    assert mu_extent(m) == {"s": Fraction(2, 3)}


# ---------------------------------------------------------------------------
# exact tropical extents

# s_i unfolds to two copies of s_(i-1), so s13 costs 2^14 - 1 = 16383: past
# default_promote_bound, which used to promote the nu extent to inf
DOUBLING = "semiring trop label e/0 label f/2 state s0 { 1 e } " + " ".join(
    f"state s{i} {{ 1 f -> s{i - 1} s{i - 1} }}" for i in range(1, 14))


def test_doubling_model_extents_are_exact():
    m = parse_model(DOUBLING)
    expected = {f"s{i}": 2 ** (i + 1) - 1 for i in range(14)}
    assert nu_extent(m) == expected
    assert mu_extent(m) == expected
    for text in ("T", "nu X. ([f](X, X) | [e])"):
        assert eval_formula(m, parse_formula(text, m.signature, m.descriptor)) == expected


def test_trop_extent_report():
    m = parse_model("semiring trop label a/1 label e/0 "
                    "state x { 0 a -> x } state y { 2 a -> x; 1 e } state z { 1 a -> z }")
    nu, mu = nu_extent_result(m), mu_extent_result(m)
    assert nu.values == {"x": 0, "y": 1, "z": INF}
    assert nu.report.iterations == 2 and nu.report.promoted == ("z",)
    assert mu.values == {"x": INF, "y": 1, "z": INF}
    assert mu.report.iterations == 1 and mu.report.promoted == ()


TROP_LABELS = Signature(tuple(Label(f"l{k}", k) for k in range(4)))


@st.composite
def offset_free_trop_models(draw, descriptors=(SemiringDescriptor("tropical"),
                                               SemiringDescriptor("bounded_tropical", 3),
                                               SemiringDescriptor("bounded_tropical", 8))):
    descriptor = draw(st.sampled_from(descriptors))
    top = 6 if descriptor.bound is None else descriptor.bound
    n = draw(st.integers(1, 5))
    states = tuple(f"s{i}" for i in range(n))
    transitions = {}
    for name in states:
        outs = {}
        for _ in range(draw(st.integers(0, 3))):
            arity = draw(st.integers(0, 3))
            succs = tuple(states[draw(st.integers(0, n - 1))] for _ in range(arity))
            # weight 0 on about half the edges, so zero-cost run trees occur;
            # every bool weight is 1
            w = 1 if descriptor.kind == "boolean" else draw(
                st.one_of(st.just(0), st.integers(0, top)))
            outs[(f"l{arity}", succs)] = Transition(w, f"l{arity}", succs)
        transitions[name] = list(outs.values())
    return Model(descriptor, TROP_LABELS, states, transitions)


@given(offset_free_trop_models())
@settings(max_examples=300, deadline=None)
def test_trop_extent_matches_kleene(m):
    # every finite value is the cost of a run tree of height < 5 with
    # arity <= 3 and weights <= 6, so at most 6 * (1 + 3 + ... + 3^4) =
    # 726: promotion past 10^3 is sound and Kleene is the exact reference
    cm, sr = m.compiled, m.semiring
    nu, mu = nu_extent_result(m), mu_extent_result(m)
    for direction, res, start in (("gfp", nu, sr.one), ("lfp", mu, sr.zero)):
        ref = kleene(sr, cm.extent_step, [start] * len(cm.states), direction, EvalConfig(),
                     promote_bound=10**3, names=cm.states)
        assert res.values == dict(zip(cm.states, ref.values))
    assert nu.report.promoted == tuple(s for s in sorted(cm.states) if nu.values[s] == INF)
    assert all(nu.values[s] <= mu.values[s] for s in cm.states)


def _no_chain(*args, **kwargs):
    raise AssertionError("kleene called")


def _check_bool_extents_exact(m):
    """Extents and T of bool model `m` come from _trop_extent with no
    chain; the reference iterates the public or/and fold, offsets
    applied, from 1 (the gfp) and from 0 (the lfp)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "kleene", _no_chain)
        nu, mu = nu_extent_result(m), mu_extent_result(m)
        top = eval_formula(m, TOP)
    for res, start in ((nu, 1), (mu, 0)):
        p = dict.fromkeys(m.states, start)
        while (q := naive_step(m, {l.name: (p,) * l.arity for l in m.signature.labels})) != p:
            p = q
        assert res.values == p and res.report.promoted == ()
    assert top == nu.values


@given(offset_free_trop_models([DESCRIPTORS["boolean"]]))
@settings(max_examples=200, deadline=None)
def test_bool_extent_is_exact(m):
    # bool runs as trop[0]
    _check_bool_extents_exact(m)


@st.composite
def bool_models_with_offsets(draw):
    """`offset_free_trop_models` on bool, then offsets 0 or 1, at least one 0."""
    m = draw(offset_free_trop_models([DESCRIPTORS["boolean"]]))
    offsets = dict(zip(m.states, draw(st.lists(st.sampled_from((0, 1)), min_size=len(m.states),
                                               max_size=len(m.states)))))
    offsets[draw(st.sampled_from(m.states))] = 0
    return m.with_offsets(offsets)


@given(bool_models_with_offsets())
@settings(max_examples=200, deadline=None)
def test_bool_extent_with_offsets_is_exact(m):
    # bool's oslash is the first projection, so its offsets change no
    # value and every bool extent is exact; the trace operations still
    # reject any model with offsets
    _check_bool_extents_exact(m)
    assert not m.is_plain
    with pytest.raises(OffsetUnsupported):
        finite_tr(m, m.states[0], parse_fragment("l0", m.signature))
    with pytest.raises(OffsetUnsupported):
        tr_approx(m, m.states[0], TOP_LEAF, 0)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_prob_linear_extent_matches_kleene(seed):
    # offset-free prob models with arity <= 1 are solved exactly: each
    # extent is a fixpoint of the step, and the Kleene chain towards it
    # stays on its own side (below the lfp, above the gfp) within 2 epsilon
    m = random_model(random.Random(seed), DESCRIPTORS["probabilistic"], max_states=6,
                     max_arity=1)
    cm, sr, cfg = m.compiled, m.semiring, EvalConfig()
    for direction, res, start in (("lfp", mu_extent_result(m), sr.zero),
                                  ("gfp", nu_extent_result(m), sr.one)):
        x = [res.values[s] for s in cm.states]
        assert cm.extent_step(sr.pack(x)) == sr.pack(x)
        ref = kleene(sr, cm.extent_step, sr.pack([start] * len(x)), direction, cfg,
                     names=cm.states)
        for r, v in zip(sr.unpack(ref.values), x):
            assert (r <= v) if direction == "lfp" else (r >= v)
            assert abs(r - v) <= 2 * cfg.epsilon
        assert (res.report.last_delta, res.report.tail_bound) == (0, 0)


def _min_rule_bareiss(rows):
    """The reference: the Bareiss kernel that `_linear._eliminate` replaced,
    with each pivot picked by `min` over every remaining column, as before
    it kept a heap."""
    cols = {i: set() for i in rows}
    for i, row in rows.items():
        for j in row:
            if j != _RHS:
                cols[j].add(i)
    level = dict.fromkeys(rows, 0)
    pivots = [1]
    order = []
    for step in range(len(rows)):
        r = min(cols, key=lambda i: ((len(rows[i]) - 1) * (len(cols[i]) - 1), i))
        prev = pivots[-1]
        row_r = rows[r]
        if level[r] != step:
            base = pivots[level[r]]
            row_r = rows[r] = {j: v * prev // base for j, v in row_r.items()}
        p = row_r[r]
        others = [(j, v) for j, v in row_r.items() if j != r]
        for j, _ in others:
            if j != _RHS:
                cols[j].discard(r)
        for i in cols.pop(r) - {r}:
            row_i = rows[i]
            if level[i] != step:
                base = pivots[level[i]]
                row_i = {j: v * prev // base for j, v in row_i.items()}
            f = row_i.pop(r)
            new = {j: v * p for j, v in row_i.items()}
            for j, v in others:
                if j in new:
                    new[j] -= f * v
                else:
                    new[j] = -f * v
                    if j != _RHS:
                        cols[j].add(i)
            rows[i] = {j: v // prev for j, v in new.items()}
            level[i] = step + 1
        pivots.append(p)
        order.append(r)
    det = pivots[-1]
    scaled = {}
    for r in reversed(order):
        row = rows[r]
        acc = det * row.get(_RHS, 0)
        for j, v in row.items():
            if j != r and j != _RHS:
                acc -= v * scaled[j]
        scaled[r] = acc // row[r]
    return {r: Fraction(x, det) for r, x in scaled.items()}


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_elimination_pivot_order_matches_min_rule(seed):
    # random sparse strictly substochastic systems: D x = A x + b with row
    # sums of A below D, so I - A/D is a nonsingular M-matrix; small row
    # counts make Markowitz cost ties, which go to the smaller key
    rng = random.Random(seed)
    n, den = rng.randint(1, 40), rng.choice([2, 3, 10])
    rows = {}
    for i in range(n):
        row = {}
        for j in rng.sample(range(n), rng.randint(0, min(n, 4))):
            if sum(row.values()) < den - 1:
                row[j] = rng.randint(1, den - 1 - sum(row.values()))
        eq = {j: -v for j, v in row.items()}
        eq[i] = eq.get(i, 0) + den
        eq[_RHS] = rng.randint(0, 3)
        rows[i] = eq
    got = _eliminate({i: dict(r) for i, r in rows.items()})
    want = _min_rule_bareiss({i: dict(r) for i, r in rows.items()})
    # both list the unknowns in reverse pivot order; `_eliminate` gives
    # integer pairs (X, D), reduced here
    assert all(type(x) is int and type(d) is int and d > 0 for x, d in got.values())
    assert ([(r, (x // gcd(x, d), d // gcd(x, d))) for r, (x, d) in got.items()]
            == [(r, v.as_integer_ratio()) for r, v in want.items()])


def _affine_body(rng: random.Random, signature: Signature, free: list[str]):
    """A random body affine in X: X, a modality or a weighted sum, where
    X occurs as a summand or in at most one argument per modal disjunct;
    that argument is X, a nested modality of the same kind or a weighted
    sum of one of those and a constant.  The other leaves are T, F, the
    free variables and one-step modalities of T."""
    def const():
        label = rng.choice(signature.labels)
        return rng.choice([TOP, BOT, *map(Var, free),
                           Modal(((label.name, (TOP,) * label.arity),))])

    def weighted(*parts):
        parts = list(parts)
        rng.shuffle(parts)
        parts = parts[:rng.randint(1, len(parts))]
        return WeightedSum(tuple(zip(_prob_weights(rng, len(parts)), parts)))

    def dependent(depth):  # a modal argument affine in X
        r = rng.random()
        if not depth or r < 0.4:
            return Var("X")
        if r < 0.7:
            return modal(depth - 1)
        return weighted(dependent(depth - 1), const())

    def modal(depth):
        disjuncts = []
        for label in rng.sample(signature.labels, rng.randint(1, min(2, len(signature.labels)))):
            x = rng.randrange(label.arity) if label.arity and rng.random() < 0.8 else -1
            disjuncts.append((label.name, tuple(dependent(depth) if k == x else const()
                                                for k in range(label.arity))))
        return Modal(tuple(disjuncts))

    if rng.random() < 0.4:
        return modal(2)
    return weighted(Var("X"), modal(2), const())


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_affine_binders_match_kleene(seed):
    # mu and nu binders whose body is affine in their variable are solved
    # exactly on offset-free prob models: the value is a fixpoint of the
    # body, within 2 epsilon of the Kleene chain, and the force_exact
    # chain stays on its own side of it (below the lfp, above the gfp)
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["probabilistic"], max_states=5, max_arity=2)
    cm, sr, cfg = m.compiled, m.semiring, EvalConfig()
    free = ["Z"] if rng.random() < 0.5 else []
    valuation = {z: dict(zip(cm.states, carrier_values(m.descriptor, rng, len(cm.states))))
                 for z in free}
    body = _affine_body(rng, m.signature, free)
    ctx = evaluator._EvalContext(m, cfg, None)
    env = {z: sr.pack([p[s] for s in cm.states]) for z, p in valuation.items()}
    plan, _ = evaluator._compile(body, m)

    def op(p):
        return evaluator._eval(ctx, plan, {**env, "X": p})

    for binder, direction in ((Mu, "lfp"), (Nu, "gfp")):
        start = (sr.pack([sr.zero] * len(cm.states)) if binder is Mu
                 else evaluator._eval(ctx, evaluator._compile(TOP, m)[0], env))
        try:
            x = eval_formula(m, binder("X", body), valuation, cfg)
        except NonMonotoneChain:
            # body(T) > T somewhere: the chain from T rises there
            assert binder is Nu
            with pytest.raises(NonMonotoneChain):
                kleene(sr, op, start, direction, cfg, names=cm.states)
            continue
        assert eval_formula(m, body, {**valuation, "X": x}, cfg) == x
        # pairs in lowest terms, as the grid test of an enclosing chain needs
        assert all(gcd(n, d) == 1 for n, d in
                   evaluator._eval(ctx, evaluator._compile(binder("X", body), m)[0], env))
        ref = kleene(sr, op, start, direction, cfg, names=cm.states)
        grid = kleene(sr, op, start, direction, cfg, force_exact=True, names=cm.states)
        for s, r, g in zip(cm.states, sr.unpack(ref.values), sr.unpack(grid.values)):
            assert abs(r - x[s]) <= 2 * cfg.epsilon
            assert (g <= x[s]) if binder is Mu else (g >= x[s])


def _poly_body(rng: random.Random, signature: Signature, depth: int = 3):
    """A random body in X of any degree: X, T, F, a modality whose
    arguments are bodies (X in several of them multiplies) or a weighted
    sum of bodies."""
    r = rng.random()
    if not depth or r < 0.3:
        return rng.choice([Var("X"), Var("X"), TOP, BOT])
    if r < 0.75:
        return Modal(tuple((label.name, tuple(_poly_body(rng, signature, depth - 1)
                                              for _ in range(label.arity)))
                           for label in rng.sample(signature.labels,
                                                   rng.randint(1, min(2, len(signature.labels))))))
    parts = [_poly_body(rng, signature, depth - 1) for _ in range(rng.randint(1, 3))]
    return WeightedSum(tuple(zip(_prob_weights(rng, len(parts)), parts)))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_rows_evaluate_to_the_body_at_any_point(seed):
    # the rows `_eval` builds with X the identity, read at a random
    # rational point p, are the body evaluated at p, exactly; the body
    # with X in every argument of every label has the extent's rows
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["probabilistic"], max_states=5, max_arity=2)
    cm, sr = m.compiled, m.semiring
    ctx = evaluator._EvalContext(m, EvalConfig(), None)
    x = evaluator._Poly((1, {(i,): 1}) for i in range(len(cm.states)))
    bodies = [Modal(tuple((label.name, (Var("X"),) * label.arity)
                          for label in m.signature.labels)),
              *(_poly_body(rng, m.signature) for _ in range(3))]
    for body in bodies:
        plan, _ = evaluator._compile(body, m)
        try:
            rows = evaluator._sum_terms([(1, evaluator._eval(ctx, plan, {"X": x}))])
        except evaluator._NotPoly:
            continue
        p = [Fraction(rng.randint(0, den), den) for den in (rng.randint(1, 12) for _ in cm.states)]
        at_p = []
        for den, nums in rows:
            # one positive denominator, sorted monomials, no zero numerator
            assert den > 0 and all(n > 0 and list(mono) == sorted(mono) for mono, n in nums.items())
            at_p.append(sum(Fraction(n, den) * prod(p[j] for j in mono) for mono, n in nums.items()))
        assert at_p == sr.unpack(evaluator._eval(ctx, plan, {"X": sr.pack(p)}))


def test_grid_test_sees_solver_values_in_lowest_terms():
    # a 60-state ring, each state 1/2 a -> next and 1/6 e: the extent is
    # exactly 1/3 in both directions, but the solver's determinant
    # 6^60 - 3^60 exceeds the 2^128 grid.  T reaches the fixpoints below
    # unchanged, so an unreduced solver pair would be snapped to the grid
    # (mu X. T would then stop below 1/3)
    n = 60
    assert 6**n - 3**n > GRID
    m = parse_model("semiring prob label a/1 label e/0 " + " ".join(
        f"state s{i} {{ 1/2 a -> s{(i + 1) % n}; 1/6 e }}" for i in range(n)))
    third = dict.fromkeys(m.states, Fraction(1, 3))
    assert nu_extent(m) == third and mu_extent(m) == third
    for text in ("nu X. T", "mu X. T", "nu X. 1 * T"):
        assert eval_formula(m, parse_formula(text, m.signature, m.descriptor)) == third, text


# ---------------------------------------------------------------------------
# kleene engine behaviour


def test_kleene_boolean_chain_stabilises_fast():
    m = parse_model("semiring bool label a/1 label stop/0 "
                    "state p { 1 a -> q } state q { 1 stop }")
    res = nu_extent_result(m)
    assert res.values == {"p": 1, "q": 1}
    assert res.report.iterations <= 3


def test_kleene_prob_linear_system(extent_prob):
    # least solution of x = 3/10 + z/2, y = x/4, z = x/4 + z/2
    f = parse_formula("mu X. ([a](T) | [b](X) | [c](X))",
                      extent_prob.signature, extent_prob.descriptor)
    v = eval_formula(extent_prob, f)
    assert close(v, {"x": Fraction(2, 5), "y": Fraction(1, 10), "z": Fraction(1, 5)})


def test_kleene_tropical_promotion():
    # gfp of t = 1 + t diverges and is promoted to infinity; the lfp hits
    # infinity at the seed already
    m = parse_model("semiring trop label a/1 state t { 1 a -> t }")
    nu = parse_formula("nu X. [a](X)", m.signature, m.descriptor)
    mu = parse_formula("mu X. [a](X)", m.signature, m.descriptor)
    assert eval_formula(m, nu) == {"t": INF}
    assert eval_formula(m, mu) == {"t": INF}
    res = nu_extent_result(m)
    assert res.values == {"t": INF} and res.report.promoted == ("t",)


def test_kleene_promotes_divergent_tropical_chain():
    # the extent no longer reaches Kleene on offset-free models; drive it
    # directly so promotion stays covered: t climbs 1, 2, ..., 51 > 50
    m = parse_model("semiring trop label a/1 state t { 1 a -> t }")
    cm = m.compiled
    res = kleene(m.semiring, cm.extent_step, [0], "gfp", EvalConfig(),
                 promote_bound=50, names=cm.states)
    assert res.values == [INF]
    assert res.report.promoted == ("t",) and res.report.iterations == 52


def test_kleene_without_bound_promotes_nothing():
    # a gfp chain 0, 500000, ..., 2000000 that stabilises past 10^6; with
    # no promote bound, kleene must not cut it off at infinity
    sr = semiring_for(DESCRIPTORS["tropical"])
    res = kleene(sr, lambda p: [min(p[0] + 500_000, 2_000_000)], [0], "gfp", EvalConfig())
    assert res.values == [2_000_000] and res.report.promoted == ()


def test_prob_chains_never_work_out_a_promote_bound(monkeypatch):
    # prob chains promote nothing, so their extents, with offsets or
    # branching, run without the tropical cutoff
    def no_bound(*args):
        raise AssertionError("default_promote_bound called")

    monkeypatch.setattr(evaluator, "default_promote_bound", no_bound)
    m = parse_model("semiring prob label a/1 label e/0 state u { 1/2 a -> u; 1/4 e } "
                    "offset u = 1/2")
    assert mu_extent_result(m).values == nu_extent_result(m).values == {"u": 1}
    mu_extent_result(load_corpus_model("branching.prob.model"))


def test_kleene_non_convergence():
    with pytest.raises(NonConvergence) as info:
        _kleene_extent("semiring prob label go/1 label out/0 "
                       "state a { 11/12 go -> a; 1/12 out }", "lfp", EvalConfig(max_iterations=5))
    assert info.value.iterations == 5
    assert info.value.last is not None


def test_bool_non_convergence_reports_scalars():
    # the chain runs on trop[0] values; the error reports bool's 0 and 1
    m = parse_model("semiring bool label a/1 label e/0 "
                    "state x { 1 a -> y } state y { 1 a -> z } state z { 1 e }")
    f = parse_formula("mu X. ([a](X) | [e])", m.signature, m.descriptor)
    with pytest.raises(NonConvergence) as info:
        eval_formula(m, f, cfg=EvalConfig(max_iterations=1))
    assert info.value.last == {"x": 0, "y": 0, "z": 1}
    assert info.value.previous == {"x": 0, "y": 0, "z": 0}


@pytest.mark.parametrize("field,value,message", [
    ("epsilon", Fraction(0), "epsilon must be positive"),
    ("max_iterations", 0, "max_iterations must be at least 1"),
    ("enum_cap", 0, "enum_cap must be at least 1"),
    ("enum_cap", -5, "enum_cap must be at least 1"),
    ("promote_bound", -1, "promote_bound must be at least 0"),
    # wrong types fail here, not later inside a chain or a range
    ("epsilon", 0.001, "epsilon must be an int or a Fraction"),
    ("epsilon", 1 / 64, "epsilon must be an int or a Fraction"),
    ("epsilon", "1/64", "epsilon must be an int or a Fraction"),
    ("max_iterations", 2.5, "max_iterations must be an int"),
    ("max_iterations", "10", "max_iterations must be an int"),
    ("enum_cap", 1e3, "enum_cap must be an int"),
    ("promote_bound", 10.0, "promote_bound must be an int"),
])
def test_eval_config_rejects_out_of_range(field, value, message):
    # a value of the wrong type is a TypeError, one out of range a ValueError
    error = TypeError if "must be an int" in message else ValueError
    with pytest.raises(error, match=message):
        EvalConfig(**{field: value})
    assert getattr(EvalConfig(**{field: 1}), field) == 1


def test_eval_config_int_epsilon_is_a_fraction(extent_prob):
    # an int epsilon is stored as a Fraction, so the exact stop rule can
    # divide it; epsilon = 1 certifies any value in [0, 1]
    cfg = EvalConfig(epsilon=1)
    assert type(cfg.epsilon) is Fraction and cfg.epsilon == 1
    assert EvalConfig(promote_bound=None).promote_bound is None
    f = parse_formula("mu X. ([a](T) | [b](X) | [c](X))",
                      extent_prob.signature, extent_prob.descriptor)
    assert set(eval_formula(extent_prob, f, cfg=cfg)) == set(extent_prob.states)


def test_kleene_rejects_non_monotone_direction():
    sr = semiring_for(DESCRIPTORS["boolean"])
    flip = lambda p: [1 - p[0]]
    with pytest.raises(NonMonotoneChain):
        kleene(sr, flip, [0], "gfp", EvalConfig())


@pytest.mark.parametrize("direction, move, size", [
    ("lfp", -1, Fraction(1, 8)), ("gfp", 1, Fraction(1, 8)),
    ("lfp", -1, Fraction(1, 8) + Fraction(1, 3**100)),
    ("gfp", 1, Fraction(1, 8) + Fraction(1, 3**100)),
], ids=["lfp--1", "gfp-1", "lfp--1-off-grid", "gfp-1-off-grid"])
def test_kleene_rejects_non_monotone_prob_chain(direction, move, size):
    # the second state steps against the direction on the first iteration;
    # off the grid (denominator past 2^128), rounding must not clamp the
    # step back to the previous iterate
    against = lambda p: [p[0], p[1] + move * size]
    start = PROB.pack([Fraction(1, 3), Fraction(1, 2)])
    with pytest.raises(NonMonotoneChain, match=f"left the {direction} direction "
                                               r"at state 'bad' \(step 1\)"):
        kleene(PROB, _on_pairs(against), start, direction, EvalConfig(), names=("ok", "bad"))


# Probabilistic chains pinned bit for bit: values and KleeneReport fields
# (iterations, last_delta, tail_bound) as recorded from the Fraction-based
# bookkeeping that the integer one replaced.  Each chain ends on a
# different exit of the probabilistic pass.  kleene iterates integer
# pairs on prob, so the calls convert their start, operator and values;
# the pinned numbers are Fractions as before.

RING = "semiring prob label a/1 label e/0 state u { 9/10 a -> u; %s e }"
THIRDS = ("semiring prob label a/1 label e/0 "
          "state u { 1/3 a -> u; 1/3 e } state w { 2/3 a -> u; 1/5 e }")
GRID = 1 << 128


def _named(res: KleeneResult, names=("s",)) -> KleeneResult:
    return KleeneResult(dict(zip(names, PROB.unpack(res.values))), res.report)


def _kleene_extent(text, direction, cfg=None, force_exact=False):
    # the extent chain itself: the extent functions solve these models
    # exactly, so the pinned chains call kleene on the extent step
    m = parse_model(text)
    s = Fraction(0) if direction == "lfp" else Fraction(1)
    res = kleene(m.semiring, m.compiled.extent_step, PROB.pack([s] * len(m.states)), direction,
                 cfg or EvalConfig(), force_exact=force_exact, names=m.compiled.states)
    return _named(res, m.compiled.states)


def _off_grid(direction):
    # from 1/3, off the grid, one tiny step towards the limit snaps past
    # the start and is clamped back to it
    step = Fraction(1, 3**100) * (1 if direction == "lfp" else -1)
    return _named(kleene(PROB, _on_pairs(lambda p: [p[0] + step]), PROB.pack([Fraction(1, 3)]),
                         direction, EvalConfig()))


def _erratic():
    # steps 1/4, 1/8, 3/200, 3/200, 1/200 with epsilon^2 = 1/100: the
    # ratio never certifies epsilon/64, the fallback stops the chain on
    # the first step below epsilon^2
    chain = [Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(39, 100), Fraction(81, 200),
             Fraction(41, 100), 1]
    return _named(kleene(PROB, _on_pairs(lambda p: [chain[chain.index(p[0]) + 1]]),
                         PROB.pack([Fraction(0)]), "lfp", EvalConfig(epsilon=Fraction(1, 10))))


PINNED_CHAINS = {
    # ratio stop on the grid, rounding down (lfp) and up (gfp)
    "ring-mu": (lambda: _kleene_extent(RING % "1/10", "lfp"),
                {"u": Fraction(340282366916070871312624326139985964579, GRID)}, 237,
                Fraction(2704217861527934050990137151, 1701411834604692317316873037158841057280),
                Fraction(7312794242606712701513941599342564755346154677790396801,
                         511220919217002231238131570963235284335720490470664818782990499840)),
    "ring-nu": (lambda: _kleene_extent(RING % "1/20", "gfp"),
                {"u": Fraction(85070591732778847362404826147270630405, GRID // 2)}, 230,
                Fraction(565384777013594286517461675, GRID),
                Fraction(319659946078711734302483156077761790275744685093805625,
                         21376718904805873976525106836857220947422678196497265513675620352)),
    # ratio stop before the denominators reach the grid
    "thirds-mu": (lambda: _kleene_extent(THIRDS, "lfp"),
                  {"u": Fraction(141214768240, 282429536481),
                   "w": Fraction(753145430611, 1412147682405)}, 24,
                  Fraction(2, 282429536481), Fraction(1, 282429536481)),
    "thirds-nu": (lambda: _kleene_extent(THIRDS, "gfp"),
                  {"u": Fraction(141214768241, 282429536481),
                   "w": Fraction(753145430621, 1412147682405)}, 24,
                  Fraction(2, 282429536481), Fraction(1, 282429536481)),
    # force_exact: exact stabilisation on the grid, both rounding directions
    "thirds-mu-exact": (lambda: _kleene_extent(THIRDS, "lfp", force_exact=True),
                        {"u": Fraction(GRID // 2 - 1, GRID),
                         "w": Fraction(181483929024500513847133123963609712775, GRID)}, 82,
                        Fraction(0), Fraction(1, 1 << 100)),
    "thirds-nu-exact": (lambda: _kleene_extent(THIRDS, "gfp", force_exact=True),
                        {"u": Fraction(GRID // 2 + 1, GRID),
                         "w": Fraction(90741964512250256923566561981804856389, GRID // 2)}, 82,
                        Fraction(0), Fraction(1, 1 << 100)),
    # the clamp to an off-grid previous iterate, both directions
    "clamp-lfp": (lambda: _off_grid("lfp"), {"s": Fraction(1, 3)}, 1,
                  Fraction(0), Fraction(1, 1 << 100)),
    "clamp-gfp": (lambda: _off_grid("gfp"), {"s": Fraction(1, 3)}, 1,
                  Fraction(0), Fraction(1, 1 << 100)),
    # the epsilon^2 fallback: on the first step, and after erratic ratios
    "tiny-mu": (lambda: _kleene_extent(
                    "semiring prob label e/0 state u { 1/100000000000000000000 e }", "lfp"),
                {"u": Fraction(1, 10**20)}, 1, Fraction(1, 10**20), Fraction(1, 10**20)),
    "erratic": (_erratic, {"s": Fraction(41, 100)}, 5, Fraction(1, 200), Fraction(1, 200)),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHAINS))
def test_prob_chain_pinned(name):
    run, values, iterations, last_delta, tail_bound = PINNED_CHAINS[name]
    res = run()
    assert res.values == values
    assert (res.report.iterations, res.report.last_delta, res.report.tail_bound) == (
        iterations, last_delta, tail_bound)


def test_prob_nested_chains_pinned(counterexample_prob, monkeypatch):
    # T is solved exactly (every state keeps its mass, so the pre-pass
    # sets all four to 1 and no state is left to eliminate).  The inner mu
    # is affine in Y with [a](X) a constant, so it is solved exactly and
    # runs no chain; the outer nu, whose body is a binder mentioning X,
    # still iterates and stabilises on its first step at the exact value
    chains = []

    def recording(*args, **kwargs):
        res = kleene(*args, **kwargs)
        r = res.report
        chains.append((args[3], kwargs.get("force_exact", False),
                       r.iterations, r.last_delta, r.tail_bound))
        return res

    monkeypatch.setattr(evaluator, "kleene", recording)
    m = counterexample_prob
    f = parse_formula("nu X. mu Y. ([a](X) | [b](Y) | [c](Y))", m.signature, m.descriptor)
    values, top = eval_with_certificate(m, f)
    assert values == dict.fromkeys(("x", "y", "u", "v"), Fraction(1))
    assert (top.iterations, top.last_delta, top.tail_bound) == (0, 0, 0)
    assert chains == [("gfp", False, 1, 0, 0)]


def test_binder_under_nested_modalities_is_solved_exactly(monkeypatch):
    # X under two modalities is affine in X, so no chain runs: on
    # corpus/two-rate.prob.model u = 1/(1 + p) with p = 1 - 10^-12, where
    # the epsilon stop cut the chain off at 0
    monkeypatch.setattr(evaluator, "kleene", _no_chain)
    m = load_corpus_model("two-rate.prob.model")
    f = parse_formula("mu X. ([a]([a](X)) | [e])", m.signature, m.descriptor)
    assert eval_formula(m, f) == {"u": Fraction(10**12, 2 * 10**12 - 1), "v": Fraction(2, 3)}


def test_nested_modalities_keep_one_term_per_state():
    # each modality composes the affine values below it; a row keeps one
    # term per state it depends on, so the terms do not multiply with the
    # depth (two a-successors per state: 2^12 terms per row otherwise)
    m = parse_model("semiring prob label a/1 state s { 1/4 a -> s; 1/4 a -> t } "
                    "state t { 1/2 a -> s; 1/2 a -> t }")
    depth = 12
    f = parse_formula("[a](" * depth + "X" + ")" * depth, m.signature, m.descriptor)
    x = evaluator._Poly((1, {(i,): 1}) for i in range(2))
    rows = evaluator._eval(evaluator._EvalContext(m, EvalConfig(), None),
                           evaluator._compile(f, m)[0], {"X": x})
    assert [sorted(nums) for _, nums in rows] == [[(0,), (1,)], [(0,), (1,)]]
    # at X = 1 the terms sum to the formula's value there
    ones = eval_formula(m, f, {"X": dict.fromkeys(m.states, Fraction(1))})
    assert [Fraction(sum(nums.values()), den) for den, nums in rows] == [ones["s"], ones["t"]]


def test_zero_terms_of_an_affine_body_are_no_moves():
    # 0 * [f](T, X) adds no move from s to t: s keeps x_s = x_s and its
    # least value 0, where a zero move would let it reach t's constant
    # and hand the solver a singular row
    m = parse_model("semiring prob label f/2 label e/0 state s { 1 f -> s t } state t { 1 e }")
    f = parse_formula("mu X. 1 * ([f](X, T) | [e]) + 0 * [f](T, X)", m.signature, m.descriptor)
    assert eval_formula(m, f) == {"s": 0, "t": 1}


def test_inner_binder_that_mentions_the_variable_ends_the_attempt(counterexample_prob,
                                                                 monkeypatch):
    # the inner mu mentions X, which ends the outer nu's attempt at once:
    # the inner mu runs no chain of its own while X is the identity
    entered = []

    def recording(*args, **kwargs):
        entered.append(args[3])
        return kleene(*args, **kwargs)

    monkeypatch.setattr(evaluator, "kleene", recording)
    m = counterexample_prob
    f = parse_formula("nu X. mu Y. ([b](Y) | [c](Y) | [a](X))", m.signature, m.descriptor)
    assert eval_formula(m, f) == dict.fromkeys(m.states, Fraction(1))
    assert entered == ["gfp"]


def test_outer_binder_that_an_inner_binder_mentions_builds_no_rows(monkeypatch):
    # mu Z (a critical branching chain, started at 1 by the qualitative
    # pass) comes before mu Y, which mentions X, in postorder.  X builds
    # no rows, so its own chain is the first to run: no attempt runs Z's
    # chain and then is thrown away when it reaches Y.  Z, nested, runs
    # force_exact once per step of X's chain; Y's rows are constant in Y
    chains = []

    def recording(*args, **kwargs):
        chains.append((args[3], kwargs.get("force_exact", False)))
        return kleene(*args, **kwargs)

    monkeypatch.setattr(evaluator, "kleene", recording)
    m = parse_model("semiring prob label f/2 label a/1 label e/0 state x { 1/2 f -> x x; 1/2 e }")
    f = parse_formula("mu X. 1/2 * (mu Z. [f](Z, Z) | [e]) + 1/2 * (mu Y. [a](X) | [e])",
                      m.signature, m.descriptor)
    assert eval_formula(m, f) == {"x": Fraction(3, 4)}
    assert chains == [("lfp", False), ("lfp", True), ("lfp", True)]


def _blocks(plan):
    """Every block of `plan`, outermost first, with the blocks inside their bodies."""
    out = []
    for step in plan.values():
        if isinstance(step, evaluator._Block):
            out += [step, *_blocks(step.body)]
    return out


def test_compile_decides_every_block_from_the_formula(counterexample_prob):
    m = counterexample_prob
    f = parse_formula("nu X. [a](X) | [b](mu Y. [b](Y) | [c](mu Z. [c](Y) | [a](T)))",
                      m.signature, m.descriptor)
    plan, n = evaluator._compile(f, m)
    assert n is None  # the size is counted on the tropical kind only
    # Y is free in Z, so Y builds no rows; X is free in no binder
    assert [(b.var, b.direction, b.nested, b.rows) for b in _blocks(plan)] == [
        ("X", "gfp", False, True), ("Y", "lfp", True, False), ("Z", "lfp", True, True)]
    # off an offset-free prob model no block builds rows
    for text in ("semiring trop label a/1 label b/1 label c/1 state x { 1 a -> x }",
                 "semiring prob label a/1 label b/1 label c/1 state x { 1 a -> x } offset x = 1/2"):
        t = parse_model(text)
        plan, n = evaluator._compile(f, t)
        assert not any(b.rows for b in _blocks(plan))
        assert n == (size(f) if t.descriptor.kind == "tropical" else None)


def _binders(g, depth=0):
    """Every binder of `g` with the number of binders above it."""
    if isinstance(g, (Mu, Nu)):
        yield g, depth
        depth += 1
    for c in _children(g):
        yield from _binders(c, depth)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_compile_agrees_with_the_formula_walks(seed):
    # the one pass gives the size `size` counts, on the tropical kind only,
    # and for each binder the block read off the formula by `free_vars`
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[rng.choice(sorted(DESCRIPTORS))], max_states=3, max_arity=2)
    f = random_qualitative_formula(rng, m.signature, max_size=16, max_fnd=3)
    plan, n = evaluator._compile(f, m)
    assert n == (size(f) if m.descriptor.kind == "tropical" else None)
    rows = m.semiring.kind == "probabilistic" and not m.compiled.offset_ids
    assert {b.var: (b.direction, b.nested, b.rows) for b in _blocks(plan)} == {
        g.var: ("lfp" if isinstance(g, Mu) else "gfp", depth > 0,
                rows and not any(g.var in free_vars(h) for h, _ in _binders(g.body)))
        for g, depth in _binders(f)}


def test_compile_lists_a_shared_node_in_every_body_it_occurs_in():
    # T is one object, in both bodies and outside them; the plans run in
    # frames of their own, so each lists it once.  An unrolled approximant
    # shares its subformulas: its plan lists each distinct node once
    m = parse_model("semiring trop label f/2 label e/0 state x { 1 f -> x x; 2 e }")
    f = parse_formula("[f](mu X. [f](X, T) | [e], [f](T, nu Y. [f](T, Y) | [e]))",
                      m.signature, m.descriptor)
    plan, n = evaluator._compile(f, m)
    assert n == size(f)
    for p in (plan, *(b.body for b in _blocks(plan))):
        assert id(TOP) in p
    assert eval_formula(m, f) == {"x": 8}
    psi = unroll(parse_formula("nu X. [f](X, X) | [e]", m.signature, m.descriptor), 30)
    plan, n = evaluator._compile(psi, m)
    assert len(plan) == 31 and n == 2 ** 31 - 1 == size(psi)


@pytest.mark.parametrize("formula", [
    "nu X. 1 * (mu Y. ([a](X) | [b](Y) | [c](mu Z. [c](Y))))",
    "nu X. [a](mu Y. ([a](X) | [b](Y) | [c](mu Z. [c](Y)))) | [b](X) | [c](X)",
])
def test_binders_under_sums_and_modalities_are_nested(counterexample_prob, monkeypatch, formula):
    # nesting is lexical: the mu Y sits in the nu's body below a sum or a
    # modality, and only it runs force_exact (T and the outer nu do not).
    # The innermost mu mentions Y, which keeps the mu Y off the exact
    # solver; the innermost mu, constant in Z, is solved exactly
    flags = set()

    def recording(*args, **kwargs):
        flags.add((args[3], kwargs.get("force_exact", False)))
        return kleene(*args, **kwargs)

    monkeypatch.setattr(evaluator, "kleene", recording)
    m = counterexample_prob
    eval_formula(m, parse_formula(formula, m.signature, m.descriptor),
                 cfg=EvalConfig(max_iterations=1000))
    assert flags == {("gfp", False), ("lfp", True)}


def test_prob_non_convergence_pinned():
    with pytest.raises(NonConvergence) as info:
        _kleene_extent(RING % "1/10", "lfp", EvalConfig(max_iterations=60))
    assert info.value.iterations == 60
    assert info.value.last == {
        "u": Fraction(42458859500337784413639989063636046173, 42535295865117307932921825928971026432)}
    assert info.value.previous == {
        "u": Fraction(339602932567342698847536057517679498043, GRID)}


@pytest.mark.parametrize("name, formula, bad", [
    ("extent-example.prob.model", "X", Fraction(2)),
    ("extent-example.trop.model", "[b](X)", -3),
    ("extent-example.btrop.model", "[b](X)", 7),  # above the bound 6
    ("deadlock.bool.model", "[b](X)", 2),
])
def test_valuation_outside_the_carrier_is_an_evaluation_error(name, formula, bad):
    # a value the semiring does not contain is refused, naming the
    # variable and the state, before any computation on it
    m = load_corpus_model(name)
    f = parse_formula(formula, m.signature, m.descriptor)
    good = dict.fromkeys(m.states, m.semiring.one)
    with pytest.raises(EvaluationError, match=r"^valuation for 'X' at state 'y' is "):
        eval_formula(m, f, {"X": {**good, "y": bad}})


def test_prob_valuation_of_another_type_is_an_evaluation_error(extent_prob, default_digit_limit):
    # negative values and strings are refused too, where a string raised
    # a bare AttributeError, and so is a value too long to print, where
    # echoing it raised ValueError
    f = parse_formula("[b](X)", extent_prob.signature, extent_prob.descriptor)
    for bad in (-1, Fraction(-1, 2), "1/2", Fraction(10**5000)):
        with pytest.raises(EvaluationError, match="^valuation for 'X' at state 'x' is "):
            eval_formula(extent_prob, f, {"X": dict.fromkeys(extent_prob.states, bad)})


def test_unbound_variable():
    m = parse_model("semiring bool label a/1 state x { 1 a -> x }")
    with pytest.raises(EvaluationError, match="unbound"):
        eval_formula(m, Var("Q"))


# ---------------------------------------------------------------------------
# evaluation clauses


def test_eval_formula_examples_tropical(extent_trop):
    f = parse_formula("mu X. ([a](T) | [b](X) | [c](X))",
                      extent_trop.signature, extent_trop.descriptor)
    # cheapest run: prefix cost 2+1 via a then b, or direct b at cost 1,
    # followed by the free c-cycle on z; the a-step then maximal-trace
    # continuation costs 2 + extent(y) = 3 from x
    assert eval_formula(extent_trop, f) == {"x": 3, "y": 3, "z": 3}


def test_eval_deadlock_modalities(deadlock_bool):
    sig, d = deadlock_bool.signature, deadlock_bool.descriptor
    assert eval_formula(deadlock_bool, parse_formula("[b](T)", sig, d)) == {"x": 0, "y": 0}
    assert eval_formula(deadlock_bool, parse_formula("[a](T)", sig, d)) == {"x": 0, "y": 0}
    assert eval_formula(deadlock_bool, parse_formula("T", sig, d)) == {"x": 0, "y": 0}


def test_offset_configurations(corpus_models):
    phi = "nu X. mu Y. ([a](X) | [b](Y))"
    plain = corpus_models["offset-plain.trop.model"]
    at_s = corpus_models["offset-s.trop.model"]
    at_t = corpus_models["offset-t.trop.model"]
    ev = lambda m: eval_formula(m, parse_formula(phi, m.signature, m.descriptor))
    assert ev(plain) == {"s": INF, "t": INF}
    assert ev(at_s) == {"s": 0, "t": 0}
    assert ev(at_t) == {"s": 1, "t": 0}


def test_offset_neutrality(corpus_models):
    # forcing all offsets to the unit recovers the plain semantics
    phi = "nu X. mu Y. ([a](X) | [b](Y))"
    at_s = corpus_models["offset-s.trop.model"]
    plain = corpus_models["offset-plain.trop.model"]
    forced = at_s.with_offsets({s: at_s.semiring.one for s in at_s.states})
    assert forced.is_plain
    f = parse_formula(phi, plain.signature, plain.descriptor)
    assert eval_formula(forced, f) == eval_formula(plain, f)


def test_weighted_sum_scaling_coherence(extent_prob):
    # the weighted-sum clause agrees with an independent per-state fold
    sig, d = extent_prob.signature, extent_prob.descriptor
    parts = [(Fraction(1, 3), "[a](T)"), (Fraction(1, 2), "[b](T)"), (Fraction(1, 6), "T")]
    whole = parse_formula("1/3*[a](T) + 1/2*[b](T) + 1/6*T", sig, d)
    v = eval_formula(extent_prob, whole)
    sr = extent_prob.semiring
    pieces = [(c, eval_formula(extent_prob, parse_formula(t, sig, d))) for c, t in parts]
    for s in extent_prob.states:
        fold = sr.sum([sr.times(c, p[s]) for c, p in pieces])
        assert v[s] == fold


def test_empty_weighted_sum_is_zero(extent_prob):
    sig, d = extent_prob.signature, extent_prob.descriptor
    assert eval_formula(extent_prob, parse_formula("F", sig, d)) == \
        {s: Fraction(0) for s in extent_prob.states}


# ---------------------------------------------------------------------------
# top-as-extent: two code paths (criterion 5 exercises this at scale)


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(sorted(DESCRIPTORS)))
@settings(max_examples=50, deadline=None)
def test_top_equals_extent_two_paths(seed, kind):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind])
    cfg = EvalConfig()
    via_formula = eval_formula(m, parse_formula("T", m.signature, m.descriptor), cfg=cfg)
    via_extent = nu_extent(m, cfg)
    if kind == "probabilistic":
        assert all(abs(via_formula[s] - via_extent[s]) < EPS for s in m.states)
    else:
        assert via_formula == via_extent


def test_top_under_binder_is_the_extent(extent_prob):
    # T inside a binder's body is the greatest extent itself, bit for bit,
    # not a second chain run to a different stop
    m = extent_prob
    with_top = parse_formula("mu X. ([a](T) | [b](X) | [c](X))", m.signature, m.descriptor)
    with_var = parse_formula("mu X. ([a](V) | [b](X) | [c](X))", m.signature, m.descriptor)
    assert eval_formula(m, with_top) == eval_formula(m, with_var, {"V": nu_extent(m)})


def test_full_signature_mu_formula_is_the_least_extent(extent_prob, extent_trop):
    # the least fixpoint of one-step unfolding over the whole signature
    # measures completed runs, i.e. the least extent, through the formula
    # pipeline
    text = "mu X. ([*] | [a](X) | [b](X) | [c](X))"
    for m in (extent_prob, extent_trop):
        f = parse_formula(text, m.signature, m.descriptor)
        v = eval_formula(m, f)
        e = mu_extent(m)
        if m.descriptor.kind == "probabilistic":
            assert all(abs(v[s] - e[s]) < EPS for s in m.states)
        else:
            assert v == e


def _outcome(run):
    """("ok", values) or, when the chain hits the bound, ("nonconvergence",
    iterations)."""
    try:
        return "ok", run()
    except NonConvergence as e:
        return "nonconvergence", e.iterations


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(sorted(DESCRIPTORS)))
@example(seed=5117, kind="probabilistic")  # critical branching: both decide 1
@settings(max_examples=40, deadline=None)
def test_full_signature_mu_formula_random(seed, kind):
    # bounded, so that a near-critical branching model whose value is below
    # 1 (the qualitative pass decides the critical ones) ends in
    # NonConvergence within a second, not a minute
    from semimc import Mu
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind])
    unfold = Mu("X", Modal(tuple(
        (l.name, tuple(Var("X") for _ in range(l.arity)))
        for l in m.signature.labels)))
    cfg = EvalConfig(max_iterations=10_000)
    v_kind, v = _outcome(lambda: eval_formula(m, unfold, cfg=cfg))
    e_kind, e = _outcome(lambda: mu_extent(m, cfg))
    assert v_kind == e_kind
    if v_kind == "ok" and kind == "probabilistic":
        assert all(abs(v[s] - e[s]) < EPS for s in m.states)
    else:
        assert v == e


CRITICAL_BRANCHING = """semiring prob
label l0/2 label l1/1 label l2/0
state s0 { 1/5 l0 -> s0 s0; 3/5 l1 -> s0; 1/5 l2 }"""


def test_critical_branching_mu_is_one():
    # x = x²/5 + 3x/5 + 1/5 has the double root 1: Kleene from 0 converges
    # like 1/n, the qualitative pass decides 1
    m = parse_model(CRITICAL_BRANCHING)
    assert close(mu_extent(m, EvalConfig(max_iterations=10_000)), {"s0": 1})


def _one_states(text: str) -> dict:
    """The qualitative pass on the mu extent of the model in `text`."""
    import semimc._qualitative as qualitative
    cm = parse_model(text).compiled
    x = evaluator._Poly((1, {(i,): 1}) for i in range(len(cm.states)))
    terms = evaluator._step_terms(cm, [(x,) * cm.max_arity] * len(cm.label_ids))
    return dict(zip(cm.states, qualitative.one_states(terms)))


BRANCHING = "semiring prob label f/2 label e/0 state x { %s f -> x x; %s e }"


@pytest.mark.parametrize("split, exit, value", [
    # supercritical: P(1) = 1 but P'(1) = 3/2, the least root is 1/3
    ("3/4", "1/4", Fraction(1, 3)),
    # deficient: P(1) = 3/4, the least root is 1 - 1/sqrt(2)
    ("1/2", "1/4", 1 - 2 ** -0.5),
])
def test_branching_state_below_one_is_not_marked(split, exit, value):
    text = BRANCHING % (split, exit)
    assert _one_states(text) == {"x": False}
    res = mu_extent_result(parse_model(text))
    assert abs(res.values["x"] - Fraction(value)) < EPS
    assert res.report.iterations > 1


def test_unproductive_branching_state_is_zero_on_the_first_step():
    # x = x^2: no run tree is finite, so 0, and the chain from 0 stays there
    m = parse_model("semiring prob label f/2 state x { 1 f -> x x }")
    assert _one_states("semiring prob label f/2 state x { 1 f -> x x }") == {"x": False}
    res = mu_extent_result(m)
    assert res.values == {"x": 0}
    assert (res.report.iterations, res.report.last_delta, res.report.tail_bound) == (1, 0, 0)


def test_states_upstream_of_a_deficient_or_supercritical_component_are_not_one():
    # c is critical (value 1) and u only depends on it; v depends on the
    # deficient d and w on the supercritical s, so both are below 1, and so
    # is y, which depends on v through a critical-looking self-loop
    text = ("semiring prob label f/2 label a/1 label e/0 "
            "state c { 1/2 f -> c c; 1/2 e } state u { 1/2 f -> u c; 1/2 e } "
            "state d { 1/2 e } state v { 1/2 f -> v d; 1/2 e } "
            "state s { 3/4 f -> s s; 1/4 e } state w { 1/2 f -> w s; 1/2 a -> c } "
            "state y { 1/2 f -> y y; 1/4 a -> v; 1/4 e }")
    assert _one_states(text) == {"c": True, "u": True, "d": False, "v": False,
                                 "s": False, "w": False, "y": False}
    res = mu_extent_result(parse_model(text))
    assert res.values["c"] == res.values["u"] == 1
    assert all(res.values[s] < 1 for s in "dvswy")


# x = 3/4 y^2 + 1/4 and y = 2/3 x + 1/3: P'(1) = [[0, 3/2], [2/3, 0]] has
# a row sum above 1 but spectral radius 1, so only the minor test decides 1
TWO_CYCLE = ("semiring prob label f/2 label a/1 label e/0 "
             "state x { 3/4 f -> y y; 1/4 e } state y { 2/3 a -> x; 1/3 e }")


def test_critical_component_with_a_row_sum_above_one_is_one(monkeypatch):
    import semimc._qualitative as qualitative
    assert _one_states(TWO_CYCLE) == {"x": True, "y": True}
    assert mu_extent(parse_model(TWO_CYCLE)) == {"x": 1, "y": 1}
    # past the size bound of the minor test the component is undecided,
    # and its chain from 0 converges like 1/n
    monkeypatch.setattr(qualitative, "_ELIMINATED", 1)
    assert _one_states(TWO_CYCLE) == {"x": False, "y": False}
    with pytest.raises(NonConvergence):
        mu_extent(parse_model(TWO_CYCLE), EvalConfig(max_iterations=1000))


def _ring_rows(n: int, head: Fraction, tail: Fraction) -> list:
    """The qualitative pass's rows (den, {monomial: num}) of a ring of n
    states: s0 = head * s1^2 + (1 - head), and each other state
    s_i = tail * s_(i+1) + (1 - tail), with s0 after the last one."""
    def row(p: Fraction, monomial: tuple) -> tuple:
        nums = {monomial: p.numerator}
        if p < 1:
            nums[()] = p.denominator - p.numerator
        return p.denominator, nums
    return [row(head, (1, 1))] + [row(tail, ((i + 1) % n,)) for i in range(1, n)]


def test_minor_test_runs_on_a_component_of_exactly_eliminated_states():
    import semimc._qualitative as qualitative
    # s0 = 3/4 s1^2 + 1/4 has a row sum of P'(1) of 3/2, so only
    # `m_matrix` decides that the ring is subcritical (the product of the
    # row sums around it is 3/2 * 2^-(n-1)); one state more and it is not run
    n = qualitative._ELIMINATED
    assert qualitative.one_states(_ring_rows(n, Fraction(3, 4), Fraction(1, 2))) == [True] * n
    assert qualitative.one_states(_ring_rows(n + 1, Fraction(3, 4), Fraction(1, 2))) == [False] * (n + 1)


def test_row_sum_bound_decides_a_critical_component_past_the_minor_test():
    import semimc._qualitative as qualitative
    # s0 = 1/2 s1^2 + 1/2 and s_i = s_(i+1): every row sum of P'(1) is 1,
    # so the bound alone decides 1 past `_ELIMINATED` states, where the
    # chain from 0 converges like 1/n and hits any iteration cap
    n = qualitative._ELIMINATED + 1
    assert qualitative.one_states(_ring_rows(n, Fraction(1, 2), Fraction(1))) == [True] * n


def test_decided_binder_stabilises_on_its_first_step(monkeypatch):
    # mu X. ([s](X, X) | [e]) on x = 1/2 x^2 + 1/2: the chain starts at 1
    chains = []

    def recording(*args, **kwargs):
        res = kleene(*args, **kwargs)
        chains.append((args[2], res.report.iterations, res.report.last_delta,
                       res.report.tail_bound))
        return res

    monkeypatch.setattr(evaluator, "kleene", recording)
    m = parse_model("semiring prob label s/2 label e/0 state x { 1/2 s -> x x; 1/2 e }")
    f = parse_formula("mu X. ([s](X, X) | [e])", m.signature, m.descriptor)
    assert eval_formula(m, f) == mu_extent(m) == {"x": 1}
    assert chains == [([(1, 1)], 1, 0, 0)] * 2


def test_product_past_the_cap_runs_the_plain_chain(monkeypatch):
    # x = 1/2 (1/2 x^2 + 1/2) x + 1/2 is critical (P(1) = P'(1) = 1); its
    # product [s](X, X) | [e] times X has 2 terms, past a cap of 1, so the
    # block is not decided and its chain from 0 hits the bound
    m = parse_model("semiring prob label s/2 label e/0 state x { 1/2 s -> x x; 1/2 e }")
    f = parse_formula("mu X. ([s]([s](X, X) | [e], X) | [e])", m.signature, m.descriptor)
    cfg = EvalConfig(max_iterations=100)
    assert eval_formula(m, f, cfg=cfg) == {"x": 1}
    monkeypatch.setattr(evaluator, "_PRODUCT_CAP", 1)
    with pytest.raises(NonConvergence):
        eval_formula(m, f, cfg=cfg)


def _random_branching(rng: random.Random) -> str:
    """A prob model on up to 4 states with labels of arity 0 to 2, whose
    states keep all their mass two times in three, so that states of
    value 1 are common."""
    n = rng.randint(1, 4)
    lines = ["semiring prob label e/0 label a/1 label f/2"]
    for i in range(n):
        k = rng.randint(1, 3)
        den = rng.randint(k + 1, 8)
        mass = den if rng.random() < 2 / 3 else rng.randint(k, den - 1)
        cuts = sorted(rng.sample(range(1, mass), k - 1)) if k > 1 else []
        parts = [b - a for a, b in zip([0] + cuts, cuts + [mass])]
        trans = []
        for w in parts:
            arity = rng.randint(0, 2)
            succs = " ".join(f"s{rng.randrange(n)}" for _ in range(arity))
            trans.append(f"{w}/{den} {'eaf'[arity]}" + (f" -> {succs}" if arity else ""))
        lines.append(f"state s{i} {{ {'; '.join(trans)} }}")
    return "\n".join(lines)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_seeded_branching_chain_matches_the_plain_chain(seed):
    # wherever the chain from 0 converges within the bound, the extent and
    # the full-signature binder, both started at the states of value 1,
    # agree with it, and those states are at 1 on it
    text = _random_branching(random.Random(seed))
    m = parse_model(text)
    cm, cfg = m.compiled, EvalConfig(max_iterations=2000)
    try:
        plain = kleene(PROB, cm.extent_step, PROB.pack([Fraction(0)] * len(cm.states)), "lfp", cfg)
    except NonConvergence:
        return
    plain = dict(zip(cm.states, PROB.unpack(plain.values)))
    unfold = Mu("X", Modal(tuple((l.name, tuple(Var("X") for _ in range(l.arity)))
                                 for l in m.signature.labels)))
    tol = Fraction(1, 10**6)
    for seeded in (mu_extent(m, cfg), eval_formula(m, unfold, cfg=cfg)):
        assert all(abs(seeded[s] - plain[s]) < tol for s in m.states)
    assert all(plain[s] > 1 - tol for s, one in _one_states(text).items() if one)


def test_always_a_is_zero_on_counterexample(counterexample_prob):
    # no state can keep emitting a forever: each a lands in a state
    # without an a-transition
    m = counterexample_prob
    f = parse_formula("nu X. [a](X)", m.signature, m.descriptor)
    assert eval_formula(m, f) == {s: 0 for s in m.states}


def test_penalty_weighted_sum_diverges(extent_trop):
    # one unit of penalty per non-a step: the only a-transition leads away
    # from x and every return costs at least one, so the long-run value
    # grows without bound and promotion yields infinity
    m = extent_trop
    f = parse_formula("nu X. mu Y. (0*[a](X) + 1*([b](Y) | [c](Y)))",
                      m.signature, m.descriptor)
    assert eval_formula(m, f) == {s: INF for s in m.states}


# ---------------------------------------------------------------------------
# monotonicity in the valuation


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(sorted(DESCRIPTORS)))
@example(seed=328, kind="probabilistic")  # off-grid iterate next to the grid
@settings(max_examples=40, deadline=None)
def test_valuation_monotonicity_fixpoint_free(seed, kind):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], max_states=4)
    sr = m.semiring
    body = random_qualitative_formula(rng, m.signature, max_size=8, max_fnd=0,
                                      max_modal_depth=2)
    # sprinkle the variable into a modal argument to make it matter
    guard = Modal(tuple((l.name, tuple(Var("V") for _ in range(l.arity)))
                        for l in m.signature.labels))
    lo = {s: sr.zero for s in m.states}
    hi = nu_extent(m)
    for f in (guard, body):
        vlo = eval_formula(m, f, valuation={"V": lo})
        vhi = eval_formula(m, f, valuation={"V": hi})
        assert leq_pointwise(sr, vlo, vhi)


@given(st.integers(min_value=0, max_value=10**9),
       st.sampled_from(["boolean", "bounded_tropical", "tropical"]))
@settings(max_examples=30, deadline=None)
def test_valuation_monotonicity_with_fixpoints(seed, kind):
    # valuations bounded by the extent keep the greatest-fixpoint seed valid
    from semimc import Mu, Nu
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], max_states=4)
    sr = m.semiring
    ext = nu_extent(m)
    lo = {s: sr.zero for s in m.states}
    mid = {s: (ext[s] if rng.random() < 0.5 else sr.zero) for s in m.states}
    guard = Modal(tuple((l.name, tuple(Var("V") for _ in range(l.arity)))
                        for l in m.signature.labels))
    for binder in (Mu, Nu):
        g = binder("W", guard)  # W unused: fixpoint of a constant operator
        vlo = eval_formula(m, g, valuation={"V": lo})
        vmid = eval_formula(m, g, valuation={"V": mid})
        assert leq_pointwise(sr, vlo, vmid)


# ---------------------------------------------------------------------------
# approximant convergence (exact on finite carriers)


@given(st.integers(min_value=0, max_value=10**9),
       st.sampled_from(["boolean", "bounded_tropical"]))
@settings(max_examples=30, deadline=None)
def test_approximants_reach_fixpoint_exactly(seed, kind):
    from semimc import unroll
    from semimc.logic import size as formula_size
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], max_states=3, max_labels=3, max_arity=1)
    f = random_qualitative_formula(rng, m.signature, max_size=7, max_fnd=1,
                                   max_modal_depth=2)
    target = eval_formula(m, f)
    for k in range(12):
        u = unroll(f, k)
        if formula_size(u) > 5_000:
            return  # unrolling outgrew the budget before stabilising
        if eval_formula(m, u) == target:
            return
    pytest.fail("approximants did not stabilise within 12 unrollings")


def test_nested_alternation_probabilistic(counterexample_prob):
    # infinitely-often a: every state returns to its a-emitting partner
    # with probability one and tries a afresh each visit, so the
    # greatest-least alternation converges to one everywhere.  The inner
    # mu is nested, so it runs to exact stabilisation on the grid (943
    # steps); stopped on epsilon instead, its noise keeps the outer nu
    # from converging within 1000 iterations
    m = counterexample_prob
    f = parse_formula("nu X. mu Y. ([a](X) | [b](Y) | [c](Y))",
                      m.signature, m.descriptor)
    v = eval_formula(m, f, cfg=EvalConfig(max_iterations=1000))
    for s in m.states:
        assert abs(v[s] - 1) < EPS


def test_nested_alternation_eventually_always(counterexample_prob):
    # almost no run settles into b forever: the inner greatest fixpoint
    # decays to zero, and the outer least fixpoint follows it
    m = counterexample_prob
    f = parse_formula("mu X. ([a](X) | [c](X) | [b](nu Y. [b](Y)))",
                      m.signature, m.descriptor)
    v = eval_formula(m, f)
    for s in m.states:
        assert abs(v[s]) < Fraction(1, 10**6)


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(sorted(DESCRIPTORS)))
@settings(max_examples=25, deadline=None)
def test_alternating_fixpoints_terminate_and_stay_bounded(seed, kind):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], max_states=4, max_labels=3)
    f = random_qualitative_formula(rng, m.signature, max_size=10, max_fnd=2,
                                   max_modal_depth=2)
    sr = m.semiring
    v = eval_formula(m, f)
    ext = nu_extent(m)
    for s in m.states:
        assert sr.contains(v[s]) or v[s] == sr.zero
        assert sr.leq(v[s], ext[s])


def test_probabilistic_offsets_parse_and_evaluate():
    # an offset of 1/2 doubles the next step's mass, capped at one
    m = parse_model("semiring prob label halt/0 label go/1 "
                    "state s { 1/2 go -> t } state t { 1/2 halt } "
                    "offset s = 1/2")
    assert not m.is_plain
    ext = nu_extent(m)
    # t: (1/2 * 1) / 1 = 1/2; s: (1/2 * 1/2) / (1/2) = 1/2
    assert ext["t"] == Fraction(1, 2)
    assert ext["s"] == Fraction(1, 2)
    f = parse_formula("[go](T)", m.signature, m.descriptor)
    assert eval_formula(m, f)["s"] == Fraction(1, 2)


def test_approximants_converge_probabilistic(extent_prob):
    # unrolled trees double in size per step here, so convergence is
    # asserted as a strictly shrinking distance at tractable depths
    from semimc import unroll
    f = parse_formula("mu X. ([a](T) | [b](X) | [c](X))",
                      extent_prob.signature, extent_prob.descriptor)
    target = eval_formula(extent_prob, f)
    dist = []
    for k in (0, 4, 8, 12):
        approx = eval_formula(extent_prob, unroll(f, k))
        dist.append(max(abs(approx[s] - target[s]) for s in extent_prob.states))
    assert all(a > b for a, b in zip(dist, dist[1:]))
    assert dist[-1] < Fraction(1, 100)


def _sorted_rows(cm) -> list:
    """The extent's rows as `_poly` formed them before one-successor
    monomials skipped sorting and merging stopped using `dict.get`."""
    out = []
    for row in cm.rows:
        terms = [(n, d, tuple(sorted([s for _, s in succs]))) for (n, d), _, succs in row]
        den, nums = lcm(*[d for _, d, _ in terms]), {}
        for n, d, m in terms:
            nums[m] = nums.get(m, 0) + n * (den // d)
        out.append((den, {m: n for m, n in nums.items() if n}))
    return out


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_extent_rows_match_the_sorted_form(seed):
    # the rows `_extent` hands to `_solve_block`, key order included, are
    # those of the sorted comprehension on random offset-free prob models
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["probabilistic"], max_states=6, max_arity=3, max_out=4)
    seen = []
    solve = evaluator._solve_block

    def spy(cm, op, rows, *args, **kwargs):
        seen.append(rows)
        return solve(cm, op, rows, *args, **kwargs)

    evaluator._solve_block = spy
    try:
        evaluator._extent(m, EvalConfig(), "lfp")
    finally:
        evaluator._solve_block = solve
    (rows,) = seen
    assert [(den, list(nums.items())) for den, nums in rows] == \
        [(den, list(nums.items())) for den, nums in _sorted_rows(m.compiled)]
