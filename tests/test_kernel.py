"""The compiled model form and the transition-step kernels.

The kernel runs on the semiring's kernel form (`Semiring.pack`): integer
pairs on the probabilistic semiring, the trop[0] value on bool (1 as 0,
0 as INF), which runs on the tropical kernel, and the scalars themselves
on the tropical family.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from semimc import (INF, UNDEFINED, EvaluationError, Label, Model, Signature,
                    Transition, ValidationError, eval_formula, mu_extent, nu_extent,
                    parse_formula)
from semimc.logic import Mu, Var, WeightedSum
from randgen import DESCRIPTORS, carrier_values, random_model


def naive_step(model, args):
    """The transition operator as a fold of semiring method calls; `args`
    maps a label to one name-keyed predicate per argument position."""
    sr = model.semiring
    out = {}
    for c in model.states:
        terms = []
        for t in model.transitions[c]:
            if t.label not in args:
                continue
            v = t.weight
            for pred, s in zip(args[t.label], t.successors):
                v = sr.times(v, pred[s])
            terms.append(v)
        total = sr.sum(terms)
        assert total is not UNDEFINED
        out[c] = sr.oslash(total, model.offsets[c])
    return out


def random_offsets(rng, model):
    """Offsets on about half the states, with INF on the tropical family."""
    d = model.descriptor
    offsets = {}
    for s in model.states:
        if rng.random() < 0.5:
            if d.kind in ("tropical", "bounded_tropical") and rng.random() < 0.3:
                offsets[s] = INF
            else:
                offsets[s] = carrier_values(d, rng, 1)[0]
    return model.with_offsets(offsets)


def check_kernel_form(kind, out):
    # prob values are pairs (n, d) in lowest terms with 0 <= n <= d, so
    # the evaluator's grid test sees the normalised denominator
    if kind == "probabilistic":
        for v in out:
            n, d = v
            assert type(n) is int and type(d) is int and 0 <= n <= d and gcd(n, d) == 1, v


@pytest.mark.parametrize("kind", sorted(DESCRIPTORS))
def test_step_matches_naive_fold_on_random_models(kind):
    rng = random.Random(f"kernel:{kind}")
    d = DESCRIPTORS[kind]
    deadlocks = unit_offsets = infinite = 0
    for _ in range(150):
        m = random_offsets(rng, random_model(rng, d, max_states=5, max_arity=3))
        cm = m.compiled
        deadlocks += bool(m.deadlock_states())
        unit_offsets += len(m.states) - len(cm.offset_ids)
        # a random subset of labels, each with its own argument predicates
        args = {}
        for l in m.signature.labels:
            if rng.random() < 0.75:
                args[l.name] = tuple(dict(zip(m.states, carrier_values(d, rng, len(m.states))))
                                     for _ in range(l.arity))
        want = naive_step(m, args)
        kernel_args = [None] * len(cm.label_ids)
        for name, preds in args.items():
            kernel_args[cm.label_ids[name]] = tuple(m.semiring.pack([p[s] for s in m.states])
                                                    for p in preds)
        out = cm.step(kernel_args)
        check_kernel_form(kind, out)
        got = dict(zip(m.states, m.semiring.unpack(out)))
        assert got == want, (m, args)
        infinite += INF in got.values()
        # the extent operator is the step with every label, all arguments p
        p = dict(zip(m.states, carrier_values(d, rng, len(m.states))))
        everything = {l.name: (p,) * l.arity for l in m.signature.labels}
        x = m.semiring.pack([p[s] for s in m.states])
        if kind == "probabilistic":  # inputs need not be in lowest terms
            x = [(3 * n, 3 * d) for n, d in x]
        out = cm.extent_step(x)
        check_kernel_form(kind, out)
        assert m.semiring.unpack(out) == list(naive_step(m, everything).values())
    assert deadlocks and unit_offsets
    if kind in ("tropical", "bounded_tropical"):
        assert infinite


def test_prob_weighted_sum_on_pairs():
    # the WeightedSum clause on the prob kernel form: per state the exact
    # sum of c * p, as a pair in lowest terms, or an error above 1
    rng = random.Random("kernel:weighted-sum")
    d = DESCRIPTORS["probabilistic"]
    undefined = 0
    for _ in range(100):
        m = random_model(rng, d, max_states=5, max_arity=1)
        cm, sr, n = m.compiled, m.semiring, len(m.states)
        terms = [(c, carrier_values(d, rng, n)) for c in carrier_values(d, rng, rng.randint(1, 3))]
        want = [sum(c * p[i] for c, p in terms) for i in range(n)]
        # inputs need not be in lowest terms
        packed = [(c, [(2 * a, 2 * b) for a, b in sr.pack(p)]) for c, p in terms]
        if max(want) > 1:
            undefined += 1
            with pytest.raises(EvaluationError, match="weighted sum undefined at state"):
                sr.weighted_sum(cm, packed)
            continue
        out = sr.weighted_sum(cm, packed)
        check_kernel_form("probabilistic", out)
        assert sr.unpack(out) == want
    assert undefined


def naive_weighted_sum(sr, terms, n):
    """The WeightedSum clause as a fold of semiring method calls on
    public scalars."""
    return [sr.sum([sr.times(c, p[i]) for c, p in terms]) for i in range(n)]


@pytest.mark.parametrize("kind", ["boolean", "tropical", "bounded_tropical"])
def test_tropical_weighted_sum_matches_naive_fold(kind):
    # one kernel serves bool, trop and trop[5]: coefficients packed, the
    # sum saturating past the bound; INF occurs on both sides of a product
    rng = random.Random(f"kernel:weighted-sum:{kind}")
    d = DESCRIPTORS[kind]
    saturated = 0
    for _ in range(300):
        m = random_model(rng, d, max_states=5, max_arity=1)
        cm, sr, n = m.compiled, m.semiring, len(m.states)
        terms = [(c, carrier_values(d, rng, n)) for c in carrier_values(d, rng, rng.randint(0, 3))]
        want = naive_weighted_sum(sr, terms, n)
        out = sr.weighted_sum(cm, [(c, sr.pack(p)) for c, p in terms])
        assert sr.unpack(out) == want, terms
        saturated += any(INF not in (c, v) and sr.times(c, v) == INF for c, p in terms for v in p)
    if kind == "bounded_tropical":
        assert saturated


SIG = Signature((Label("a", 1), Label("b", 1)))


def test_inf_offset_on_inf_sum_stays_inf():
    # a deadlock sums to INF, and oslash(INF, INF) == INF
    m = Model(DESCRIPTORS["tropical"], SIG, ("x",), {"x": []}, {"x": INF})
    assert m.compiled.extent_step([0]) == [INF]


def test_prob_sum_above_one_raises():
    bad = Model(DESCRIPTORS["probabilistic"], SIG, ("x",),
                {"x": [Transition(Fraction(3, 4), "a", ("x",)),
                       Transition(Fraction(3, 4), "b", ("x",))]})
    with pytest.raises(EvaluationError, match="transition sum undefined at state 'x'"):
        nu_extent(bad)
    modal = parse_formula("[a](X) | [b](X)", SIG, bad.descriptor)
    with pytest.raises(EvaluationError, match="transition sum undefined at state 'x'"):
        eval_formula(bad, modal, {"X": {"x": Fraction(1)}})


_HALF_MODAL = "mu X. 1/2 * ([a](X) | [b](X)) + 1/2 * Z"
# mu X. 1/2 * (3/4 * X + 3/4 * Z), built past the parser's coefficient check
_HALF_SUM = Mu("X", WeightedSum(((Fraction(1, 2), WeightedSum(
    ((Fraction(3, 4), Var("X")), (Fraction(3, 4), Var("Z"))))),)))


@pytest.mark.parametrize("formula, z, message", [
    # A 1 + c = 5/4 > 1: the system's solution, x = 2, is outside the carrier
    (_HALF_MODAL, Fraction(1), "transition sum"),
    # A 1 + c = 1, solution x = 1, where the modality sums to 3/2
    (_HALF_MODAL, Fraction(1, 2), "transition sum"),
    # A 1 + c = 3/4, solution x = 3/5, where the inner sum is 6/5
    (_HALF_SUM, Fraction(1), "weighted sum"),
], ids=["modal-z1", "modal-z1/2", "inner-sum"])
def test_prob_binder_with_row_mass_above_one_iterates(formula, z, message):
    # the bodies are affine in X, but on this invalid model (row mass 3/2)
    # or formula a sum inside them passes 1 at X = 1: the chain runs
    # instead of the exact solver, and raises once that sum passes 1
    bad = Model(DESCRIPTORS["probabilistic"], SIG, ("x",),
                {"x": [Transition(Fraction(3, 4), "a", ("x",)),
                       Transition(Fraction(3, 4), "b", ("x",))]})
    if isinstance(formula, str):
        formula = parse_formula(formula, SIG, bad.descriptor)
    with pytest.raises(EvaluationError, match=f"{message} undefined at state 'x'"):
        eval_formula(bad, formula, {"Z": {"x": z}})


def test_prob_mu_extent_with_row_mass_above_one_iterates():
    # x = 3/4 x + 3/4 solves to 3, outside the carrier: the exact solver
    # declines (A 1 + c = 3/2) and the chain raises at its second step
    sig = Signature((Label("a", 1), Label("e", 0)))
    bad = Model(DESCRIPTORS["probabilistic"], sig, ("x",),
                {"x": [Transition(Fraction(3, 4), "a", ("x",)),
                       Transition(Fraction(3, 4), "e", ())]})
    with pytest.raises(EvaluationError, match="transition sum undefined at state 'x'"):
        mu_extent(bad)


def test_evaluating_programmatic_breakage_is_a_validation_error(extent_prob):
    bad = Model(extent_prob.descriptor, extent_prob.signature, ("x",),
                {"x": [Transition(Fraction(1, 2), "a", ("w",))]})
    with pytest.raises(ValidationError, match="undeclared successor"):
        nu_extent(bad)

