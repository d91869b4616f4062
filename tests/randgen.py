"""Seeded random models and formulas for property and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from semimc import (BOT, TOP, Label, Modal, Model, Mu, Nu, Signature,
                    SemiringDescriptor, Transition, Var, semiring_for, unroll)
from semimc.logic import modal_depth
from semimc.path_oracle import count_fragments
from semimc.semiring import INF


def random_signature(rng: random.Random, max_labels: int = 4, max_arity: int = 2) -> Signature:
    n = rng.randint(1, max_labels)
    labels = []
    for i in range(n):
        arity = rng.randint(0, max_arity)
        labels.append(Label(f"l{i}", arity))
    # a nullary label makes completed runs possible in most samples
    if all(l.arity > 0 for l in labels) and rng.random() < 0.7:
        labels[0] = Label("l0", 0)
    return Signature(tuple(labels))


def _prob_weights(rng: random.Random, count: int) -> list[Fraction]:
    den = rng.randint(max(2, count), 12)
    cuts = sorted(rng.sample(range(1, den), count - 1)) if count > 1 else []
    parts = []
    prev = 0
    for c in cuts + [rng.randint(cuts[-1] + 1 if cuts else 1, den)]:
        parts.append(Fraction(c - prev, den))
        prev = c
    return parts[:count]


def random_model(rng: random.Random, descriptor: SemiringDescriptor,
                 max_states: int = 5, max_labels: int = 4, max_arity: int = 2,
                 max_out: int = 3, allow_offsets: bool = False) -> Model:
    semiring = semiring_for(descriptor)
    signature = random_signature(rng, max_labels, max_arity)
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    transitions: dict[str, list[Transition]] = {}
    for st in states:
        k = rng.randint(0, max_out)
        seen = set()
        outs: list[Transition] = []
        if descriptor.kind == "probabilistic" and k:
            weights = _prob_weights(rng, k)
        for i in range(k):
            label = rng.choice(signature.labels)
            succs = tuple(rng.choice(states) for _ in range(label.arity))
            if (label.name, succs) in seen:
                continue
            seen.add((label.name, succs))
            if descriptor.kind == "probabilistic":
                w = weights[i]
            elif descriptor.kind == "boolean":
                w = 1
            elif descriptor.kind == "tropical":
                w = rng.randint(0, 6)
            else:
                w = rng.randint(0, descriptor.bound)
            if w == semiring.zero:
                w = semiring.one if semiring.one != semiring.zero else w
            outs.append(Transition(w, label.name, succs))
        transitions[st] = outs
    offsets = {}
    if allow_offsets and descriptor.kind in ("tropical", "bounded_tropical"):
        for st in states:
            if rng.random() < 0.4:
                offsets[st] = rng.randint(0, 3 if descriptor.kind == "tropical" else descriptor.bound)
    return Model(descriptor, signature, states, transitions, offsets)


def random_qualitative_formula(rng: random.Random, signature: Signature,
                               max_size: int = 12, max_fnd: int = 2,
                               max_modal_depth: int = 3):
    """Closed formula of the qualitative fragment (T, F, disjunctive
    modalities, fixpoints) within the given size and nesting budgets."""
    fresh = iter(f"X{i}" for i in range(100))

    def go(budget: int, fnd_left: int, md_left: int, scope: tuple[str, ...]):
        choices = ["leaf"]
        if budget >= 2 and md_left > 0:
            choices += ["modal"] * 3
        if budget >= 2 and fnd_left > 0:
            choices += ["fix"]
        kind = rng.choice(choices)
        if kind == "leaf":
            if scope and rng.random() < 0.5:
                return Var(rng.choice(scope)), 1
            return (TOP if rng.random() < 0.5 else BOT), 1
        if kind == "fix":
            var = next(fresh)
            body, used = go(budget - 1, fnd_left - 1, md_left, scope + (var,))
            cls = Mu if rng.random() < 0.5 else Nu
            return cls(var, body), used + 1
        # modal: distinct labels, each with arity-matching arguments
        labels = list(signature.labels)
        rng.shuffle(labels)
        count = rng.randint(1, min(len(labels), 2))
        disjuncts = []
        used = 1
        for label in labels[:count]:
            args = []
            for _ in range(label.arity):
                sub, u = go(max(1, (budget - used) // max(1, label.arity)),
                            fnd_left, md_left - 1, scope)
                args.append(sub)
                used += u
            disjuncts.append((label.name, tuple(args)))
        return Modal(tuple(disjuncts)), used

    f, _ = go(max_size, max_fnd, max_modal_depth, ())
    return f


def pick_unroll(model: Model, phi, cap: int = 50_000, max_k: int = 3) -> int:
    """The deepest unrolling k <= max_k of `phi` whose path enumeration
    stays within `cap` fragments from every state; 0 if none does."""
    for k in range(max_k, 0, -1):
        depth = modal_depth(unroll(phi, k))
        if all(count_fragments(model, s, depth, cap) <= cap for s in model.states):
            return k
    return 0


DESCRIPTORS = {
    "boolean": SemiringDescriptor("boolean"),
    "probabilistic": SemiringDescriptor("probabilistic"),
    "tropical": SemiringDescriptor("tropical"),
    "bounded_tropical": SemiringDescriptor("bounded_tropical", 5),
}


def carrier_values(descriptor: SemiringDescriptor, rng: random.Random, n: int) -> list:
    """n random carrier scalars, spanning the interesting corners."""
    out = []
    for _ in range(n):
        if descriptor.kind == "boolean":
            out.append(rng.randint(0, 1))
        elif descriptor.kind == "probabilistic":
            den = rng.randint(1, 24)
            out.append(Fraction(rng.randint(0, den), den))
        elif descriptor.kind == "tropical":
            out.append(INF if rng.random() < 0.15 else rng.randint(0, 20))
        else:
            out.append(INF if rng.random() < 0.2 else rng.randint(0, descriptor.bound))
    return out
