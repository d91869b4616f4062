"""The qualitative graph layer (`semimc._graph`) and the liveness that
`_linear.least_solution` decides in its SCC pass."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semimc._graph import sccs
from semimc._linear import least_solution


def _reach(succ: list[list[int]]) -> list[set[int]]:
    """Per state, the states it reaches in zero or more steps, by brute force."""
    out = []
    for s in range(len(succ)):
        seen, todo = {s}, [s]
        while todo:
            for t in succ[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        out.append(seen)
    return out


@st.composite
def digraphs(draw):
    """Random digraphs on up to 12 states, self-loops and repeated edges included."""
    n = draw(st.integers(1, 12))
    return [draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)]


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_sccs_partition_in_reverse_topological_order(succ):
    comps = sccs(succ)
    n = len(succ)
    assert sorted(s for c in comps for s in c) == list(range(n))
    reach = _reach(succ)
    where = {s: k for k, c in enumerate(comps) for s in c}
    for s in range(n):
        for t in range(n):
            # one component exactly when each reaches the other
            assert (where[s] == where[t]) == (t in reach[s] and s in reach[t])
            # a component comes after every component it reaches
            if t in reach[s]:
                assert where[t] <= where[s]


def _live_states(moves: list[dict], const: list[int]) -> list[bool]:
    """The reference: the states that reach a state with a positive
    constant, by a reverse graph search (the solver's separate pass before
    liveness was decided per component)."""
    pred = [[] for _ in moves]
    for i, row in enumerate(moves):
        for j in row:
            pred[j].append(i)
    live = [c > 0 for c in const]
    todo = [i for i, c in enumerate(const) if c > 0]
    while todo:
        for i in pred[todo.pop()]:
            if not live[i]:
                live[i] = True
                todo.append(i)
    return live


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_least_solution_liveness_matches_reverse_search(seed):
    # sparse strictly substochastic systems scale * x = A x + b; most
    # constants are 0, so there are dead components and live ones whose
    # only positive constant lies in a component they move into
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    scale, moves, const = [], [], []
    for _ in range(n):
        den = rng.choice([2, 3, 10])
        row = {}
        for j in rng.sample(range(n), rng.randint(0, min(n, 2))):
            if sum(row.values()) < den - 1:
                row[j] = rng.randint(1, den - 1 - sum(row.values()))
        scale.append(den)
        moves.append(row)
        const.append(rng.randint(1, 3) if rng.random() < 0.15 else 0)
    value, solved = least_solution(scale, moves, const)
    live = _live_states(moves, const)
    assert [v != 0 for v in value] == live
    assert solved == sum(live)
    for i in range(n):
        assert scale[i] * value[i] == sum(v * value[j] for j, v in moves[i].items()) + const[i]
    assert all(type(v) is Fraction for v in value)
