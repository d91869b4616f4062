"""The qualitative graph layer (`semimc._graph`), the liveness that
`_linear.least_solution` takes from `_graph.productive`, and its one
elimination over the live states, checked against the per-component
Bareiss solver it replaced (`tests/linear_reference.py`)."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from semimc import mu_extent
from semimc._graph import productive, sccs
from semimc._linear import least_solution, m_matrix
import linear_reference
from randgen import DESCRIPTORS, random_model


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


def _rows(scale: list[int], moves: list[dict], const: list[int]) -> list:
    """scale * x = A x + b in the evaluator's row form (den, {m: num})."""
    return [(den, {**{(j,): v for j, v in row.items() if v}, **({(): c} if c else {})})
            for den, row, c in zip(scale, moves, const)]


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
    value, solved = least_solution(_rows(scale, moves, const))
    live = _live_states(moves, const)
    assert [x != 0 for x, _ in value] == live
    # the same set, least closed under a positive constant or a move into it
    assert productive([[(j,) for j in moves[i]] + [()] * (const[i] > 0) for i in range(n)]) == live
    assert solved == sum(live)
    x = [Fraction(*v) for v in value]
    for i in range(n):
        assert scale[i] * x[i] == sum(v * x[j] for j, v in moves[i].items()) + const[i]
    assert all(_is_pair(v) for v in value)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_least_solution_matches_per_component_bareiss(seed):
    # scale * x = A x + b with 1-3 moves per state and A 1 + b <= scale,
    # so the chain from 0 is bounded: a run of singleton components (each
    # state moving on to the next), states moving anywhere, and a closed
    # tail that moves only inside itself with no constant and is dead;
    # most constants are 0, and full rows leave cycles that reach no
    # constant dead as well
    rng = random.Random(seed)
    n = rng.randint(1, 80)
    chain_end = rng.randint(0, n)
    tail = rng.randint(chain_end, n)
    scale, moves, const = [], [], []
    for i in range(n):
        den = rng.randint(2, 23)
        if i < chain_end:
            targets = [i + 1] if i + 1 < n else [i]
        else:
            lo = tail if i >= tail else 0
            targets = rng.sample(range(lo, n), min(n - lo, rng.randint(1, 3)))
        k = min(len(targets), den)
        mass = rng.choice([den, rng.randint(k, den)])
        cuts = sorted(rng.sample(range(1, mass), k - 1))
        row = {j: b - a for j, a, b in zip(targets, [0, *cuts], [*cuts, mass])}
        scale.append(den)
        moves.append(row)
        room = den - mass
        const.append(rng.randint(1, room) if room and i < tail and rng.random() < 0.2 else 0)
    value, solved = least_solution(_rows(scale, moves, const))
    want, want_solved = linear_reference.least_solution(scale, moves, const)
    assert [_lowest(v) for v in value] == [v.as_integer_ratio() for v in want]
    assert solved == want_solved
    assert all(_is_pair(v) for v in value)


def _is_pair(v) -> bool:
    """Whether `v` is a value as `least_solution` gives it: a pair of ints
    (n, d) with d > 0."""
    return type(v) is tuple and len(v) == 2 and all(type(k) is int for k in v) and v[1] > 0


def _lowest(v: tuple[int, int]) -> tuple[int, int]:
    g = gcd(*v)
    return v[0] // g, v[1] // g


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_least_solution_gives_each_component_its_own_determinant(seed):
    # k independent blocks on shuffled state ids: each a cycle through
    # its states (so it is connected) with more moves inside it and a
    # positive constant somewhere (so it is live); every value is the
    # reference's, and its denominator is its own block's determinant
    # det(scale - A) restricted to the block, not a product over blocks
    rng = random.Random(seed)
    sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
    ids = list(range(sum(sizes)))
    rng.shuffle(ids)
    blocks, start = [], 0
    for k in sizes:
        blocks.append(ids[start:start + k])
        start += k
    n = len(ids)
    scale, moves, const = [0] * n, [{} for _ in ids], [0] * n
    for block in blocks:
        for pos, i in enumerate(block):
            den = rng.randint(3, 23)
            targets = {block[(pos + 1) % len(block)]}
            targets.update(rng.sample(block, rng.randint(0, min(2, len(block)))))
            mass = rng.randint(len(targets), den)
            cuts = sorted(rng.sample(range(1, mass), len(targets) - 1))
            scale[i] = den
            moves[i] = {j: b - a for j, a, b in zip(sorted(targets), [0, *cuts], [*cuts, mass])}
        i = rng.choice(block)
        scale[i] += rng.randint(1, 5)  # room for a constant below the scale
        const[i] = rng.randint(1, scale[i] - sum(moves[i].values()))
    value, solved = least_solution(_rows(scale, moves, const))
    want, _ = linear_reference.least_solution(scale, moves, const)
    assert [_lowest(v) for v in value] == [v.as_integer_ratio() for v in want]
    assert solved == n
    for block in blocks:
        det = _leading_minors([[Fraction((i == j) * scale[i] - moves[i].get(j, 0))
                                for j in block] for i in block])[-1]
        for i in block:
            assert value[i][1] == det
            assert det % _lowest(value[i])[1] == 0


@st.composite
def degree_two_rows(draw):
    """Random rows on up to 40 states, of terms with at most two ids."""
    n = draw(st.integers(1, 40))
    mono = st.lists(st.integers(0, n - 1), max_size=2).map(tuple)
    return [draw(st.lists(mono, max_size=3)) for _ in range(n)]


@given(degree_two_rows())
@settings(max_examples=300, deadline=None)
def test_productive_matches_a_reverse_search(rows):
    # the reference: from the states with a constant term, follow each
    # found state back to the terms that mention it, and find their owner
    # once every id of the term is found (checked afresh, no counters)
    found = [() in row for row in rows]
    used_by = [[] for _ in rows]
    for i, row in enumerate(rows):
        for m in row:
            for s in m:
                used_by[s].append((i, m))
    todo = [i for i, f in enumerate(found) if f]
    while todo:
        for i, m in used_by[todo.pop()]:
            if not found[i] and all(found[s] for s in m):
                found[i] = True
                todo.append(i)
    assert productive(rows) == found


@st.composite
def monomial_rows(draw):
    """Random rows of monomials on up to 8 states: tuples of up to 3 ids."""
    n = draw(st.integers(1, 8))
    mono = st.lists(st.integers(0, n - 1), max_size=3).map(tuple)
    return [draw(st.lists(mono, max_size=3)) for _ in range(n)]


@given(monomial_rows())
@settings(max_examples=300, deadline=None)
def test_productive_is_the_least_closed_set(rows):
    # brute force: grow the set until no state has a term inside it
    inside = set()
    while True:
        more = {i for i, row in enumerate(rows) if any(set(m) <= inside for m in row)}
        if more <= inside:
            break
        inside |= more
    assert productive(rows) == [i in inside for i in range(len(rows))]


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["boolean", "tropical"]))
@settings(max_examples=300, deadline=None)
def test_productive_states_have_a_finite_mu_extent(seed, kind):
    # the two users of `settle`: a state has a finite run tree exactly
    # when it is productive over the successors of its transitions (on
    # trop[B] the bound makes some productive states inf)
    m = random_model(random.Random(seed), DESCRIPTORS[kind], max_states=8, max_arity=3)
    succs = [[tuple(s for _, s in succ) for _, _, succ in row] for row in m.compiled.rows]
    zero = m.semiring.zero
    assert productive(succs) == [mu_extent(m)[s] != zero for s in m.states]


def _leading_minors(a: list[list[Fraction]]) -> list[Fraction]:
    """The leading principal minors of `a`, by Gaussian elimination with
    row swaps inside each leading block (Fractions, no pivot order)."""
    out = []
    for k in range(1, len(a) + 1):
        m = [row[:k] for row in a[:k]]
        det = Fraction(1)
        for c in range(k):
            r = next((r for r in range(c, k) if m[r][c]), None)
            if r is None:
                det = Fraction(0)
                break
            if r != c:
                m[c], m[r] = m[r], m[c]
                det = -det
            det *= m[c][c]
            for i in range(c + 1, k):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        out.append(det)
    return out


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_m_matrix_matches_the_leading_minors_on_irreducible_matrices(seed):
    # I - B for a nonnegative B with a cycle through every state, so it is
    # irreducible; entries are multiples of 1/4 so that rho(B) = 1 (a
    # singular M-matrix) comes up as well as rho(B) < 1 and > 1
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    b = [[Fraction(rng.choice([0, 0, 1, 2]), 4) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        b[i][(i + 1) % n] += Fraction(rng.randint(1, 4), 4)
    a = [[(i == j) - b[i][j] for j in range(n)] for i in range(n)]
    minors = _leading_minors(a)
    expected = all(d > 0 for d in minors[:-1]) and minors[-1] >= 0
    rows = {i: {j: int(4 * v) for j, v in enumerate(row) if v or i == j} for i, row in enumerate(a)}
    assert m_matrix(rows) == expected
