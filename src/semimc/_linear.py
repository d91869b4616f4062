"""Exact least solutions of nonnegative linear systems.

The system is scale[i] * x_i = sum_j moves[i][j] * x_j + const[i] over
naturals, x = A x + b with A, b >= 0, whose Kleene chain from 0 is
bounded: the extent step of a probabilistic model whose transitions have
at most one successor, or a fixpoint binder whose body the evaluator
finds affine in its variable (see ``evaluator._eval``).  Its least
solution is the limit of that chain, and this module computes it exactly
(Baier & Katoen, Principles of Model Checking, 10.1.1):

* one pass over the components (``_graph.sccs``) in reverse topological
  order decides liveness: a component is live when a state of it has a
  positive constant or a move into a live one, and its states are 0
  otherwise;
* on the live states I - A is a nonsingular M-matrix (a bounded chain
  leaves no component of spectral radius at least 1 that reaches a
  positive constant), and so are its principal submatrices and Schur
  complements: every diagonal pivot order meets only positive pivots, and
  one elimination on sparse primitive integer rows solves all live states.

The evaluator imports this module on first use, so commands that never
solve such a system do not load it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from ._graph import sccs


def least_solution(scale: list[int], moves: list[dict[int, int]],
                   const: list[int]) -> tuple[list[Fraction], int]:
    """The least solution, and the number of states solved by elimination
    (those that reach a positive constant)."""
    live = [False] * len(scale)
    for comp in sccs(moves):
        # components it reaches came first, so a move out of it is decided
        if any(const[i] > 0 or any(live[j] for j in moves[i]) for i in comp):
            for i in comp:
                live[i] = True
    rows = {i: {j: -v for j, v in moves[i].items() if live[j]}  # dead ones are 0
            for i in range(len(scale)) if live[i]}
    for i, row in rows.items():
        row[i] = row.get(i, 0) + scale[i]
        row[_RHS] = const[i]
    value = [Fraction(0)] * len(scale)
    for i, v in _eliminate(rows).items():
        value[i] = v
    return value, len(rows)


_RHS = -1  # the column key of the right-hand side in `_eliminate` rows


def _eliminate(rows: dict[int, dict[int, int]]) -> dict[int, Fraction]:
    """Solve the integer system whose equation for unknown i is
    sum_j rows[i][j] * x_j = rows[i][_RHS], by Gaussian elimination on
    sparse primitive integer rows.

    The matrix must be a nonsingular M-matrix, so every diagonal pivot
    order meets only positive pivots; the next pivot is the remaining
    diagonal entry of least Markowitz cost (row length - 1) * (column
    length - 1), ties to the smaller key, which keeps fill-in low.  A heap
    holds a (cost, key) entry for every cost a key has had; an entry whose
    cost is no longer its key's is skipped when it comes up.  Pivot row r,
    with pivot p, clears column r from a row i holding f there as
    (p/g) * row_i - (f/g) * row_r, g = gcd(p, f), and row i is then
    divided by its content (the gcd of its entries): entries stay as small
    as the row's own equation allows, where Bareiss (Math. Comp. 1968)
    makes each a minor of the whole eliminated block.  The determinant D
    is the product of the pivots and the contents over that of the
    factors p/g, kept as a fraction reduced after every pivot; it ends an
    integer.  Back-substitution runs on the integers X_i = D * x_i.  The
    result lists the unknowns in reverse pivot order.
    """
    cols = {i: set() for i in rows}
    for i, row in rows.items():
        for j in row:
            if j != _RHS:
                cols[j].add(i)
    cost = lambda i: (len(rows[i]) - 1) * (len(cols[i]) - 1)
    heap = [(cost(i), i) for i in rows]
    heapq.heapify(heap)
    num = den = 1  # D = num / den
    order = []
    for _ in range(len(rows)):
        c, r = heapq.heappop(heap)
        while r not in cols or c != cost(r):
            c, r = heapq.heappop(heap)
        row_r = rows[r]
        p = row_r[r]
        others = [(j, v) for j, v in row_r.items() if j != r]
        for j, _ in others:
            if j != _RHS:
                cols[j].discard(r)
        below = cols.pop(r) - {r}
        num *= p
        for i in below:
            row_i = rows[i]
            f = row_i.pop(r)
            g = gcd(p, f)
            a, f = p // g, f // g
            new = {j: v * a for j, v in row_i.items()} if a != 1 else row_i
            for j, v in others:
                if j in new:
                    new[j] -= f * v
                else:
                    new[j] = -f * v
                    if j != _RHS:
                        cols[j].add(i)
            content = gcd(*new.values())
            rows[i] = {j: v // content for j, v in new.items()} if content != 1 else new
            num *= content
            den *= a
        g = gcd(num, den)
        num, den = num // g, den // g
        order.append(r)
        # the rows updated and the columns of row r changed their lengths
        for k in below.union(j for j, _ in others if j != _RHS):
            heapq.heappush(heap, (cost(k), k))
    scaled = {}  # den is 1 now, and num is D
    for r in reversed(order):
        row = rows[r]
        acc = num * row.get(_RHS, 0)
        for j, v in row.items():
            if j != r and j != _RHS:
                acc -= v * scaled[j]
        scaled[r] = acc // row[r]
    return {r: Fraction(x, num) for r, x in scaled.items()}
