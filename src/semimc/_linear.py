"""Exact least solutions of nonnegative linear systems.

The system is given in the evaluator's row form (``evaluator._poly``):
per unknown i a row (den, {m: num}) for den * x_i = sum of num * x_m,
each monomial m a 1-tuple (j,) for a move to x_j or () for the
constant, every num positive.  It is x = A x + b with A, b >= 0, whose
Kleene chain from 0 is bounded: the extent step of a probabilistic model
whose transitions have at most one successor, or a fixpoint binder whose
body the evaluator finds affine in its variable (see ``evaluator._eval``).
Its least solution is the limit of that chain, and this module computes
it exactly (Baier & Katoen, Principles of Model Checking, 10.1.1):

* liveness is ``_graph.productive`` on the same rows: the least set of
  unknowns with a constant or a move into the set.  The others are 0;
* on the live states I - A is a nonsingular M-matrix (a bounded chain
  leaves no component of spectral radius at least 1 that reaches a
  positive constant), and so are its principal submatrices and Schur
  complements: every diagonal pivot order meets only positive pivots, and
  one elimination on sparse primitive integer rows solves all live states.

The same elimination, stopped at the first pivot that is not positive,
decides whether a Z-matrix is an M-matrix (``m_matrix``): the test
``_qualitative`` makes on I - P'(1) for a polynomial system.

The evaluator imports this module on first use, so commands that never
solve such a system do not load it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from ._graph import productive


def least_solution(rows: list) -> tuple[list[Fraction], int]:
    """The least solution of the system in `rows`, and the number of
    states solved by elimination (the live ones)."""
    live = productive([nums for _, nums in rows])
    system = {}
    for i, (den, nums) in enumerate(rows):
        if live[i]:
            eq = {m[0]: -v for m, v in nums.items() if m and live[m[0]]}  # dead ones are 0
            eq[i] = eq.get(i, 0) + den
            eq[_RHS] = nums.get((), 0)
            system[i] = eq
    value, zero = _eliminate(system), Fraction(0)
    return [value.get(i, zero) for i in range(len(rows))], len(system)


_RHS = -1  # the column key of the right-hand side in `_eliminate` rows


def _eliminate(rows: dict[int, dict[int, int]]) -> dict[int, Fraction]:
    """Solve the integer system whose equation for unknown i is
    sum_j rows[i][j] * x_j = rows[i][_RHS], by Gaussian elimination on
    sparse primitive integer rows (`_reduce`), then back-substitution on
    the integers X_i = D * x_i.  The matrix must be a nonsingular
    M-matrix.  The result lists the unknowns in reverse pivot order.
    """
    order, num = _reduce(rows)
    scaled = {}
    for r in reversed(order):
        row = rows[r]
        acc = num * row.get(_RHS, 0)
        for j, v in row.items():
            if j != r and j != _RHS:
                acc -= v * scaled[j]
        scaled[r] = acc // row[r]
    return {r: Fraction(x, num) for r, x in scaled.items()}


def m_matrix(rows: dict[int, dict[int, int]]) -> bool:
    """Whether the integer Z-matrix in `rows` (no positive entry off the
    diagonal) is an M-matrix, singular or not: whether `_reduce`, which
    eliminates `rows` in place, meets only positive pivots but the last,
    which may be 0.

    The pivots are the ratios of successive leading principal minors in
    pivot order, times positive factors, so this is the test that every
    proper leading principal minor is positive and the determinant is
    not negative.  On an irreducible Z-matrix it is exact in any
    symmetric order (Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, ch. 6): every proper principal submatrix of a
    singular irreducible M-matrix is a nonsingular one.  On any Z-matrix
    it is sufficient: with the leading block a nonsingular M-matrix and a
    Schur complement s >= 0, adding e > 0 to the diagonal keeps every
    pivot positive.
    """
    return _reduce(rows) is not None


def _reduce(rows: dict[int, dict[int, int]]) -> tuple[list[int], int] | None:
    """Forward elimination of `rows` (keyed by unknown, and by `_RHS` for
    the right-hand side) in place: the pivot order and the determinant
    D, or None at the first pivot that is not positive, unless it is the
    last and 0 (then D = 0).  A nonsingular M-matrix meets only positive
    pivots in every diagonal pivot order.

    The next pivot is the remaining diagonal entry of least Markowitz
    cost (row length - 1) * (column length - 1), ties to the smaller
    key, which keeps fill-in low.  A heap holds a (cost, key) entry for
    every cost a key has had; an entry whose cost is no longer its key's
    is skipped when it comes up.  Pivot row r,
    with pivot p, clears column r from a row i holding f there as
    (p/g) * row_i - (f/g) * row_r, g = gcd(p, f), and row i is then
    divided by its content (the gcd of its entries): entries stay as small
    as the row's own equation allows, where Bareiss (Math. Comp. 1968)
    makes each a minor of the whole eliminated block.  Every factor is
    positive, so each pivot has the sign of the pivot of plain Gaussian
    elimination.  The determinant D is the product of the pivots and the
    contents over that of the factors p/g, kept as a fraction reduced
    after every pivot; it ends an integer.
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
        if p < 0 or (p == 0 and len(order) + 1 < len(rows)):
            return None
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
            content = gcd(*new.values()) or 1  # 0: a singular row, left as it is
            rows[i] = {j: v // content for j, v in new.items()} if content != 1 else new
            num *= content
            den *= a
        g = gcd(num, den)
        num, den = num // g, den // g
        order.append(r)
        # the rows updated and the columns of row r changed their lengths
        for k in below.union(j for j, _ in others if j != _RHS):
            heapq.heappush(heap, (cost(k), k))
    return order, num  # den is 1 now, and num is D
