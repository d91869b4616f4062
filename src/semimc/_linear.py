"""Exact least solutions of nonnegative linear systems.

The system is given in the evaluator's row form (``evaluator._poly``):
per unknown i a row (den, {m: num}) for den * x_i = sum of num * x_m,
each monomial m a 1-tuple (j,) for a move to x_j or () for the
constant, every num positive.  It is x = A x + b with A, b >= 0, whose
Kleene chain from 0 is bounded: the extent step of a probabilistic model
whose transitions have at most one successor, or a fixpoint binder whose
body the evaluator finds affine in its variable (see ``evaluator._eval``).
Its least solution is the limit of that chain, and this module computes
it exactly on integers (Baier & Katoen, Principles of Model Checking,
10.1.1):

* liveness is ``_graph.productive`` on the same rows: the least set of
  unknowns with a constant or a move into the set.  The others are 0;
* on the live states I - A is a nonsingular M-matrix (a bounded chain
  leaves no component of spectral radius at least 1 that reaches a
  positive constant), and so are its principal submatrices and Schur
  complements: every diagonal pivot order meets only positive pivots, and
  one elimination on sparse primitive integer rows solves all live states;
* each value is an unreduced integer pair (X, D), x = X / D, with D > 0
  the determinant of the unknown's connected component (Cramer's rule):
  independent subsystems share no determinant.

The same elimination, stopped at the first pivot that is not positive,
decides whether a Z-matrix is an M-matrix (``m_matrix``): the test
``_qualitative`` makes on I - P'(1) for a polynomial system.

The evaluator imports this module on first use, so commands that never
solve such a system do not load it.
"""

from __future__ import annotations

import heapq
from math import gcd

from ._graph import productive


def least_solution(rows: list) -> tuple[list[tuple[int, int]], int]:
    """The least solution of the system in `rows`, each value a pair (n, d)
    with d > 0 (a dead state's is (0, 1)), and the number of states solved
    by elimination (the live ones)."""
    live = productive([nums for _, nums in rows])
    system = {}
    for i, (den, nums) in enumerate(rows):
        if live[i]:
            eq = {m[0]: -v for m, v in nums.items() if m and live[m[0]]}  # dead ones are 0
            eq[i] = eq.get(i, 0) + den
            eq[_RHS] = nums.get((), 0)
            system[i] = eq
    value, zero = _eliminate(system), (0, 1)
    return [value.get(i, zero) for i in range(len(rows))], len(system)


_RHS = -1  # the column key of the right-hand side in `_eliminate` rows


def _eliminate(rows: dict[int, dict[int, int]]) -> dict[int, tuple[int, int]]:
    """Solve the integer system whose equation for unknown i is
    sum_j rows[i][j] * x_j = rows[i][_RHS], by Gaussian elimination on
    sparse primitive integer rows (`_reduce`), then back-substitution on
    the integers X_i = D * x_i, D the determinant of i's connected
    component (each row of i then refers only to i's component).  The
    matrix must be a nonsingular M-matrix.  The result maps each unknown
    to (X_i, D), in reverse pivot order.
    """
    order, det = _reduce(rows)
    scaled = {}
    for r, p in reversed(order):
        row = rows[r]
        acc = det[r] * row.pop(_RHS, 0)
        for j, v in row.items():
            acc -= v * scaled[j]
        scaled[r] = acc // p
    return {r: (x, det[r]) for r, x in scaled.items()}


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


def _reduce(rows: dict[int, dict[int, int]]) -> tuple[list, dict[int, int]] | None:
    """Forward elimination of `rows` (keyed by unknown, and by `_RHS` for
    the right-hand side) in place, each pivot taken out of its row: the
    (key, pivot) pairs in pivot order and the determinant of each
    unknown's connected component, or None at the first pivot that is
    not positive, unless it is the last and 0 (then its D = 0).  A
    nonsingular M-matrix meets only positive pivots in every diagonal
    pivot order.

    The next pivot is the remaining diagonal entry of least Markowitz
    cost (row length - 1) * (column length - 1), ties to the smaller
    key, which keeps fill-in low.  A heap holds a (cost, key) entry for
    every cost a key has had, pushed when the cost changes; an entry
    whose cost is no longer its key's is skipped when it comes up.  Pivot
    row r, with pivot p, clears column r from a row i holding f there as
    (p/g) * row_i - (f/g) * row_r, g = gcd(p, f) (row i is not rescaled
    when p divides f), and row i is then divided by its content (the gcd
    of its entries): entries stay as small as the row's own equation
    allows, where Bareiss (Math. Comp. 1968) makes each a minor of the
    whole eliminated block.  Every factor is positive, so each pivot has
    the sign of the pivot of plain Gaussian elimination.

    Elimination never mixes connected components, so a component's
    determinant is the product of its pivots and contents over that of
    its factors p/g: a list [num, den, keys] shared by its keys, merged
    into the larger when a pivot touches two, reduced after each pivot.
    """
    cols = {i: set() for i in rows}
    for i, row in rows.items():
        for j in row:
            if j != _RHS:
                cols[j].add(i)
    cost = {i: (len(rows[i]) - 1) * (len(cols[i]) - 1) for i in rows}
    heap = [(c, i) for i, c in cost.items()]
    heapq.heapify(heap)
    comp = {i: [1, 1, [i]] for i in rows}
    order = []
    for _ in range(len(rows)):
        c, r = heapq.heappop(heap)
        while cost.get(r) != c:
            c, r = heapq.heappop(heap)
        del cost[r]
        row_r = rows[r]
        p = row_r.pop(r)
        if p < 0 or (p == 0 and len(order) + 1 < len(rows)):
            return None
        others = row_r.items()
        touched = cols.pop(r)
        touched.discard(r)
        below = list(touched)
        for j in row_r:
            if j != _RHS:
                cols[j].discard(r)
                touched.add(j)
        num, den = p, 1  # this pivot's factor of the determinant
        for i in below:
            row_i = rows[i]
            f = row_i.pop(r)
            if f % p:
                g = gcd(p, f)
                a, f = p // g, f // g
                new = {j: v * a for j, v in row_i.items()}
                den *= a
            else:
                f //= p
                new = row_i
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
        order.append((r, p))
        mine = comp[r]
        # the rows updated and the columns of row r: r's component, with
        # changed lengths
        for k in touched:
            theirs = comp[k]
            if theirs is not mine:
                if len(theirs[2]) > len(mine[2]):
                    mine, theirs = theirs, mine
                mine[0] *= theirs[0]
                mine[1] *= theirs[1]
                mine[2] += theirs[2]
                for m in theirs[2]:
                    comp[m] = mine
            c = (len(rows[k]) - 1) * (len(cols[k]) - 1)
            if c != cost[k]:
                cost[k] = c
                heapq.heappush(heap, (c, k))
        num, den = mine[0] * num, mine[1] * den
        g = gcd(num, den)
        mine[0], mine[1] = num // g, den // g
    return order, {i: c[0] for i, c in comp.items()}  # each den is 1 now
