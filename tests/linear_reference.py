"""The per-component fraction-free Bareiss solver that
`semimc._linear.least_solution` replaced, kept as the reference for the
primitive-row elimination (`tests/test_linear.py`).  It solves one strongly
connected component at a time, in reverse topological order, with the
values of solved successors folded into a `Fraction` right-hand side.  Each
entry of a row is a minor of the whole eliminated block over the previous
pivot (Bareiss, Math. Comp. 1968), and a row the pivot column misses is
brought to the current pivot level when next used."""

from __future__ import annotations

import heapq
from fractions import Fraction

from semimc._graph import sccs


def least_solution(scale: list[int], moves: list[dict[int, int]],
                   const: list[int]) -> tuple[list[Fraction], int]:
    """The least solution, and the number of states solved by elimination
    (those that reach a positive constant)."""
    live = [False] * len(scale)
    value = [Fraction(0)] * len(scale)
    for comp in sccs(moves):
        # components it reaches came first, so a move out of it is decided
        if not any(const[i] > 0 or any(live[j] for j in moves[i]) for i in comp):
            continue
        inside = set(comp)
        rows = {}
        for i in comp:
            live[i] = True
            # solved successors are constants; scale the row again by
            # their common denominator to keep it integral
            rhs = Fraction(const[i] + sum(v * value[j] for j, v in moves[i].items()
                                          if j not in inside))
            q = rhs.denominator
            row = {j: -v * q for j, v in moves[i].items() if j in inside}
            row[i] = row.get(i, 0) + scale[i] * q
            row[_RHS] = rhs.numerator
            rows[i] = row
        for i, v in _bareiss(rows).items():
            value[i] = v
    return value, sum(live)


_RHS = -1  # the column key of the right-hand side in `_bareiss` rows


def _bareiss(rows: dict[int, dict[int, int]]) -> dict[int, Fraction]:
    """Solve the integer system whose equation for unknown i is
    sum_j rows[i][j] * x_j = rows[i][_RHS], by fraction-free elimination
    (Bareiss, Math. Comp. 1968) on sparse rows.

    The matrix must be a nonsingular M-matrix, so every diagonal pivot
    order meets only positive pivots; the next pivot is the remaining
    diagonal entry of least Markowitz cost (row length - 1) * (column
    length - 1), ties to the smaller key, which keeps fill-in low.  A heap
    holds a (cost, key) entry for every cost a key has had; an entry whose
    cost is no longer its key's is skipped when it comes up.  After
    step k every updated entry is a (k+1)-minor p_k * a - a_ir * a_rj
    over the previous pivot, an exact division.  A row the pivot column
    misses is only scaled by p_k / p_(k-1) per step; that product
    telescopes, so such rows store their last level and are scaled once,
    when next used.  Back-substitution runs on the integers X_i = D * x_i,
    with D the last pivot (the determinant).  The result lists the
    unknowns in reverse pivot order.
    """
    cols = {i: set() for i in rows}
    for i, row in rows.items():
        for j in row:
            if j != _RHS:
                cols[j].add(i)
    cost = lambda i: (len(rows[i]) - 1) * (len(cols[i]) - 1)
    heap = [(cost(i), i) for i in rows]
    heapq.heapify(heap)
    level = dict.fromkeys(rows, 0)
    pivots = [1]
    order = []
    for step in range(len(rows)):
        c, r = heapq.heappop(heap)
        while r not in cols or c != cost(r):
            c, r = heapq.heappop(heap)
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
        below = cols.pop(r) - {r}
        for i in below:
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
        # the rows updated and the columns of row r changed their lengths
        for k in below.union(j for j, _ in others if j != _RHS):
            heapq.heappush(heap, (cost(k), k))
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
