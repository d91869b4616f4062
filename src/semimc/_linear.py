"""Exact least solutions of nonnegative linear systems.

The system is scale[i] * x_i = sum_j moves[i][j] * x_j + const[i] over
naturals, x = A x + b with A, b >= 0, whose Kleene chain from 0 is
bounded: the extent step of a probabilistic model whose transitions have
at most one successor, or a fixpoint binder whose body the evaluator
finds affine in its variable (see ``evaluator._eval``).  Its least
solution is the limit of that chain, and this module computes it exactly
(Baier & Katoen, Principles of Model Checking, 10.1.1):

* states that reach no positive constant are 0 (a reverse graph search);
* on the rest I - A is a nonsingular M-matrix (a bounded chain leaves no
  component of spectral radius at least 1 that reaches a positive constant),
  solved one strongly connected component at a time (Tarjan),
  components reached first, so solved successors are constants;
* each component is solved by fraction-free Bareiss elimination on sparse
  integer rows.

The evaluator imports this module on first use, so commands that never
solve such a system do not load it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


def least_solution(scale: list[int], moves: list[dict[int, int]],
                   const: list[int]) -> tuple[list[Fraction], int]:
    """The least solution, and the number of states solved by elimination
    (those that reach a positive constant)."""
    n = len(scale)
    live = _live_states(moves, const)
    value = [Fraction(0)] * n
    for comp in _sccs([[j for j in moves[i] if live[j]] for i in range(n)]):
        if not live[comp[0]]:
            continue
        inside = set(comp)
        rows = {}
        for i in comp:
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


def _live_states(moves: list[dict], const: list[int]) -> list[bool]:
    """The states that reach a state with a positive constant, by a
    reverse graph search; the least solution is 0 everywhere else."""
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


def _sccs(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components, each listed after every component
    it reaches (Tarjan's algorithm, iterative)."""
    n = len(succ)
    index, low = [-1] * n, [0] * n
    on_stack = [False] * n
    stack, out = [], []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                    out.append(comp)
    return out


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
