"""The number-free searches over ``CompiledModel.rows``, the linear
solver's moves and the terms of a polynomial system; imported on first
use, as ``_linear`` and ``_qualitative`` are."""

from __future__ import annotations


def transitions(rows) -> tuple[list, list, list, list]:
    """Per transition of `rows` (``CompiledModel.rows``): its owner, its
    weight and its number of successors; and per state the transitions
    that use it, once per occurrence."""
    owner, weight, waiting = [], [], []
    uses = [[] for _ in rows]
    for i, row in enumerate(rows):
        for w, _, succs in row:
            for _, s in succs:
                uses[s].append(len(owner))
            owner.append(i)
            weight.append(w)
            waiting.append(len(succs))
    return owner, weight, waiting, uses


def zero_cost_states(owner: list, weight: list, uses: list) -> list[int]:
    """The states with a zero-cost run tree: the greatest set in which
    every state has a weight-0 transition with all successors in the set.

    `live[s]` counts the weight-0 transitions of s with no successor
    removed yet; a state is removed when that count reaches 0, and each
    removal kills the weight-0 transitions that use it.
    """
    n = len(uses)
    live = [0] * n
    for t, w in enumerate(weight):
        if not w:
            live[owner[t]] += 1
    removed = [s for s in range(n) if not live[s]]
    dead = set()
    while removed:
        for t in uses[removed.pop()]:
            if not weight[t] and t not in dead:
                dead.add(t)
                live[owner[t]] -= 1
                if not live[owner[t]]:
                    removed.append(owner[t])
    return [s for s in range(n) if live[s]]


def productive(monomials) -> list[bool]:
    """The least set of states with a term whose variables are all in it:
    `monomials[i]` lists state i's terms as tuples of state ids, a
    constant term as the empty tuple.  `waiting[t]` counts the variables
    of term t not yet in the set, once per occurrence."""
    owner, waiting, ready = [], [], []
    uses = [[] for _ in monomials]
    for i, row in enumerate(monomials):
        for m in row:
            if not m:
                ready.append(i)
            for s in m:
                uses[s].append(len(owner))
            owner.append(i)
            waiting.append(len(m))
    out = [False] * len(monomials)
    while ready:
        s = ready.pop()
        if out[s]:
            continue
        out[s] = True
        for t in uses[s]:
            waiting[t] -= 1
            if not waiting[t]:
                ready.append(owner[t])
    return out


def sccs(succ) -> list[list[int]]:
    """Strongly connected components of the graph whose successors of
    state i are the iteration of `succ[i]`, each listed after every
    component it reaches (Tarjan's algorithm, iterative)."""
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
