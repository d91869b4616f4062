"""The searches over ``CompiledModel.rows`` and the rows of a
probabilistic block (``evaluator._poly``): the transition index, Knuth's
least-solution loop over it (``settle``), the zero-cost states, the
productive states (the one liveness search) and the SCCs; imported on
first use, as ``_linear`` and ``_qualitative`` are."""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .semiring import INF


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


def settle(owner: list, weight: list, waiting: list, uses: list,
           seeds: list, bound) -> list:
    """Knuth's generalisation of Dijkstra's algorithm (IPL 1977): the least
    solution of x_i = min over the transitions t of i of weight[t] plus
    the sum of x over t's successors (a superior function), on the index
    `transitions` builds, with `seeds` ((value, state) pairs) offered too.
    States settle in order of value: arity-0 transitions and the seeds are
    offered first, and once every successor of a transition has settled it
    offers its owner its weight plus their values; an offer above `bound`
    is dropped, and states never settled are INF.  Uses up `waiting`."""
    heap = [(w, i) for w, i, k in zip(weight, owner, waiting) if not k] + seeds
    heapify(heap)
    value = [INF] * len(uses)
    partial = [0] * len(owner)
    while heap:
        v, s = heappop(heap)
        if value[s] != INF:
            continue
        value[s] = v
        for t in uses[s]:
            partial[t] += v
            waiting[t] -= 1
            if not waiting[t]:
                offer = weight[t] + partial[t]
                if offer <= bound and value[owner[t]] == INF:
                    heappush(heap, (offer, owner[t]))
    return value


def productive(monomials) -> list[bool]:
    """The least set of states with a term whose variables are all in it:
    `monomials[i]` iterates over state i's terms as tuples of state ids
    (a row's {m: num} does), a constant term as the empty tuple.  A
    worklist, no heap: each term counts down its variables not yet found,
    once per occurrence, and at 0 its owner is found."""
    live = [False] * len(monomials)
    todo = []
    owner, waiting = [], []
    uses = [[] for _ in monomials]
    for i, row in enumerate(monomials):
        for m in row:
            if m:
                for s in m:
                    uses[s].append(len(owner))
                owner.append(i)
                waiting.append(len(m))
            elif not live[i]:
                live[i] = True
                todo.append(i)
    while todo:
        for t in uses[todo.pop()]:
            waiting[t] -= 1
            if not waiting[t] and not live[owner[t]]:
                live[owner[t]] = True
                todo.append(owner[t])
    return live


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
