"""Reference answers computed without semimc.

Every function here works on `Spec`, the benchmark's own plain description
of a model, and never imports semimc: a defect in the checker under test
cannot leak into the answers it is checked against.  Algorithms are chosen
to differ from semimc's Kleene iteration wherever a direct method exists:

* prob, arity <= 1: graph pre-pass, then an exact rational linear solve;
* trop, arity <= 1, no offsets: Dijkstra from the exits (and, for the
  greatest extent, from zero-cost cycles);
* trop rings with offsets: composition of the per-state maps
  ``y -> max(y + w - o, 0)`` around the ring, solved in closed form;
* exit-free trop models whose weights are all >= 1: every value is inf;
* prob, branching: Newton's method in 80-digit decimals (least extent);
* bool and trop[B]: fixpoint iteration on the finite carrier.
"""

from __future__ import annotations

import decimal
import heapq
from dataclasses import dataclass, field
from fractions import Fraction

INF = float("inf")


@dataclass
class Spec:
    """A generated model: `trans[s]` lists (weight, label, successors)."""

    name: str
    semiring: str  # 'bool' | 'prob' | 'trop' | 'trop[B]'
    labels: list[tuple[str, int]]
    states: list[str]
    trans: dict[str, list[tuple[object, str, tuple[str, ...]]]]
    offsets: dict[str, object] = field(default_factory=dict)

    @property
    def max_arity(self) -> int:
        return max(a for _, a in self.labels)

    def text(self) -> str:
        lines = [f"semiring {self.semiring}"]
        lines += [f"label {n}/{a}" for n, a in self.labels]
        for s in self.states:
            body = "; ".join(
                f"{render(w)} {lbl}" + (f" -> {' '.join(succ)}" if succ else "")
                for w, lbl, succ in self.trans[s])
            lines.append(f"state {s} {{ {body} }}")
        lines += [f"offset {s} = {render(o)}" for s, o in self.offsets.items()]
        return "\n".join(lines) + "\n"


def render(v) -> str:
    return "inf" if v == INF else str(v)


# --- semiring arithmetic ----------------------------------------------------


class Ops:
    """plus/times/oslash of one semiring, written out independently."""

    def __init__(self, semiring: str):
        self.kind = semiring
        self.bound = int(semiring[5:-1]) if semiring.startswith("trop[") else None
        if semiring == "bool":
            self.zero, self.one = 0, 1
        elif semiring == "prob":
            self.zero, self.one = Fraction(0), Fraction(1)
        else:
            self.zero, self.one = INF, 0

    def plus(self, a, b):
        if self.kind == "bool":
            return a or b
        if self.kind == "prob":
            return a + b
        return min(a, b)

    def times(self, a, b):
        if self.kind == "bool":
            return a and b
        if self.kind == "prob":
            return a * b
        s = a + b
        return INF if self.bound is not None and s > self.bound else s

    def oslash(self, s, t):
        if self.kind == "bool":
            return s
        if self.kind == "prob":
            return Fraction(0) if s == 0 else (Fraction(1) if t == 0 else min(Fraction(1), s / t))
        if s == INF:
            return INF
        if self.bound is not None:
            # least u (numerically largest) with u + t above s, searched
            # over the finite carrier
            for u in [INF] + list(range(self.bound, -1, -1)):
                if self.times(u, t) <= s:
                    return u
            return 0
        return 0 if t == INF else max(s - t, 0)

    def close(self, a, b, tol) -> bool:
        if self.kind == "prob":
            return abs(a - b) <= tol
        return a == b


def unfold(spec: Spec, ops: Ops, state: str, children: dict):
    """One step at `state`: the sum, over the transitions whose label is a
    key of `children`, of the weight times the successors' values, offset
    by the state's scalar.  `children[label]` holds one function per
    argument position, mapping the successor there to its value."""
    total = ops.zero
    for w, lbl, succ in spec.trans[state]:
        if lbl not in children:
            continue
        v = w
        for value_of, t in zip(children[lbl], succ):
            v = ops.times(v, value_of(t))
        total = ops.plus(total, v)
    return ops.oslash(total, spec.offsets.get(state, ops.one))


def _iterate(spec: Spec, ops: Ops, start) -> dict:
    """Fixpoint iteration; used only on finite carriers, where it ends."""
    x = {s: start for s in spec.states}
    while True:
        children = {lbl: [x.__getitem__] * ar for lbl, ar in spec.labels}
        nxt = {s: unfold(spec, ops, s, children) for s in spec.states}
        if nxt == x:
            return x
        x = nxt


# --- probabilistic: linear solve -------------------------------------------


def _reach_solve(states, edges, b) -> dict:
    """Least solution of x = A x + b over the rationals.

    `edges[s]` maps successor -> weight.  States that reach no positive b
    are 0; the rest form a system with a unique solution, solved by sparse
    Gaussian elimination.
    """
    rev: dict[str, set] = {s: set() for s in states}
    for s in states:
        for t in edges[s]:
            rev[t].add(s)
    live = {s for s in states if b[s] > 0}
    todo = list(live)
    while todo:
        t = todo.pop()
        for s in rev[t]:
            if s not in live:
                live.add(s)
                todo.append(s)
    order = [s for s in states if s in live]
    idx = {s: i for i, s in enumerate(order)}
    rows = []
    for s in order:
        row = {idx[s]: Fraction(1)}
        for t, w in edges[s].items():
            if t in idx:
                row[idx[t]] = row.get(idx[t], Fraction(0)) - w
        rows.append((row, Fraction(b[s])))
    n = len(order)
    for i in range(n):
        piv_row, piv_rhs = rows[i]
        p = piv_row[i]
        for j in range(i + 1, n):
            row, rhs = rows[j]
            f = row.get(i)
            if not f:
                continue
            f = f / p
            for k, v in piv_row.items():
                nv = row.get(k, Fraction(0)) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            rows[j] = (row, rhs - f * piv_rhs)
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row, rhs = rows[i]
        acc = rhs - sum(v * x[k] for k, v in row.items() if k > i)
        x[i] = acc / row[i]
    return {s: (x[idx[s]] if s in idx else Fraction(0)) for s in states}


def _linear_parts(spec: Spec, labels=None):
    edges = {s: {} for s in spec.states}
    exits = {s: Fraction(0) for s in spec.states}
    for s in spec.states:
        for w, lbl, succ in spec.trans[s]:
            if labels is not None and lbl not in labels:
                continue
            if succ:
                edges[s][succ[0]] = edges[s].get(succ[0], Fraction(0)) + w
            else:
                exits[s] += w
    return edges, exits


def prob_extent_linear(spec: Spec, direction: str) -> dict:
    """Extents of an arity <= 1 prob model without offsets.  The least
    extent is the probability of completing; the greatest is one minus the
    least solution for the missing mass (deadlocks and substochastic
    states lose it)."""
    edges, exits = _linear_parts(spec)
    if direction == "mu":
        return _reach_solve(spec.states, edges, exits)
    loss = {s: 1 - sum(w for w, _, _ in spec.trans[s]) for s in spec.states}
    lost = _reach_solve(spec.states, edges, loss)
    return {s: 1 - lost[s] for s in spec.states}


def ring_closed_form(ps: list[Fraction], qs: list[Fraction]) -> list[Fraction]:
    """x_i = q_i + p_i x_{i+1} around a ring of n states (both extents)."""
    n = len(ps)
    prod_all = Fraction(1)
    for p in ps:
        prod_all *= p
    out = []
    for i in range(n):
        acc, pre = Fraction(0), Fraction(1)
        for k in range(n):
            j = (i + k) % n
            acc += pre * qs[j]
            pre *= ps[j]
        out.append(acc / (1 - prod_all))
    return out


def _sccs(states, succ) -> list[list[str]]:
    """Tarjan's algorithm, iterative."""
    index, low, on, stack, out = {}, {}, set(), [], []
    counter = 0
    for root in states:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def _cyclic(comp, succ) -> bool:
    return len(comp) > 1 or comp[0] in succ[comp[0]]


def prob_nested(spec: Spec) -> dict:
    """nu X. mu Y. ([a](X) | [b](Y) | [*]) on an arity <= 1 prob model: the
    probability of runs that end in '*' or take 'a' infinitely often.  The
    latter are, almost surely, the runs that reach a closed bottom SCC
    holding an 'a' transition."""
    succ = {s: {t[2][0] for t in spec.trans[s] if t[2]} for s in spec.states}
    edges, exits = _linear_parts(spec, {"a", "b", "*"})
    target = dict(exits)
    for comp in _sccs(spec.states, succ):
        members = set(comp)
        closed = all(
            sum(w for w, _, _ in spec.trans[s]) == 1
            and all(t[2] and t[2][0] in members and t[1] in ("a", "b")
                    for t in spec.trans[s])
            for s in comp)
        if closed and any(t[1] == "a" for s in comp for t in spec.trans[s]):
            for s in comp:
                edges[s] = {}
                target[s] = Fraction(1)
    return _reach_solve(spec.states, edges, target)


# --- probabilistic branching: Newton ---------------------------------------


def prob_branching_mu(spec: Spec) -> dict:
    """Least extent of a branching prob model by Newton's method from 0 on
    the states with a positive value (found by a boolean pre-pass), in
    80-digit decimal arithmetic.  Converges monotonically from below."""
    ctx = decimal.Context(prec=80)
    pos: set[str] = set()
    changed = True
    while changed:
        changed = False
        for s in spec.states:
            if s not in pos and any(all(t in pos for t in succ)
                                    for _, _, succ in spec.trans[s]):
                pos.add(s)
                changed = True
    live = [s for s in spec.states if s in pos]
    idx = {s: i for i, s in enumerate(live)}
    D = lambda q: ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    terms = {s: [(D(w), [t for t in succ]) for w, _, succ in spec.trans[s]
                 if all(t in pos for t in succ)] for s in live}
    x = [decimal.Decimal(0)] * len(live)
    for _ in range(400):
        n = len(live)
        fx = []
        jac = [[decimal.Decimal(0)] * n for _ in range(n)]
        for i, s in enumerate(live):
            total = decimal.Decimal(0)
            for w, succ in terms[s]:
                vals = [x[idx[t]] for t in succ]
                prod = w
                for v in vals:
                    prod = ctx.multiply(prod, v)
                total = ctx.add(total, prod)
                for k, t in enumerate(succ):
                    d = w
                    for m, v in enumerate(vals):
                        if m != k:
                            d = ctx.multiply(d, v)
                    jac[i][idx[t]] = ctx.add(jac[i][idx[t]], d)
            fx.append(total)
        # solve (I - J) delta = f(x) - x
        a = [[(decimal.Decimal(1) if i == j else decimal.Decimal(0)) - jac[i][j]
              for j in range(n)] + [ctx.subtract(fx[i], x[i])] for i in range(n)]
        for c in range(n):
            piv = max(range(c, n), key=lambda r: abs(a[r][c]))
            a[c], a[piv] = a[piv], a[c]
            if a[c][c] == 0:
                break
            for r in range(n):
                if r != c and a[r][c] != 0:
                    f = ctx.divide(a[r][c], a[c][c])
                    a[r] = [ctx.subtract(u, ctx.multiply(f, v)) for u, v in zip(a[r], a[c])]
        delta = [ctx.divide(a[i][n], a[i][i]) if a[i][i] != 0 else decimal.Decimal(0)
                 for i in range(n)]
        x = [min(decimal.Decimal(1), ctx.add(u, d)) for u, d in zip(x, delta)]
        if max((abs(d) for d in delta), default=0) < decimal.Decimal(10) ** -60:
            break
    return {s: (Fraction(x[idx[s]]) if s in idx else Fraction(0)) for s in spec.states}


# --- tropical: Dijkstra and closed forms ------------------------------------


def _dijkstra(spec: Spec, source: dict, labels=None) -> dict:
    """Least cost to a source over arity-1 transitions (weights >= 0)."""
    rev: dict[str, list] = {s: [] for s in spec.states}
    for s in spec.states:
        for w, lbl, succ in spec.trans[s]:
            if succ and (labels is None or lbl in labels):
                rev[succ[0]].append((s, w))
    dist = {s: INF for s in spec.states}
    heap = []
    for s, c in source.items():
        if c < dist[s]:
            dist[s] = c
            heapq.heappush(heap, (c, s))
    while heap:
        d, t = heapq.heappop(heap)
        if d > dist[t]:
            continue
        for s, w in rev[t]:
            if d + w < dist[s]:
                dist[s] = d + w
                heapq.heappush(heap, (d + w, s))
    return dist


def _exit_sources(spec: Spec, labels=None) -> dict:
    src = {}
    for s in spec.states:
        for w, lbl, succ in spec.trans[s]:
            if not succ and (labels is None or lbl in labels):
                src[s] = min(src.get(s, INF), w)
    return src


def _zero_cycle_states(spec: Spec, need_label=None) -> set[str]:
    zero = {s: {t[2][0] for t in spec.trans[s]
                if t[2] and t[0] == 0} for s in spec.states}
    out = set()
    for comp in _sccs(spec.states, zero):
        if not _cyclic(comp, zero):
            continue
        members = set(comp)
        if need_label is None or any(
                t[1] == need_label and t[0] == 0 and t[2] and t[2][0] in members
                for s in comp for t in spec.trans[s]):
            out |= members
    return out


def trop_extent_dijkstra(spec: Spec, direction: str) -> dict:
    """Extents of an arity <= 1 trop model without offsets: the least
    extent is the cheapest completed run, the greatest the cheapest maximal
    run, where an infinite run is finite only once it stays on a zero-cost
    cycle."""
    src = _exit_sources(spec)
    if direction == "nu":
        for s in _zero_cycle_states(spec):
            src[s] = 0
    return _dijkstra(spec, src)


def trop_nested(spec: Spec) -> dict:
    """nu X. mu Y. ([a](X) | [b](Y) | [*]) on an arity <= 1 trop model: the
    cheapest run that ends in '*' or takes 'a' infinitely often at finite
    cost, that is on a zero-cost cycle through an 'a' transition."""
    labels = {"a", "b", "*"}
    src = _exit_sources(spec, labels)
    for s in _zero_cycle_states(spec, need_label="a"):
        src[s] = 0
    return _dijkstra(spec, src, labels)


def bool_nested(spec: Spec) -> dict:
    """The boolean reading of `trop_nested`: some run ends in '*' or takes
    'a' infinitely often, that is reaches a cycle through an 'a' edge."""
    succ = {s: {t[2][0] for t in spec.trans[s] if t[2]} for s in spec.states}
    good = {s for s in spec.states if any(not t[2] and t[1] == "*" for t in spec.trans[s])}
    for comp in _sccs(spec.states, succ):
        members = set(comp)
        if any(t[1] == "a" and t[2] and t[2][0] in members
               for s in comp for t in spec.trans[s]):
            good |= members
    rev = {s: set() for s in spec.states}
    for s in spec.states:
        for _, lbl, t in spec.trans[s]:
            if t and lbl in ("a", "b"):
                rev[t[0]].add(s)
    todo = list(good)
    while todo:
        t = todo.pop()
        for s in rev[t]:
            if s not in good:
                good.add(s)
                todo.append(s)
    return {s: int(s in good) for s in spec.states}


def offset_ring_nu(ws: list[int], os: list[int]) -> list:
    """Greatest extent of an exit-free trop ring with offsets, where state i
    steps to i+1 at cost ws[i] and is replenished by os[i].  The map around
    the ring from state i is y -> max(y + A, B); its least fixpoint is B
    when A <= 0 and inf otherwise."""
    n = len(ws)
    out = []
    for i in range(n):
        a, b = 0, -INF
        for k in range(n - 1, -1, -1):
            j = (i + k) % n
            d = ws[j] - os[j]
            a, b = a + d, max(b + d, 0)
        out.append(INF if a > 0 else b)
    return out


# --- extents by semiring ----------------------------------------------------


def extent(spec: Spec, direction: str) -> dict:
    """Reference extent of a generated model, by the method its family
    admits (see the module docstring)."""
    ops = Ops(spec.semiring)
    if spec.semiring == "bool" or ops.bound is not None:
        return _iterate(spec, ops, ops.zero if direction == "mu" else ops.one)
    if spec.semiring == "prob":
        if spec.max_arity <= 1:
            return prob_extent_linear(spec, direction)
        if direction == "mu":
            return prob_branching_mu(spec)
        raise ValueError("no reference for the greatest extent of a branching prob model")
    if spec.max_arity <= 1 and not spec.offsets:
        return trop_extent_dijkstra(spec, direction)
    raise ValueError(f"no trop reference for {spec.name}")


# --- fixpoint-free formulas and trace behaviours ----------------------------


def modal_eval(spec: Spec, formula, ext: dict) -> dict:
    """Value of a fixpoint-free formula given as nested tuples:
    ('T',), ('F',) or ('modal', ((label, (arg, ...)), ...))."""
    ops = Ops(spec.semiring)
    if formula[0] == "T":
        return dict(ext)
    if formula[0] == "F":
        return {s: ops.zero for s in spec.states}
    children = {lbl: [modal_eval(spec, a, ext).__getitem__ for a in args]
                for lbl, args in formula[1]}
    return {s: unfold(spec, ops, s, children) for s in spec.states}


def render_formula(formula) -> str:
    if formula[0] in ("T", "F"):
        return formula[0]
    return " | ".join(
        f"[{lbl}]" + (f"({', '.join(render_formula(a) for a in args)})" if args else "")
        for lbl, args in formula[1])


# A trace fragment is 'T' or (label, (child, ...)).


def render_fragment(frag) -> str:
    if frag == "T":
        return "T"
    lbl, kids = frag
    return lbl if not kids else f"{lbl}(" + ", ".join(render_fragment(k) for k in kids) + ")"


def lt(spec: Spec, state: str, frag, ext: dict):
    if frag == "T":
        return ext[state]
    lbl, kids = frag
    return unfold(spec, Ops(spec.semiring), state,
                  {lbl: [lambda t, k=k: lt(spec, t, k, ext) for k in kids]})


def tr(spec: Spec, state: str, frag, n: int):
    """Depth-n approximant (plain models, so the offset step is the
    identity); ftr is the same recursion on a completed trace, where the
    depth never runs out."""
    ops = Ops(spec.semiring)
    if n == 0:
        return ops.one
    lbl, kids = frag
    return unfold(spec, ops, state, {lbl: [lambda t, k=k: tr(spec, t, k, n - 1) for k in kids]})


def fragments_upto(labels, depth: int) -> list:
    """Every trace fragment of depth <= `depth`; nullary nodes sit at depth 1."""
    levels = [["T"]]
    for d in range(1, depth + 1):
        pool = [f for lv in levels for f in lv]
        level = []
        for lbl, ar in labels:
            if ar == 0:
                if d == 1:
                    level.append((lbl, ()))
                continue
            for combo in _tuples(pool, ar):
                if max(frag_depth(c) for c in combo) == d - 1:
                    level.append((lbl, combo))
        levels.append(level)
    return [f for lv in levels for f in lv]


def truncations(labels, n: int) -> list:
    if n == 0:
        return ["T"]
    sub = truncations(labels, n - 1)
    out = []
    for lbl, ar in labels:
        if ar == 0:
            out.append((lbl, ()))
        else:
            out.extend((lbl, combo) for combo in _tuples(sub, ar))
    return out


def _tuples(pool, n):
    if n == 0:
        return [()]
    return [(h,) + rest for h in pool for rest in _tuples(pool, n - 1)]


def frag_depth(frag) -> int:
    if frag == "T":
        return 0
    return 1 + max((frag_depth(k) for k in frag[1]), default=0)
