"""Step-wise formula evaluation and extent computation.

Predicates are plain dicts from state name to semiring scalar, defined on
exactly the model's state set.  Fixpoints are computed by Kleene iteration
with a per-semiring stop rule:

* boolean (run as trop[0], see ``semiring.py``) / bounded tropical:
  exact stabilisation (finite carriers);
* probabilistic: stop once the estimated distance to the limit (per-step
  change scaled by the measured contraction ratio) certifies epsilon
  accuracy, recording a convergence certificate (iteration count, last
  delta, tail bound).  Iterates are lists of ``(numerator,
  denominator)`` integer pairs, and the operator, the grid snapping, the
  monotonicity check and the stop rule all run on them;
* tropical: exact stabilisation, with any state that grows past
  ``promote_bound`` while still strictly changing promoted to infinity.
  Promotion only arises on chains that increase towards the numeric
  supremum; decreasing chains over the naturals stabilise on their own.

Two kinds of fixpoint block are not iterated, so they never depend on
``promote_bound``, ``max_iterations`` or the epsilon stop:

* extents (the embedded extent behind T included) of boolean models,
  whose offsets are the identity, and of offset-free tropical and
  bounded tropical ones: ``_trop_extent`` solves them exactly with
  Knuth's generalisation of Dijkstra's algorithm;
* probabilistic blocks affine in their variable on offset-free models:
  ``_affine_fixpoint`` solves x = A x + c exactly with
  ``_linear.least_solution``.  Each prob block's equations have one row
  form, built only by ``_poly`` and read as is by every solver: the
  extent's straight from the model's transitions, a binder's by
  ``_eval`` with the variable bound to a ``_Poly`` identity, affine
  unless a transition has two successors that depend on the variable.
  A binder whose variable an inner binder mentions builds no rows.

A probabilistic ``mu`` block of degree 2 or more on an offset-free model
(a branching extent, or a binder such as ``mu X. ([s](X, X) | [e])``) is
a polynomial system x = P(x).  ``_qualitative.one_states`` decides its
states of value 0 (not productive) and of value 1 (by the spectral
radius of P'(1) on each strongly connected component) exactly, and its
chain starts from the indicator of the value-1 states: a pre-fixpoint
below the lfp, so the chain keeps its checks and its limit, and the
value-0 and value-1 states are exact (``_solve_block``).  The other
states converge at Kleene's rate.

The graph searches (SCCs, zero-cost and productive states, the
transition index and ``settle``, the Knuth loop behind ``_trop_extent``
and ``productive``) are in ``_graph``.  Kleene iteration remains for
tropical and probabilistic models with offsets (truncated subtraction
is not a superior function, and the probabilistic offset divides), for
the other probabilistic blocks and the other semirings' formula
fixpoints; ``kleene`` stays the reference both solvers are tested
against.  No setting chooses between solver and chain: the shape of the
model and of the formula does.

The constant T denotes the greatest extent.  A query computes it at most
once, on first use, by ``_extent``, the routine behind ``extent --nu``
(``nu_extent_result``), so T under a binder is the extent itself bit for
bit.  Greatest fixpoints of formulas are seeded at T, while the extent
computation itself is seeded at the constant-one predicate (the lattice
top).  ``_compile`` fixes each binder's block from the formula before
``_eval`` runs: nested ones (in another binder's body) that still
iterate run with ``force_exact`` (see ``kleene``).

The extent operator, the Modal clause and T all run through one
transition-step kernel (``Semiring.step``: one for prob, one shared by
bool and the tropical family) on the model's compiled form; the path
oracle is the separate view that cross-checks it.  Inside, predicates
are lists by state id in the kernel form (``Semiring.pack``); name-keyed
dicts of scalars appear only at the public functions.

Everything here is pure; a shared Model can serve concurrent evaluations.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import gcd, lcm
from operator import ge, le

from ._record import Record
from .errors import EvaluationError, NonConvergence, NonMonotoneChain, quote
from .logic import TOP, Formula, Modal, Mu, Nu, Top, Var, WeightedSum, _children, _fold
from .model import CompiledModel, Model
from .semiring import INF, Semiring

Predicate = dict


class EvalConfig(Record, epsilon=Fraction(1, 10**9), max_iterations=10**6,
                 promote_bound=None, enum_cap=200_000):
    """Convergence controls; exactness per semiring is chosen automatically.
    `promote_bound` is derived from the model when absent."""

    __slots__ = ("epsilon", "max_iterations", "promote_bound", "enum_cap")

    def __post_init__(self):
        if not isinstance(self.epsilon, (int, Fraction)):  # a float makes the stop rule inexact
            raise TypeError(f"epsilon must be an int or a Fraction, got {self.epsilon!r}")
        self.epsilon = Fraction(self.epsilon)
        for name in ("max_iterations", "enum_cap", "promote_bound"):
            v = getattr(self, name)
            if not isinstance(v, int) and not (v is None and name == "promote_bound"):
                raise TypeError(f"{name} must be an int, got {v!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.enum_cap < 1:
            raise ValueError("enum_cap must be at least 1")
        if self.promote_bound is not None and self.promote_bound < 0:
            raise ValueError("promote_bound must be at least 0")


class KleeneReport(Record, last_delta=None, tail_bound=None, promoted=()):
    # last_delta: the probabilistic stop rule's last step; tail_bound: the
    # estimated distance to the limit; promoted: states promoted to infinity
    __slots__ = ("iterations", "last_delta", "tail_bound", "promoted")


class KleeneResult(Record):
    __slots__ = ("values", "report")


# Probabilistic iterates are kept on a fixed denominator grid once they get
# finer than this; otherwise slowly-mixing chains accumulate denominators of
# thousands of digits and exact arithmetic dominates the runtime.  Rounding
# is directional (towards the start of the chain), so iterates stay monotone
# and on the safe side of the limit; the error per step is below 2^-128,
# orders of magnitude under any epsilon in use.
_GRID_BITS = 128
_DENOM_CAP = 1 << _GRID_BITS
_GRID_ERROR = Fraction(1, 1 << 100)


def _left_direction(direction: str, name, step: int) -> NonMonotoneChain:
    return NonMonotoneChain(
        f"fixpoint chain left the {direction} direction at state {name!r} "
        f"(step {step}); seed the iteration below the extent")


def _no_fixpoint(cfg: EvalConfig, names, cur: list, prev: list | None) -> NonConvergence:
    return NonConvergence(
        f"no fixpoint after {cfg.max_iterations} iterations",
        last=dict(zip(names, cur)), previous=None if prev is None else dict(zip(names, prev)),
        iterations=cfg.max_iterations)


def kleene(semiring: Semiring,
           operator: Callable,
           start: list,
           direction: str,
           cfg: EvalConfig,
           promote_bound: int | None = None,
           force_exact: bool = False,
           names: tuple[str, ...] | None = None) -> KleeneResult:
    """Iterate a monotone operator from `start` until the stop rule fires.

    Iterates are lists by state id in the kernel form (`Semiring.pack`:
    integer pairs (n, d) on prob, trop[0] values on bool), named by
    `names` (default: the ids) in reports and errors; `NonConvergence`
    reports scalars.

    Chains are checked to stay monotone in the induced order (increasing
    for lfp, decreasing for gfp); a violation raises NonMonotoneChain.
    Raises NonConvergence after cfg.max_iterations, reporting the final
    two iterates.

    On tropical gfp chains, a state that grows past `promote_bound` while
    still strictly changing is promoted to infinity; with no bound,
    nothing is promoted.

    Probabilistic chains stop once the largest per-state step d certifies
    epsilon accuracy: with p the previous step and r = d/p < 1 the
    measured contraction ratio, the estimated distance to the limit is
    the geometric tail d*r/(1-r) = d^2/(p-d), and the chain stops when
    both d and that tail fall below epsilon/64, or when d falls below
    epsilon^2.  It compares the iterates' integer pairs by
    cross-multiplication (see `_prob_kleene`).

    With `force_exact`, probabilistic chains run to exact stabilisation on
    the denominator grid instead of the epsilon stop.  The evaluator sets
    it for fixpoints nested lexically inside another binder's body: their
    stopping noise would otherwise swamp the enclosing chain's progress
    and defeat its contraction estimate (affine blocks are solved exactly
    instead, see `_affine_fixpoint`).  T is not such a fixpoint: it is
    the greatest extent, computed once per query, exactly where `_extent`
    can and otherwise with the epsilon stop.
    """
    names = names or tuple(range(len(start)))
    if semiring.kind == "probabilistic":
        return _prob_kleene(semiring, operator, start, direction, cfg, force_exact, names)
    promoting = promote_bound is not None and semiring.kind == "tropical" and direction == "gfp"
    # the kernel form of the tropical family and bool (as trop[0]) is
    # ordered by numeric >=; consecutive iterates must be `in_order`
    in_order = ge if direction == "lfp" else le

    cur = list(start)
    prev: list | None = None
    promoted: set[int] = set()
    for i in range(1, cfg.max_iterations + 1):
        nxt = operator(cur)
        if promoting:
            for s, v in enumerate(nxt):
                if v != INF and v > promote_bound and v != cur[s]:
                    nxt[s] = INF
                    promoted.add(s)
        if not all(map(in_order, cur, nxt)):
            raise _left_direction(direction, names[list(map(in_order, cur, nxt)).index(False)], i)
        if nxt == cur:
            return KleeneResult(nxt, KleeneReport(
                i, None, None, tuple(sorted(names[s] for s in promoted))))
        prev, cur = cur, nxt
    raise _no_fixpoint(cfg, names, semiring.unpack(cur), prev and semiring.unpack(prev))


def _prob_kleene(semiring: Semiring, operator: Callable, start: list, direction: str,
                 cfg: EvalConfig, force_exact: bool, names) -> KleeneResult:
    """`kleene` on the probabilistic semiring.

    Iterates are integer pairs (n, d), each in lowest terms or a grid
    point (d = 2^128), so the grid test d > 2^128 is decided as on the
    normalised value.  One pass per iteration snaps to the grid (with the
    clamp to the previous iterate), checks monotonicity, detects
    stabilisation and finds the largest step.  The stop rule compares by
    cross-multiplication, so Fractions are built only for the report.
    """
    lfp = direction == "lfp"
    # the epsilon stop: margin mp/mq for the distance to the limit,
    # estimated from the measured contraction ratio, and fallback fp/fq
    mp, mq = (cfg.epsilon / 64).as_integer_ratio()
    fp, fq = (cfg.epsilon ** 2).as_integer_ratio()

    cur = list(start)
    prev: list | None = None
    pn, pd = 0, 0  # the previous iteration's largest step pn/pd; pd = 0 until one
    gridded = False
    for i in range(1, cfg.max_iterations + 1):
        nxt = operator(cur)
        dn, dd = 0, 1  # the largest step, as the integer fraction dn/dd
        for s, (cn, cd) in enumerate(cur):
            n, d = nxt[s]
            if d > _DENOM_CAP:
                gridded = True
                # directional rounding: down for lfp, up for gfp (stay on
                # the start's side of the limit)
                g, r = divmod(n << _GRID_BITS, d)
                if r and not lfp:
                    g += 1
                # rounding can overshoot the previous iterate by one grid
                # step when that iterate sits off the grid; clamp to keep
                # the chain monotone, unless the value itself turned back
                if (g * cd < cn << _GRID_BITS) if lfp else (g * cd > cn << _GRID_BITS):
                    if (n * cd < cn * d) if lfp else (n * cd > cn * d):
                        raise _left_direction(direction, names[s], i)
                    nxt[s] = cur[s]
                    continue
                n, d = g, _DENOM_CAP
                nxt[s] = n, d
            # the chain rises for lfp and falls for gfp: the step is
            # step/(d*cd), negative when the chain turned back
            step = n * cd - cn * d if lfp else cn * d - n * cd
            if step < 0:
                raise _left_direction(direction, names[s], i)
            den = d * cd
            if step * dd > dn * den:
                dn, dd = step, den
        if not dn:  # stabilised
            zero = Fraction(0)
            return KleeneResult(nxt, KleeneReport(i, zero, _GRID_ERROR if gridded else zero))
        if not force_exact:
            # with r = d/p the ratio to the previous step p, the tail
            # d*r/(1-r) is d^2/(p-d) = tn/td; compare both with margin
            gap = pn * dd - dn * pd  # (p - d) * pd * dd, positive when d < p
            if gap > 0:
                tn, td = dn * dn * pd, dd * gap
                if dn * mq < mp * dd and tn * mq < mp * td:
                    return KleeneResult(nxt, KleeneReport(i, Fraction(dn, dd), Fraction(tn, td)))
            if dn * fq < fp * dd:  # fallback for erratic ratios
                last = Fraction(dn, dd)
                return KleeneResult(nxt, KleeneReport(i, last, last))
            pn, pd = dn, dd
        prev, cur = cur, nxt
    raise _no_fixpoint(cfg, names, semiring.unpack(cur), prev and semiring.unpack(prev))


def _trop_extent(cm: CompiledModel, direction: str) -> KleeneResult:
    """Exact extent of a bool model or an offset-free (bounded) tropical
    one; bool runs as trop[0], every weight 0 and its offsets the identity.

    A transition of weight w to successors x1 .. xk contributes
    w + x1 + ... + xk, so `_graph.settle` (Knuth's generalisation of
    Dijkstra's algorithm) solves the extent over the transition index; on
    trop[B] an offer above B is infinity.  This is the lfp, the cheapest
    finite run tree.  For the gfp, run trees may be infinite: the states
    with a zero-cost run tree are seeded at 0 as well.

    The report counts settled states as iterations; for the gfp off
    bool, `promoted` lists the infinite states.
    """
    import semimc._graph as graph  # loaded on first use; a relative import is slower

    bound = cm.semiring.bound
    owner, weight, waiting, uses = graph.transitions(cm.rows)
    zero = graph.zero_cost_states(owner, weight, uses) if direction == "gfp" else []
    value = graph.settle(owner, weight, waiting, uses, [(0, s) for s in zero], bound)
    promoted = ()
    if direction == "gfp" and bound:  # bool (trop[0]) promotes nothing
        promoted = tuple(sorted(cm.states[s] for s, v in enumerate(value) if v == INF))
    return KleeneResult(value, KleeneReport(len(value) - value.count(INF), promoted=promoted))


class _Poly(list):
    """A prob value polynomial in the variable x of the binder being
    solved: per state, a row in the form of `_poly`."""


class _NotPoly(Exception):
    """Ends the attempt to solve a binder from its rows; its chain runs
    from the plain start instead."""


# The most terms `_step_terms` forms as one transition's product of
# polynomial successors.  Modalities nested in a binder body could
# otherwise multiply the terms of a row at every level.  A block past the
# cap runs its chain from the plain start (0 for mu, T for nu), undecided.
_PRODUCT_CAP = 64


def _poly(rows) -> _Poly:
    """`rows`, per state terms (n, d, m) for n/d * x_m1 * ... * x_mk, in
    the row form of every prob block: per state (den, {m: num}), den the
    terms' least common denominator, each monomial m a sorted tuple of
    state ids (() for the constant) and no numerator 0.  The one mass
    check: ends the attempt when a row exceeds 1 at x = 1 (only on a model
    or formula validation rejects), and the chain runs and raises at its sum."""
    out = _Poly()
    for row in rows:
        den, nums = lcm(*[d for _, d, _ in row]), {}
        for n, d, m in row:
            nums[m] = nums[m] + n * (den // d) if m in nums else n * (den // d)
        if sum(nums.values()) > den:
            raise _NotPoly
        out.append((den, nums if all(nums.values()) else {m: n for m, n in nums.items() if n}))
    return out


def _step_terms(cm: CompiledModel, args: list) -> _Poly:
    """`cm.step(args)` where some arguments are polynomial values
    (`_Poly`), as rows (`_poly`): a transition with several polynomial
    successors contributes the product of their terms.  Ends the attempt
    when a product would have more than `_PRODUCT_CAP` terms."""
    out = []
    for row in cm.rows:
        terms = []
        for (n, d), lid, succs in row:
            preds = args[lid]
            if preds is None:
                continue
            sub = None  # the product of the polynomial successors' terms
            for k, s in succs:
                if type(preds[k]) is _Poly:
                    den, nums = preds[k][s]
                    p = [(v, den, q) for q, v in nums.items()]
                    if sub is None:
                        sub = p
                    elif len(sub) * len(p) > _PRODUCT_CAP:
                        raise _NotPoly
                    else:
                        sub = [(a * b, c * e, tuple(sorted(m + q)))
                               for a, c, m in sub for b, e, q in p]
                else:
                    vn, vd = preds[k][s]
                    n *= vn
                    d *= vd
            if n:
                terms += [(n, d, ())] if sub is None else [(n * a, d * c, m) for a, c, m in sub]
        out.append(terms)
    return _poly(out)


def _sum_terms(terms: list) -> _Poly:
    """`Semiring.weighted_sum` on prob where some operands are polynomial values."""
    out = [[] for _ in terms[0][1]]
    for c, p in terms:
        a, b = c.as_integer_ratio()
        for row, (d, nums) in zip(out, p if type(p) is _Poly else ((d, {(): n}) for n, d in p)):
            row += [(a * n, b * d, m) for m, n in nums.items()]
    return _poly(out)


def _affine_fixpoint(rows: _Poly, top: list | None) -> tuple[list, int] | None:
    """The fixpoint of the prob affine map f(x) = A x + c in `rows`
    (`_poly`, of degree at most 1), exactly: the least when `top` is
    None, else the greatest below `top`.  Returns pairs and the states
    solved by elimination, or None when the chain must run.

    The lfp is `least_solution` of the rows as they are (`_poly` checked
    A 1 + c <= 1, so the chain from 0 stays in [0, 1]).  The gfp is
    top - y, y the lfp of y = A y + top - f(top), if top - f(top) >= 0
    (else the chain from `top` rises); its rows take the same form, on
    integers, and its chain stays below `top`.
    """
    # imported on first use: with no bytecode cache, every process that
    # imports semimc would otherwise compile the solver; a relative import is slower
    import semimc._linear as linear

    if top is not None:
        complement = []
        for (tn, td), (den, nums) in zip(top, rows):
            # den * lcm(the top denominators of the moves) clears f(top)
            scale = lcm(td, den * lcm(*[top[m[0]][1] for m in nums if m]))
            row = {m: n * (scale // den) for m, n in nums.items()}
            b = tn * (scale // td) - row.pop((), 0)
            for (j,), v in row.items():
                b -= v * top[j][0] // top[j][1]
            if b < 0:
                return None
            if b:
                row[()] = b
            complement.append((scale, row))
        rows = complement
    value, solved = linear.least_solution(rows)
    # pairs in lowest terms, as the grid test needs
    pairs = [v.as_integer_ratio() for v in value]
    if top is not None:  # x = top - y
        for i, ((tn, td), (p, q)) in enumerate(zip(top, pairs)):
            n, d = tn * q - p * td, td * q
            g = gcd(n, d)
            pairs[i] = n // g, d // g
    return pairs, solved


def _solve_block(cm: CompiledModel, op: Callable, rows: _Poly | None, start: list,
                 direction: str, cfg: EvalConfig, bound: int | None,
                 nested: bool = False) -> KleeneResult:
    """A fixpoint block of operator `op`: the extent's, or a binder's.
    `rows` is its body in its variable, in the one row form (`_poly`), or
    None off an offset-free prob model or when building them ended
    (`_NotPoly`).  A body of degree at most 1 is solved exactly by
    `_affine_fixpoint` when its check passes.  Otherwise `kleene` runs
    (`force_exact` when `nested`), for an lfp of degree 2 or more from the
    indicator of its states of value 1 (`_qualitative.one_states`): a
    pre-fixpoint below the lfp, so the chain keeps its checks and limit,
    and where every state has value 0 or 1 it stabilises on its first step."""
    if rows is not None:
        if all(len(m) < 2 for _, nums in rows for m in nums):
            res = _affine_fixpoint(rows, start if direction == "gfp" else None)
            if res:
                return KleeneResult(res[0], KleeneReport(res[1], Fraction(0), Fraction(0)))
        elif direction == "lfp":
            import semimc._qualitative as qualitative  # loaded on first use, as `_linear` is
            start = [(1, 1) if one else (0, 1) for one in qualitative.one_states(rows)]
    return kleene(cm.semiring, op, start, direction, cfg, bound,
                  force_exact=nested, names=cm.states)


def default_promote_bound(model: Model, formula_size: int = 0) -> int:
    """Divergence cutoff for the Kleene chains of a tropical model: a
    state still strictly growing past it is promoted to infinity.

    A finite value is witnessed by a run tree, not a path, so the cutoff
    carries a branching factor for labels of arity up to A.  The factor
    is capped at A^6, so this is a heuristic, not a bound: past 6 states
    with arity >= 2 a finite value can exceed it and be promoted wrongly
    (a chain of n states each doubling the one below has value 2^n - 1).
    Offset-free tropical extents do not use it (see `_trop_extent`); it
    remains for models with offsets and for fixpoints of formulas.
    """
    n = max(1, len(model.states))
    max_arity = max((l.arity for l in model.signature.labels), default=1)
    branching = max(1, max_arity) ** min(n, 6)
    weight = max((w for row in model.compiled.rows for w, _, _ in row if w != INF), default=0)
    return n * (1 + weight) * (1 + formula_size) * branching


def _promote_bound(model: Model, cfg: EvalConfig, formula_size: int | None = 0) -> int | None:
    """The promote bound of `model`'s Kleene chains: None off the tropical
    kind, where no chain promotes (see `kleene`), else `cfg.promote_bound`
    or, when that is unset, `default_promote_bound`."""
    if model.descriptor.kind != "tropical":
        return None
    if cfg.promote_bound is not None:
        return cfg.promote_bound
    return default_promote_bound(model, formula_size)


def _extent(model: Model, cfg: EvalConfig, direction: str) -> KleeneResult:
    """The extent with list values: the routine behind the public extent
    functions and behind T."""
    cm, semiring = model.compiled, model.semiring
    if not cm.offset_ids and semiring.kind != "probabilistic":  # bool has no offsets
        return _trop_extent(cm, direction)
    start = semiring.pack([semiring.one if direction == "gfp" else semiring.zero] * len(cm.states))
    rows = None
    if not cm.offset_ids:
        # every label with the variable in every position: a term per transition
        try:
            rows = _poly([(n, d, (succs[0][1],) if len(succs) == 1 else
                           tuple(sorted([s for _, s in succs]))) for (n, d), _, succs in row]
                         for row in cm.rows)
        except _NotPoly:
            pass
    return _solve_block(cm, cm.extent_step, rows, start, direction, cfg,
                        _promote_bound(model, cfg))


def _extent_result(model: Model, cfg: EvalConfig | None, direction: str) -> KleeneResult:
    res = _extent(model, cfg or EvalConfig(), direction)
    return KleeneResult(dict(zip(model.compiled.states, model.semiring.unpack(res.values))),
                        res.report)


def nu_extent_result(model: Model, cfg: EvalConfig | None = None) -> KleeneResult:
    return _extent_result(model, cfg, "gfp")


def mu_extent_result(model: Model, cfg: EvalConfig | None = None) -> KleeneResult:
    return _extent_result(model, cfg, "lfp")


def nu_extent(model: Model, cfg: EvalConfig | None = None) -> Predicate:
    """Greatest fixpoint of the one-step extent operator, seeded at one."""
    return nu_extent_result(model, cfg).values


def mu_extent(model: Model, cfg: EvalConfig | None = None) -> Predicate:
    """Least fixpoint of the one-step extent operator, seeded at zero."""
    return mu_extent_result(model, cfg).values


class _EvalContext(Record, top=None):
    # promote_bound: None off the tropical kind; top: T, once needed
    __slots__ = ("model", "cfg", "promote_bound", "top")


class _Block(Record):
    # a binder's fixpoint block (`_compile`): direction "lfp" or "gfp", nested
    # in another binder's body, rows (`_poly`) may be built, body: its plan
    __slots__ = ("var", "direction", "nested", "rows", "body")


def _compile(f: Formula, model: Model) -> tuple[dict, int | None]:
    """`_eval`'s plan of `f` and, on the tropical kind, the size of `f`, in
    one fold.  A plan maps the distinct nodes of `f` or of a binder's body,
    by identity in postorder, to themselves, a binder to its `_Block`.  A
    binder's rows are built on an offset-free prob model unless its variable
    is free in a binder inside its body."""
    rows = model.semiring.kind == "probabilistic" and not model.compiled.offset_ids
    count, sizes = model.descriptor.kind == "tropical", {}
    blocks = [_Block(None, None, False, rows, {})]  # `f`, then the binders being walked

    def children(g):
        if id(g) in blocks[-1].body:  # in this plan already
            return ()
        if isinstance(g, (Mu, Nu)):
            blocks.append(_Block(g.var, "lfp" if isinstance(g, Mu) else "gfp", len(blocks) > 1,
                                 rows, {}))
        return _children(g)

    def leave(g, vs):
        if id(g) not in blocks[-1].body:
            if rows and isinstance(g, Var) and g.name != blocks[-1].var:
                # g is free in the innermost binder, so its own binder builds no rows
                # (a free g marks the block of `f`, whose flag nothing reads)
                next((b for b in reversed(blocks) if b.var == g.name), blocks[0]).rows = False
            step = blocks.pop() if isinstance(g, (Mu, Nu)) else g
            blocks[-1].body[id(g)] = step
            if count:
                sizes[id(g)] = 1 + sum(vs)
        return sizes.get(id(g))

    return blocks[0].body, _fold(f, leave, children)


def _eval(ctx: _EvalContext, plan: dict, env: dict) -> list:
    """Denotation as a kernel-form list of the formula whose plan
    (`_compile`) is `plan`, in one pass over it.  A binder is solved from
    this frame, so it costs five frames: this, `_solve_block`, `kleene`,
    `_prob_kleene`, the operator."""
    cm, semiring = ctx.model.compiled, ctx.model.semiring
    vals: dict = {}  # by node identity
    for key, g in plan.items():
        if isinstance(g, Top):
            if ctx.top is None:
                ctx.top = _extent(ctx.model, ctx.cfg, "gfp")
            v = ctx.top.values
        elif isinstance(g, Var):
            v = env.get(g.name)
            if v is None:
                raise EvaluationError(f"unbound variable {quote(g.name)}")
        elif isinstance(g, WeightedSum):
            terms = [(c, vals[id(op)]) for c, op in g.terms]
            poly = any(type(p) is _Poly for _, p in terms)
            v = _sum_terms(terms) if poly else semiring.weighted_sum(cm, terms)
        elif isinstance(g, Modal):
            args, poly = [None] * len(cm.label_ids), False
            for lbl, arglist in g.disjuncts:
                preds = tuple([vals[id(a)] for a in arglist])
                poly = poly or _Poly in map(type, preds)
                if lbl in cm.label_ids:  # other labels have no transitions
                    args[cm.label_ids[lbl]] = preds
            v = _step_terms(cm, args) if poly else cm.step(args)
        else:  # a binder's block
            var, body, rows = g.var, g.body, None
            start = (_eval(ctx, {id(TOP): TOP}, env) if g.direction == "gfp"
                     else semiring.pack([semiring.zero] * len(cm.states)))
            if g.rows:  # the body at the identity, as rows (_sum_terms) even without var
                x = _Poly((1, {(i,): 1}) for i in range(len(cm.states)))
                try:
                    rows = _sum_terms([(1, _eval(ctx, body, {**env, var: x}))])
                except _NotPoly:
                    pass
            v = _solve_block(cm, lambda p: _eval(ctx, body, {**env, var: p}), rows, start,
                             g.direction, ctx.cfg, ctx.promote_bound, g.nested).values
        vals[key] = v
    return v


def _check_valuation(model: Model, valuation: dict[str, Predicate] | None):
    for name, pred in (valuation or {}).items():
        if set(pred) != set(model.states):
            raise EvaluationError(
                f"valuation for {name!r} is not a total map over the states")
        for state, v in pred.items():
            if not model.semiring.contains(v):
                raise EvaluationError(f"valuation for {name!r} at state {quote(state)} "
                                      f"is {quote(v)}, outside the semiring's carrier")


def eval_formula(model: Model, formula: Formula,
                 valuation: dict[str, Predicate] | None = None,
                 cfg: EvalConfig | None = None) -> Predicate:
    """Denotation of `formula` on `model` as a predicate over its states.

    `valuation` must cover the free variables.  Greatest fixpoints are
    seeded at the interpretation of T; least fixpoints at constant zero.
    """
    return eval_with_certificate(model, formula, valuation, cfg)[0]


def eval_with_certificate(model: Model, formula: Formula,
                          valuation: dict[str, Predicate] | None = None,
                          cfg: EvalConfig | None = None) -> tuple[Predicate, KleeneReport | None]:
    """Like eval_formula, also returning the convergence certificate of the
    embedded extent computation (None when T never had to be computed)."""
    cfg = cfg or EvalConfig()
    _check_valuation(model, valuation)
    plan, n = _compile(formula, model)
    ctx = _EvalContext(model, cfg, _promote_bound(model, cfg, n))
    states, semiring = model.compiled.states, model.semiring
    env = {name: semiring.pack([pred[s] for s in states])
           for name, pred in (valuation or {}).items()}
    values = semiring.unpack(_eval(ctx, plan, env))
    return dict(zip(states, values)), None if ctx.top is None else ctx.top.report
