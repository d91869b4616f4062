"""Independent path-based semantics by brute-force cylinder enumeration.

A path fragment records the states actually visited: leaves at the cut
depth carry just a state, inner nodes carry a state, a label and one child
per label argument.  The uniform-depth fragments from a state have
pairwise disjoint cylinders that jointly cover all maximal paths from it,
so summing cylinder measures over any uniform depth recovers the state's
extent, and summing over the satisfying fragments of a modal formula
computes the formula's value without ever touching the step-wise
evaluator's recursion.

``compare_semantics`` runs both computations on the fixpoint-free
approximant of a formula and reports the per-state discrepancy, which the
two-semantics equivalence pins at zero on exact semirings and within a
certificate-derived tolerance on probabilistic models.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ._record import Record
from .errors import EvaluationError, NonConvergence, SizingError, ValidationError
from .evaluator import (EvalConfig, KleeneReport, Predicate, eval_formula,
                        nu_extent_result)
from .logic import (Formula, FormulaClass, Modal, Top, WeightedSum, _fold, classify,
                    unroll)
from .model import Model
from .semiring import INF, UNDEFINED, render_scalar


class StateLeaf(Record, frozen=True):
    __slots__ = ("state",)


class PathNode(Record, frozen=True):
    __slots__ = ("state", "label", "children")


PathFragment = StateLeaf | PathNode


def enum_fragments(model: Model, state: str, depth: int, cap: int | None = None):
    """Uniform-depth path fragments from `state`: state leaves exactly at
    the cut depth, branches may complete earlier through nullary labels.
    Depth 0 yields just the state leaf, and a negative depth is a
    ValidationError.  The cap is checked against the fragment count
    before anything is materialised; enumerated fragments share their
    sub-fragments."""
    if depth < 0:
        raise ValidationError(f"depth must be at least 0, got {depth}")
    if cap is not None and count_fragments(model, state, depth, cap) > cap:
        raise SizingError(f"more than {cap} path fragments at depth {depth}")
    reach = [{state}]  # reach[i]: the states i steps below `state`
    for _ in range(depth):
        reach.append({s for c in reach[-1] for t in model.transitions[c] for s in t.successors})
    pools = {c: [StateLeaf(c)] for c in reach.pop()}  # built level by level from the cut up
    while reach:
        pools = {c: [PathNode(c, t.label, combo) for t in model.transitions[c]
                     for combo in product(*[pools[s] for s in t.successors])]
                 for c in reach.pop()}
    yield from pools[state]


def count_fragments(model: Model, state: str, depth: int, cap: int | None = None) -> int:
    """Number of uniform-depth fragments from `state`, without enumerating;
    with `cap`, each count stops at cap + 1, so the integers stay small."""
    counts = {s: 1 for s in model.states}  # depth 0: the state leaf
    for _ in range(depth):
        nxt = {}
        for s in model.states:
            total = 0
            for t in model.transitions[s]:
                prod = 1
                for succ in t.successors:
                    prod *= counts[succ]
                total += prod
            nxt[s] = total if cap is None else min(total, cap + 1)
        counts = nxt
    return counts[state]


def cyl_measure(model: Model, q: PathFragment, cfg: EvalConfig | None = None,
                _extent: Predicate | None = None, _memo: dict | None = None):
    """Measure of the cylinder of `q`: extents at state leaves, transition
    weights multiplied through the children and offset per visited state.

    `_memo`, keyed by fragment identity, lets bulk callers reuse values of
    shared sub-fragments; the caller must keep the fragments alive.
    """
    cfg = cfg or EvalConfig()
    ext = _extent if _extent is not None else nu_extent_result(model, cfg).values
    semiring = model.semiring
    weights: dict = {}  # by identity, from the check in preorder to `leave`

    def children(frag: PathFragment) -> tuple:
        if isinstance(frag, StateLeaf):
            return ()
        roots = tuple([c.state for c in frag.children])
        w = weights[id(frag)] = model.transition_weight(frag.state, frag.label, roots)
        if w is None:
            raise ValidationError(
                f"fragment uses missing transition {frag.state} -{frag.label}-> {roots}")
        return frag.children

    def leave(frag: PathFragment, vals):
        if isinstance(frag, StateLeaf):
            return ext[frag.state]
        v = weights.pop(id(frag))
        for x in vals:
            v = semiring.times(v, x)
        o = model.offsets[frag.state]  # oslash(v, one) == v, as in `Semiring.step`
        return v if o == semiring.one else semiring.oslash(v, o)

    return _fold(q, leave, children, _memo if _memo is not None else {})


def frag_sat(q: PathFragment, psi: Formula) -> bool:
    """Qualitative satisfaction of a fixpoint-free formula on a fragment.

    The formula's modal depth must not exceed the fragment's cut depth, so
    the walk never asks a modal question at a state leaf.
    """
    todo = [(q, psi)]
    while todo:
        q, psi = todo.pop()
        if isinstance(psi, Top):
            continue
        if isinstance(psi, WeightedSum) and psi.terms:
            raise EvaluationError("path satisfaction is defined for the qualitative fragment only")
        if isinstance(psi, WeightedSum):
            return False
        if not isinstance(psi, Modal):
            raise EvaluationError("path satisfaction needs a fixpoint-free formula")
        if isinstance(q, StateLeaf):
            raise EvaluationError("formula deeper than the fragment cut")
        for lbl, args in psi.disjuncts:
            if lbl == q.label:
                todo += zip(q.children[::-1], args[::-1])
                break
        else:
            return False
    return True


def oracle_eval(model: Model, psi: Formula, state: str, depth: int,
                cfg: EvalConfig | None = None, _extent: Predicate | None = None,
                _cls: FormulaClass | None = None):
    """Path-based value of a fixpoint-free qualitative formula at a state:
    the total measure of the depth-`depth` fragments satisfying it.

    `_cls` is `classify(psi)` when the caller has it, so a caller that
    queries every state classifies the formula once.
    """
    cfg = cfg or EvalConfig()
    cls = _cls if _cls is not None else classify(psi)
    if not (cls.modal_only and cls.qualitative):
        raise EvaluationError("oracle_eval needs a fixpoint-free qualitative formula")
    if depth < cls.modal_depth:
        raise EvaluationError("enumeration depth below the formula's modal depth")
    ext = _extent if _extent is not None else nu_extent_result(model, cfg).values
    semiring = model.semiring
    fragments = list(enum_fragments(model, state, depth, cfg.enum_cap))
    memo: dict = {}
    terms = [cyl_measure(model, q, cfg, _extent=ext, _memo=memo)
             for q in fragments if frag_sat(q, psi)]
    total = semiring.sum(terms)
    if total is UNDEFINED:
        raise EvaluationError(
            "cylinder sum undefined; the enumerated cylinders no longer "
            "partition a set of bounded measure")
    return total


class StateComparison(Record):
    # verdict: 'ok' | 'mismatch'
    __slots__ = ("state", "stepwise", "oracle", "difference", "verdict")


class ComparisonReport(Record, rows=None, max_discrepancy=0, approximant_distance=0,
                       certificate=None):
    """Per-state comparison of the step-wise and path-based values of a
    fixpoint-free approximant, plus a non-contractual diagnostic distance
    between the approximant and the original fixpoint formula (None when
    the formula's own evaluation does not converge)."""

    __slots__ = ("semiring", "unroll_depth", "enum_depth", "tolerance", "rows",
                 "max_discrepancy", "approximant_distance", "certificate")

    def __post_init__(self):
        if self.rows is None:
            self.rows = []

    @property
    def ok(self) -> bool:
        return all(r.verdict == "ok" for r in self.rows)

    def to_dict(self, descriptor) -> dict:
        return {
            "semiring": self.semiring,
            "unroll": self.unroll_depth,
            "depth": self.enum_depth,
            "tolerance": _render_diff(self.tolerance, descriptor),
            "max_discrepancy": _render_diff(self.max_discrepancy, descriptor),
            "approximant_distance": _render_diff(self.approximant_distance, descriptor),
            "ok": self.ok,
            "rows": [
                {"state": r.state,
                 "stepwise": render_scalar(r.stepwise, descriptor),
                 "oracle": render_scalar(r.oracle, descriptor),
                 "difference": _render_diff(r.difference, descriptor),
                 "verdict": r.verdict}
                for r in self.rows
            ],
        }

    def to_text(self, descriptor) -> str:
        d = self.to_dict(descriptor)
        lines = [f"semantics cross-check (unroll {d['unroll']}, depth {d['depth']}, "
                 f"tolerance {d['tolerance']})"]
        lines += [f"  {r['state']}: stepwise={r['stepwise']} oracle={r['oracle']} "
                  f"diff={r['difference']} {r['verdict']}" for r in d["rows"]]
        lines.append(f"  max discrepancy: {d['max_discrepancy']}")
        lines.append(f"  approximant vs fixpoint distance (diagnostic): "
                     f"{d['approximant_distance'] or 'n/a'}")
        return "\n".join(lines)


def _render_diff(d, descriptor) -> str | None:
    """A difference as the report's semiring renders it, except a prob one
    with a denominator of 1000 or more, which prints as `%.3e`."""
    if d is None:  # unavailable
        return None
    if isinstance(d, Fraction) and d.denominator >= 1000:
        return f"{float(d):.3e}"
    return render_scalar(d, descriptor)


def certificate_tolerance(report: KleeneReport | None, depth: int, n_states: int) -> Fraction:
    """Bound on the step-wise/oracle discrepancy induced by an epsilon-
    converged extent: each enumeration level applies one more unfolding to
    the extent residual, which the certificate bounds."""
    if report is None or report.last_delta is None:
        return Fraction(0)
    residual = report.tail_bound if report.tail_bound is not None else report.last_delta
    return (residual + report.last_delta) * (depth + 2) * max(1, n_states) * 4


def compare_semantics(model: Model, phi: Formula, k: int,
                      cfg: EvalConfig | None = None) -> ComparisonReport:
    """Check the two semantics against each other at unrolling depth k.

    phi must be closed and qualitative.  psi = unroll(phi, k) is evaluated
    step-wise and through the path oracle at the matching enumeration
    depth; on boolean and tropical-family models any nonzero discrepancy
    is a mismatch, on probabilistic models the tolerance comes from the
    extent's convergence certificate.  A negative k is a ValidationError.
    """
    if k < 0:
        raise ValidationError(f"unrolling depth must be at least 0, got {k}")
    cfg = cfg or EvalConfig()
    cls = classify(phi)
    if not (cls.closed and cls.qualitative):
        raise EvaluationError("compare_semantics needs a closed qualitative formula")
    semiring = model.semiring
    psi = unroll(phi, k)
    psi_cls = classify(psi)
    depth = psi_cls.modal_depth

    ext_res = nu_extent_result(model, cfg)
    stepwise = eval_formula(model, psi, cfg=cfg)
    tolerance = Fraction(0)
    if semiring.kind == "probabilistic":
        tolerance = certificate_tolerance(ext_res.report, depth, len(model.states))

    report = ComparisonReport(
        semiring=model.descriptor.short_name, unroll_depth=k, enum_depth=depth,
        tolerance=tolerance, certificate=ext_res.report)
    worst = 0
    for state in model.states:
        o = oracle_eval(model, psi, state, depth, cfg, _extent=ext_res.values, _cls=psi_cls)
        d = semiring.distance(stepwise[state], o)
        verdict = "ok" if (d == 0 or (semiring.kind == "probabilistic" and d <= tolerance)) \
            else "mismatch"
        report.rows.append(StateComparison(state, stepwise[state], o, d, verdict))
        if d == INF or d > worst:
            worst = d if d != INF else INF
    report.max_discrepancy = worst

    try:
        full = eval_formula(model, phi, cfg=cfg)
        report.approximant_distance = max(
            (semiring.distance(full[s], stepwise[s]) for s in model.states),
            key=lambda v: (v == INF, v), default=0)
    except NonConvergence:  # the diagnostic is unavailable; the verdict stands
        report.approximant_distance = None
    return report
