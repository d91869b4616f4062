"""Trace fragments and the behaviours defined on them.

A trace fragment is a finite tree over the signature's labels, possibly
cut short by top leaves (written "T"); a completed trace has every branch
ending in a nullary label.  Fragment text uses the formula-like syntax
``a(b(T), *)`` with nullary labels written bare.

Three state-indexed behaviours are computed by one structural recursion
over the fragment, one transition-step kernel application per node, which
yields the unique fixpoint of the defining one-step operators because every
value depends only on structurally smaller fragments:

* ``lt``         linear-time behaviour: top leaves are worth the state's
                 greatest extent, nodes multiply the transition weights into
                 the children and offset by the state's scalar;
* ``finite_tr``  completed-trace behaviour (plain models only);
* ``tr_approx``  depth-n approximant of the maximal-trace behaviour, with
                 tr^0 constant one (plain models only).

``equiv_upto`` is a depth-bounded equivalence semi-decision returning the
first distinguishing fragment as a witness.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import groupby, product
from operator import itemgetter

from ._lex import TokenStream
from ._record import Record
from .errors import OffsetUnsupported, SizingError, ValidationError, quote
from .evaluator import EvalConfig, nu_extent
from .logic import Formula, Modal, TOP, _fold
from .model import Model, Signature


class TopLeaf(Record, frozen=True):
    __slots__ = ()

    def __repr__(self):
        return "T"


class TraceNode(Record, frozen=True):
    __slots__ = ("label", "children")


TraceFragment = TopLeaf | TraceNode

TOP_LEAF = TopLeaf()


def _branches(b: TraceFragment) -> tuple:
    return () if isinstance(b, TopLeaf) else b.children


def depth(b: TraceFragment) -> int:
    return _fold(b, lambda b, vs: 0 if isinstance(b, TopLeaf) else 1 + max(vs, default=0),
                 _branches)


def is_completed(b: TraceFragment) -> bool:
    """True when no branch is cut by a top leaf."""
    return _fold(b, lambda b, vs: not isinstance(b, TopLeaf) and all(vs), _branches)


def check_fragment(b: TraceFragment, signature: Signature):
    def check(b):  # each node before the nodes below it
        if isinstance(b, TraceNode) and not signature.has(b.label):
            raise ValidationError(f"unknown label {quote(b.label)} in fragment")
        if isinstance(b, TraceNode) and signature.arity(b.label) != len(b.children):
            raise ValidationError(f"arity mismatch on label {quote(b.label)} in fragment")
        return _branches(b)

    _fold(b, lambda b, vs: None, check)


def parse_fragment(text: str, signature: Signature) -> TraceFragment:
    """Parse ``a(b(T), *)``-style fragment text against a signature."""
    ts = TokenStream(text)
    frag = _parse_frag(ts, signature)
    ts.expect_eof()
    return frag


def _parse_frag(ts: TokenStream, signature: Signature) -> TraceFragment:
    if ts.at("T"):
        ts.next()
        return TOP_LEAF
    k = ts.pos
    label = ts.expect_label_name()
    if not signature.has(label):
        raise ts.error(f"unknown label {quote(label)}", k)
    arity = signature.arity(label)
    children: list[TraceFragment] = []
    if ts.at("("):
        ts.next()
        ts.enter()
        children.append(_parse_frag(ts, signature))
        while ts.at(","):
            ts.next()
            children.append(_parse_frag(ts, signature))
        ts.expect_symbol(")")
        ts.depth -= 1
    if len(children) != arity:
        raise ts.error(f"label {quote(label)} has arity {arity}, "
                       f"got {len(children)} child(ren)", k)
    return TraceNode(label, tuple(children))


def render_fragment(b: TraceFragment) -> str:
    return _fold(b, lambda b, vs: "T" if isinstance(b, TopLeaf) else
                 f"{b.label}({', '.join(vs)})" if vs else b.label, _branches)


def fragment_to_formula(b: TraceFragment) -> Formula:
    """Top leaves become T, nodes become single-disjunct modalities; the
    result is modal-only and qualitative."""
    return _fold(b, lambda b, vs: TOP if isinstance(b, TopLeaf) else
                 Modal(((b.label, tuple(vs)),)), _branches)


def enumerate_fragments(signature: Signature, max_depth: int,
                        cap: int | None = None) -> Iterator[TraceFragment]:
    """All trace fragments of depth at most max_depth, breadth-first
    (shallow fragments first, stable label order within each depth).
    Every fragment, the top leaf included, counts against `cap` before it
    is yielded."""
    if max_depth < 0:
        raise ValidationError(f"depth must be at least 0, got {max_depth}")
    return _capped(_levels(signature, max_depth, True), cap, "fragment")


def _capped(fragments: Iterator[tuple[int, TraceFragment]], cap: int | None,
            what: str) -> Iterator[TraceFragment]:
    """The fragments of (depth, fragment) pairs, each counted against `cap`."""
    for count, (d, frag) in enumerate(fragments, 1):
        if cap is not None and count > cap:
            raise SizingError(f"{what} enumeration exceeds cap {cap} at depth {d}")
        yield frag


def truncations(signature: Signature, n: int, cap: int | None = None) -> Iterator[TraceFragment]:
    """Depth-n truncations of maximal traces: every top leaf under exactly
    n nodes, nullary completions allowed earlier."""
    if n < 0:
        raise ValidationError(f"depth must be at least 0, got {n}")
    return _capped(((d, f) for d, f in _levels(signature, n, False) if d == n), cap, "truncation")


def _levels(signature: Signature, last: int,
            every_depth: bool) -> Iterator[tuple[int, TraceFragment]]:
    """(d, fragment) for d up to `last`, level d yielded as it is built (so a
    cap can stop it) and kept (for identity memos).  With `every_depth`, the
    fragments of depth d, over children of every depth below d; else the
    depth-d truncations, over the children of level d - 1 only."""
    levels: list[list[TraceFragment]] = [[TOP_LEAF]]
    pool: list[TraceFragment] = []
    yield 0, TOP_LEAF
    for d in range(1, last + 1):
        below = levels[-1]
        pool = pool + below if every_depth else below
        deep = {id(f) for f in below} if every_depth else ()  # each fragment is in one level
        levels.append([])
        for label in signature.labels:
            if every_depth and label.arity == 0 and d > 1:
                continue  # nullary nodes exist only at depth 1
            for combo in product(pool, repeat=label.arity):
                if every_depth and label.arity and deep.isdisjoint(map(id, combo)):
                    continue  # at least one child must reach depth d-1
                levels[-1].append(TraceNode(label.name, combo))
                yield d, levels[-1][-1]


def _state_id(model: Model, state: str) -> int:
    """The id of `state`.  Every entry point resolves its state names
    first, so an unknown one is reported before any other check."""
    if state not in model.states:
        raise ValidationError(f"unknown state {quote(state)}")
    return model.states.index(state)


def _require_plain(model: Model, op: str):
    if not model.is_plain:
        raise OffsetUnsupported(f"{op} requires a model without offsets")


def _behaviour(model: Model, fragment: TraceFragment, leaf: list | None,
               memo: dict | None = None) -> list:
    """Values of every state on `fragment`, as a list by state id: top
    leaves take `leaf` (a list by state id) and each node is one kernel
    step over its label, with the children's values as arguments, on the
    kernel form.  `memo` (default: one per call) shares sub-fragment values
    by identity, as the enumerations share sub-trees."""
    cm, semiring = model.compiled, model.semiring

    def leave(b: TraceFragment, vals) -> list:
        if isinstance(b, TopLeaf):
            return semiring.pack(leaf)
        args = [None] * len(cm.label_ids)
        args[cm.label_ids[b.label]] = tuple(vals)
        return cm.step(args)

    return semiring.unpack(_fold(fragment, leave, _branches, {} if memo is None else memo))


def lt(model: Model, state: str, fragment: TraceFragment, cfg: EvalConfig | None = None):
    """Linear-time behaviour of `state` on `fragment`."""
    i = _state_id(model, state)
    check_fragment(fragment, model.signature)
    ext = nu_extent(model, cfg)
    return _behaviour(model, fragment, [ext[s] for s in model.states])[i]


def finite_tr(model: Model, state: str, trace: TraceFragment):
    """Completed-trace behaviour; requires a plain model and a completed
    trace (no top leaves)."""
    i = _state_id(model, state)
    _require_plain(model, "finite_tr")
    check_fragment(trace, model.signature)
    if not is_completed(trace):
        raise ValidationError("finite_tr needs a completed trace (no T leaves)")
    return _behaviour(model, trace, None)[i]


def _check_truncation(item: tuple[TraceFragment, int]) -> list:
    # `_fold`'s children of (node, nodes left above the cut), checked first:
    # top leaves under exactly n nodes; nodes only above the cut
    b, n = item
    if isinstance(b, TopLeaf) and n != 0:
        raise ValidationError("top leaf above the truncation depth")
    if isinstance(b, TraceNode) and n == 0:
        raise ValidationError("fragment deeper than the truncation depth")
    return [(c, n - 1) for c in _branches(b)]


def tr_approx(model: Model, state: str, truncation: TraceFragment, n: int):
    """Depth-n approximant of the maximal-trace behaviour.

    `truncation` must be a depth-n truncation: top leaves sit under exactly
    n nodes and branches may complete earlier through nullary labels.  The
    base approximant is constant one, so the top leaves are worth one.
    """
    i = _state_id(model, state)
    _require_plain(model, "tr_approx")
    check_fragment(truncation, model.signature)
    _fold((truncation, n), lambda item, vs: None, _check_truncation)
    return _behaviour(model, truncation, [model.semiring.one] * len(model.states))[i]


class EquivResult(Record, witness=None, left_value=None, right_value=None,
                  fragments_checked=0):
    __slots__ = ("equivalent", "witness", "left_value", "right_value", "fragments_checked")


def equiv_upto(model: Model, c: str, d: str, max_depth: int,
               kind: str = "lt",
               cfg: EvalConfig | None = None) -> EquivResult:
    """Compare two states on every fragment up to `max_depth`.

    kind "lt" ranges over all trace fragments; kind "tr" ranges over
    depth-n truncations for each n up to `max_depth` and compares the
    matching approximants (plain models only); any other kind is a
    ValidationError, and so is a negative `max_depth`.  Values are
    compared exactly on finite carriers and up to cfg.epsilon on
    probabilistic models (both sides share one extent table, so equal
    behaviours agree exactly there too).
    """
    i, j = _state_id(model, c), _state_id(model, d)
    if kind not in ("lt", "tr"):
        raise ValidationError(f"unknown kind {quote(kind)}; expected 'lt' or 'tr'")
    if max_depth < 0:
        raise ValidationError(f"depth must be at least 0, got {max_depth}")
    cfg = cfg or EvalConfig()
    semiring = model.semiring

    def differ(a, b) -> bool:
        if semiring.kind == "probabilistic":
            return abs(a - b) >= cfg.epsilon
        return a != b

    # fragments are generated well-formed, so no entry point's checks run;
    # one memo serves them all, as both enumerations keep every fragment
    if kind == "lt":
        ext = nu_extent(model, cfg)
        leaf = [ext[s] for s in model.states]
        frags = enumerate_fragments(model.signature, max_depth, cfg.enum_cap)
    else:
        _require_plain(model, "equiv_upto(kind='tr')")
        leaf = [semiring.one] * len(model.states)
        frags = (frag for _, level in groupby(_levels(model.signature, max_depth, False),
                                              itemgetter(0))
                 for frag in _capped(level, cfg.enum_cap, "truncation"))  # capped per depth
    memo: dict = {}
    for checked, frag in enumerate(frags, 1):
        vec = _behaviour(model, frag, leaf, memo)
        if differ(vec[i], vec[j]):
            return EquivResult(False, frag, vec[i], vec[j], checked)
    return EquivResult(True, None, None, None, checked)
