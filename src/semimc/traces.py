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
from itertools import product

from ._lex import TokenStream
from ._record import Record
from .errors import OffsetUnsupported, SizingError, ValidationError, quote
from .evaluator import EvalConfig, nu_extent
from .logic import Formula, Modal, TOP
from .model import Model, Signature


class TopLeaf(Record, frozen=True):
    __slots__ = ()

    def __repr__(self):
        return "T"


class TraceNode(Record, frozen=True):
    __slots__ = ("label", "children")


TraceFragment = TopLeaf | TraceNode

TOP_LEAF = TopLeaf()


def depth(b: TraceFragment) -> int:
    if isinstance(b, TopLeaf):
        return 0
    return 1 + max((depth(c) for c in b.children), default=0)


def is_completed(b: TraceFragment) -> bool:
    """True when no branch is cut by a top leaf."""
    if isinstance(b, TopLeaf):
        return False
    return all(is_completed(c) for c in b.children) if b.children else True


def check_fragment(b: TraceFragment, signature: Signature):
    if isinstance(b, TopLeaf):
        return
    if not signature.has(b.label):
        raise ValidationError(f"unknown label {quote(b.label)} in fragment")
    if signature.arity(b.label) != len(b.children):
        raise ValidationError(f"arity mismatch on label {quote(b.label)} in fragment")
    for c in b.children:
        check_fragment(c, signature)


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
    if isinstance(b, TopLeaf):
        return "T"
    if not b.children:
        return b.label
    return f"{b.label}(" + ", ".join(render_fragment(c) for c in b.children) + ")"


def fragment_to_formula(b: TraceFragment) -> Formula:
    """Top leaves become T, nodes become single-disjunct modalities; the
    result is modal-only and qualitative."""
    if isinstance(b, TopLeaf):
        return TOP
    return Modal(((b.label, tuple(fragment_to_formula(c) for c in b.children)),))


def enumerate_fragments(signature: Signature, max_depth: int,
                        cap: int | None = None) -> Iterator[TraceFragment]:
    """All trace fragments of depth at most max_depth, breadth-first
    (shallow fragments first, stable label order within each depth).
    Every fragment, the top leaf included, counts against `cap` before it
    is yielded."""
    if max_depth < 0:
        raise ValidationError(f"depth must be at least 0, got {max_depth}")
    return _capped(_fragments(signature, max_depth), cap, "fragment")


def _capped(fragments: Iterator[tuple[int, TraceFragment]], cap: int | None,
            what: str) -> Iterator[TraceFragment]:
    """The fragments of (depth, fragment) pairs, each counted against `cap`."""
    for count, (d, frag) in enumerate(fragments, 1):
        if cap is not None and count > cap:
            raise SizingError(f"{what} enumeration exceeds cap {cap} at depth {d}")
        yield frag


def _fragments(signature: Signature, max_depth: int) -> Iterator[tuple[int, TraceFragment]]:
    by_depth: list[list[TraceFragment]] = [[TOP_LEAF]]
    yield 0, TOP_LEAF
    for d in range(1, max_depth + 1):
        pool = [f for level in by_depth for f in level]  # depth < d
        level: list[TraceFragment] = []
        for label in signature.labels:
            if label.arity == 0 and d > 1:
                continue  # nullary nodes exist only at depth 1
            for combo in product(pool, repeat=label.arity):
                if label.arity and max(depth(c) for c in combo) != d - 1:
                    continue  # at least one child must reach depth d-1
                frag = TraceNode(label.name, combo)
                level.append(frag)
                yield d, frag
        by_depth.append(level)


def truncations(signature: Signature, n: int, cap: int | None = None) -> Iterator[TraceFragment]:
    """Depth-n truncations of maximal traces: every top leaf under exactly
    n nodes, nullary completions allowed earlier."""
    if n < 0:
        raise ValidationError(f"depth must be at least 0, got {n}")
    return _capped(((n, frag) for frag in _truncs(signature, n)), cap, "truncation")


def _truncs(signature: Signature, n: int) -> Iterator[TraceFragment]:
    """Built bottom-up: each level below n is listed once and shared by
    the level above; level n is yielded lazily, so a cap can stop it."""
    def unfold(below: list) -> Iterator[TraceFragment]:
        return (TraceNode(label.name, combo) for label in signature.labels
                for combo in product(below, repeat=label.arity))

    level = iter((TOP_LEAF,))
    for _ in range(n):
        level = unfold(list(level))
    return level


def _state_id(model: Model, state: str) -> int:
    """The id of `state`.  Every entry point resolves its state names
    first, so an unknown one is reported before any other check."""
    if state not in model.states:
        raise ValidationError(f"unknown state {quote(state)}")
    return model.states.index(state)


def _require_plain(model: Model, op: str):
    if not model.is_plain:
        raise OffsetUnsupported(f"{op} requires a model without offsets")


def _behaviour(model: Model, fragment: TraceFragment, leaf: list | None) -> list:
    """Values of every state on `fragment`, as a list by state id: top
    leaves take `leaf` (a list by state id) and each node is one kernel
    step over its label, with the children's values as arguments.
    Sub-fragment values are shared per call, keyed by identity, as
    `enumerate_fragments` shares sub-trees; the steps run on the kernel form."""
    cm = model.compiled
    memo: dict = {}

    def go(b: TraceFragment) -> list:
        v = memo.get(id(b))
        if v is None:
            if isinstance(b, TopLeaf):
                v = model.semiring.pack(leaf)
            else:
                args = [None] * len(cm.label_ids)
                args[cm.label_ids[b.label]] = tuple(go(c) for c in b.children)
                v = cm.step(args)
            memo[id(b)] = v
        return v

    return model.semiring.unpack(go(fragment))


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


def _check_truncation(b: TraceFragment, n: int):
    # top leaves under exactly n nodes; nodes only above the cut
    if isinstance(b, TopLeaf):
        if n != 0:
            raise ValidationError("top leaf above the truncation depth")
        return
    if n == 0:
        raise ValidationError("fragment deeper than the truncation depth")
    for c in b.children:
        _check_truncation(c, n - 1)


def tr_approx(model: Model, state: str, truncation: TraceFragment, n: int):
    """Depth-n approximant of the maximal-trace behaviour.

    `truncation` must be a depth-n truncation: top leaves sit under exactly
    n nodes and branches may complete earlier through nullary labels.  The
    base approximant is constant one, so the top leaves are worth one.
    """
    i = _state_id(model, state)
    _require_plain(model, "tr_approx")
    check_fragment(truncation, model.signature)
    _check_truncation(truncation, n)
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
    checked = 0

    def differ(a, b) -> bool:
        if semiring.kind == "probabilistic":
            return abs(a - b) >= cfg.epsilon
        return a != b

    # each fragment is generated well-formed, so its state vector is built
    # once, without the public entry points' checks, and read at c and d
    if kind == "lt":
        ext = nu_extent(model, cfg)
        leaf = [ext[s] for s in model.states]
        frags = enumerate_fragments(model.signature, max_depth, cfg.enum_cap)
    else:
        _require_plain(model, "equiv_upto(kind='tr')")
        leaf = [semiring.one] * len(model.states)
        frags = (frag for n in range(max_depth + 1)
                 for frag in truncations(model.signature, n, cfg.enum_cap))
    for frag in frags:
        checked += 1
        vec = _behaviour(model, frag, leaf)
        if differ(vec[i], vec[j]):
            return EquivResult(False, frag, vec[i], vec[j], checked)
    return EquivResult(True, None, None, None, checked)
