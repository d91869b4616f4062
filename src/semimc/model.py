"""Finite signatures and weighted transition models with optional offsets.

A model declares a semiring, a finite set of labels with arities, a finite
set of states, weighted transitions (one label plus an arity-matching tuple
of successor states each) and a per-state offset scalar defaulting to the
semiring unit.  Per state, the weights of all outgoing transitions must
have a defined sum.

Text format (whitespace-insensitive, '#' starts a line comment)::

    model  := "semiring" stype decl*
    stype  := "bool" | "prob" | "trop" | "trop[" NAT "]"
    decl   := "label" IDENT "/" NAT
            | "state" IDENT "{" [trans (";" trans)*] "}"
            | "offset" IDENT "=" WEIGHT
    trans  := WEIGHT IDENT ["->" IDENT+]

Successor lists are omitted for nullary labels.  Labels must be declared
before use; states may be referenced forward but every referenced state
needs its own "state" block.  The parser reads the token texts of
``_lex.tokenize`` in one pass and keeps a token's index where an error may
need it; line and column are worked out only when the error is raised.
Models are immutable after parsing; each shares the one semiring instance
of its descriptor and builds, on first evaluation, its indexed
``CompiledModel``.
"""

from __future__ import annotations

from functools import cached_property

from ._lex import TokenStream
from ._record import Record
from .errors import ValidationError, quote
from .semiring import Semiring, SemiringDescriptor, UNDEFINED, semiring_for


class Label(Record, frozen=True):
    __slots__ = ("name", "arity")


class Signature(Record, frozen=True):
    __slots__ = ("labels",)

    def __post_init__(self):
        names = [l.name for l in self.labels]
        if not names:
            raise ValidationError("signature needs at least one label")
        if len(set(names)) != len(names):
            raise ValidationError("duplicate label names in signature")

    def arity(self, name: str) -> int:
        for l in self.labels:
            if l.name == name:
                return l.arity
        raise KeyError(name)

    def has(self, name: str) -> bool:
        return any(l.name == name for l in self.labels)


class Transition(Record, frozen=True):
    # weight: a scalar of the model's semiring, never the semiring zero
    __slots__ = ("weight", "label", "successors")


class Diagnostic(Record, line=None, col=None):
    # severity: 'error' | 'warning'
    __slots__ = ("severity", "message", "line", "col")

    def render(self) -> str:
        loc = f"{self.line}:{self.col}: " if self.line is not None else ""
        return f"{loc}{self.severity}: {self.message}"


class Model(Record, frozen=True, offsets=None):
    # transitions: state -> [Transition]; offsets: state -> scalar, the unit if absent
    __slots__ = ("descriptor", "signature", "states", "transitions", "offsets", "__dict__")

    def __post_init__(self):
        if self.offsets is None:  # a fresh dict per model, stored past the frozen guard
            object.__setattr__(self, "offsets", {})
        one = self.semiring.one
        for s in self.states:
            self.transitions.setdefault(s, [])
            self.offsets.setdefault(s, one)

    @cached_property
    def semiring(self) -> Semiring:
        return semiring_for(self.descriptor)

    @cached_property
    def compiled(self) -> "CompiledModel":
        """The indexed form every evaluation runs on, built on first use."""
        index = {s: i for i, s in enumerate(self.states)}
        label_ids = {l.name: j for j, l in enumerate(self.signature.labels)}
        arities = [l.arity for l in self.signature.labels]
        pack = self.semiring.pack
        rows = []
        for c in self.states:
            ts = self.transitions[c]
            row = []
            for w, t in zip(pack([t.weight for t in ts]), ts):
                lid = label_ids.get(t.label)
                succs = tuple(map(index.get, t.successors))
                if lid is None or None in succs or arities[lid] != len(succs):
                    _raise_if_invalid(self)
                row.append((w, lid, tuple(enumerate(succs))))
            rows.append(tuple(row))
        offsets = [self.offsets[c] for c in self.states]
        # bool's oslash is the first projection: its offsets change nothing
        offset_ids = () if self.descriptor.kind == "boolean" else tuple(
            i for i, v in enumerate(offsets) if v != self.semiring.one)
        return CompiledModel(self.semiring, self.states, label_ids, max(arities),
                             tuple(rows), tuple(pack(offsets)), offset_ids)

    @property
    def is_plain(self) -> bool:
        """True when every offset is the semiring unit; gates trace ops."""
        one = self.semiring.one
        return all(v == one for v in self.offsets.values())

    def deadlock_states(self) -> list[str]:
        return [s for s in self.states if not self.transitions[s]]

    def transition_weight(self, state: str, label: str, successors: tuple[str, ...]):
        """Weight of the unique matching transition, or None."""
        for t in self.transitions[state]:
            if t.label == label and t.successors == successors:
                return t.weight
        return None

    def max_finite_weight(self):
        """Largest finite transition weight; 0 when there are none."""
        zero = self.semiring.zero
        best = 0
        for ts in self.transitions.values():
            for t in ts:
                w = t.weight
                if w != zero and isinstance(w, int) and w > best:
                    best = w
        return best

    def with_offsets(self, offsets: dict[str, object]) -> "Model":
        new = dict(self.offsets)
        new.update(offsets)
        return Model(self.descriptor, self.signature, self.states,
                     {s: list(ts) for s, ts in self.transitions.items()}, new)


class CompiledModel(Record, frozen=True):
    """A model indexed for evaluation; predicates are lists by state id.

    ``rows[i]`` holds one ``(weight, label id, successors)`` triple per
    transition of ``states[i]``, the successors as ``(argument position,
    state id)`` pairs; ``offset_ids`` lists the states whose offset is not
    the semiring unit (none on bool, whose offsets are the identity).
    Values are in the kernel form (``Semiring.pack``).
    """

    __slots__ = ("semiring", "states", "label_ids", "max_arity", "rows", "offsets", "offset_ids")

    def step(self, args: list) -> list:
        """The semiring's transition-step kernel on this model."""
        return self.semiring.step(self, args)

    def extent_step(self, p: list) -> list:
        """One unfolding over every label with `p` as every argument; one
        tuple of max_arity copies serves the positions of all labels."""
        return self.semiring.step(self, [(p,) * self.max_arity] * len(self.label_ids))


_STYPES = {"bool": "boolean", "prob": "probabilistic", "trop": "tropical"}


def _parse_descriptor(ts: TokenStream) -> SemiringDescriptor:
    k = ts.pos
    name = ts.expect("ident")
    kind = _STYPES.get(name)
    if kind is None:
        raise ts.error(f"unknown semiring {quote(name)}", k)
    if kind == "tropical" and ts.at("["):
        ts.next()
        k = ts.pos
        text = ts.expect("number")
        ts.expect_symbol("]")
        try:
            bound = int(text)
        except ValueError:
            raise ts.error(f"bad bound {quote(text)}", k) from None
        if bound < 1:
            raise ts.error("bound must be at least 1", k)
        return SemiringDescriptor("bounded_tropical", bound)
    return SemiringDescriptor(kind)


def parse_model(text: str) -> Model:
    """Parse a model in one pass over its tokens; raises ParseError or
    ValidationError.

    The parser enforces every invariant `validate` checks (carrier, zero
    weight, label, arity, successors), so it does not call it.  Duplicate
    (label, successors) transitions from the same state are merged with the
    semiring plus; a merge with undefined sum is an error at the end of its
    state block.  Probabilistic rows of mass above 1 are errors raised once
    the whole text has parsed, so a syntax error anywhere is reported first.
    """
    ts = TokenStream(text)
    if ts.expect("ident") != "semiring":
        raise ts.error("model must start with 'semiring'", 0)
    descriptor = _parse_descriptor(ts)
    semiring = semiring_for(descriptor)
    prob = descriptor.kind == "probabilistic"

    arities: dict[str, int] = {}
    transitions: dict[str, list[Transition]] = {}
    offsets: dict[str, tuple] = {}  # state -> (weight, index of its name)
    referenced: dict[str, int] = {}  # state -> index of the first token naming it
    overfull: list[Diagnostic] = []

    while ts.peek():
        k = ts.pos
        kw = ts.expect("ident")
        if kw == "state":
            name = ts.expect("ident")
            if name in transitions:
                raise ts.error(f"duplicate state {quote(name)}", k + 1)
            ts.expect_symbol("{")
            row: dict[tuple, object] = {}  # (label, successors) -> merged weight
            undefined = None  # first merge whose sum is undefined
            more = not ts.at("}")
            while more:
                w, key = _parse_transition(ts, semiring, arities, referenced)
                old = row.get(key)
                if old is None:
                    row[key] = w
                elif undefined is None:
                    w = semiring.plus(old, w)
                    if w is UNDEFINED:
                        undefined = key
                    row[key] = w
                more = ts.at(";")
                ts.pos += more  # past the ';'
            ts.expect_symbol("}")
            if undefined is not None:
                label, succs = undefined
                raise ValidationError(f"state {quote(name)}: merged weight for {quote(label)} -> "
                                      f"{' '.join(map(quote, succs)) or '()'} is undefined")
            if prob:
                num, den = 0, 1
                for w in row.values():
                    num, den = num * w.denominator + w.numerator * den, den * w.denominator
                if num > den:
                    overfull.append(Diagnostic(
                        "error", f"state {quote(name)}: outgoing weight sum is undefined"))
            transitions[name] = [Transition(w, label, succs) for (label, succs), w in row.items()]
        elif kw == "label":  # label NAME / ARITY, at k + 1 and k + 3
            name = ts.expect_label_name()
            ts.expect_symbol("/")
            arity = ts.expect("number")
            if name in arities:
                raise ts.error(f"duplicate label {quote(name)}", k + 1)
            if "." in arity:
                raise ts.error("arity must be a natural number", k + 3)
            try:
                arities[name] = int(arity)
            except ValueError:  # more digits than int() converts
                raise ts.error("arity is too large", k + 3) from None
        elif kw == "offset":
            name = ts.expect("ident")
            ts.expect_symbol("=")
            w = ts.expect_weight(semiring)
            if name in offsets:
                raise ts.error(f"duplicate offset for {quote(name)}", k + 1)
            offsets[name] = (w, k + 1)
        else:
            raise ts.error(f"expected 'label', 'state' or 'offset', got {quote(kw)}", k)

    if not arities:
        raise ValidationError("model declares no labels")
    for name, k in referenced.items():
        if name not in transitions:
            raise ts.error(f"undeclared successor state {quote(name)}", k)
    for name, (_, k) in offsets.items():
        if name not in transitions:
            raise ts.error(f"offset for unknown state {quote(name)}", k)
    if overfull:
        raise ValidationError(overfull[0].message, overfull)

    return Model(descriptor, Signature(tuple(Label(n, a) for n, a in arities.items())),
                 tuple(transitions), transitions, {k: w for k, (w, _) in offsets.items()})


def _raise_if_invalid(model: Model):
    errors = [d for d in validate(model) if d.severity == "error"]
    if errors:
        raise ValidationError(errors[0].message, errors)


def _parse_transition(ts, semiring, arities, referenced) -> tuple:
    """``WEIGHT LABEL ["->" IDENT+]`` as the weight and its (label, successors)."""
    w = ts.expect_weight(semiring)
    k = ts.pos
    label = ts.expect_label_name()
    arity = arities.get(label)
    if arity is None:
        raise ts.error(f"unknown label {quote(label)}", k)
    toks = ts.tokens
    succs = ()
    if toks[k + 1] == "->":
        i = j = k + 2
        while toks[j].isidentifier():
            referenced.setdefault(toks[j], j)
            j += 1
        if j == i:
            raise ts.error("expected successor state after '->'", j)
        succs = tuple(toks[i:j])
        ts.pos = j
    if len(succs) != arity:
        raise ts.error(f"label {quote(label)} has arity {arity}, got {len(succs)} successor(s)", k)
    if w == semiring.zero:
        raise ts.error("transition weight is the semiring zero", k)
    return w, (label, succs)


def validate(model: Model) -> list[Diagnostic]:
    """Re-check every model invariant, one pass per state; warnings for
    deadlocks and, on probabilistic models, for substochastic states."""
    out: list[Diagnostic] = []
    substochastic: list[Diagnostic] = []
    semiring = model.semiring
    prob = model.descriptor.kind == "probabilistic"
    arities = {l.name: l.arity for l in model.signature.labels}
    err = lambda m: out.append(Diagnostic("error", m))

    names = set(model.states)
    if len(names) != len(model.states):
        err("duplicate state names")
    if set(model.transitions) != names:
        err("transition table does not match the state set")
    if set(model.offsets) != names:
        err("offset table does not match the state set")

    for state in model.states:
        seen = set()
        weights = []
        row = model.transitions.get(state, [])
        for t in row:
            arity = arities.get(t.label)
            if arity is None:
                err(f"state {quote(state)}: unknown label {quote(t.label)}")
                continue
            if len(t.successors) != arity:
                err(f"state {quote(state)}: arity mismatch on label {quote(t.label)}")
            for s in t.successors:
                if s not in names:
                    err(f"state {quote(state)}: undeclared successor {quote(s)}")
            if t.weight == semiring.zero:
                err(f"state {quote(state)}: transition weight is the semiring zero")
            elif not semiring.contains(t.weight):
                err(f"state {quote(state)}: weight outside the carrier")
            key = (t.label, t.successors)
            if key in seen:
                err(f"state {quote(state)}: duplicate transition {t.label} -> {t.successors}")
            seen.add(key)
            weights.append(t.weight)
        total = semiring.sum(weights)
        if total is UNDEFINED:
            err(f"state {quote(state)}: outgoing weight sum is undefined")
        off = model.offsets.get(state)
        if off is not None and not semiring.contains(off):
            err(f"state {quote(state)}: offset outside the carrier")
        if prob:
            if len(weights) < len(row):  # the mass counts unknown labels too
                total = semiring.sum([t.weight for t in row])
            if total is not UNDEFINED and total < 1:
                substochastic.append(Diagnostic(
                    "warning", f"substochastic: {state} (outgoing mass {semiring.render(total)})"))

    out.extend(Diagnostic("warning", f"deadlock: {s}") for s in model.deadlock_states())
    return out + substochastic


def render_model(model: Model) -> str:
    """Canonical text for a model; reparses to an equal model."""
    semiring = model.semiring
    lines = [f"semiring {model.descriptor.short_name}"]
    for l in model.signature.labels:
        lines.append(f"label {l.name}/{l.arity}")
    for s in model.states:
        body = "; ".join(
            f"{semiring.render(t.weight)} {t.label}"
            + (f" -> {' '.join(t.successors)}" if t.successors else "")
            for t in model.transitions[s])
        lines.append(f"state {s} {{ {body} }}" if body else f"state {s} {{ }}")
    for s in model.states:
        if model.offsets[s] != semiring.one:
            lines.append(f"offset {s} = {semiring.render(model.offsets[s])}")
    return "\n".join(lines) + "\n"
