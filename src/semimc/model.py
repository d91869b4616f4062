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
needs its own "state" block.  Models are immutable after parsing; each
builds its semiring once and, on first evaluation, its indexed
``CompiledModel``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ._lex import TokenStream, tokenize
from .errors import ParseError, ValidationError
from .semiring import Semiring, SemiringDescriptor, UNDEFINED, semiring_for


@dataclass(frozen=True)
class Label:
    name: str
    arity: int


@dataclass(frozen=True)
class Signature:
    labels: tuple[Label, ...]

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


@dataclass(frozen=True)
class Transition:
    weight: object  # scalar of the model's semiring, never the semiring zero
    label: str
    successors: tuple[str, ...]


@dataclass
class Diagnostic:
    severity: str  # 'error' | 'warning'
    message: str
    line: int | None = None
    col: int | None = None

    def render(self) -> str:
        loc = f"{self.line}:{self.col}: " if self.line is not None else ""
        return f"{loc}{self.severity}: {self.message}"


@dataclass(frozen=True)
class Model:
    descriptor: SemiringDescriptor
    signature: Signature
    states: tuple[str, ...]
    transitions: dict[str, list[Transition]]
    offsets: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
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
        rows = []
        for c in self.states:
            row = []
            for t in self.transitions[c]:
                lid = label_ids.get(t.label)
                succs = tuple(index.get(s) for s in t.successors)
                if lid is None or None in succs or arities[lid] != len(succs):
                    _raise_if_invalid(self)
                row.append((t.weight, lid, tuple(enumerate(succs))))
            rows.append(tuple(row))
        offsets = tuple(self.offsets[c] for c in self.states)
        offset_ids = tuple(i for i, v in enumerate(offsets) if v != self.semiring.one)
        return CompiledModel(self.semiring, self.states, label_ids, max(arities),
                             tuple(rows), offsets, offset_ids)

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


@dataclass(frozen=True)
class CompiledModel:
    """A model indexed for evaluation; predicates are lists by state id.

    ``rows[i]`` holds one ``(weight, label id, successors)`` triple per
    transition of ``states[i]``, the successors as ``(argument position,
    state id)`` pairs; ``offset_ids`` lists the states whose offset is not
    the semiring unit.
    """

    semiring: Semiring
    states: tuple[str, ...]
    label_ids: dict[str, int]
    max_arity: int
    rows: tuple[tuple[tuple[object, int, tuple[tuple[int, int], ...]], ...], ...]
    offsets: tuple
    offset_ids: tuple[int, ...]

    def step(self, args: list) -> list:
        """The semiring's transition-step kernel on this model."""
        return self.semiring.step(self, args)

    def extent_step(self, p: list) -> list:
        """One unfolding over every label with `p` as every argument; one
        tuple of max_arity copies serves the positions of all labels."""
        return self.semiring.step(self, [(p,) * self.max_arity] * len(self.label_ids))


_STYPES = {"bool": "boolean", "prob": "probabilistic", "trop": "tropical"}


def _parse_descriptor(ts: TokenStream) -> SemiringDescriptor:
    tok = ts.expect_ident()
    if tok.text not in _STYPES:
        raise ParseError(f"unknown semiring {tok.text!r}", tok.line, tok.col)
    kind = _STYPES[tok.text]
    if kind == "tropical" and ts.at_symbol("["):
        ts.next()
        btok = ts.expect_number()
        ts.expect_symbol("]")
        try:
            bound = int(btok.text)
        except ValueError:
            raise ParseError(f"bad bound {btok.text!r}", btok.line, btok.col) from None
        if bound < 1:
            raise ParseError("bound must be at least 1", btok.line, btok.col)
        return SemiringDescriptor("bounded_tropical", bound)
    return SemiringDescriptor(kind)


def parse_model(text: str) -> Model:
    """Parse and validate a model; raises ParseError or ValidationError.

    Duplicate (label, successors) transitions from the same state are merged
    with the semiring plus; a merge with undefined sum is a validation error.
    """
    ts = TokenStream(tokenize(text))
    kw = ts.expect_ident()
    if kw.text != "semiring":
        raise ParseError("model must start with 'semiring'", kw.line, kw.col)
    descriptor = _parse_descriptor(ts)
    semiring = semiring_for(descriptor)

    labels: list[Label] = []
    label_names: set[str] = set()
    states: list[str] = []
    transitions: dict[str, list[Transition]] = {}
    offsets: dict[str, object] = {}
    referenced: dict[str, tuple[int, int]] = {}
    diagnostics: list[Diagnostic] = []

    while not ts.peek().kind == "eof":
        tok = ts.expect_ident()
        if tok.text == "label":
            name_tok = ts.expect_label_name()
            ts.expect_symbol("/")
            ar_tok = ts.expect_number()
            if name_tok.text in label_names:
                raise ParseError(f"duplicate label {name_tok.text!r}", name_tok.line, name_tok.col)
            if "." in ar_tok.text:
                raise ParseError("arity must be a natural number", ar_tok.line, ar_tok.col)
            labels.append(Label(name_tok.text, int(ar_tok.text)))
            label_names.add(name_tok.text)
        elif tok.text == "state":
            name_tok = ts.expect_ident()
            name = name_tok.text
            if name in transitions:
                raise ParseError(f"duplicate state {name!r}", name_tok.line, name_tok.col)
            states.append(name)
            trans: list[Transition] = []
            ts.expect_symbol("{")
            if not ts.at_symbol("}"):
                while True:
                    trans.append(_parse_transition(ts, semiring, labels, referenced))
                    if ts.at_symbol(";"):
                        ts.next()
                        continue
                    break
            ts.expect_symbol("}")
            transitions[name] = _merge_duplicates(name, trans, semiring)
        elif tok.text == "offset":
            name_tok = ts.expect_ident()
            ts.expect_symbol("=")
            w = ts.expect_weight(semiring)
            if name_tok.text in offsets:
                raise ParseError(f"duplicate offset for {name_tok.text!r}", name_tok.line, name_tok.col)
            offsets[name_tok.text] = (w, name_tok.line, name_tok.col)
        else:
            raise ParseError(f"expected 'label', 'state' or 'offset', got {tok.text!r}",
                             tok.line, tok.col)

    if not labels:
        raise ValidationError("model declares no labels")
    for name, (line, col) in referenced.items():
        if name not in transitions:
            raise ParseError(f"undeclared successor state {name!r}", line, col)
    for name, (w, line, col) in offsets.items():
        if name not in transitions:
            raise ParseError(f"offset for unknown state {name!r}", line, col)

    model = Model(descriptor, Signature(tuple(labels)), tuple(states),
                  transitions, {k: v for k, (v, _, _) in offsets.items()})
    _raise_if_invalid(model)
    return model


def _raise_if_invalid(model: Model):
    errors = [d for d in validate(model) if d.severity == "error"]
    if errors:
        raise ValidationError(errors[0].message, errors)


def _parse_transition(ts, semiring, labels, referenced) -> Transition:
    w = ts.expect_weight(semiring)
    lbl_tok = ts.expect_label_name()
    arity = None
    for l in labels:
        if l.name == lbl_tok.text:
            arity = l.arity
            break
    if arity is None:
        raise ParseError(f"unknown label {lbl_tok.text!r}", lbl_tok.line, lbl_tok.col)
    succs: list[str] = []
    if ts.at_symbol("->"):
        ts.next()
        while ts.at_ident():
            tok = ts.next()
            succs.append(tok.text)
            referenced.setdefault(tok.text, (tok.line, tok.col))
        if not succs:
            tok = ts.peek()
            raise ParseError("expected successor state after '->'", tok.line, tok.col)
    if len(succs) != arity:
        raise ParseError(
            f"label {lbl_tok.text!r} has arity {arity}, got {len(succs)} successor(s)",
            lbl_tok.line, lbl_tok.col)
    if w == semiring.zero:
        raise ParseError("transition weight is the semiring zero", lbl_tok.line, lbl_tok.col)
    return Transition(w, lbl_tok.text, tuple(succs))


def _merge_duplicates(state, trans, semiring):
    merged: list[Transition] = []
    index: dict[tuple, int] = {}
    for t in trans:
        key = (t.label, t.successors)
        if key in index:
            old = merged[index[key]]
            w = semiring.plus(old.weight, t.weight)
            if w is UNDEFINED:
                raise ValidationError(
                    f"state {state!r}: merged weight for {t.label} -> "
                    f"{' '.join(t.successors) or '()'} is undefined")
            merged[index[key]] = Transition(w, t.label, t.successors)
        else:
            index[key] = len(merged)
            merged.append(t)
    return merged


def validate(model: Model) -> list[Diagnostic]:
    """Re-check every model invariant; warnings for deadlocks and, on
    probabilistic models, for substochastic states."""
    out: list[Diagnostic] = []
    semiring = model.semiring
    err = lambda m: out.append(Diagnostic("error", m))
    warn = lambda m: out.append(Diagnostic("warning", m))

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
        for t in model.transitions.get(state, []):
            if not model.signature.has(t.label):
                err(f"state {state!r}: unknown label {t.label!r}")
                continue
            if len(t.successors) != model.signature.arity(t.label):
                err(f"state {state!r}: arity mismatch on label {t.label!r}")
            for s in t.successors:
                if s not in names:
                    err(f"state {state!r}: undeclared successor {s!r}")
            if t.weight == semiring.zero:
                err(f"state {state!r}: transition weight is the semiring zero")
            elif not semiring.contains(t.weight):
                err(f"state {state!r}: weight outside the carrier")
            key = (t.label, t.successors)
            if key in seen:
                err(f"state {state!r}: duplicate transition {t.label} -> {t.successors}")
            seen.add(key)
            weights.append(t.weight)
        if semiring.sum(weights) is UNDEFINED:
            err(f"state {state!r}: outgoing weight sum is undefined")
        off = model.offsets.get(state)
        if off is not None and not semiring.contains(off):
            err(f"state {state!r}: offset outside the carrier")

    for state in model.deadlock_states():
        warn(f"deadlock: {state}")
    if model.descriptor.kind == "probabilistic":
        for state in model.states:
            total = semiring.sum([t.weight for t in model.transitions[state]])
            if total is not UNDEFINED and total < 1:
                warn(f"substochastic: {state} (outgoing mass {semiring.render(total)})")
    return out


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
