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
needs its own "state" block.  The parser is one loop over the token texts
of ``_lex.tokenize`` and keeps a token's index where an error may need it;
line and column are worked out only when the error is raised.  Each
distinct weight text is parsed once per model.  Models are immutable after
parsing; each shares the one semiring instance of its descriptor.  The
parser records each transition once, as an entry: the indexed
``CompiledModel`` is built from the entries on first evaluation, and the
``Transition`` records of ``transitions`` only when something reads them.
A model built by hand makes its entries from the records it is given.
"""

from __future__ import annotations

from fractions import Fraction
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

    def __getattr__(self, name):
        """`transitions` of a parsed model, built from its entries on first use."""
        if name != "transitions" or "_entries" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        names = [l.name for l in self.signature.labels]
        object.__setattr__(self, name, {
            s: [Transition(w, names[lid], succs) for (lid, succs), (w, _) in row]
            for s, row in zip(self.states, self._entries[0])})
        return self.transitions

    @cached_property
    def semiring(self) -> Semiring:
        return semiring_for(self.descriptor)

    @cached_property
    def _entries(self) -> tuple:
        """Per state, its transitions as ((label id, successors), (weight,
        kernel-form weight)) pairs, and the kernel form of every offset that
        is not the unit, by state.  `parse_model` stores its own, so only a
        model built by hand walks its `Transition`s here."""
        labels = {l.name: (j, l.arity) for j, l in enumerate(self.signature.labels)}
        names, pack, one, rows = set(self.states), self.semiring.pack, self.semiring.one, []
        for c in self.states:
            ts = self.transitions[c]
            row = []
            for t, w in zip(ts, pack([t.weight for t in ts])):
                lid, arity = labels.get(t.label, (None, None))
                if arity != len(t.successors) or not names.issuperset(t.successors):
                    errors = [d for d in validate(self) if d.severity == "error"]
                    raise ValidationError(errors[0].message, errors)
                row.append(((lid, t.successors), (t.weight, w)))
            rows.append(row)
        moved = [c for c in self.states if self.offsets[c] != one]
        return rows, dict(zip(moved, pack([self.offsets[c] for c in moved])))

    @cached_property
    def compiled(self) -> "CompiledModel":
        """The indexed form every evaluation runs on, built on first use:
        the entries of `_entries` with state names mapped to ids."""
        entries, moved = self._entries
        index = {s: i for i, s in enumerate(self.states)}
        get = index.__getitem__
        rows = tuple(tuple((w, lid, tuple(enumerate(map(get, succs))))
                           for (lid, succs), (_, w) in row) for row in entries)
        offsets = self.semiring.pack([self.semiring.one]) * len(self.states)
        for c, w in moved.items():
            offsets[index[c]] = w
        # bool's oslash is the first projection: its offsets change nothing
        offset_ids = () if self.descriptor.kind == "boolean" else tuple(sorted(map(get, moved)))
        labels = self.signature.labels
        return CompiledModel(self.semiring, self.states, {l.name: j for j, l in enumerate(labels)},
                             max(l.arity for l in labels), rows, tuple(offsets), offset_ids)

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
    Values are in the kernel form (``Semiring.pack``).  `Model.compiled`
    is the one row builder: it maps the successor names of the entries
    that `parse_model` recorded, or that a hand-built model packed, to ids.
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
    weight, label, arity, successors), so it does not call it.  Each
    distinct weight text is parsed, checked and packed once.  Duplicate
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
    toks, error = ts.tokens, ts.error
    toks.append("")  # a second end marker: a weight looks one token past its first

    labels: dict[str, tuple] = {}  # name -> (label id, arity)
    weights: dict[str, tuple] = {}  # weight text -> (scalar, kernel form or None for the zero)
    rows: dict[str, object] = {}  # state -> its ((label id, successors), weights entry) pairs
    offsets: dict[str, tuple] = {}  # state -> (weight, index of its name)
    referenced: dict[str, int] = {}  # state -> index of the first token naming it
    overfull: list[Diagnostic] = []

    k = ts.pos
    while toks[k]:
        kw = toks[k]
        if kw == "state":
            name = toks[k + 1]
            if not name.isidentifier():
                raise error(f"expected identifier, got {quote(name)}", k + 1)
            if name in rows:
                raise error(f"duplicate state {quote(name)}", k + 1)
            if toks[k + 2] != "{":
                raise error(f"expected '{{', got {quote(toks[k + 2])}", k + 2)
            row: dict[tuple, tuple] = {}  # (label id, successors) -> merged weights entry
            undefined = None  # first merge whose sum is undefined
            i = k + 3
            more = toks[i] != "}"
            while more:  # WEIGHT LABEL ["->" IDENT+], the label at j
                t = toks[i]
                if t != "inf" and toks[i + 1] == "/":
                    t, j = f"{t}/{toks[i + 2]}", i + 3
                else:
                    j = i + 1
                hit = weights.get(t)
                if hit is None:  # parsed by `TokenStream.expect_weight`, raising there
                    ts.pos = i
                    w = ts.expect_weight(semiring)
                    hit = weights[t] = (w, None if w == semiring.zero else semiring.pack([w])[0])
                label = toks[j]
                entry = labels.get(label)
                if entry is None:
                    if label != "*" and not label.isidentifier():
                        raise error(f"expected label name, got {quote(label)}", j)
                    raise error(f"unknown label {quote(label)}", j)
                lid, arity = entry
                i = j + 1
                if toks[i] == "->":
                    i += 1
                    first = i
                    while toks[i].isidentifier():
                        referenced.setdefault(toks[i], i)
                        i += 1
                    if i == first:
                        raise error("expected successor state after '->'", i)
                    succs = tuple(toks[first:i])
                else:
                    succs = ()
                if len(succs) != arity:
                    raise error(f"label {quote(label)} has arity {arity}, "
                                f"got {len(succs)} successor(s)", j)
                if hit[1] is None:
                    raise error("transition weight is the semiring zero", j)
                old = row.get((lid, succs))
                if old is None:
                    row[lid, succs] = hit
                elif undefined is None:
                    w = semiring.plus(old[0], hit[0])
                    if w is UNDEFINED:
                        undefined = (label, succs)
                    else:
                        row[lid, succs] = (w, semiring.pack([w])[0])
                more = toks[i] == ";"
                i += more  # past the ';'
            if toks[i] != "}":
                raise error(f"expected '}}', got {quote(toks[i])}", i)
            if undefined is not None:
                label, succs = undefined
                raise ValidationError(f"state {quote(name)}: merged weight for {quote(label)} -> "
                                      f"{' '.join(map(quote, succs)) or '()'} is undefined")
            if prob and _ratio_sum([w for _, w in row.values()]) is UNDEFINED:
                overfull.append(Diagnostic(
                    "error", f"state {quote(name)}: outgoing weight sum is undefined"))
            rows[name] = row.items()
            k = i + 1
        elif kw == "label":  # label NAME / ARITY
            name = toks[k + 1]
            if name != "*" and not name.isidentifier():
                raise error(f"expected label name, got {quote(name)}", k + 1)
            if toks[k + 2] != "/":
                raise error(f"expected '/', got {quote(toks[k + 2])}", k + 2)
            arity = toks[k + 3]
            if not arity[:1].isdigit():
                raise error(f"expected number, got {quote(arity)}", k + 3)
            if name in labels:
                raise error(f"duplicate label {quote(name)}", k + 1)
            if "." in arity:
                raise error("arity must be a natural number", k + 3)
            try:
                labels[name] = (len(labels), int(arity))
            except ValueError:  # more digits than int() converts
                raise error("arity is too large", k + 3) from None
            k += 4
        elif kw == "offset":  # offset NAME = WEIGHT
            name = toks[k + 1]
            if not name.isidentifier():
                raise error(f"expected identifier, got {quote(name)}", k + 1)
            if toks[k + 2] != "=":
                raise error(f"expected '=', got {quote(toks[k + 2])}", k + 2)
            ts.pos = k + 3
            w = ts.expect_weight(semiring)
            if name in offsets:
                raise error(f"duplicate offset for {quote(name)}", k + 1)
            offsets[name] = (w, k + 1)
            k = ts.pos
        else:
            if not kw.isidentifier():
                raise error(f"expected identifier, got {quote(kw)}", k)
            raise error(f"expected 'label', 'state' or 'offset', got {quote(kw)}", k)

    if not labels:
        raise ValidationError("model declares no labels")
    for name, k in referenced.items():
        if name not in rows:
            raise error(f"undeclared successor state {quote(name)}", k)
    for name, (_, k) in offsets.items():
        if name not in rows:
            raise error(f"offset for unknown state {quote(name)}", k)
    if overfull:
        raise ValidationError(overfull[0].message, overfull)

    # the fields `Model.__init__` stores but `transitions`, which `__getattr__`
    # builds from the entries on first use
    one, model = semiring.one, Model.__new__(Model)
    fields = (descriptor, Signature(tuple(Label(n, a) for n, (_, a) in labels.items())),
              tuple(rows), {s: w for s, (w, _) in offsets.items()}
              | {s: one for s in rows if s not in offsets})
    for name, value in zip(("descriptor", "signature", "states", "offsets"), fields):
        object.__setattr__(model, name, value)
    model.__dict__.update(semiring=semiring, _entries=(list(rows.values()), {
        s: semiring.pack([w])[0] for s, (w, _) in offsets.items() if w != one}))
    return model


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
        # prob weights as integer pairs, each check then an integer comparison;
        # None for a weight of another type, outside the carrier and the sums
        ratios = [t.weight.as_integer_ratio() if isinstance(t.weight, (int, Fraction)) else None
                  for t in row] if prob else [None] * len(row)
        for t, ratio in zip(row, ratios):
            arity = arities.get(t.label)
            if arity is None:
                err(f"state {quote(state)}: unknown label {quote(t.label)}")
                continue
            if len(t.successors) != arity:
                err(f"state {quote(state)}: arity mismatch on label {quote(t.label)}")
            for s in t.successors:
                if s not in names:
                    err(f"state {quote(state)}: undeclared successor {quote(s)}")
            if (ratio is not None and ratio[0] == 0) if prob else (t.weight == semiring.zero):
                err(f"state {quote(state)}: transition weight is the semiring zero")
            elif not semiring.contains(t.weight):
                err(f"state {quote(state)}: weight outside the carrier")
            key = (t.label, t.successors)
            if key in seen:
                err(f"state {quote(state)}: duplicate transition {t.label} -> {t.successors}")
            seen.add(key)
            weights.append(ratio)
        total = _ratio_sum(filter(None, weights)) if prob else None
        if total is UNDEFINED:
            err(f"state {quote(state)}: outgoing weight sum is undefined")
        off = model.offsets.get(state)
        if off is not None and not semiring.contains(off):
            err(f"state {quote(state)}: offset outside the carrier")
        if prob and None not in ratios:
            if len(weights) < len(row):  # the mass counts unknown labels too
                total = _ratio_sum(ratios)
            if total is not UNDEFINED and total[0] < total[1]:
                substochastic.append(Diagnostic("warning", f"substochastic: {state} "
                                                f"(outgoing mass {semiring.render(Fraction(*total))})"))

    out.extend(Diagnostic("warning", f"deadlock: {s}") for s in model.deadlock_states())
    return out + substochastic


def _ratio_sum(ratios):
    """Prob's partial sum of (numerator, denominator) pairs, as a pair:
    UNDEFINED once a partial sum exceeds 1, as in `Semiring.sum`."""
    num, den = 0, 1
    for n, d in ratios:
        num, den = num * d + n * den, den * d
        if num > den:
            return UNDEFINED
    return num, den


def render_model(model: Model) -> str:
    """Canonical text for a model; reparses to an equal model, unless a
    weight or offset has more digits than Python prints: `render` gives
    it as "~" and 16 digits, which does not reparse."""
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
