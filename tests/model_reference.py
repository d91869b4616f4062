"""The token-stream model parser that `semimc.model.parse_model` replaced,
kept as the reference for the one-loop parser (`tests/test_model_parser.py`).
It reads each transition through `TokenStream.expect_weight`,
`expect_label_name` and `_parse_transition`, and leaves `Model.compiled` to
pack the weights.  `validate` is the model check as it was before it
compared probabilistic weights as integer pairs."""

from __future__ import annotations

from fractions import Fraction

from semimc._lex import TokenStream
from semimc.errors import ValidationError, quote
from semimc.model import Diagnostic, Label, Model, Signature, Transition
from semimc.semiring import SemiringDescriptor, UNDEFINED, semiring_for

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
    """`semimc.model.validate` with its checks and sums as Fraction
    operations, the reference for the one on integer pairs."""
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
            elif not (isinstance(t.weight, (Fraction, int)) and 0 <= t.weight <= 1 if prob
                      else semiring.contains(t.weight)):
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
        if off is not None and not (isinstance(off, (Fraction, int)) and 0 <= off <= 1 if prob
                                    else semiring.contains(off)):
            err(f"state {quote(state)}: offset outside the carrier")
        if prob:
            if len(weights) < len(row):  # the mass counts unknown labels too
                total = semiring.sum([t.weight for t in row])
            if total is not UNDEFINED and total < 1:
                substochastic.append(Diagnostic(
                    "warning", f"substochastic: {state} (outgoing mass {semiring.render(total)})"))

    out.extend(Diagnostic("warning", f"deadlock: {s}") for s in model.deadlock_states())
    return out + substochastic
