"""Formula AST, concrete syntax and structural operations.

The logic has a top constant, variables, weighted sums (the empty sum is
the bottom constant F), disjunctive modalities over pairwise-distinct
labels, and least/greatest fixpoint binders::

    formula := sum
    sum     := summand ("+" summand)*
    summand := WEIGHT "*" atom | atom
    atom    := "T" | "F" | IDENT | modal ("|" modal)*
             | ("mu"|"nu") IDENT "." formula | "(" formula ")"
    modal   := "[" IDENT "]" ["(" formula ("," formula)* ")"]

Weights are scalars of the model's semiring and are mandatory on sums with
more than one term.  Binder bodies extend maximally to the right.  Bound
variables are renamed at parse time so that no variable is bound by more
than one enclosing binder.

Node shapes live in `_children` (immediate subformulas in source order),
`_rebuild` (the same node over new subformulas) and `_shape` (coefficients,
labels and arities).  Every structural walk goes through these; only the
parser and `render_formula`, which need concrete syntax, read node fields.
"""

from __future__ import annotations

from ._lex import TokenStream
from ._record import Record
from .errors import ParseError, quote
from .model import Signature
from .semiring import Semiring, SemiringDescriptor, UNDEFINED, semiring_for


class Top(Record, frozen=True):
    __slots__ = ()

    def __repr__(self):
        return "T"


class Var(Record, frozen=True):
    __slots__ = ("name",)


class WeightedSum(Record, frozen=True):
    __slots__ = ("terms",)  # ((coefficient, operand), ...)


class Modal(Record, frozen=True):
    __slots__ = ("disjuncts",)  # ((label, (argument, ...)), ...)


class Mu(Record, frozen=True):
    __slots__ = ("var", "body")


class Nu(Record, frozen=True):
    __slots__ = ("var", "body")


Formula = Top | Var | WeightedSum | Modal | Mu | Nu

TOP = Top()
BOT = WeightedSum(())


class FormulaClass(Record, frozen=True):
    __slots__ = ("closed", "qualitative", "modal_only", "modal_depth")


def _children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of `f` in source order."""
    if isinstance(f, (Top, Var)):
        return ()
    if isinstance(f, (Mu, Nu)):
        return (f.body,)
    if isinstance(f, WeightedSum):
        return tuple([op for _, op in f.terms])
    if isinstance(f, Modal):
        return tuple([a for _, args in f.disjuncts for a in args])
    raise TypeError(f"not a formula: {f!r}")


def _rebuild(f: Formula, children) -> Formula:
    """`f` with its immediate subformulas replaced by `children`, given in
    the order of `_children(f)`."""
    it = iter(children)
    if isinstance(f, WeightedSum):
        return WeightedSum(tuple((c, next(it)) for c, _ in f.terms))
    if isinstance(f, Modal):
        return Modal(tuple((lbl, tuple(next(it) for _ in args)) for lbl, args in f.disjuncts))
    if isinstance(f, (Mu, Nu)):
        return type(f)(f.var, next(it))
    return f


def _shape(f: Formula) -> tuple:
    """The non-formula data of a node that alpha-equality compares:
    coefficients of a sum, labels and arities of a modality."""
    if isinstance(f, WeightedSum):
        return tuple(c for c, _ in f.terms)
    if isinstance(f, Modal):
        return tuple((lbl, len(args)) for lbl, args in f.disjuncts)
    return ()


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset([f.name])
    out = frozenset()
    for c in _children(f):
        out |= free_vars(c)
    return out - {f.var} if isinstance(f, (Mu, Nu)) else out


def classify(f: Formula) -> FormulaClass:
    """Closedness, membership of the qualitative fragment (no weighted sums
    other than F), absence of fixpoints and variables, and modal depth."""
    return FormulaClass(
        closed=not free_vars(f),
        qualitative=_qualitative(f),
        modal_only=_modal_only(f),
        modal_depth=modal_depth(f),
    )


def _qualitative(f: Formula) -> bool:
    if isinstance(f, WeightedSum) and f != BOT:
        return False
    return all(map(_qualitative, _children(f)))


def _modal_only(f: Formula) -> bool:
    return not isinstance(f, (Mu, Nu, Var)) and all(map(_modal_only, _children(f)))


def modal_depth(f: Formula) -> int:
    depth = max(map(modal_depth, _children(f)), default=0)
    return depth + 1 if isinstance(f, Modal) else depth


def fnd(f: Formula) -> int:
    """Fixpoint nesting depth: binders add one, everything else takes the
    maximum over its children."""
    depth = max(map(fnd, _children(f)), default=0)
    return depth + 1 if isinstance(f, (Mu, Nu)) else depth


def size(f: Formula) -> int:
    return 1 + sum(map(size, _children(f)))


def _used_names(f: Formula) -> set[str]:
    """Every variable name in `f`, free, bound or binding."""
    own = {f.name} if isinstance(f, Var) else {f.var} if isinstance(f, (Mu, Nu)) else set()
    return own.union(*map(_used_names, _children(f)))


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def substitute(f: Formula, var: str, replacement: Formula) -> Formula:
    """Capture-avoiding substitution of `replacement` for free `var`."""
    if isinstance(f, Var):
        return replacement if f.name == var else f
    if isinstance(f, (Mu, Nu)):
        if f.var == var:
            return f
        if f.var in free_vars(replacement) and var in free_vars(f.body):
            fresh = fresh_name(f.var, _used_names(f.body) | _used_names(replacement) | {var})
            f = type(f)(fresh, substitute(f.body, f.var, Var(fresh)))
    return _rebuild(f, [substitute(c, var, replacement) for c in _children(f)])


def unroll(f: Formula, k: int) -> Formula:
    """Replace every fixpoint, innermost first, by its k-step approximant:
    mu from F, nu from T.  The result has no binders or variables."""
    f = _rebuild(f, [unroll(c, k) for c in _children(f)])
    if not isinstance(f, (Mu, Nu)):
        return f
    acc: Formula = BOT if isinstance(f, Mu) else TOP
    for _ in range(k):
        acc = substitute(f.body, f.var, acc)
    return acc


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality modulo bound-variable names."""
    return _alpha(f, g, {}, {})


def _alpha(f, g, env_f, env_g):
    if type(f) is not type(g):
        return False
    if isinstance(f, Var):
        return env_f.get(f.name, f.name) == env_g.get(g.name, g.name)
    if isinstance(f, (Mu, Nu)):
        mark = f"#{len(env_f)}"
        env_f, env_g = {**env_f, f.var: mark}, {**env_g, g.var: mark}
    return _shape(f) == _shape(g) and all(
        _alpha(x, y, env_f, env_g) for x, y in zip(_children(f), _children(g)))


class _FormulaParser:
    def __init__(self, text: str, signature: Signature, semiring: Semiring):
        self.ts = TokenStream(text)
        self.signature = signature
        self.semiring = semiring
        self.binders_seen: set[str] = set()
        # every identifier in the source; fresh binder names must miss all
        # of them or renaming could capture a free variable
        self.all_names = {tok for tok in self.ts.tokens if tok.isidentifier()}

    def parse(self) -> Formula:
        f = self.formula({})
        self.ts.expect_eof()
        return f

    def formula(self, scope: dict[str, str]) -> Formula:
        ts = self.ts
        first = ts.pos
        ts.enter()
        terms = [self.summand(scope)]
        while ts.at("+"):
            ts.next()
            terms.append(self.summand(scope))
        ts.depth -= 1
        if len(terms) == 1:
            c, f = terms[0]
            if c is None:
                return f
            return WeightedSum(((c, f),))
        if any(c is None for c, _ in terms):
            raise ts.error("multi-term sums need a weight on every term", first)
        coeffs = [c for c, _ in terms]
        if self.semiring.sum(coeffs) is UNDEFINED:
            raise ts.error("coefficient sum is undefined in the semiring", first)
        return WeightedSum(tuple((c, f) for c, f in terms))

    def summand(self, scope) -> tuple[object | None, Formula]:
        ts = self.ts
        if ts.peek()[:1].isdigit() or ts.at("inf"):
            w = ts.expect_weight(self.semiring)
            ts.expect_symbol("*")
            return w, self.atom(scope)
        return None, self.atom(scope)

    def atom(self, scope) -> Formula:
        ts = self.ts
        k = ts.pos
        text = ts.peek()
        if text == "(":
            ts.next()
            f = self.formula(scope)
            ts.expect_symbol(")")
            return f
        if text == "[":
            return self.modal_chain(scope)
        if text.isidentifier():
            if text == "T":
                ts.next()
                return TOP
            if text == "F":
                ts.next()
                return BOT
            if text in ("mu", "nu"):
                ts.next()
                name = ts.expect("ident")
                if name in ("T", "F", "mu", "nu"):
                    raise ts.error(f"reserved word {quote(name)} cannot be a variable", k + 1)
                ts.expect_symbol(".")
                # rename on collision with any other binder to rule out shadowing
                bound = name
                if bound in self.binders_seen or bound in scope:
                    bound = fresh_name(bound, self.all_names | self.binders_seen)
                self.binders_seen.add(bound)
                inner = dict(scope)
                inner[name] = bound
                body = self.formula(inner)
                cls = Mu if text == "mu" else Nu
                return cls(bound, body)
            ts.next()
            return Var(scope.get(text, text))
        raise ts.error(f"expected a formula, got {quote(text)}", k)

    def modal_chain(self, scope) -> Formula:
        disjuncts = [self.modal(scope)]
        labels = {disjuncts[0][0]}
        while self.ts.at("|"):
            k = self.ts.pos
            self.ts.next()
            lbl, args = self.modal(scope)
            if lbl in labels:
                raise self.ts.error(f"duplicate label {quote(lbl)} in disjunction", k)
            labels.add(lbl)
            disjuncts.append((lbl, args))
        return Modal(tuple(disjuncts))

    def modal(self, scope) -> tuple[str, tuple[Formula, ...]]:
        ts = self.ts
        ts.expect_symbol("[")
        k = ts.pos
        label = ts.expect_label_name()
        ts.expect_symbol("]")
        if not self.signature.has(label):
            raise ts.error(f"unknown label {quote(label)}", k)
        arity = self.signature.arity(label)
        args: list[Formula] = []
        if ts.at("("):
            ts.next()
            args.append(self.formula(scope))
            while ts.at(","):
                ts.next()
                args.append(self.formula(scope))
            ts.expect_symbol(")")
        if len(args) != arity:
            raise ts.error(f"label {quote(label)} has arity {arity}, "
                           f"got {len(args)} argument(s)", k)
        return label, tuple(args)


def parse_formula(text: str, signature: Signature, descriptor: SemiringDescriptor,
                  require_closed: bool = False) -> Formula:
    """Parse a formula against a signature and semiring.

    Checks arities, distinctness of labels inside disjunctions and
    definedness of coefficient sums; eliminates variable shadowing by
    renaming.  With `require_closed`, free variables are rejected.
    """
    f = _FormulaParser(text, signature, semiring_for(descriptor)).parse()
    if require_closed:
        fv = free_vars(f)
        if fv:
            raise ParseError(f"unbound variable {quote(sorted(fv)[0])} in closed formula")
    return f


def render_formula(f: Formula, descriptor: SemiringDescriptor) -> str:
    """Canonical concrete syntax; parse(render(f)) is alpha-equal to f."""
    semiring = semiring_for(descriptor)

    def operand(g) -> str:
        # position directly after '*': sums, chains and binders need parens
        if isinstance(g, WeightedSum) and g.terms:
            return f"({full(g)})"
        if isinstance(g, Modal) and len(g.disjuncts) > 1:
            return f"({full(g)})"
        if isinstance(g, (Mu, Nu)):
            return f"({full(g)})"
        return full(g)

    def full(g) -> str:
        if isinstance(g, Top):
            return "T"
        if isinstance(g, Var):
            return g.name
        if isinstance(g, WeightedSum):
            if not g.terms:
                return "F"
            return " + ".join(f"{semiring.render(c)}*{operand(op)}" for c, op in g.terms)
        if isinstance(g, Modal):
            parts = []
            for lbl, args in g.disjuncts:
                if args:
                    parts.append(f"[{lbl}](" + ", ".join(full(a) for a in args) + ")")
                else:
                    parts.append(f"[{lbl}]")
            return " | ".join(parts)
        if isinstance(g, (Mu, Nu)):
            kw = "mu" if isinstance(g, Mu) else "nu"
            return f"{kw} {g.var}. {full(g.body)}"
        raise TypeError(f"not a formula: {g!r}")

    return full(f)
