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
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lex import TokenStream, tokenize
from .errors import ParseError
from .model import Signature
from .semiring import Semiring, SemiringDescriptor, UNDEFINED, semiring_for


@dataclass(frozen=True)
class Top:
    def __repr__(self):
        return "T"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class WeightedSum:
    terms: tuple[tuple[object, "Formula"], ...]  # (coefficient, operand)


@dataclass(frozen=True)
class Modal:
    disjuncts: tuple[tuple[str, tuple["Formula", ...]], ...]  # (label, args)


@dataclass(frozen=True)
class Mu:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Nu:
    var: str
    body: "Formula"


Formula = Top | Var | WeightedSum | Modal | Mu | Nu

TOP = Top()
BOT = WeightedSum(())


@dataclass(frozen=True)
class FormulaClass:
    closed: bool
    qualitative: bool
    modal_only: bool
    modal_depth: int


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset([f.name])
    if isinstance(f, WeightedSum):
        return frozenset().union(*(free_vars(op) for _, op in f.terms)) if f.terms else frozenset()
    if isinstance(f, Modal):
        out = frozenset()
        for _, args in f.disjuncts:
            for a in args:
                out |= free_vars(a)
        return out
    if isinstance(f, (Mu, Nu)):
        return free_vars(f.body) - {f.var}
    return frozenset()


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
    if isinstance(f, WeightedSum):
        return not f.terms
    if isinstance(f, Modal):
        return all(_qualitative(a) for _, args in f.disjuncts for a in args)
    if isinstance(f, (Mu, Nu)):
        return _qualitative(f.body)
    return True


def _modal_only(f: Formula) -> bool:
    if isinstance(f, (Mu, Nu, Var)):
        return False
    if isinstance(f, WeightedSum):
        return all(_modal_only(op) for _, op in f.terms)
    if isinstance(f, Modal):
        return all(_modal_only(a) for _, args in f.disjuncts for a in args)
    return True


def modal_depth(f: Formula) -> int:
    if isinstance(f, WeightedSum):
        return max((modal_depth(op) for _, op in f.terms), default=0)
    if isinstance(f, Modal):
        return 1 + max((modal_depth(a) for _, args in f.disjuncts for a in args), default=0)
    if isinstance(f, (Mu, Nu)):
        return modal_depth(f.body)
    return 0


def fnd(f: Formula) -> int:
    """Fixpoint nesting depth: binders add one, everything else takes the
    maximum over its children."""
    if isinstance(f, (Mu, Nu)):
        return fnd(f.body) + 1
    if isinstance(f, WeightedSum):
        return max((fnd(op) for _, op in f.terms), default=0)
    if isinstance(f, Modal):
        return max((fnd(a) for _, args in f.disjuncts for a in args), default=0)
    return 0


def size(f: Formula) -> int:
    if isinstance(f, WeightedSum):
        return 1 + sum(size(op) for _, op in f.terms)
    if isinstance(f, Modal):
        return 1 + sum(size(a) for _, args in f.disjuncts for a in args)
    if isinstance(f, (Mu, Nu)):
        return 1 + size(f.body)
    return 1


def _used_names(f: Formula, acc: set[str]):
    if isinstance(f, Var):
        acc.add(f.name)
    elif isinstance(f, WeightedSum):
        for _, op in f.terms:
            _used_names(op, acc)
    elif isinstance(f, Modal):
        for _, args in f.disjuncts:
            for a in args:
                _used_names(a, acc)
    elif isinstance(f, (Mu, Nu)):
        acc.add(f.var)
        _used_names(f.body, acc)


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def rename_free(f: Formula, old: str, new: str) -> Formula:
    return substitute(f, old, Var(new))


def substitute(f: Formula, var: str, replacement: Formula) -> Formula:
    """Capture-avoiding substitution of `replacement` for free `var`."""
    if isinstance(f, Var):
        return replacement if f.name == var else f
    if isinstance(f, (Top,)):
        return f
    if isinstance(f, WeightedSum):
        if not f.terms:
            return f
        return WeightedSum(tuple((c, substitute(op, var, replacement)) for c, op in f.terms))
    if isinstance(f, Modal):
        return Modal(tuple(
            (lbl, tuple(substitute(a, var, replacement) for a in args))
            for lbl, args in f.disjuncts))
    if isinstance(f, (Mu, Nu)):
        if f.var == var:
            return f
        if f.var in free_vars(replacement) and var in free_vars(f.body):
            used: set[str] = set()
            _used_names(f.body, used)
            _used_names(replacement, used)
            used.add(var)
            fresh = fresh_name(f.var, used)
            body = rename_free(f.body, f.var, fresh)
            return type(f)(fresh, substitute(body, var, replacement))
        return type(f)(f.var, substitute(f.body, var, replacement))
    raise TypeError(f"not a formula: {f!r}")


def unroll(f: Formula, k: int) -> Formula:
    """Replace every fixpoint, innermost first, by its k-step approximant:
    mu from F, nu from T.  The result has no binders or variables."""
    if isinstance(f, (Top, Var)):
        return f
    if isinstance(f, WeightedSum):
        return WeightedSum(tuple((c, unroll(op, k)) for c, op in f.terms))
    if isinstance(f, Modal):
        return Modal(tuple(
            (lbl, tuple(unroll(a, k) for a in args)) for lbl, args in f.disjuncts))
    if isinstance(f, (Mu, Nu)):
        body = unroll(f.body, k)
        acc: Formula = BOT if isinstance(f, Mu) else TOP
        for _ in range(k):
            acc = substitute(body, f.var, acc)
        return acc
    raise TypeError(f"not a formula: {f!r}")


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality modulo bound-variable names."""
    return _alpha(f, g, {}, {})


def _alpha(f, g, env_f, env_g):
    if type(f) is not type(g):
        return False
    if isinstance(f, Top):
        return True
    if isinstance(f, Var):
        return env_f.get(f.name, f.name) == env_g.get(g.name, g.name)
    if isinstance(f, WeightedSum):
        return len(f.terms) == len(g.terms) and all(
            cf == cg and _alpha(af, ag, env_f, env_g)
            for (cf, af), (cg, ag) in zip(f.terms, g.terms))
    if isinstance(f, Modal):
        if len(f.disjuncts) != len(g.disjuncts):
            return False
        return all(
            lf == lg and len(af) == len(ag)
            and all(_alpha(x, y, env_f, env_g) for x, y in zip(af, ag))
            for (lf, af), (lg, ag) in zip(f.disjuncts, g.disjuncts))
    if isinstance(f, (Mu, Nu)):
        mark = f"#{len(env_f)}"
        return _alpha(f.body, g.body, {**env_f, f.var: mark}, {**env_g, g.var: mark})
    return False


class _FormulaParser:
    def __init__(self, text: str, signature: Signature, semiring: Semiring):
        tokens = tokenize(text)
        self.ts = TokenStream(tokens)
        self.signature = signature
        self.semiring = semiring
        self.binders_seen: set[str] = set()
        # every identifier in the source; fresh binder names must miss all
        # of them or renaming could capture a free variable
        self.all_names = {t.text for t in tokens if t.kind == "ident"}

    def parse(self) -> Formula:
        f = self.formula({})
        self.ts.expect_eof()
        return f

    def formula(self, scope: dict[str, str]) -> Formula:
        ts = self.ts
        first_tok = ts.peek()
        terms = [self.summand(scope)]
        while ts.at_symbol("+"):
            ts.next()
            terms.append(self.summand(scope))
        if len(terms) == 1:
            c, f = terms[0]
            if c is None:
                return f
            return WeightedSum(((c, f),))
        if any(c is None for c, _ in terms):
            raise ParseError("multi-term sums need a weight on every term",
                             first_tok.line, first_tok.col)
        coeffs = [c for c, _ in terms]
        if self.semiring.sum(coeffs) is UNDEFINED:
            raise ParseError("coefficient sum is undefined in the semiring",
                             first_tok.line, first_tok.col)
        return WeightedSum(tuple((c, f) for c, f in terms))

    def summand(self, scope) -> tuple[object | None, Formula]:
        ts = self.ts
        if ts.peek().kind == "number" or ts.at_ident("inf"):
            w = ts.expect_weight(self.semiring)
            ts.expect_symbol("*")
            return w, self.atom(scope)
        return None, self.atom(scope)

    def atom(self, scope) -> Formula:
        ts = self.ts
        tok = ts.peek()
        if ts.at_symbol("("):
            ts.next()
            f = self.formula(scope)
            ts.expect_symbol(")")
            return f
        if ts.at_symbol("["):
            return self.modal_chain(scope)
        if tok.kind == "ident":
            if tok.text == "T":
                ts.next()
                return TOP
            if tok.text == "F":
                ts.next()
                return BOT
            if tok.text in ("mu", "nu"):
                ts.next()
                name_tok = ts.expect_ident()
                if name_tok.text in ("T", "F", "mu", "nu"):
                    raise ParseError(f"reserved word {name_tok.text!r} cannot be a variable",
                                     name_tok.line, name_tok.col)
                ts.expect_symbol(".")
                # rename on collision with any other binder to rule out shadowing
                bound = name_tok.text
                if bound in self.binders_seen or bound in scope:
                    bound = fresh_name(bound, self.all_names | self.binders_seen)
                self.binders_seen.add(bound)
                inner = dict(scope)
                inner[name_tok.text] = bound
                body = self.formula(inner)
                cls = Mu if tok.text == "mu" else Nu
                return cls(bound, body)
            ts.next()
            return Var(scope.get(tok.text, tok.text))
        raise ParseError(f"expected a formula, got {tok.text!r}", tok.line, tok.col)

    def modal_chain(self, scope) -> Formula:
        disjuncts = [self.modal(scope)]
        labels = {disjuncts[0][0]}
        while self.ts.at_symbol("|"):
            tok = self.ts.next()
            lbl, args = self.modal(scope)
            if lbl in labels:
                raise ParseError(f"duplicate label {lbl!r} in disjunction", tok.line, tok.col)
            labels.add(lbl)
            disjuncts.append((lbl, args))
        return Modal(tuple(disjuncts))

    def modal(self, scope) -> tuple[str, tuple[Formula, ...]]:
        ts = self.ts
        ts.expect_symbol("[")
        lbl_tok = ts.expect_label_name()
        ts.expect_symbol("]")
        if not self.signature.has(lbl_tok.text):
            raise ParseError(f"unknown label {lbl_tok.text!r}", lbl_tok.line, lbl_tok.col)
        arity = self.signature.arity(lbl_tok.text)
        args: list[Formula] = []
        if ts.at_symbol("("):
            ts.next()
            args.append(self.formula(scope))
            while ts.at_symbol(","):
                ts.next()
                args.append(self.formula(scope))
            ts.expect_symbol(")")
        if len(args) != arity:
            raise ParseError(
                f"label {lbl_tok.text!r} has arity {arity}, got {len(args)} argument(s)",
                lbl_tok.line, lbl_tok.col)
        return lbl_tok.text, tuple(args)


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
            raise ParseError(f"unbound variable {sorted(fv)[0]!r} in closed formula")
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
