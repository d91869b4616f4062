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


def _fold(root, leave, children=_children, memo: dict | None = None):
    """`leave(node, values)` of `root`, `values` being the results for the
    sequence `children(node)`, on an explicit stack: depth costs no frames.
    `children` runs in preorder and `leave` in postorder, left to right.
    With `memo` (by identity; keep its nodes alive), a node already in it
    is not folded again."""
    stack, node = [], root  # stack: (node, its children, their values so far)
    while True:
        if memo is not None and id(node) in memo:
            v = memo[id(node)]
        elif kids := children(node):
            stack.append((node, kids, []))
            node = kids[0]
            continue
        else:
            v = leave(node, kids)
        while True:  # `node` is done, worth `v`: on to the next child, or leave the parent
            if memo is not None:
                memo[id(node)] = v
            if not stack:
                return v
            parent, kids, vals = stack[-1]
            vals.append(v)
            if len(vals) < len(kids):
                node = kids[len(vals)]
                break
            stack.pop()
            node, v = parent, leave(parent, vals)


def _free_leave(f: Formula, vs) -> frozenset[str]:
    out = frozenset([f.name]) if isinstance(f, Var) else frozenset().union(*vs)
    return out - {f.var} if isinstance(f, (Mu, Nu)) else out


def free_vars(f: Formula) -> frozenset[str]:
    return _fold(f, _free_leave)


def classify(f: Formula) -> FormulaClass:
    """Closedness, membership of the qualitative fragment (no weighted sums
    other than F), absence of fixpoints and variables, and modal depth."""
    def leave(g, vs):
        free, qual, only, depth = zip(*vs) if vs else ((),) * 4
        return (_free_leave(g, free), all(qual) and not (isinstance(g, WeightedSum) and g.terms),
                all(only) and not isinstance(g, (Mu, Nu, Var)),
                max(depth, default=0) + isinstance(g, Modal))

    free, *rest = _fold(f, leave, memo={})
    return FormulaClass(not free, *rest)


def modal_depth(f: Formula) -> int:
    return _fold(f, lambda g, vs: max(vs, default=0) + isinstance(g, Modal), memo={})


def fnd(f: Formula) -> int:
    """Fixpoint nesting depth: binders add one, everything else takes the
    maximum over its children."""
    return _fold(f, lambda g, vs: max(vs, default=0) + isinstance(g, (Mu, Nu)), memo={})


def size(f: Formula) -> int:
    return _fold(f, lambda g, vs: 1 + sum(vs), memo={})


def _used_names(f: Formula) -> set[str]:
    """Every variable name in `f`, free, bound or binding."""
    return _fold(f, lambda g, vs: set().union(
        [g.name] if isinstance(g, Var) else [g.var] if isinstance(g, (Mu, Nu)) else [], *vs))


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


def substitute(f: Formula, var: str, replacement: Formula) -> Formula:
    """Capture-avoiding substitution of `replacement` for free `var`; a binder
    that would capture is renamed, the renaming joining its body's substitution."""
    def item(g, sub: dict):
        if isinstance(g, (Mu, Nu)) and sub:
            sub = {x: r for x, r in sub.items() if x != g.var}
            if var in sub and g.var in free_vars(replacement) and var in free_vars(g.body):
                fresh = fresh_name(g.var, _used_names(g.body) | _used_names(replacement) | {var})
                g, sub = type(g)(fresh, g.body), {**sub, g.var: Var(fresh)}
        return g, sub

    def leave(it, vs):
        g, sub = it
        return sub.get(g.name, g) if isinstance(g, Var) else _rebuild(g, vs) if vs else g

    return _fold(item(f, {var: replacement}), leave,
                 lambda it: [item(c, it[1]) for c in _children(it[0])] if it[1] else ())


def unroll(f: Formula, k: int) -> Formula:
    """Replace every fixpoint, innermost first, by its k-step approximant:
    mu from F, nu from T.  No binders or variables; approximants are shared."""
    def leave(g, vs):
        g = _rebuild(g, vs)
        if not isinstance(g, (Mu, Nu)):
            return g
        acc: Formula = BOT if isinstance(g, Mu) else TOP
        for _ in range(k):  # the body has no binders left, so nothing is captured
            acc = _fold(g.body, lambda h, vs, prev=acc: prev if isinstance(h, Var) and
                        h.name == g.var else _rebuild(h, vs), memo={})
        return acc
    return _fold(f, leave)


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality modulo bound-variable names."""
    todo = [(f, g, {}, {})]
    while todo:
        f, g, env_f, env_g = todo.pop()
        if type(f) is not type(g) or _shape(f) != _shape(g) or \
                isinstance(f, Var) and env_f.get(f.name, f.name) != env_g.get(g.name, g.name):
            return False
        if isinstance(f, (Mu, Nu)):
            mark = f"#{len(env_f)}"
            env_f, env_g = {**env_f, f.var: mark}, {**env_g, g.var: mark}
        todo += reversed([(x, y, env_f, env_g) for x, y in zip(_children(f), _children(g))])
    return True


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

    def operand(g, text: str) -> str:
        # position directly after '*': sums, chains and binders need parens
        return f"({text})" if isinstance(g, WeightedSum) and g.terms or isinstance(g, (Mu, Nu)) \
            or isinstance(g, Modal) and len(g.disjuncts) > 1 else text

    def leave(g, vs) -> str:
        if isinstance(g, Top):
            return "T"
        if isinstance(g, Var):
            return g.name
        if isinstance(g, WeightedSum):
            return " + ".join(f"{semiring.render(c)}*{operand(op, v)}"
                              for (c, op), v in zip(g.terms, vs)) or "F"
        if isinstance(g, Modal):
            it = iter(vs)
            return " | ".join(f"[{lbl}](" + ", ".join(next(it) for _ in args) + ")" if args
                              else f"[{lbl}]" for lbl, args in g.disjuncts)
        kw = "mu" if isinstance(g, Mu) else "nu"
        return f"{kw} {g.var}. {vs[0]}"

    return _fold(f, leave)
