"""Partial commutative semirings of truth values and transition weights.

Four instances are provided:

* ``boolean``           carrier {0, 1}, plus = or, times = and
* ``probabilistic``     carrier [0, 1] as exact rationals, plus partial
                        (undefined when the sum exceeds 1), times = product
* ``tropical``          carrier naturals plus infinity, plus = min, times = +
* ``bounded_tropical``  carrier {0..B} plus infinity, times saturates to
                        infinity past the bound B

The order ``leq`` is the canonical one induced by the partial sum
(x below y iff x + z = y for some z): numeric <= for boolean and
probabilistic, reversed (numeric >=) for the tropical family.  The additive
unit is the bottom element and the multiplicative unit is the top.

``oslash`` is the offsetting operation, the residual of the product:
oslash(s, t) is the order-infimum of all u with u * t above s.  It is a
capped division for probabilistic values, truncated subtraction for the
tropical family, and the first projection for booleans.

``step`` is the transition-step kernel of every fixpoint, written for
prob and for the tropical family with native operators instead of one
method call per scalar.  It runs on the kernel form (``pack``, ``unpack``):
integer pairs ``(numerator, denominator)`` on prob, the scalars themselves
on the tropical family, and on bool the trop[0] value (1 as 0, 0 as INF).

``render`` is the one scalar formatter: exact text, and for a value with
more digits than Python prints, "~" and its first 16 significant digits.

All values are immutable and all operations are pure, so ``semiring_for``
shares one instance per descriptor across concurrent evaluations.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd

from ._record import Record
from .errors import CarrierError, EvaluationError, ParseError, quote

INF = float("inf")

# A trailing decimal exponent as Fraction(text) reads it, and the largest
# one handed to Fraction whatever the text's length: Fraction builds
# 10**exp in full, so "0e999999999" would cost seconds and gigabytes.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_EXP_LIMIT = 100_000


def _fraction(text: str) -> Fraction | None:
    """`Fraction(text)`, raising as it does, or None when the text's
    decimal exponent is past both ``_EXP_LIMIT`` and the text's length."""
    m = _EXPONENT.search(text)
    if m is not None and len(m[1]) > 5 and abs(int(m[1])) > max(_EXP_LIMIT, len(text)):
        return None
    return Fraction(text)


class _Undefined:
    """Singleton result of a partial sum falling outside the carrier."""

    __slots__ = ()

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        raise TypeError("UNDEFINED has no truth value; compare with `is UNDEFINED`")


UNDEFINED = _Undefined()

KINDS = ("boolean", "probabilistic", "tropical", "bounded_tropical")


class SemiringDescriptor(Record, frozen=True, bound=None):
    """Names one of the four semiring instances (plus the bound, if any)."""

    __slots__ = ("kind", "bound")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown semiring kind {self.kind!r}")
        if self.kind == "bounded_tropical":
            if self.bound is None or self.bound < 1:
                raise ValueError("bounded_tropical requires bound >= 1")
        elif self.bound is not None:
            raise ValueError(f"{self.kind} takes no bound")

    @property
    def short_name(self) -> str:
        if self.kind == "boolean":
            return "bool"
        if self.kind == "probabilistic":
            return "prob"
        if self.kind == "tropical":
            return "trop"
        return f"trop[{self.bound}]"


class Semiring:
    """Operations of one semiring instance.

    `plus` and `sum` may return UNDEFINED (a value-level outcome, not an
    error); every other operation is total on the carrier.
    """

    kind: str

    def __init__(self, descriptor: SemiringDescriptor):
        self.descriptor = descriptor

    # subclasses set both units
    zero = None
    one = None

    def contains(self, v) -> bool:
        raise NotImplementedError

    def plus(self, a, b):
        raise NotImplementedError

    def times(self, a, b):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        """The induced order: a + z = b for some z."""
        raise NotImplementedError

    def sum(self, values):
        """Left fold of plus over `values`; the empty sum is zero."""
        acc = self.zero
        for v in values:
            acc = self.plus(acc, v)
            if acc is UNDEFINED:
                return UNDEFINED
        return acc

    def oslash(self, s, t):
        """Offset s by t: the order-infimum of {u | u * t above s}."""
        raise NotImplementedError

    def pack(self, values) -> list:
        """Scalars in the kernel form that `step`, `weighted_sum` and the
        evaluator's fixpoints run on; `unpack` inverts it."""
        return values

    def unpack(self, values) -> list:
        return values

    def step(self, cm, args) -> list:
        """One transition step on compiled model `cm`: per state, the sum
        over its transitions of the weight times each successor's value in
        its argument, offset by the state's scalar.  `args[label id]` holds
        one predicate (a list by state id) per argument position, or None
        to drop that label.  oslash(s, one) == s in every instance, so only
        non-unit offsets are applied.  Values, weights and offsets are in
        the kernel form (`pack`): on prob, integer pairs, output reduced."""
        raise NotImplementedError

    def weighted_sum(self, cm, terms) -> list:
        """Per state, the sum of c * p[state] over (scalar c, kernel-form p)."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def render(self, v) -> str:
        try:
            return str(v)
        except ValueError:  # more digits than Python prints: "~" and the first 16, truncated
            from decimal import ROUND_DOWN, Context, Decimal
            n, d = Decimal(v.numerator), Decimal(v.denominator)
            return f"~{Context(16, ROUND_DOWN).divide(n, d):.15e}"

    # metric used in cross-check reports; infinity if exactly one side is
    # the tropical infinity
    def distance(self, a, b):
        if a == b:
            return 0
        if a == INF or b == INF:
            return INF
        return abs(a - b)

    def __repr__(self):
        return f"Semiring({self.descriptor.short_name})"


class ProbabilisticSemiring(Semiring):
    kind = "probabilistic"
    zero = Fraction(0)
    one = Fraction(1)

    def contains(self, v):  # on integers: a Fraction comparison costs far more
        return isinstance(v, (Fraction, int)) and 0 <= v.numerator <= v.denominator

    def plus(self, a, b):
        s = a + b
        return s if s <= 1 else UNDEFINED

    def times(self, a, b):
        return a * b

    def leq(self, a, b):
        return a <= b

    def oslash(self, s, t):
        if s == 0:
            return Fraction(0)
        if t == 0:
            return Fraction(1)
        return min(Fraction(1), Fraction(s, 1) / t)

    def pack(self, values):
        """Integer pairs (n, d) for n/d, in lowest terms."""
        return [v.as_integer_ratio() for v in values]

    def unpack(self, values):
        return [Fraction(n, d) for n, d in values]

    def step(self, cm, args):
        # exact on integer pairs: each state's sum is kept as num/den and
        # reduced once; terms are non-negative, so checking the total
        # catches every partial sum above 1
        out = []
        for c, row in enumerate(cm.rows):
            num, den = 0, 1
            for (n, d), lid, succs in row:
                preds = args[lid]
                if preds is not None:
                    for k, s in succs:
                        vn, vd = preds[k][s]
                        n *= vn
                        d *= vd
                    num, den = num * d + n * den, den * d
            if num > den:
                raise EvaluationError(f"transition sum undefined at state {cm.states[c]!r}")
            g = gcd(num, den)
            out.append((num // g, den // g))
        for i in cm.offset_ids:
            # oslash(s, t) = min(1, s/t), with 0 for s = 0 and 1 for t = 0
            (sn, sd), (tn, td) = out[i], cm.offsets[i]
            num, den = sn * td, sd * tn
            g = gcd(num, den)
            out[i] = (num // g, den // g) if num < den else ((1, 1) if num else (0, 1))
        return out

    def weighted_sum(self, cm, terms):
        out = []
        for i, state in enumerate(cm.states):
            num, den = 0, 1
            for c, p in terms:
                n, d = p[i]
                n *= c.numerator
                d *= c.denominator
                num, den = num * d + n * den, den * d
            if num > den:
                raise EvaluationError(f"weighted sum undefined at state {state!r}")
            g = gcd(num, den)
            out.append((num // g, den // g))
        return out

    def parse(self, text):
        num, slash, den = text.partition("/")
        try:
            if num.isdecimal() and (den.isdecimal() or not slash):  # "n" or "n/d"
                n, d = int(num), int(den or 1)
                if n <= d:  # in the carrier: built from integers, no Fraction(text)
                    return Fraction(n, d)
            v = _fraction(text)
            if v is None:  # the text with exponent 0: the same grammar, and its mantissa's value
                m = _EXPONENT.search(text)
                v = Fraction(text[:m.start(1)] + "0")
                if v > 0 and int(m[1]) < 0:
                    raise ParseError(
                        f"exponent of probabilistic scalar {quote(text)} out of range")
                if v > 0:  # at least 10**(exponent - len(text)) > 1: outside [0, 1]
                    v = INF
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad probabilistic scalar {quote(text)}") from None
        if not 0 <= v <= 1:
            raise CarrierError(f"probability {quote(text)} outside [0, 1]")
        return v

    def render(self, v):
        return super().render(Fraction(v))


class TropicalSemiring(Semiring):
    kind = "tropical"
    zero = INF
    one = 0
    bound = INF  # products above the bound saturate to INF

    def contains(self, v):
        return v == INF or (isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= self.bound)

    def plus(self, a, b):
        return min(a, b)

    def times(self, a, b):
        if a == INF or b == INF:
            return INF
        s = a + b
        return s if s <= self.bound else INF

    def leq(self, a, b):
        return a >= b

    def oslash(self, s, t):
        if s == INF:
            return INF
        if t == INF:
            return 0
        return max(s - t, 0)

    def step(self, cm, args):
        # weights and values are naturals or INF, so native + absorbs INF
        bound = self.bound
        out = []
        for row in cm.rows:
            total = INF
            for w, lid, succs in row:
                preds = args[lid]
                if preds is not None:
                    for k, s in succs:
                        w += preds[k][s]
                    if w > bound:
                        w = INF
                    if w < total:
                        total = w
            out.append(total)
        for i in cm.offset_ids:
            out[i] = self.oslash(out[i], cm.offsets[i])
        return out

    def weighted_sum(self, cm, terms):
        # the min of c + p[state] with c packed (on bool, 1 as 0 and 0 as
        # INF), saturating past the bound as `step` does
        bound, out = self.bound, [INF] * len(cm.states)
        for c, (_, p) in zip(self.pack([c for c, _ in terms]), terms):
            for i, v in enumerate(p):
                v += c
                if v < out[i] and v <= bound:
                    out[i] = v
        return out

    def parse(self, text):
        if text == "inf":
            return INF
        try:
            v = int(text)
        except ValueError:
            raise ParseError(f"bad tropical scalar {quote(text)}") from None
        if v < 0:
            raise CarrierError(f"tropical scalar {quote(text)} is negative")
        if v > self.bound:
            raise CarrierError(f"scalar {quote(text)} exceeds bound {self.bound}")
        return v


class BooleanSemiring(TropicalSemiring):
    """Public scalars 0 and 1; the kernel form is trop[0], onto which
    1 -> 0, 0 -> INF maps (or, and) and the first projection, oslash."""

    kind = "boolean"
    zero = 0
    one = 1
    bound = 0

    def contains(self, v):
        return v in (0, 1) and not isinstance(v, float)

    def plus(self, a, b):
        return a | b

    def times(self, a, b):
        return a & b

    def leq(self, a, b):
        return a <= b

    def oslash(self, s, t):
        return s

    def pack(self, values):
        return [0 if v else INF for v in values]

    def unpack(self, values):
        return [0 if v else 1 for v in values]  # INF is false

    def parse(self, text):
        if text == "0":
            return 0
        if text == "1":
            return 1
        raise ParseError(f"boolean scalar must be 0 or 1, got {quote(text)}")


class BoundedTropicalSemiring(TropicalSemiring):
    kind = "bounded_tropical"

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.bound = descriptor.bound

    def carrier(self):
        """The full (finite) carrier, bottom first in the induced order."""
        return [INF] + list(range(self.bound, -1, -1))


@functools.cache
def semiring_for(descriptor: SemiringDescriptor) -> Semiring:
    """The one shared (immutable) instance for `descriptor`."""
    cls = {
        "boolean": BooleanSemiring,
        "probabilistic": ProbabilisticSemiring,
        "tropical": TropicalSemiring,
        "bounded_tropical": BoundedTropicalSemiring,
    }[descriptor.kind]
    return cls(descriptor)


def parse_scalar(text: str, descriptor: SemiringDescriptor):
    """Parse a scalar literal in the concrete syntax of `descriptor`.

    Rationals ("2/5") and decimal literals ("0.25") for probabilistic
    values, decimal naturals or "inf" for the tropical family, "0"/"1"
    for booleans.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty scalar")
    return semiring_for(descriptor).parse(text)


def render_scalar(value, descriptor: SemiringDescriptor) -> str:
    return semiring_for(descriptor).render(value)


def render_certified(value, descriptor: SemiringDescriptor, epsilon: Fraction) -> str:
    """Render a scalar that is only known up to `epsilon`.

    Probabilistic values produced by converging iterations are printed as
    the simplest rational in [value - epsilon, value + epsilon] (clipped
    to [0, 1]), which recovers the exact value whenever the limit is a
    small fraction; the descent of `simplest_in_interval` finds it on
    integers.  Other semirings, and results too long to print, go to `render`.
    """
    if descriptor.kind != "probabilistic":
        return render_scalar(value, descriptor)
    vn, vd = value.as_integer_ratio()
    en, ed = epsilon.as_integer_ratio()
    lo, hi, den = vn * ed - en * vd, vn * ed + en * vd, vd * ed
    p, q = _simplest(lo, den, min(hi, den), den) if lo > 0 else (0, 1)
    try:
        return f"{p}/{q}" if q != 1 else str(p)
    except ValueError:  # more digits than Python prints
        return render_scalar(Fraction(p, q), descriptor)


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator in the closed interval [lo, hi].

    Used to report epsilon-converged probabilistic values: among all
    rationals compatible with the certified precision this is the canonical
    representative.  Among several integers the one nearest to zero wins.

    The continued-fraction descent is one loop on the integer numerators
    and denominators of the two endpoints: each step takes the common
    integer part `a` of lo and hi, folds it into the convergents
    (p1/q1 and the one before it, p0/q0) and replaces [lo, hi] by
    [1/(hi - a), 1/(lo - a)].  It stops at the first interval holding an
    integer, so it takes no more steps than either endpoint has
    continued-fraction terms, and it never recurses.
    """
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:  # the negation of the simplest in [-hi, -lo]
        return -Fraction(*_simplest(*(-hi).as_integer_ratio(), *(-lo).as_integer_ratio()))
    return Fraction(*_simplest(*lo.as_integer_ratio(), *hi.as_integer_ratio()))


def _simplest(ln: int, ld: int, hn: int, hd: int) -> tuple[int, int]:
    """`simplest_in_interval` on 0 < ln/ld <= hn/hd, as a coprime pair;
    the ends need not be in lowest terms."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a, r = divmod(ln, ld)
        if r == 0:  # lo is the integer a
            break
        if (a + 1) * hd <= hn:  # a + 1 <= hi
            a += 1
            break
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        ln, ld, hn, hd = hd, hn - a * hd, ld, r
    return a * p1 + p0, a * q1 + q0
