"""Axioms and operation contracts of the four semiring instances."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimc import (INF, UNDEFINED, CarrierError, ParseError,
                    SemiringDescriptor, parse_scalar, render_scalar,
                    semiring_for, simplest_in_interval)
from semimc.errors import quote
from semimc.semiring import render_certified
from randgen import DESCRIPTORS, carrier_values

ALL = list(DESCRIPTORS.values())


def values_strategy(descriptor):
    if descriptor.kind == "boolean":
        return st.sampled_from([0, 1])
    if descriptor.kind == "probabilistic":
        return st.fractions(min_value=0, max_value=1, max_denominator=32)
    if descriptor.kind == "tropical":
        return st.one_of(st.integers(min_value=0, max_value=30), st.just(INF))
    return st.one_of(st.integers(min_value=0, max_value=descriptor.bound), st.just(INF))


def pairs_strategy():
    return st.sampled_from(ALL).flatmap(
        lambda d: st.tuples(st.just(d), values_strategy(d), values_strategy(d)))


def triples_strategy():
    return st.sampled_from(ALL).flatmap(
        lambda d: st.tuples(st.just(d), values_strategy(d), values_strategy(d),
                            values_strategy(d)))


@given(pairs_strategy())
def test_plus_commutative(data):
    d, a, b = data
    s = semiring_for(d)
    x, y = s.plus(a, b), s.plus(b, a)
    assert (x is UNDEFINED and y is UNDEFINED) or x == y


@given(triples_strategy())
def test_plus_associative_where_defined(data):
    d, a, b, c = data
    s = semiring_for(d)
    left = s.plus(a, b)
    right = s.plus(b, c)
    if left is not UNDEFINED and right is not UNDEFINED:
        lhs = s.plus(left, c)
        rhs = s.plus(a, right)
        assert (lhs is UNDEFINED and rhs is UNDEFINED) or lhs == rhs


@given(triples_strategy())
def test_times_commutative_associative(data):
    d, a, b, c = data
    s = semiring_for(d)
    assert s.times(a, b) == s.times(b, a)
    assert s.times(s.times(a, b), c) == s.times(a, s.times(b, c))


@given(pairs_strategy())
def test_times_annihilates_and_units(data):
    d, a, _ = data
    s = semiring_for(d)
    assert s.times(a, s.zero) == s.zero
    assert s.times(a, s.one) == a
    assert s.plus(a, s.zero) == a


@given(triples_strategy())
def test_distributivity_over_defined_sums(data):
    d, s_, t, u = data
    sr = semiring_for(d)
    tu = sr.plus(t, u)
    if tu is UNDEFINED:
        return
    lhs = sr.plus(sr.times(s_, t), sr.times(s_, u))
    assert lhs is not UNDEFINED  # definedness closure
    assert lhs == sr.times(s_, tu)


@given(triples_strategy())
def test_order_is_partial_order_with_bounds(data):
    d, a, b, c = data
    s = semiring_for(d)
    assert s.leq(a, a)
    if s.leq(a, b) and s.leq(b, a):
        assert a == b
    if s.leq(a, b) and s.leq(b, c):
        assert s.leq(a, c)
    assert s.leq(s.zero, a)
    assert s.leq(a, s.one)


@given(triples_strategy())
def test_monotonicity(data):
    d, a, b, c = data
    s = semiring_for(d)
    if not s.leq(a, b):
        return
    assert s.leq(s.times(a, c), s.times(b, c))
    ac, bc = s.plus(a, c), s.plus(b, c)
    if ac is not UNDEFINED and bc is not UNDEFINED:
        assert s.leq(ac, bc)


@given(st.sampled_from(ALL).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(
        st.tuples(values_strategy(d), values_strategy(d)), max_size=6))))
def test_definedness_closure_for_sums(data):
    d, pairs = data
    s = semiring_for(d)
    if s.sum([a for a, _ in pairs]) is UNDEFINED:
        return
    assert s.sum([s.times(a, b) for a, b in pairs]) is not UNDEFINED


@given(pairs_strategy())
def test_oslash_identity_and_residuation(data):
    d, s_, t = data
    sr = semiring_for(d)
    assert sr.oslash(s_, sr.one) == s_
    r = sr.oslash(s_, t)
    assert sr.contains(r)


def _residuation_check(sr, universe, s_, t):
    qualifying = [u for u in universe if sr.leq(s_, sr.times(u, t))]
    r = sr.oslash(s_, t)
    if qualifying:
        assert sr.leq(s_, sr.times(r, t)), (s_, t, r)
        for u in qualifying:
            assert sr.leq(r, u), (s_, t, r, u)
    else:
        assert r == sr.one


def test_oslash_residuation_exhaustive_boolean():
    sr = semiring_for(DESCRIPTORS["boolean"])
    for s_ in (0, 1):
        for t in (0, 1):
            _residuation_check(sr, [0, 1], s_, t)


def test_bool_kernel_form_is_trop0():
    # 1 as 0 and 0 as INF carries or, and and oslash onto min, + and
    # truncated subtraction on {0, INF}: bool runs on the tropical kernel
    sr, tr = semiring_for(DESCRIPTORS["boolean"]), semiring_for(DESCRIPTORS["tropical"])
    assert sr.pack([0, 1]) == [INF, 0] and sr.unpack([INF, 0]) == [0, 1]
    for a in (0, 1):
        for b in (0, 1):
            x, y = sr.pack([a, b])
            assert sr.pack([sr.plus(a, b), sr.times(a, b), sr.oslash(a, b)]) == [
                tr.plus(x, y), tr.times(x, y), tr.oslash(x, y)]


def test_semiring_for_shares_one_instance_per_descriptor():
    for d in ALL:
        assert semiring_for(d) is semiring_for(SemiringDescriptor(d.kind, d.bound))


@pytest.mark.parametrize("bound", range(1, 9))
def test_oslash_residuation_exhaustive_bounded_tropical(bound):
    sr = semiring_for(SemiringDescriptor("bounded_tropical", bound))
    carrier = sr.carrier()
    for s_ in carrier:
        for t in carrier:
            _residuation_check(sr, carrier, s_, t)


def test_oslash_residuation_on_grids():
    # rational grid for the probabilistic instance
    sr = semiring_for(DESCRIPTORS["probabilistic"])
    grid = sorted({Fraction(p, q) for q in range(1, 9) for p in range(q + 1)})
    for s_ in grid:
        for t in grid:
            qualifying = [u for u in grid if sr.leq(s_, sr.times(u, t))]
            r = sr.oslash(s_, t)
            if qualifying:
                assert sr.leq(s_, sr.times(r, t))
                for u in qualifying:
                    assert sr.leq(r, u)
    # natural grid for the tropical instance
    tr = semiring_for(DESCRIPTORS["tropical"])
    tgrid = list(range(0, 13)) + [INF]
    for s_ in tgrid:
        for t in tgrid:
            _residuation_check(tr, tgrid, s_, t)


def test_bulk_randomized_axioms():
    """1e4 randomized cases per instance covering every module invariant."""
    rng = random.Random(20240817)
    for descriptor in ALL:
        s = semiring_for(descriptor)
        vals = carrier_values(descriptor, rng, 3 * 10**4)
        for i in range(10**4):
            a, b, c = vals[3 * i], vals[3 * i + 1], vals[3 * i + 2]
            ab, ba = s.plus(a, b), s.plus(b, a)
            assert (ab is UNDEFINED and ba is UNDEFINED) or ab == ba
            assert s.times(a, b) == s.times(b, a)
            assert s.times(s.times(a, b), c) == s.times(a, s.times(b, c))
            assert s.times(a, s.zero) == s.zero
            bc = s.plus(b, c)
            if bc is not UNDEFINED:
                dist = s.plus(s.times(a, b), s.times(a, c))
                assert dist is not UNDEFINED and dist == s.times(a, bc)
            assert s.leq(s.zero, a) and s.leq(a, s.one)
            if s.leq(a, b):
                assert s.leq(s.times(a, c), s.times(b, c))
                ac2, bc2 = s.plus(a, c), s.plus(b, c)
                if ac2 is not UNDEFINED and bc2 is not UNDEFINED:
                    assert s.leq(ac2, bc2)
            assert s.oslash(a, s.one) == a


# ---------------------------------------------------------------------------
# scalar text syntax


@pytest.mark.parametrize("text,descriptor,expected", [
    ("2/5", DESCRIPTORS["probabilistic"], Fraction(2, 5)),
    ("0.25", DESCRIPTORS["probabilistic"], Fraction(1, 4)),
    ("1", DESCRIPTORS["probabilistic"], Fraction(1)),
    ("inf", DESCRIPTORS["tropical"], INF),
    ("7", DESCRIPTORS["tropical"], 7),
    ("0", DESCRIPTORS["boolean"], 0),
    ("1", DESCRIPTORS["boolean"], 1),
    ("5", DESCRIPTORS["bounded_tropical"], 5),
])
def test_parse_scalar(text, descriptor, expected):
    assert parse_scalar(text, descriptor) == expected


@pytest.mark.parametrize("text,descriptor,exc", [
    ("3/2", DESCRIPTORS["probabilistic"], CarrierError),
    ("5", SemiringDescriptor("bounded_tropical", 4), CarrierError),
    ("2", DESCRIPTORS["boolean"], ParseError),
    ("1/2", DESCRIPTORS["tropical"], ParseError),
    ("x", DESCRIPTORS["probabilistic"], ParseError),
    ("", DESCRIPTORS["tropical"], ParseError),
])
def test_parse_scalar_errors(text, descriptor, exc):
    with pytest.raises(exc):
        parse_scalar(text, descriptor)


@given(st.sampled_from(ALL).flatmap(lambda d: st.tuples(st.just(d), values_strategy(d))))
def test_render_parse_round_trip(data):
    d, v = data
    assert parse_scalar(render_scalar(v, d), d) == v


def test_simplest_in_interval():
    eps = Fraction(1, 10**9)
    assert simplest_in_interval(Fraction(2, 5) - eps, Fraction(2, 5) + eps) == Fraction(2, 5)
    assert simplest_in_interval(Fraction(0), eps) == 0
    assert simplest_in_interval(Fraction(1) - eps, Fraction(1)) == 1
    assert simplest_in_interval(Fraction(39, 100), Fraction(41, 100)) == Fraction(2, 5)
    assert simplest_in_interval(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 2)


def brute_simplest(lo, hi):
    """The first denominator q with a multiple of 1/q in [lo, hi]; of those
    multiples, the one nearest to zero."""
    q = 1
    while True:
        first, last = math.ceil(lo * q), math.floor(hi * q)
        if first <= last:
            return Fraction(min(max(0, first), last), q)
        q += 1


# endpoints with denominators up to 60 keep the brute force short (lo is a
# candidate itself); other endpoints come with a width of at least 1/1000
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=60)
_WIDE = st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=10**12),
                  st.fractions(min_value=Fraction(1, 1000), max_value=2,
                               max_denominator=10**6)).map(lambda t: (t[0], t[0] + t[1]))


@given(st.one_of(st.tuples(_SMALL, _SMALL).map(sorted), _WIDE,
                 _SMALL.map(lambda v: (v, v))))
@example((Fraction(0), Fraction(0)))
@example((Fraction(1), Fraction(1)))
@example((Fraction(2), Fraction(5)))
@example((Fraction(-5), Fraction(-2)))
@example((Fraction(0), Fraction(1, 3)))
@example((Fraction(2, 3), Fraction(1)))
@example((Fraction(-1, 2), Fraction(-1, 3)))
@example((Fraction(-7, 3), Fraction(3, 2)))
def test_simplest_in_interval_matches_brute_force(interval):
    lo, hi = interval
    assert simplest_in_interval(lo, hi) == brute_simplest(lo, hi)


def test_simplest_in_interval_long_continued_fraction():
    # F(3002)/F(3001) = [1; 1, ..., 1, 2]: 3000 continued-fraction terms
    p, q = 1, 1
    for _ in range(3000):
        p, q = p + q, p
    v = Fraction(p, q)
    assert simplest_in_interval(v, v) == v


def _fraction_text_parse(text):
    """Reference: the probabilistic scalar parser as `Fraction(text)`."""
    try:
        v = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad probabilistic scalar {quote(text)}") from None
    if not 0 <= v <= 1:
        raise CarrierError(f"probability {quote(text)} outside [0, 1]")
    return v


def _outcome(parse, text):
    try:
        v = parse(text)
    except ParseError as e:
        return type(e), str(e)
    return type(v), v


# no deadline: the reference Fraction("0e999999") alone takes ~0.25 s
@settings(deadline=None)
@given(st.text(alphabet="0123456789/.", max_size=8)
       | st.text(alphabet="0123456789/. -_e١²", max_size=8))
@example("0/0")
@example("1" * 5000)
@example("0e600001")
@example("0e999999")
@example("1e999999")
@example("-1e99999")
@example("1e-99999")
@example("1/2e999999")
def test_prob_parse_matches_fraction_text(text):
    # integer fast path for "n" and "n/d"; every text of 8 characters or
    # fewer parses (or fails) as Fraction(text) does
    sr = semiring_for(DESCRIPTORS["probabilistic"])
    assert _outcome(sr.parse, text) == _outcome(_fraction_text_parse, text)


@pytest.mark.parametrize("text, expected", [
    ("0e99999999", Fraction(0)),
    ("-0.0E+9_999_999", Fraction(0)),
    (" 0.000e-99999999 ", Fraction(0)),
    ("1e99999999", CarrierError),
    ("0.0000001e99999999", CarrierError),
    ("-1e-99999999", CarrierError),
    ("1e-99999999", ParseError),
    ("1/2e99999999", ParseError),
    ("1 e99999999", ParseError),
    ("1e5e99999999", ParseError),
])
def test_prob_parse_long_exponent(text, expected):
    # settled from the mantissa's sign, never building 10**99999999
    sr = semiring_for(DESCRIPTORS["probabilistic"])
    if isinstance(expected, Fraction):
        assert sr.parse(text) == expected
    else:
        with pytest.raises(expected) as info:
            sr.parse(text)
        assert type(info.value) is expected


def test_prob_render_marks_values_too_long_to_print_exactly(default_digit_limit):
    # past the interpreter's limit on printing an int, "~" and the first
    # 16 significant digits (truncated); below it, exact as before
    render = semiring_for(DESCRIPTORS["probabilistic"]).render
    assert render(Fraction(1, 10**5000)) == "~1.000000000000000e-5000"
    assert render(1 - Fraction(1, 10**5000)) == "~9.999999999999999e-1"
    assert render(Fraction(2, 3) + Fraction(1, 3**10000)) == "~6.666666666666666e-1"
    assert render(Fraction(10**4299 - 1, 10**4299)) == f"{10**4299 - 1}/{10**4299}"
    assert render(Fraction(1, 7)) == "1/7" and render(1) == "1" and render(0) == "0"


@pytest.mark.parametrize("kind", ["tropical", "boolean", "bounded_tropical"])
def test_integer_render_marks_values_too_long_to_print_exactly(kind, default_digit_limit):
    # the same rule as on prob, from the one formatter in the base class
    render = semiring_for(DESCRIPTORS[kind]).render
    assert render(2 * 10**4300 - 2) == "~1.999999999999999e+4300"
    assert render(10**4300 - 1) == "9" * 4300  # at the limit: exact
    assert render(INF) == "inf" and render(0) == "0" and render(1) == "1"


def test_certified_render_hands_results_too_long_to_print_to_render(default_digit_limit):
    # within 10^-9000 of 1/3 + 10^-5000 the simplest rational has about
    # 4500 digits; near 2/5 it is 2/5, through the fast text
    d, eps = DESCRIPTORS["probabilistic"], Fraction(1, 10**9000)
    assert render_certified(Fraction(1, 3) + Fraction(1, 10**5000), d, eps) \
        == "~3.333333333333333e-1"
    assert render_certified(Fraction(2, 5) + Fraction(1, 10**9500), d, eps) == "2/5"
    assert render_certified(Fraction(1, 10**9500), d, eps) == "0"
    assert render_certified(2 * 10**4300 - 2, DESCRIPTORS["tropical"], eps) \
        == "~1.999999999999999e+4300"
