"""Model grammar, validation diagnostics and round-trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimc import (Model, ParseError, Transition, UNDEFINED,
                    ValidationError, parse_model, render_model, validate)
from randgen import DESCRIPTORS, random_model


def test_deadlock_model_parses(deadlock_bool):
    m = deadlock_bool
    assert m.states == ("x", "y")
    assert m.deadlock_states() == ["y"]
    assert m.transition_weight("x", "b", ("y",)) == 1


def test_extent_example_weight_sums_defined(extent_prob):
    s = extent_prob.semiring
    for state in extent_prob.states:
        total = s.sum([t.weight for t in extent_prob.transitions[state]])
        assert total is not UNDEFINED


def test_undefined_weight_sum_rejected():
    with pytest.raises(ValidationError, match="undefined"):
        parse_model("semiring prob label a/1 label b/1 "
                    "state x { 3/4 a -> x; 1/2 b -> x }")


def test_duplicate_transitions_merge_with_plus():
    m = parse_model("semiring prob label a/1 state x { 1/2 a -> x; 1/4 a -> x }")
    assert m.transition_weight("x", "a", ("x",)) == Fraction(3, 4)
    t = parse_model("semiring trop label a/1 state x { 4 a -> x; 2 a -> x }")
    assert t.transition_weight("x", "a", ("x",)) == 2


def test_duplicate_merge_undefined_is_error():
    with pytest.raises(ValidationError):
        parse_model("semiring prob label a/1 state x { 3/4 a -> x; 3/4 a -> x }")


@pytest.mark.parametrize("text,message", [
    ("semiring bool label a/1 state x { 1 a -> w }", "undeclared"),
    ("semiring bool label a/1 state x { 1 b -> x }", "unknown label"),
    ("semiring bool label a/2 state x { 1 a -> x }", "arity"),
    ("semiring trop label a/1 state x { inf a -> x }", "zero"),
    ("semiring bool label a/1 state x { 1 a -> x } offset w = 1", "unknown state"),
    ("semiring bool label a/1 state x { 1 a -> x } state x { }", "duplicate state"),
    ("semiring bool label a/1 label a/2 state x { }", "duplicate label"),
    ("semiring frob label a/1 state x { }", "unknown semiring"),
])
def test_parse_errors(text, message):
    with pytest.raises((ParseError, ValidationError), match=message):
        parse_model(text)


def test_parse_error_carries_position():
    try:
        parse_model("semiring bool\nlabel a/1\nstate x { 1 b -> x }")
    except ParseError as e:
        assert e.line == 3 and e.col is not None
    else:
        pytest.fail("expected a parse error")


def test_validate_warnings(deadlock_bool):
    msgs = [d.render() for d in validate(deadlock_bool)]
    assert any("deadlock: y" in m for m in msgs)
    assert all(d.severity == "warning" for d in validate(deadlock_bool))


def test_validate_substochastic_warning():
    m = parse_model("semiring prob label a/1 state x { 1/3 a -> x }")
    msgs = [d.message for d in validate(m) if d.severity == "warning"]
    assert any("substochastic" in m_ for m_ in msgs)


def test_validate_clean_on_stochastic(counterexample_prob):
    assert all(d.severity != "error" for d in validate(counterexample_prob))
    assert not [d for d in validate(counterexample_prob) if "substochastic" in d.message]


def test_validate_reports_programmatic_breakage(extent_prob):
    sig = extent_prob.signature
    bad = Model(extent_prob.descriptor, sig, ("x",),
                {"x": [Transition(Fraction(1, 2), "a", ("w",))]})
    msgs = [d.message for d in validate(bad) if d.severity == "error"]
    assert any("undeclared successor" in m for m in msgs)


@pytest.mark.parametrize("weight", ["1", None])
@pytest.mark.parametrize("semiring", ["bool", "prob", "trop", "trop[5]"])
def test_validate_reports_weight_that_is_not_a_number(semiring, weight):
    # a model built in Python may hold any value as a weight; validate
    # reports it, as it does an offset, instead of raising from the sums
    m = parse_model(f"semiring {semiring} label a/1 label b/1 state x {{ 1 a -> x }}")
    bad = Model(m.descriptor, m.signature, m.states,
                {"x": [Transition(weight, "b", ("x",)), *m.transitions["x"]]}, m.offsets)
    assert [d.render() for d in validate(bad)] == ["error: state 'x': weight outside the carrier"]


def test_model_is_frozen_with_one_semiring(extent_prob):
    with pytest.raises(AttributeError, match="cannot assign to field 'states'"):
        extent_prob.states = ()
    assert extent_prob.semiring is extent_prob.semiring


def test_offsets_default_to_one_and_gate_plain():
    m = parse_model("semiring trop label a/1 state x { 1 a -> x }")
    assert m.offsets == {"x": 0} and m.is_plain
    m2 = parse_model("semiring trop label a/1 state x { 1 a -> x } offset x = 2")
    assert not m2.is_plain
    assert m2.with_offsets({"x": 0}).is_plain


def test_forward_references_allowed():
    m = parse_model("semiring bool label a/1 state x { 1 a -> y } state y { 1 a -> x }")
    assert set(m.states) == {"x", "y"}


def test_comments_and_whitespace():
    m = parse_model("""
    # header comment
    semiring bool
    label a/1      # trailing comment
    state x {
        1 a -> x   # loop
    }
    """)
    assert m.states == ("x",)


@given(st.integers(min_value=0, max_value=10**9),
       st.sampled_from(sorted(DESCRIPTORS)))
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(seed, kind):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], allow_offsets=True)
    m2 = parse_model(render_model(m))
    assert m2.descriptor == m.descriptor
    assert m2.states == m.states
    assert m2.signature == m.signature
    assert m2.offsets == m.offsets
    for s in m.states:
        assert sorted(m2.transitions[s], key=repr) == sorted(m.transitions[s], key=repr)


def test_corpus_models_all_valid(corpus_models):
    for name, m in corpus_models.items():
        assert not [d for d in validate(m) if d.severity == "error"], name
