"""The probe table of ROADMAP.md as tests: one per wrong-value row that
runs in well under a second.  A row the code gets right is a regression
test; a row it still gets wrong is a strict xfail that asserts the true
value and names the ROADMAP item that fixes it, so that fix flips it."""

from __future__ import annotations

import pytest

from conftest import corpus_path
from test_cli import run, run_json

# P3 and P4: c and d differ by 10^-12 on the fragment e
EQ = ("semiring prob label a/1 label e/0 state c { 1/2 a -> x; 1/2 e } "
      "state d { 500000000001/1000000000000 a -> x; 499999999999/1000000000000 e } "
      "state x { 1 e }")
# P2: u is critical-looking (almost all its mass on f -> u w), w is 1
BR = ("semiring prob label f/2 label e/0 "
      "state u { 999999999999/1000000000000 f -> u w; 1/1000000000000 e } "
      "state w { 1 e } state v { 1/2 f -> v w; 1/2 e }")
# P6: s_i unfolds to two copies of s_(i-1), no offset
DOUBLING = "semiring trop\nlabel e/0\nlabel f/2\nstate s0 { 1 e }\n" + "".join(
    f"state s{i} {{ 1 f -> s{i - 1} s{i - 1} }}\n" for i in range(1, 14))


def _model(tmp_path, text: str) -> str:
    path = tmp_path / "probe.model"
    path.write_text(text)
    return str(path)


def test_p2_branching_mu_extent_is_one(tmp_path, capsys):
    # u = p u w + (1 - p) with w = 1 is decided 1 by the qualitative pass
    code, out, err = run(capsys, "extent", "--mu", _model(tmp_path, BR))
    assert (code, out, err) == (0, "u = 1\nw = 1\nv = 1\n", "")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 1 and 18: the inner binder mentions X, so both "
                          "binders run chains and the epsilon stop prints u = 0")
def test_p1_nested_binders_on_two_rate(capsys):
    code, payload = run_json(capsys, "eval", str(corpus_path("two-rate.prob.model")),
                             "mu X. mu Y. ([a](X) | [e])")
    assert code == 0
    assert payload["values"] == {"u": "1", "v": "1"}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: an exact value is rendered as the simplest "
                          "rational within epsilon, 1/2")
def test_p3_lt_prints_the_exact_value(tmp_path, capsys):
    code, out, _ = run(capsys, "lt", _model(tmp_path, EQ), "e", "--state", "d")
    assert code == 0
    assert out == "d = 499999999999/1000000000000\n"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 11: equiv compares prob values up to epsilon, "
                          "so c and d are reported equivalent")
def test_p4_equiv_separates_by_e(tmp_path, capsys):
    code, payload = run_json(capsys, "equiv", _model(tmp_path, EQ), "c", "d", "--depth", "2")
    assert code == 0
    assert (payload["equivalent"], payload.get("witness")) == (False, "e")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the formula's tropical nu chain promotes "
                          "s12 and s13 to inf past default_promote_bound")
def test_p6_doubling_nu_formula_is_finite(tmp_path, capsys):
    # x_i = 3 + 2 x_(i-1), x_0 = 1, and the model is acyclic, so the
    # fixpoint is unique: x_i = 2^(i+2) - 3
    code, out, _ = run(capsys, "eval", _model(tmp_path, DOUBLING), "nu X. [f](2 * X, X) | [e]")
    assert code == 0
    assert out.splitlines()[-2:] == ["s12 = 16381", "s13 = 32765"]
