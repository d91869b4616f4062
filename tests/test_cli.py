"""End-to-end command-line checks against recorded outputs."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimc import ParseError, SemiringDescriptor, cli, parse_scalar
from semimc.cli import main
from conftest import corpus_path


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # --help
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out) if out.strip() else json.loads(err)
    return code, payload


MODEL = str(corpus_path("extent-example.prob.model"))
TROP = str(corpus_path("extent-example.trop.model"))
DEADLOCK = str(corpus_path("deadlock.bool.model"))
COUNTER = str(corpus_path("counterexample.prob.model"))
OFFSET_S = str(corpus_path("offset-s.trop.model"))
OFFSET_T = str(corpus_path("offset-t.trop.model"))
FORMULA = "mu X. ([a](T) | [b](X) | [c](X))"


def test_eval_prob_recorded(capsys):
    code, payload = run_json(capsys, "eval", MODEL, FORMULA)
    assert code == 0
    assert payload["values"] == {"x": "2/5", "y": "1/10", "z": "1/5"}
    assert payload["semiring"] == "prob"


def test_extent_mu_trop_recorded(capsys):
    code, payload = run_json(capsys, "extent", "--mu", TROP)
    assert code == 0
    assert payload["values"] == {"x": "4", "y": "2", "z": "4"}


def test_extent_nu_default(capsys):
    code, payload = run_json(capsys, "extent", TROP)
    assert code == 0
    assert payload["kind"] == "nu"
    assert payload["values"] == {"x": "1", "y": "1", "z": "0"}


def test_eval_deadlock_recorded(capsys):
    code, payload = run_json(capsys, "eval", DEADLOCK, "[b](T)")
    assert code == 0
    assert payload["values"] == {"x": "0", "y": "0"}


def test_check_warns_deadlock(capsys):
    code, out, _ = run(capsys, "check", DEADLOCK)
    assert code == 0
    assert "deadlock: y" in out


def test_check_rejects_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("semiring prob label a/1 state x { 3/4 a -> x; 1/2 a -> y } state y { }")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1


def test_info(capsys):
    code, payload = run_json(capsys, "info", OFFSET_S)
    assert code == 0
    assert payload["stats"]["plain"] is False
    assert payload["stats"]["states"] == 2
    assert payload["stats"]["deadlocks"] == []


def test_lt_value(capsys):
    code, payload = run_json(capsys, "lt", COUNTER, "a(T)", "--state", "x")
    assert code == 0
    assert payload["values"] == {"x": "1/2"}


def test_ftr_value(capsys):
    code, payload = run_json(capsys, "ftr", MODEL, "a(*)", "--state", "x")
    assert code == 0
    assert payload["values"] == {"x": "1/4"}


def test_tr_value(capsys):
    code, payload = run_json(capsys, "tr", COUNTER, "a(T)", "--state", "u", "--n", "1")
    assert code == 0
    assert payload["values"] == {"u": "1/4"}


def test_equiv_witness(capsys):
    code, payload = run_json(capsys, "equiv", COUNTER, "x", "u",
                             "--kind", "lt", "--depth", "1")
    assert code == 0
    assert payload["equivalent"] is False
    assert payload["witness"] == "a(T)"
    assert payload["left_value"] == "1/2" and payload["right_value"] == "1/4"


def test_equiv_witness_values_are_certified(capsys):
    # the branching extents are Kleene limits; equiv prints them as extent
    # does, the simplest rational within epsilon, not the raw iterate
    branching = str(corpus_path("branching.prob.model"))
    code, out, _ = run(capsys, "extent", branching)
    assert (code, out) == (0, "p = 18480/38081\nq = 19601/33461\n")
    code, out, _ = run(capsys, "equiv", branching, "p", "q")
    assert (code, out) == (0, "not equivalent: witness T (p: 18480/38081, q: 19601/33461)\n")
    code, payload = run_json(capsys, "equiv", branching, "p", "q", "--epsilon", "1/100")
    assert (payload["left_value"], payload["right_value"]) == ("10/21", "7/12")


def test_oracle_report(capsys):
    code, payload = run_json(capsys, "oracle", TROP, FORMULA, "--unroll", "3")
    assert code == 0
    assert payload["report"]["ok"] is True
    assert payload["report"]["max_discrepancy"] == "0"


def test_oracle_report_without_fixpoint_distance(tmp_path, capsys):
    # the formula's own chain does not converge; the approximant's check
    # still succeeds, with the diagnostic distance reported as unavailable.
    # Under [s] and [e], x = x^2/2 + 1/2 - 10^-12: x loses mass, so its
    # value is below 1 and its chain rises like 1/n from 0 for about 10^6
    # steps; the extent (x = 1, with the a-move) converges on its first
    near = tmp_path / "near-critical.model"
    near.write_text("semiring prob label s/2 label a/1 label e/0 state x { 1/2 s -> x x; "
                    "1/1000000000000 a -> y; 499999999999/1000000000000 e } state y { 1 e }")
    argv = ("oracle", str(near), "mu X. ([s](X, X) | [e])", "--unroll", "2",
            "--max-iters", "200")
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["report"]["ok"] is True
    assert payload["report"]["approximant_distance"] is None
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("(diagnostic): n/a\n")


@pytest.mark.parametrize("unroll", ["16", "60"])
def test_oracle_past_the_enumeration_cap_exits_2(tmp_path, capsys, unroll):
    # where the exact fragment count, a doubly exponential integer, was
    # counted in full and failed to print
    path = tmp_path / "bin.model"
    path.write_text("semiring prob\nlabel f/2\nlabel e/0\nstate x { 1/2 f -> x x; 1/2 e }\n")
    code, out, err = run(capsys, "oracle", str(path), "nu X. [f](X, X) | [e]", "--unroll", unroll)
    assert (code, out) == (2, "")
    assert err == f"error: more than 200000 path fragments at depth {unroll}\n"


def test_check_renders_a_mass_too_long_to_print_exactly(tmp_path, capsys, default_digit_limit):
    # the mass has about 4500 digits, past Python's default limit of 4300
    n = 10**1500
    path = tmp_path / "long.model"
    path.write_text(f"semiring prob\nlabel e/0\nlabel a/1\nlabel b/1\n"
                    f"state x {{ 1/{n - 1} e; 1/{n} a -> x; 1/{n + 1} b -> x }}\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 0 and err == ""
    assert "substochastic: x (outgoing mass ~3.000000000000000e-1500)" in out


LONG_TROP = (f"semiring trop\nlabel f/2\nlabel e/0\nstate s0 {{ {'9' * 4300} e }}\n"
             "state s1 { 0 f -> s0 s0 }\n")  # s1 = 2 * (10^4300 - 1), 4301 digits
LONG_PROB = (f"semiring prob\nlabel e/0\nlabel a/1\nlabel b/1\nstate x {{ 1/{10**1500 - 1} e; "
             f"1/{10**1500} a -> x; 1/{10**1500 + 1} b -> x }}\n")  # CI's long-mass model


@pytest.mark.parametrize("model, argv, end", [
    (LONG_TROP, ["extent", "--mu", "_"], "s1 = ~1.999999999999999e+4300"),
    (LONG_TROP, ["eval", "_", "mu X. [f](X, X) | [e]"], "s1 = ~1.999999999999999e+4300"),
    (LONG_TROP, ["lt", "_", "f(T, T)", "--state", "s1"], "s1 = ~1.999999999999999e+4300"),
    (LONG_TROP, ["ftr", "_", "f(e, e)", "--state", "s1"], "s1 = ~1.999999999999999e+4300"),
    (LONG_TROP, ["equiv", "_", "s0", "s1", "--depth", "1"], "s1: ~1.999999999999999e+4300)"),
    (LONG_TROP, ["oracle", "_", "nu X. [f](X, X) | [e]", "--unroll", "1"],
     "s1: stepwise=~1.999999999999999e+4300 oracle=~1.999999999999999e+4300 diff=0 ok"),
    (LONG_PROB, ["extent", "--mu", "_", "--epsilon", "1e-9000"], "x = ~1.000000000000000e-1500"),
])
def test_values_too_long_to_print_render_marked(tmp_path, capsys, default_digit_limit,
                                                 model, argv, end):
    # every command prints through `Semiring.render`, where each of these
    # ended in a ValueError traceback; the prob value is certified to 10^-9000
    path = tmp_path / "long.model"
    path.write_text(model)
    code, out, err = run(capsys, *[str(path) if a == "_" else a for a in argv])
    assert (code, err) == (0, "") and "Traceback" not in out
    assert any(line.endswith(end) for line in out.splitlines())


def test_formula_from_file(tmp_path, capsys):
    f = tmp_path / "formula.txt"
    f.write_text(FORMULA)
    code, payload = run_json(capsys, "eval", MODEL, str(f))
    assert code == 0
    assert payload["values"]["x"] == "2/5"


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "eval", "no-such-file.model", "T")
    assert code == 3
    code, _, err = run(capsys, "eval", MODEL, "[q](T)")
    assert code == 1 and "unknown label" in err
    code, _, err = run(capsys, "ftr", OFFSET_S, "a(*)", "--state", "s")
    assert code == 1 and "offsets" in err
    slow = tmp_path / "slow.model"
    slow.write_text("semiring prob label go/2 label out/0 "
                    "state a { 11/12 go -> a a; 1/12 out }")
    # fixpoints affine in their variable are solved exactly; X at both
    # successors of a binary transition is quadratic, so this one still
    # iterates and hits the cap
    code, _, err = run(capsys, "eval", str(slow), "mu X. ([go](X, X) | [out])",
                       "--max-iters", "4")
    assert code == 2 and "no fixpoint after 4 iterations" in err
    code, _, err = run(capsys, "oracle", MODEL, FORMULA, "--unroll", "3",
                       "--enum-cap", "3")
    assert code == 2


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    code, out, err = run(capsys, "extent", "--mu", "--nu", TROP)
    assert code == 1 and "not allowed with argument --mu" in err
    code, out, err = run(capsys, "eval", MODEL)
    assert code == 1 and "required: formula" in err
    code, out, err = run(capsys, "--help")
    assert code == 0 and "usage: semimc" in out
    # numeric options out of range are usage errors, not tracebacks or reports
    for argv, option in [
        (("extent", "--max-iters", "0", MODEL), "--max-iters"),
        (("eval", "--epsilon", "0", MODEL, "T"), "--epsilon"),
        # an exponent past the scalar parser's bound: 10**999999999 is never built
        (("extent", "--epsilon", "1e-999999999", MODEL), "--epsilon"),
        (("equiv", "--depth", "-1", MODEL, "x", "y"), "--depth"),
        (("oracle", "--unroll", "-2", MODEL, "T"), "--unroll"),
        (("tr", "--n", "-1", MODEL, "[a](T)", "--state", "x"), "--n"),
        (("oracle", "--enum-cap", "-5", MODEL, "T"), "--enum-cap"),
        (("equiv", "--enum-cap", "0", MODEL, "x", "y"), "--enum-cap"),
        (("eval", "--promote-bound", "-1", OFFSET_T, "nu X. mu Y. ([a](X) | [b](Y))"),
         "--promote-bound"),
        (("extent", "--nu", "--promote-bound", "-1", OFFSET_T), "--promote-bound"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out, argv
        assert f"argument {option}: must be" in err and "Traceback" not in err, argv


@pytest.mark.parametrize("argv", [
    ("info", MODEL, "--epsilon", "1/3"),
    ("check", MODEL, "--max-iters", "5"),
    ("tr", MODEL, "[a](T)", "--state", "x", "--promote-bound", "9"),
    ("ftr", MODEL, "[a](T)", "--state", "x", "--enum-cap", "9"),
    ("eval", MODEL, FORMULA, "--enum-cap", "9"),
])
def test_commands_reject_options_they_do_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and "unrecognized arguments" in err


def test_json_error_payload(capsys):
    code, out, err = run(capsys, "eval", MODEL, "[q](T)", "--format", "json")
    assert code == 1
    payload = json.loads(err)
    assert payload["exit"] == 1 and "unknown label" in payload["error"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_deeply_nested_formula_exits_1(capsys, fmt):
    deep = "[a](" * 3000 + "T" + ")" * 3000
    code, out, err = run(capsys, "eval", MODEL, deep, "--format", fmt)
    assert code == 1 and not out
    assert "Traceback" not in err
    # the parser's depth guard reports the first formula past the limit
    message = "1:641: input nested deeper than 160 levels"
    if fmt == "json":
        assert json.loads(err) == {"command": "eval", "error": message, "exit": 1}
    else:
        assert err == f"error: {message}\n"


def test_deterministic_output(capsys):
    a = run(capsys, "eval", MODEL, FORMULA, "--format", "json")
    b = run(capsys, "eval", MODEL, FORMULA, "--format", "json")
    assert a == b
    c = run(capsys, "oracle", MODEL, FORMULA, "--unroll", "4")
    d = run(capsys, "oracle", MODEL, FORMULA, "--unroll", "4")
    assert c == d


def test_epsilon_flag_accepts_rational_and_scientific(capsys):
    for eps in ("1/100000", "1e-7"):
        code, payload = run_json(capsys, "eval", MODEL, FORMULA, "--epsilon", eps)
        assert code == 0
        assert payload["values"]["x"] == "2/5"


def test_epsilon_and_scalars_share_the_exponent_bound(capsys):
    # the largest exponent Fraction is handed whatever the text's length
    prob = SemiringDescriptor("probabilistic")
    assert parse_scalar("1e-100000", prob) == Fraction(1, 10**100000)
    with pytest.raises(ParseError, match="exponent of .* out of range"):
        parse_scalar("1e-100001", prob)
    code, payload = run_json(capsys, "extent", MODEL, "--epsilon", "1e-100000")
    assert code == 0 and payload["values"]["x"] == "2/5"
    code, out, err = run(capsys, "extent", MODEL, "--epsilon", "1e-100001")
    assert code == 1 and not out
    assert "must be written with |exponent| <= 100000, got '1e-100001'" in err


def test_text_output_shape(capsys):
    code, out, _ = run(capsys, "extent", TROP)
    assert code == 0
    assert out.splitlines() == ["x = 1", "y = 1", "z = 0"]


def test_eval_offset_model(capsys):
    phi = "nu X. mu Y. ([a](X) | [b](Y))"
    code, payload = run_json(capsys, "eval", OFFSET_S, phi)
    assert code == 0
    assert payload["values"] == {"s": "0", "t": "0"}
    plain = str(corpus_path("offset-plain.trop.model"))
    code, payload = run_json(capsys, "eval", plain, phi)
    assert code == 0
    assert payload["values"] == {"s": "inf", "t": "inf"}


def test_check_json_shape(capsys):
    code, payload = run_json(capsys, "check", DEADLOCK)
    assert code == 0
    assert payload["command"] == "check"
    assert any("deadlock: y" in d for d in payload["diagnostics"])


# ---------------------------------------------------------------------------
# one command table per process


# each call follows one whose options must not carry over
SHARED_PARSER_SEQUENCE = [
    ("extent", "--mu", TROP),
    ("extent", TROP),
    ("eval", MODEL, FORMULA, "--epsilon", "1/10"),
    ("eval", MODEL, FORMULA),
    ("extent", "--mu", "--nu", TROP),
    ("info", TROP),
]


def test_shared_parser_matches_fresh_parser(capsys, monkeypatch):
    fresh = []
    for argv in SHARED_PARSER_SEQUENCE:
        monkeypatch.setattr(cli, "_COMMANDS", cli.build_parser())
        fresh.append(run(capsys, *argv))
    monkeypatch.undo()
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    shared = [run(capsys, *argv) for argv in SHARED_PARSER_SEQUENCE]
    assert shared == fresh
    assert not builds  # the table is built once, on import, and never per call
    mu, nu, eps, default, usage, info = shared
    assert mu[:2] == (0, "x = 4\ny = 2\nz = 4\n")
    assert nu[:2] == (0, "x = 1\ny = 1\nz = 0\n")
    # the exact values are 2/5, 1/10 and 1/5; each prints as the simplest
    # rational within epsilon 1/10 of it
    assert eps[:2] == (0, "x = 1/2\ny = 0\nz = 1/4\n")
    assert default[:2] == (0, "x = 2/5\ny = 1/10\nz = 1/5\n")
    assert usage[0] == 1 and "not allowed with argument --mu" in usage[2]
    assert info[0] == 0


# ---------------------------------------------------------------------------
# slow chains: the stop rule would cut them off and print u = 0 where the
# least fixpoint is 1.  Extents and formula fixpoints affine in their
# variable are solved exactly and print 1

TWO_RATE = """semiring prob
label a/1
label e/0
state u { 999999999999/1000000000000 a -> u; 1/1000000000000 e }
state v { 1/2 a -> v; 1/2 e }"""

# the first Kleene step is below epsilon squared, where the fallback would stop
FIRST_STEP_FALLBACK = """semiring prob
label a/1
label e/0
state u { 99999999999999999999/100000000000000000000 a -> u; 1/100000000000000000000 e }"""


@pytest.mark.parametrize("command", [
    pytest.param(("extent", "--mu"), id="extent-mu"),
    pytest.param(("eval", "mu X. ([a](X) | [e])"), id="eval-mu"),
])
@pytest.mark.parametrize("text", [TWO_RATE, FIRST_STEP_FALLBACK],
                         ids=["two-rate", "first-step-fallback"])
def test_slow_chain_certifies_one(tmp_path, capsys, text, command):
    path = tmp_path / "slow.model"
    path.write_text(text)
    name, arg = command
    code, payload = run_json(capsys, name, str(path), arg)
    assert code == 0
    assert payload["values"]["u"] == "1"


@pytest.mark.parametrize("kind", ["--mu", "--nu"])
def test_two_rate_corpus_extents_are_one(capsys, kind):
    # corpus/two-rate.prob.model is TWO_RATE; both extents are exactly 1
    code, out, err = run(capsys, "extent", kind, str(corpus_path("two-rate.prob.model")))
    assert (code, out, err) == (0, "u = 1\nv = 1\n", "")


def test_two_rate_binder_under_nested_modalities_is_exact(capsys):
    # affine in X under two modalities, so solved exactly: u = 1/(1 + p)
    # with p = 1 - 10^-12 prints as 1/2 (a chain cut off early printed 0)
    code, out, err = run(capsys, "eval", str(corpus_path("two-rate.prob.model")),
                         "mu X. ([a]([a](X)) | [e])")
    assert (code, out, err) == (0, "u = 1/2\nv = 2/3\n", "")


# ---------------------------------------------------------------------------
# exact tropical extents: s_i unfolds to two copies of s_(i-1), so s13 costs
# 2^14 - 1 = 16383, past default_promote_bound

DOUBLING = "semiring trop\nlabel e/0\nlabel f/2\nstate s0 { 1 e }\n" + "".join(
    f"state s{i} {{ 1 f -> s{i - 1} s{i - 1} }}\n" for i in range(1, 14))


@pytest.mark.parametrize("argv", [("extent", "--nu"), ("extent", "--mu"), ("eval", "T"),
                                  ("eval", "nu X. ([f](X, X) | [e])")],
                         ids=["extent-nu", "extent-mu", "eval-T", "eval-nu"])
def test_doubling_model_is_exact(tmp_path, capsys, argv):
    path = tmp_path / "doubling.model"
    path.write_text(DOUBLING)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "s13 = 16383"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="offsets fall back to Kleene, whose promote bound is "
                          "below 16383: prints inf")
def test_doubling_model_with_offset_is_exact(tmp_path, capsys):
    path = tmp_path / "doubling.model"
    path.write_text(DOUBLING + "offset s13 = 1\n")
    code, out, err = run(capsys, "extent", "--nu", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "s13 = 16382"


# strings with quotes, backslashes, control and non-ASCII characters
_TEXTS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", " ", "😀"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from([float("inf"), -float("inf")]) | _TEXTS
            # ints past 2^64 either way, and empty containers as leaves
            | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
            | st.sampled_from([(), {}, []]))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_TEXTS, inner, max_size=4), max_leaves=20)


@given(_JSON)
@settings(max_examples=400, deadline=None)
@example({"a": [], "b": {}, "c": [{}, [[]]], "d": (1, ("x",))})
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("argv", [
    ("check", DEADLOCK),
    ("eval", MODEL, FORMULA),
    ("extent", "--mu", TROP),
    ("lt", COUNTER, "a(T)", "--state", "x"),
    ("tr", COUNTER, "a(T)", "--state", "u", "--n", "1"),
    ("ftr", MODEL, "a(*)", "--state", "x"),
    ("equiv", COUNTER, "x", "u", "--depth", "1"),
    ("oracle", TROP, FORMULA, "--unroll", "3"),
    ("info", OFFSET_S),
    pytest.param(("eval", MODEL, "[q](T)"), id="error"),  # the payload on standard error
], ids=lambda argv: argv[0])
def test_json_output_is_json_dumps_indent_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    text = out or err
    assert (code == 0) == bool(out) and text
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
