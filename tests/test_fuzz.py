"""Parsers and the command line survive arbitrary input: the parsers with
typed errors only, `cli.main` with a documented exit code."""

from __future__ import annotations

import contextlib
import io
import random
import sys

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from semimc import (CarrierError, ParseError, SemimcError, ValidationError, cli,
                    parse_formula, parse_fragment, parse_model, render_model)
import argparse_reference
from conftest import ROOT
from randgen import DESCRIPTORS, random_model

_TOKENS = ["semiring", "prob", "bool", "trop", "label", "state", "offset",
           "mu", "nu", "T", "F", "inf", "a", "b", "x", "y", "X", "{", "}",
           "[", "]", "(", ")", ";", ",", ".", "|", "+", "*", "/", "->", "=",
           "1", "2", "1/2", "0.5", "#", "\n"]


@given(st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join))
@settings(max_examples=300, deadline=None)
def test_model_parser_total(text):
    try:
        parse_model(text)
    except (ParseError, ValidationError, CarrierError):
        pass


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_model_parser_survives_raw_text(text):
    try:
        parse_model(text)
    except SemimcError:
        pass


@given(st.integers(min_value=0, max_value=10**9),
       st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join))
@settings(max_examples=300, deadline=None)
def test_formula_parser_total(seed, text):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["probabilistic"])
    try:
        parse_formula(text, m.signature, m.descriptor)
    except SemimcError:
        pass


@given(st.integers(min_value=0, max_value=10**9),
       st.lists(st.sampled_from(_TOKENS), max_size=20).map(" ".join))
@settings(max_examples=200, deadline=None)
def test_fragment_parser_total(seed, text):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS["boolean"])
    try:
        parse_fragment(text, m.signature)
    except SemimcError:
        pass


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_rendered_models_always_reparse(seed):
    rng = random.Random(seed)
    kind = rng.choice(sorted(DESCRIPTORS))
    m = random_model(rng, DESCRIPTORS[kind], allow_offsets=True)
    parse_model(render_model(m))


_SOLVER = [["--epsilon", "1/100"], ["--epsilon", "1e-3"], ["--max-iters", "1"],
           ["--promote-bound", "2"]]
_STATE = [["--state", "s0"], ["--state", "s1"]]
# subcommand -> (positionals after the model, options it takes besides
# --format); lt, tr and ftr need --state
_COMMANDS = {
    "check": (0, []), "info": (0, []), "bogus": (0, []), "--help": (0, []),
    "eval": (1, _SOLVER), "oracle": (1, _SOLVER + [["--enum-cap", "40"], ["--unroll", "1"]]),
    "extent": (0, _SOLVER + [["--nu"], ["--mu"]]),
    "lt": (1, _SOLVER + _STATE), "tr": (1, _STATE + [["--n", "2"]]), "ftr": (1, _STATE),
    "equiv": (2, _SOLVER + [["--enum-cap", "40"], ["--kind", "tr"], ["--depth", "1"]]),
}
# formulas, fragments and states over the labels l0.. and states s0.. of
# `random_model`
_TEXTS = ["T", "F", "s0", "s1", "l0", "l1(T)", "l1(l0)", "[l0]", "[l1](T) | [l0]",
          "nu X. [l1](X)", "mu X. ([l0] | [l1](X) | [l2](X, T))", "1/2 * [l0] + 1/2 * T"]
# option groups that are wrong for some or all subcommands
_BAD_OPTIONS = [["--epsilon", "0"], ["--epsilon", "x"], ["--max-iters", "0"],
                ["--promote-bound", "-1"], ["--enum-cap", "0"], ["--format", "xml"],
                ["--state", "zz"], ["--nu", "--mu"], ["--n", "-1"], ["--kind", "x"],
                ["--depth", "-1"], ["--unroll", "9x"], ["-h"], ["--"], ["-x"], ["--format"],
                ["--state", "s0"], ["--depth", "1"]]


@given(st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_main_total(tmp_path, data):
    """Random argv: a subcommand, options, a model file and formula or
    fragment tokens, in any order, mostly as the subcommand takes them.
    Every call ends in exit 0 to 3; only --help leaves by SystemExit(0)."""
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    model = tmp_path / "m.model"
    source = data.draw(st.sampled_from(["random", "random", "tokens", "missing", "directory"]))
    if source == "random":
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        kind = rng.choice(sorted(DESCRIPTORS))
        model.write_text(render_model(random_model(rng, DESCRIPTORS[kind], max_states=4,
                                                   allow_offsets=True)))
    elif source == "tokens":
        model.write_text(" ".join(data.draw(st.lists(st.sampled_from(_TOKENS), max_size=30))))
    path = {"missing": str(tmp_path / "missing.model"), "directory": str(tmp_path)}.get(
        source, str(model))
    n, valid = _COMMANDS[command]
    valid = valid + [["--format", "json"], ["--format", "text"]]
    count = data.draw(st.sampled_from([n, n, n, 0, 1, 2, 3]))
    words = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=12).map(" ".join)
    positional = data.draw(st.lists(st.sampled_from(_TEXTS) | words,
                                    min_size=count, max_size=count))
    options = data.draw(st.lists(st.sampled_from(valid), max_size=3))
    options += data.draw(st.lists(st.sampled_from(_BAD_OPTIONS), max_size=1))
    if command in ("lt", "tr", "ftr") and data.draw(st.booleans()):
        options.append(_STATE[0])
    groups = [[path], *([p] for p in positional)]
    for opt in options:  # options go anywhere; positionals keep their order
        groups.insert(data.draw(st.integers(0, len(groups))), opt)
    argv = [command] + [a for g in groups for a in g]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            assert e.code == 0 and {"--help", "-h"} & set(argv), argv
            return
    assert code in (0, 1, 2, 3), argv


# ---------------------------------------------------------------------------
# the command table parses as argparse did


_REFERENCE = argparse_reference.build_parser()


def _outcomes(argv: list[str]) -> tuple:
    """What the argparse reference and `cli._parse` make of argv: the parsed
    fields, "usage" for a usage error or "help" for -h/--help."""
    results = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for parse in (_REFERENCE.parse_args, cli._parse):
            try:
                results.append(vars(parse(argv)))
            except ValueError:  # how the table reports a usage error
                results.append("usage")
            except SystemExit as e:  # argparse exits 2 on a usage error; both exit 0 on help
                results.append("help" if e.code == 0 else "usage")
    return tuple(results)


def _respell(data, group: list[str]) -> list[str]:
    """An option group as a user may also write it: the flag cut to a prefix
    of at least three characters, and its text joined on with `=`."""
    flag, *text = group
    if flag.startswith("--") and len(flag) > 3:
        flag = flag[:data.draw(st.integers(3, len(flag)))]
    if text and data.draw(st.booleans()):
        return [f"{flag}={text[0]}"]
    return [flag, *text]


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_table_parser_matches_argparse(data):
    """argv drawn as in `test_cli_main_total`, with some options respelled:
    the table and the argparse reference accept it with the same fields,
    both reject it (and `main` exits 1), or both print help."""
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    n, valid = _COMMANDS[command]
    valid = valid + [["--format", "json"], ["--format", "text"]]
    count = data.draw(st.sampled_from([n, n, n, 0, 1, 2, 3]))
    words = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=12).map(" ".join)
    positional = data.draw(st.lists(st.sampled_from(_TEXTS) | words,
                                    min_size=count, max_size=count))
    options = data.draw(st.lists(st.sampled_from(valid), max_size=3))
    options += data.draw(st.lists(st.sampled_from(_BAD_OPTIONS), max_size=1))
    if command in ("lt", "tr", "ftr") and data.draw(st.booleans()):
        options.append(_STATE[0])
    groups = [["m.model"], *([p] for p in positional)]
    for opt in options:
        groups.insert(data.draw(st.integers(0, len(groups))), _respell(data, opt))
    argv = [command] + [a for g in groups for a in g]
    # where argparse accepts `--` differs between Python versions; the table
    # follows 3.11
    assume("--" not in argv or sys.version_info[:2] == (3, 11))
    reference, table = _outcomes(argv)
    assert reference == table, argv
    if table == "usage":
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 1, argv


def test_table_parser_matches_argparse_on_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    for name in ("prob-kleene", "trop-kleene", "small-queries"):
        for q in workloads.build(name, 1).queries:
            reference, table = _outcomes(q.argv)
            assert isinstance(table, dict) and reference == table, q.argv
