"""Golden front-end errors, and golden command-line output.

Every malformed input below is pinned to what the model, formula and
fragment parsers report for it, so a rewrite of the tokenizer or the
parsers that moves a column, reorders two checks or changes an exception
type fails here.  The parsers keep token indices, and the tokenizer works
out a line and column only when an error is raised, so every case here
also checks that rescan.  Columns count characters: a tab and a carriage
return are one column each.  Identifiers and digits are ASCII only.  The corpus
models pin their `validate` diagnostics and a byte-identical
`render_model` after a reparse.  Every command pins its exact exit code,
stdout and stderr in both output formats, its error exits included.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from semimc import (INF, Model, ParseError, Transition, ValidationError, cli,
                    parse_formula, parse_fragment, parse_model, render_model,
                    validate)
from conftest import CORPUS, corpus_path


MODEL_ERRORS = [
    ('non-ascii-letter', 'semiring bool\nlabel \u00e9/0\nstate x { }',
     ParseError, "2:7: unexpected character '\u00e9'", 2, 7),
    ('unicode-digit', 'semiring prob label a/1 state x { \u0661 a -> x }',
     ParseError, "1:35: unexpected character '\u0661'", 1, 35),
    ('form-feed', 'semiring bool\x0clabel a/0',
     ParseError, "1:14: unexpected character '\\x0c'", 1, 14),
    ('tab-columns', 'semiring bool\n\tlabel a/1\n\t\tstate x { 1 b -> x }',
     ParseError, "3:15: unknown label 'b'", 3, 15),
    ('cr-columns', 'semiring bool\r\nlabel a/1\r\nstate x {\r 1 b -> x }',
     ParseError, "3:14: unknown label 'b'", 3, 14),
    ('decimal-then-dot', 'semiring prob label a/0 state x { 1.. a }',
     ParseError, "1:36: expected label name, got '.'", 1, 36),
    ('decimal-on-trop', 'semiring trop label a/1 state x { 0.25 a -> x }',
     ParseError, "1:35: bad tropical scalar '0.25'", 1, 35),
    ('zero-denominator', 'semiring prob label a/1 state x { 1/0 a -> x }',
     ParseError, "1:35: bad probabilistic scalar '1/0'", 1, 35),
    ('trop-bound-zero', 'semiring trop[0] label a/0',
     ParseError, '1:15: bound must be at least 1', 1, 15),
    ('trop-bound-decimal', 'semiring trop[2.5] label a/0',
     ParseError, "1:15: bad bound '2.5'", 1, 15),
    ('trop-bound-eof', 'semiring trop[',
     ParseError, "1:15: expected number, got ''", 1, 15),
    ('decimal-arity', 'semiring bool label a/1.5',
     ParseError, '1:23: arity must be a natural number', 1, 23),
    # more digits than int() converts (4300 by default)
    ('huge-arity', 'semiring bool label a/' + '9' * 5000,
     ParseError, '1:23: arity is too large', 1, 23),
    # a long token is echoed clipped to 32 characters, with its length
    ('huge-bound', 'semiring trop[' + '9' * 5000 + '] label a/0',
     ParseError, "1:15: bad bound '" + '9' * 32 + "'... (5000 characters)", 1, 15),
    ('huge-prob-weight', 'semiring prob label a/0 state x { ' + '9' * 5000 + ' a }',
     ParseError, "1:35: bad probabilistic scalar '" + '9' * 32 + "'... (5000 characters)",
     1, 35),
    ('huge-trop-weight', 'semiring trop label a/0 state x { ' + '9' * 5000 + ' a }',
     ParseError, "1:35: bad tropical scalar '" + '9' * 32 + "'... (5000 characters)", 1, 35),
    ('long-probability', 'semiring prob label a/0 state x { ' + '9' * 4000 + '/1 a }',
     ParseError, "1:35: probability '" + '9' * 32 + "'... (4002 characters) outside [0, 1]",
     1, 35),
    ('long-weight-over-bound', 'semiring trop[5] label a/0 state x { ' + '9' * 4000 + ' a }',
     ParseError, "1:38: scalar '" + '9' * 32 + "'... (4000 characters) exceeds bound 5", 1, 38),
    ('bound-of-32-characters', 'semiring trop[' + '1' * 30 + '.5] label a/0',
     ParseError, "1:15: bad bound '" + '1' * 30 + ".5'", 1, 15),
    ('bound-of-33-characters', 'semiring trop[' + '1' * 31 + '.5] label a/0',
     ParseError, "1:15: bad bound '" + '1' * 31 + ".'... (33 characters)", 1, 15),
    ('empty', '',
     ParseError, "1:1: expected identifier, got ''", 1, 1),
    ('comment-only', '# only a comment\n   # and another',
     ParseError, "2:4: expected identifier, got ''", 2, 4),
    ('arrow-at-eof', 'semiring bool label a/1 state x { 1 a ->',
     ParseError, "1:41: expected successor state after '->'", 1, 41),
    ('eof-after-comment', 'semiring bool label a/1\nstate x { 1 a -> x   # open block',
     ParseError, "2:22: expected '}', got ''", 2, 22),
    # tokenizer and syntax errors anywhere win over the row-sum check
    ('row-mass-then-syntax', 'semiring prob label a/1 label b/1\n'
     'state x { 3/4 a -> x; 1/2 b -> x }\nstate y { 1 c -> y }',
     ParseError, "3:13: unknown label 'c'", 3, 13),
    ('row-mass-then-eof', 'semiring prob label a/1 label b/1\n'
     'state x { 3/4 a -> x; 1/2 b -> x }\nstate y {',
     ParseError, "3:10: expected number, got ''", 3, 10),
    ('row-mass-two-states', 'semiring prob label a/1 label b/1\n'
     'state x { 3/4 a -> y; 1/2 b -> x }\nstate y { 1/2 a -> x; 1/2 b -> x; 1/3 a -> y }\n'
     'state z { 0.5 a -> z; 0.75 b -> z }',
     ValidationError, "state 'x': outgoing weight sum is undefined", None, None,
     ["error: state 'x': outgoing weight sum is undefined",
      "error: state 'y': outgoing weight sum is undefined",
      "error: state 'z': outgoing weight sum is undefined"]),
    # the whole text is tokenized first; a merge with undefined sum is
    # reported at the end of its state block
    ('merge-undefined-then-lex', 'semiring prob label a/1\n'
     'state x { 3/4 a -> x; 3/4 a -> x }\nstate y { @ }',
     ParseError, "3:11: unexpected character '@'", 3, 11),
    ('merge-undefined-then-syntax', 'semiring prob label a/1\n'
     'state x { 3/4 a -> x; 3/4 a -> x }\nstate y { 1 c -> y }',
     ValidationError, "state 'x': merged weight for 'a' -> 'x' is undefined", None, None),
    ('merge-undefined-nullary', 'semiring prob label e/0 state x { 3/4 e; 3/4 e }',
     ValidationError, "state 'x': merged weight for 'e' -> () is undefined", None, None),
    ('merge-undefined-long-label', 'semiring prob label ' + 'L' * 3000 + '/1\nstate x { 3/4 '
     + 'L' * 3000 + ' -> x; 3/4 ' + 'L' * 3000 + ' -> x }',
     ValidationError, "state 'x': merged weight for '" + 'L' * 32 + "'... (3000 characters) "
     "-> 'x' is undefined", None, None),
    ('unknown-semiring', 'semiring frob label a/1',
     ParseError, "1:10: unknown semiring 'frob'", 1, 10),
    ('missing-semiring', 'label a/1 state x { }',
     ParseError, "1:1: model must start with 'semiring'", 1, 1),
    ('no-labels', 'semiring bool state x { }',
     ValidationError, 'model declares no labels', None, None),
    ('duplicate-label', 'semiring bool label a/1 label a/2',
     ParseError, "1:31: duplicate label 'a'", 1, 31),
    ('duplicate-state', 'semiring bool label a/1 state x { } state x { }',
     ParseError, "1:43: duplicate state 'x'", 1, 43),
    ('duplicate-offset', 'semiring trop label a/1 state x { } offset x = 1 offset x = 2',
     ParseError, "1:57: duplicate offset for 'x'", 1, 57),
    ('offset-unknown-state', 'semiring trop label a/1 state x { } offset w = 1',
     ParseError, "1:44: offset for unknown state 'w'", 1, 44),
    ('undeclared-successor', 'semiring bool label a/1\n'
     'state x { 1 a -> w; 1 a -> v }\nstate y { 1 a -> v }',
     ParseError, "2:18: undeclared successor state 'w'", 2, 18),
    ('zero-weight-bool', 'semiring bool label a/1 state x { 0 a -> x }',
     ParseError, '1:37: transition weight is the semiring zero', 1, 37),
    ('zero-weight-trop', 'semiring trop label a/1 state x { inf a -> x }',
     ParseError, '1:39: transition weight is the semiring zero', 1, 39),
    ('arity-mismatch', 'semiring bool label a/1 state x { 1 a -> x x }',
     ParseError, "1:37: label 'a' has arity 1, got 2 successor(s)", 1, 37),
    ('nullary-with-arrow', 'semiring bool label a/0 state x { 1 a -> }',
     ParseError, "1:42: expected successor state after '->'", 1, 42),
    ('unknown-label', 'semiring bool label a/1 state x { 1 b -> x }',
     ParseError, "1:37: unknown label 'b'", 1, 37),
    ('unknown-declaration', 'semiring bool label a/1 transition x',
     ParseError, "1:25: expected 'label', 'state' or 'offset', got 'transition'", 1, 25),
    ('long-declaration', 'semiring bool label a/1 ' + 'k' * 5000 + ' x',
     ParseError, "1:25: expected 'label', 'state' or 'offset', got '" + 'k' * 32
     + "'... (5000 characters)", 1, 25),
    ('bool-weight-two', 'semiring bool label a/1 state x { 2 a -> x }',
     ParseError, "1:35: boolean scalar must be 0 or 1, got '2'", 1, 35),
    ('prob-above-one', 'semiring prob label a/1 state x { 3/2 a -> x }',
     ParseError, "1:35: probability '3/2' outside [0, 1]", 1, 35),
    ('btrop-above-bound', 'semiring trop[3] label a/1 state x { 5 a -> x }',
     ParseError, "1:38: scalar '5' exceeds bound 3", 1, 38),
    ('prob-decimal-over', 'semiring prob label a/1 state x { 0.5/2 a -> x }',
     ParseError, "1:35: bad probabilistic scalar '0.5/2'", 1, 35),
    ('prob-over-decimal', 'semiring prob label a/1 state x { 1/0.5 a -> x }',
     ParseError, "1:35: bad probabilistic scalar '1/0.5'", 1, 35),
    ('prob-inf', 'semiring prob label a/1 state x { inf a -> x }',
     ParseError, "1:35: bad probabilistic scalar 'inf'", 1, 35),
    ('trop-fraction', 'semiring trop label a/1 state x { 1/2 a -> x }',
     ParseError, "1:35: bad tropical scalar '1/2'", 1, 35),
    ('lone-minus', 'semiring bool label a/1 state x { 1 a - x }',
     ParseError, "1:39: unexpected character '-'", 1, 39),
    ('state-name-digit', 'semiring bool label a/1 state 1x { }',
     ParseError, "1:31: expected identifier, got '1'", 1, 31),
    ('line-count', 'semiring bool\nlabel a/1\n\n  @',
     ParseError, "4:3: unexpected character '@'", 4, 3),
    ('missing-semicolon', 'semiring bool label a/1 state x { 1 a -> x 1 a -> x }',
     ParseError, "1:44: expected '}', got '1'", 1, 44),
    ('trailing-semicolon', 'semiring bool label a/1 state x { 1 a -> x; }',
     ParseError, "1:45: expected number, got '}'", 1, 45),
    ('lone-semicolon', 'semiring bool label a/1 state x { ; }',
     ParseError, "1:35: expected number, got ';'", 1, 35),
    ('weight-missing', 'semiring bool label a/1 state x { a -> x }',
     ParseError, "1:35: expected number, got 'a'", 1, 35),
    ('slash-missing', 'semiring bool label a 1',
     ParseError, "1:23: expected '/', got '1'", 1, 23),
    ('offset-bad-carrier', 'semiring prob label a/0 state x { 1 a } offset x = 2',
     ParseError, "1:52: probability '2' outside [0, 1]", 1, 52),
    ('label-star-symbol', 'semiring bool label + /0',
     ParseError, "1:21: expected label name, got '+'", 1, 21),
]


# the formula and fragment cases parse against this signature
SIGNATURE = "semiring prob\nlabel a/1\nlabel b/2\nlabel e/0\nstate x { 1/2 a -> x; 1/2 e }\n"

FORMULA_ERRORS = [
    ('empty', '',
     ParseError, "1:1: expected a formula, got ''", 1, 1),
    ('unknown-label', '[q](T)',
     ParseError, "1:2: unknown label 'q'", 1, 2),
    ('unclosed', '[a](T',
     ParseError, "1:6: expected ')', got ''", 1, 6),
    ('missing-weight', '1/2*[a](T) + [e]',
     ParseError, '1:1: multi-term sums need a weight on every term', 1, 1),
    ('coefficient-sum', '3/4*[a](T) + 1/2*[e]',
     ParseError, '1:1: coefficient sum is undefined in the semiring', 1, 1),
    ('reserved-binder', 'mu T. T',
     ParseError, "1:4: reserved word 'T' cannot be a variable", 1, 4),
    ('duplicate-disjunct', '[a](T) | [e] | [a](F)',
     ParseError, "1:14: duplicate label 'a' in disjunction", 1, 14),
    ('arity', '[b](T)',
     ParseError, "1:2: label 'b' has arity 2, got 1 argument(s)", 1, 2),
    ('non-ascii', '[a](\u00e9)',
     ParseError, "1:5: unexpected character '\u00e9'", 1, 5),
    ('unicode-digit', '\u0661*[e]',
     ParseError, "1:1: unexpected character '\u0661'", 1, 1),
    ('trailing', '[a](T))',
     ParseError, "1:7: trailing input starting at ')'", 1, 7),
    ('tab-columns', '\t[e] +\n\t\t[q]',
     ParseError, "2:4: unknown label 'q'", 2, 4),
    ('cr-columns', '[e]\r\r[q]',
     ParseError, "1:6: trailing input starting at '['", 1, 6),
    ('zero-denominator', '1/0*[e]',
     ParseError, "1:1: bad probabilistic scalar '1/0'", 1, 1),
    ('decimal-then-dot', '1..[e]',
     ParseError, "1:2: expected '*', got '.'", 1, 2),
    ('above-one', '3/2*[e]',
     ParseError, "1:1: probability '3/2' outside [0, 1]", 1, 1),
    ('missing-star', '1/2 [e]',
     ParseError, "1:5: expected '*', got '['", 1, 5),
    ('binder-no-dot', 'mu X [a](X)',
     ParseError, "1:6: expected '.', got '['", 1, 6),
    ('unbound-closed', 'mu X. [a](Y)',
     ParseError, "unbound variable 'Y' in closed formula", None, None),
    ('long-unbound-closed', 'V' * 3000,
     ParseError, "unbound variable '" + 'V' * 32 + "'... (3000 characters) in closed formula",
     None, None),
    ('comment-eof', '[a](  # open',
     ParseError, "1:7: expected a formula, got ''", 1, 7),
]

TROP_FORMULA_ERRORS = [
    ('decimal-on-trop', '0.25*[e]',
     ParseError, "1:1: bad tropical scalar '0.25'", 1, 1),
    ('fraction-on-trop', '1/2*[e]',
     ParseError, "1:1: bad tropical scalar '1/2'", 1, 1),
]

FRAGMENT_ERRORS = [
    ('empty', '',
     ParseError, "1:1: expected label name, got ''", 1, 1),
    ('unknown-label', 'q',
     ParseError, "1:1: unknown label 'q'", 1, 1),
    ('unclosed', 'a(T',
     ParseError, "1:4: expected ')', got ''", 1, 4),
    ('arity', 'b(T)',
     ParseError, "1:1: label 'b' has arity 2, got 1 child(ren)", 1, 1),
    ('non-ascii', 'a(\u00e9)',
     ParseError, "1:3: unexpected character '\u00e9'", 1, 3),
    ('trailing', 'a(T))',
     ParseError, "1:5: trailing input starting at ')'", 1, 5),
    ('tab-columns', 'b(T,\n\tq)',
     ParseError, "2:2: unknown label 'q'", 2, 2),
    ('form-feed', 'a(\x0cT)',
     ParseError, "1:3: unexpected character '\\x0c'", 1, 3),
]

# command-line options: the last line of the usage error, which echoes the
# option text clipped as the parsers clip a token
LONG = "x" * 5000
OPTION_ERRORS = [
    ('long-epsilon', ("extent", "--epsilon", LONG),
     "semimc extent: error: argument --epsilon: not a rational: '" + "x" * 32
     + "'... (5000 characters)"),
    ('long-max-iters', ("eval", "T", "--max-iters", LONG),
     "semimc eval: error: argument --max-iters: invalid int value: '" + "x" * 32
     + "'... (5000 characters)"),
    ('long-negative-depth', ("equiv", "x", "y", "--depth=-" + "9" * 40),
     "semimc equiv: error: argument --depth: must be at least 0, got '-" + "9" * 31
     + "'... (41 characters)"),
    ('long-unroll', ("oracle", "T", "--unroll", "1" + LONG),
     "semimc oracle: error: argument --unroll: invalid int value: '1" + "x" * 31
     + "'... (5001 characters)"),
    ('long-choice', ("equiv", "x", "y", "--kind", LONG),
     "semimc equiv: error: argument --kind: invalid choice: '" + "x" * 32
     + "'... (5000 characters) (choose from 'lt', 'tr')"),
    ('huge-exponent', ("extent", "--epsilon", "1e-999999999"),
     "semimc extent: error: argument --epsilon: must be written with |exponent| <= 100000, "
     "got '1e-999999999'"),
    ('zero-epsilon', ("eval", "T", "--epsilon", "0"),
     "semimc eval: error: argument --epsilon: must be positive, got '0'"),
    ('short-n', ("tr", "a(T)", "--state", "x", "--n", "-1"),
     "semimc tr: error: argument --n: must be at least 0, got '-1'"),
    ('long-extra', ("info", LONG),
     "semimc info: error: unrecognized arguments: '" + "x" * 32 + "'... (5000 characters)"),
    ('long-unknown-option', ("info", "--state=" + LONG),
     "semimc info: error: unrecognized arguments: '--state=" + "x" * 24
     + "'... (5008 characters)"),
]


@pytest.mark.parametrize("name,argv,message", OPTION_ERRORS, ids=[c[0] for c in OPTION_ERRORS])
def test_option_error_golden(capsys, name, argv, message):
    command, *rest = argv
    model = str(corpus_path("extent-example.prob.model"))
    assert cli.main([command, model, *rest]) == 1
    out, err = capsys.readouterr()
    assert not out
    usage, line = err.splitlines()
    assert usage.startswith(f"usage: semimc {command} ") and line == message


def _check(exc, kind, message, line, col):
    assert type(exc) is kind
    assert (str(exc), exc.line, exc.col) == (message, line, col)


@pytest.mark.parametrize("name,text,kind,message,line,col,diagnostics",
                         [case if len(case) == 7 else (*case, []) for case in MODEL_ERRORS],
                         ids=[case[0] for case in MODEL_ERRORS])
def test_model_error_golden(name, text, kind, message, line, col, diagnostics):
    with pytest.raises(kind) as info:
        parse_model(text)
    e = info.value
    if kind is ValidationError:
        assert str(e) == message
        assert [d.render() for d in e.diagnostics] == diagnostics
        assert all(d.line is None and d.col is None for d in e.diagnostics)
    else:
        _check(e, kind, message, line, col)


@pytest.fixture(scope="module")
def prob_sig():
    return parse_model(SIGNATURE)


@pytest.mark.parametrize("name,text,kind,message,line,col", FORMULA_ERRORS,
                         ids=[case[0] for case in FORMULA_ERRORS])
def test_formula_error_golden(prob_sig, name, text, kind, message, line, col):
    with pytest.raises(kind) as info:
        parse_formula(text, prob_sig.signature, prob_sig.descriptor, require_closed=True)
    _check(info.value, kind, message, line, col)


@pytest.mark.parametrize("name,text,kind,message,line,col", TROP_FORMULA_ERRORS,
                         ids=[case[0] for case in TROP_FORMULA_ERRORS])
def test_trop_formula_error_golden(name, text, kind, message, line, col):
    m = parse_model(SIGNATURE.replace("prob", "trop").replace("1/2", "1"))
    with pytest.raises(kind) as info:
        parse_formula(text, m.signature, m.descriptor)
    _check(info.value, kind, message, line, col)


@pytest.mark.parametrize("name,text,kind,message,line,col", FRAGMENT_ERRORS,
                         ids=[case[0] for case in FRAGMENT_ERRORS])
def test_fragment_error_golden(prob_sig, name, text, kind, message, line, col):
    with pytest.raises(kind) as info:
        parse_fragment(text, prob_sig.signature)
    _check(info.value, kind, message, line, col)


CORPUS_DIAGNOSTICS = {
    "branching.prob.model": ["warning: substochastic: p (outgoing mass 5/6)",
                             "warning: substochastic: q (outgoing mass 3/4)"],
    "counterexample.prob.model": [],
    "deadlock.bool.model": ["warning: deadlock: y"],
    "extent-example.btrop.model": [],
    "extent-example.prob.model": ["warning: substochastic: y (outgoing mass 3/4)",
                                  "warning: substochastic: z (outgoing mass 3/4)"],
    "extent-example.trop.model": [],
    "fork.btrop.model": [],
    "offset-plain.trop.model": [],
    "offset-s.trop.model": [],
    "offset-t.trop.model": [],
    "two-rate.prob.model": [],
}


def test_corpus_diagnostics_and_render_golden(corpus_models):
    assert sorted(corpus_models) == sorted(CORPUS_DIAGNOSTICS)
    for name, m in corpus_models.items():
        assert [d.render() for d in validate(m)] == CORPUS_DIAGNOSTICS[name], name
        text = render_model(m)
        assert render_model(parse_model(text)) == text, name


def _hand_built():
    base = parse_model("semiring prob label a/1 label b/2 label e/0\n"
                       "state x { 1/2 a -> x; 1/2 e } state y { }")
    d, sig, T = base.descriptor, base.signature, Transition
    btrop = parse_model("semiring trop[3] label a/1 state x { 1 a -> x }")
    return {
        "errors": Model(d, sig, ("x", "y"), {
            "x": [T(Fraction(1, 2), "q", ("x",)), T(Fraction(1, 2), "a", ("x", "y")),
                  T(Fraction(1, 4), "a", ("w",)), T(Fraction(0), "e", ()),
                  T(Fraction(3, 2), "b", ("x", "y")), T(Fraction(1, 4), "a", ("w",))],
            "y": [T(Fraction(1, 3), "a", ("y",))]}, {"x": Fraction(2), "y": Fraction(1)}),
        "row-sum": Model(d, sig, ("x", "y"), {
            "x": [T(Fraction(3, 4), "a", ("x",)), T(Fraction(1, 2), "e", ())],
            "y": [T(Fraction(1, 4), "a", ("x",)), T(Fraction(1, 4), "e", ())]}),
        "unknown-label-mass": Model(d, sig, ("x",), {
            "x": [T(Fraction(1, 2), "q", ()), T(Fraction(1, 4), "a", ("x",))]}),
        "duplicate-states": Model(d, sig, ("x", "x"), {"x": [T(Fraction(1), "e", ())]}),
        "tables": Model(d, sig, ("x",), {"x": [], "z": []},
                        {"x": Fraction(1), "z": Fraction(1)}),
        "btrop-carrier": Model(btrop.descriptor, btrop.signature, ("x",), {
            "x": [T(5, "a", ("x",)), T(INF, "a", ("x",)), T(2, "a", ("x",))]}, {"x": -1}),
    }


HAND_BUILT_DIAGNOSTICS = {
    "errors": ["error: state 'x': unknown label 'q'",
               "error: state 'x': arity mismatch on label 'a'",
               "error: state 'x': undeclared successor 'w'",
               "error: state 'x': transition weight is the semiring zero",
               "error: state 'x': weight outside the carrier",
               "error: state 'x': undeclared successor 'w'",
               "error: state 'x': duplicate transition a -> ('w',)",
               "error: state 'x': outgoing weight sum is undefined",
               "error: state 'x': offset outside the carrier",
               "warning: substochastic: y (outgoing mass 1/3)"],
    "row-sum": ["error: state 'x': outgoing weight sum is undefined",
                "warning: substochastic: y (outgoing mass 1/2)"],
    # the substochastic mass counts the unknown label's weight too
    "unknown-label-mass": ["error: state 'x': unknown label 'q'",
                           "warning: substochastic: x (outgoing mass 3/4)"],
    "duplicate-states": ["error: duplicate state names"],
    "tables": ["error: transition table does not match the state set",
               "error: offset table does not match the state set",
               "warning: deadlock: x",
               "warning: substochastic: x (outgoing mass 0)"],
    "btrop-carrier": ["error: state 'x': weight outside the carrier",
                      "error: state 'x': transition weight is the semiring zero",
                      "error: state 'x': duplicate transition a -> ('x',)",
                      "error: state 'x': duplicate transition a -> ('x',)",
                      "error: state 'x': offset outside the carrier"],
}


def test_validate_golden_on_hand_built_models():
    for name, m in _hand_built().items():
        assert [d.render() for d in validate(m)] == HAND_BUILT_DIAGNOSTICS[name], name


# the command line end to end: exact exit code, stdout and stderr of every
# command in both formats.  Each case gives the text output and the JSON
# payload; a command prints its output on stdout, except that an error exit
# from `main` prints its payload (the one with "error") on stderr.  JSON is
# pinned to the bytes of `json.dumps(payload, indent=2)`, so key order counts.
FORMULA = "mu X. ([a](T) | [b](X) | [c](X))"
P, T, C = "extent-example.prob.model", "extent-example.trop.model", "counterexample.prob.model"
BAD_MODELS = {
    "parse-error.model": "semiring bool label a/1\nstate x { 1 b -> x }\n",
    "row-mass.model": "semiring prob label a/1 label b/1\nstate x { 3/4 a -> y; 1/2 b -> x }\n"
                      "state y { 1/2 a -> x; 1/3 a -> y; 3/4 b -> y }\n",
    "no-labels.model": "semiring bool state x { }\n",
}
SUM_UNDEFINED = ["error: state 'x': outgoing weight sum is undefined",
                 "error: state 'y': outgoing weight sum is undefined"]


def _values(command, semiring, values, **extra):
    return {"command": command, "semiring": semiring, **extra, "values": values,
            "diagnostics": []}


def _error(command, message, code):
    return {"command": command, "error": message, "exit": code}


def _oracle(semiring, values, distance):
    return {"command": "oracle", "semiring": semiring, "report": {
        "semiring": semiring, "unroll": 2, "depth": 2, "tolerance": "0",
        "max_discrepancy": "0", "approximant_distance": distance, "ok": True,
        "rows": [{"state": s, "stepwise": v, "oracle": v, "difference": "0", "verdict": "ok"}
                 for s, v in values.items()]}, "diagnostics": []}


def _oracle_text(values, distance):
    return "\n".join(["semantics cross-check (unroll 2, depth 2, tolerance 0)",
                      *(f"  {s}: stepwise={v} oracle={v} diff=0 ok" for s, v in values.items()),
                      "  max discrepancy: 0",
                      f"  approximant vs fixpoint distance (diagnostic): {distance}"])


COMMAND_GOLDENS = [
    ("check-warnings", ("check", "deadlock.bool.model"), 0, "warning: deadlock: y",
     {"command": "check", "semiring": "bool", "diagnostics": ["warning: deadlock: y"]}),
    ("check-ok", ("check", T), 0, "ok",
     {"command": "check", "semiring": "trop", "diagnostics": []}),
    ("check-parse-error", ("check", "BAD/parse-error.model"), 1,
     "error: 2:13: unknown label 'b'",
     {"command": "check", "diagnostics": ["error: 2:13: unknown label 'b'"]}),
    ("check-invalid", ("check", "BAD/row-mass.model"), 1, "\n".join(SUM_UNDEFINED),
     {"command": "check", "diagnostics": SUM_UNDEFINED}),
    ("check-no-labels", ("check", "BAD/no-labels.model"), 1, "error: model declares no labels",
     {"command": "check", "diagnostics": ["error: model declares no labels"]}),
    ("eval-prob", ("eval", P, FORMULA), 0, "x = 2/5\ny = 1/10\nz = 1/5",
     _values("eval", "prob", {"x": "2/5", "y": "1/10", "z": "1/5"})),
    ("eval-trop", ("eval", T, FORMULA), 0, "x = 3\ny = 3\nz = 3",
     _values("eval", "trop", {"x": "3", "y": "3", "z": "3"})),
    ("extent-mu-prob", ("extent", "--mu", P), 0, "x = 2/5\ny = 3/5\nz = 1/5",
     _values("extent", "prob", {"x": "2/5", "y": "3/5", "z": "1/5"}, kind="mu")),
    ("extent-mu-trop", ("extent", "--mu", T), 0, "x = 4\ny = 2\nz = 4",
     _values("extent", "trop", {"x": "4", "y": "2", "z": "4"}, kind="mu")),
    ("extent-nu-trop", ("extent", T), 0, "x = 1\ny = 1\nz = 0",
     _values("extent", "trop", {"x": "1", "y": "1", "z": "0"}, kind="nu")),
    ("extent-iteration-cap", ("extent", "--mu", "branching.prob.model", "--max-iters", "3"), 2,
     "error: no fixpoint after 3 iterations",
     _error("extent", "no fixpoint after 3 iterations", 2)),
    ("lt-prob", ("lt", C, "a(T)", "--state", "x"), 0, "x = 1/2",
     _values("lt", "prob", {"x": "1/2"}, fragment="a(T)")),
    ("lt-trop", ("lt", T, "b(c(T))", "--state", "x"), 0, "x = 1",
     _values("lt", "trop", {"x": "1"}, fragment="b(c(T))")),
    ("lt-unknown-state", ("lt", P, "a(T)", "--state", "nope"), 1, "error: unknown state 'nope'",
     _error("lt", "unknown state 'nope'", 1)),
    ("ftr-prob", ("ftr", P, "a(*)", "--state", "x"), 0, "x = 1/4",
     _values("ftr", "prob", {"x": "1/4"}, fragment="a(*)")),
    ("ftr-offsets", ("ftr", "offset-s.trop.model", "a(*)", "--state", "s"), 1,
     "error: finite_tr requires a model without offsets",
     _error("ftr", "finite_tr requires a model without offsets", 1)),
    ("tr-fragment-depth", ("tr", P, "b(c(T))", "--state", "x"), 0, "x = 3/8",
     _values("tr", "prob", {"x": "3/8"}, fragment="b(c(T))", n=2)),
    ("tr-n", ("tr", P, "a(*)", "--state", "x", "--n", "3"), 0, "x = 1/4",
     _values("tr", "prob", {"x": "1/4"}, fragment="a(*)", n=3)),
    ("equiv-not", ("equiv", C, "x", "u"), 0, "not equivalent: witness a(T) (x: 1/2, u: 1/4)",
     {"command": "equiv", "semiring": "prob", "kind": "lt", "depth": 2, "equivalent": False,
      "witness": "a(T)", "left_value": "1/2", "right_value": "1/4", "diagnostics": []}),
    ("equiv-yes", ("equiv", C, "x", "u", "--depth", "0"), 0,
     "equivalent up to depth 0 (1 fragments)",
     {"command": "equiv", "semiring": "prob", "kind": "lt", "depth": 0, "equivalent": True,
      "diagnostics": []}),
    ("equiv-tr-trop", ("equiv", T, "x", "z", "--kind", "tr", "--depth", "1"), 0,
     "not equivalent: witness a(T) (x: 2, z: inf)",
     {"command": "equiv", "semiring": "trop", "kind": "tr", "depth": 1, "equivalent": False,
      "witness": "a(T)", "left_value": "2", "right_value": "inf", "diagnostics": []}),
    ("equiv-cap", ("equiv", C, "x", "x", "--depth", "3", "--enum-cap", "5"), 2,
     "error: fragment enumeration exceeds cap 5 at depth 2",
     _error("equiv", "fragment enumeration exceeds cap 5 at depth 2", 2)),
    ("equiv-unknown-state", ("equiv", P, "x", "nope"), 1, "error: unknown state 'nope'",
     _error("equiv", "unknown state 'nope'", 1)),
    ("oracle-prob", ("oracle", P, FORMULA), 0,
     _oracle_text({"x": "3/10", "y": "3/40", "z": "3/40"}, "1/8"),
     _oracle("prob", {"x": "3/10", "y": "3/40", "z": "3/40"}, "1/8")),
    ("oracle-trop", ("oracle", T, FORMULA), 0,
     _oracle_text({"x": "3", "y": "3", "z": "3"}, "0"),
     _oracle("trop", {"x": "3", "y": "3", "z": "3"}, "0")),
    ("info-prob", ("info", P), 0, "semiring: prob\nstates: 3\ntransitions: 6\n"
     "labels: */0, a/1, b/1, c/1\ndeadlocks: none\nplain: yes",
     {"command": "info", "semiring": "prob", "stats": {
         "states": 3, "transitions": 6, "labels": {"*": 0, "a": 1, "b": 1, "c": 1},
         "deadlocks": [], "plain": True}, "diagnostics": []}),
    ("info-trop", ("info", "offset-s.trop.model"), 0, "semiring: trop\nstates: 2\n"
     "transitions: 3\nlabels: */0, a/1, b/1\ndeadlocks: none\nplain: no",
     {"command": "info", "semiring": "trop", "stats": {
         "states": 2, "transitions": 3, "labels": {"*": 0, "a": 1, "b": 1},
         "deadlocks": [], "plain": False}, "diagnostics": []}),
    ("info-deadlock", ("info", "deadlock.bool.model"), 0, "semiring: bool\nstates: 2\n"
     "transitions: 1\nlabels: a/1, b/1\ndeadlocks: y\nplain: yes",
     {"command": "info", "semiring": "bool", "stats": {
         "states": 2, "transitions": 1, "labels": {"a": 1, "b": 1},
         "deadlocks": ["y"], "plain": True}, "diagnostics": []}),
    ("missing-model", ("info", "missing.model"), 3,
     "error: [Errno 2] No such file or directory: 'missing.model'",
     _error("info", "[Errno 2] No such file or directory: 'missing.model'", 3)),
]


@pytest.mark.parametrize("name,argv,code,text,payload", COMMAND_GOLDENS,
                         ids=[case[0] for case in COMMAND_GOLDENS])
def test_command_golden(capsys, monkeypatch, tmp_path, name, argv, code, text, payload):
    for fname, model in BAD_MODELS.items():
        (tmp_path / fname).write_text(model)
    monkeypatch.chdir(CORPUS)  # the corpus models are named relative to it
    argv = [a.replace("BAD", str(tmp_path)) for a in argv]
    for fmt, expected in (("text", text), ("json", json.dumps(payload, indent=2))):
        assert cli.main([*argv, "--format", fmt]) == code
        out, err = capsys.readouterr()
        printed = expected + "\n"
        assert (out, err) == (("", printed) if "error" in payload else (printed, ""))
