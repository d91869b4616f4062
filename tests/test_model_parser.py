"""The one-loop model parser against the token-stream parser it replaced
(`tests/model_reference.py`): on random models, on token-level mutations of
them and on every model of the benchmark workloads, both give equal models
and compiled forms, or the same error at the same line and column.  Also
`validate` against its Fraction-based reference, and parsed against
hand-built compiled forms."""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimc import Model, Transition, cli, parse_model, render_model, validate
from semimc._lex import tokenize
import model_reference
from conftest import CORPUS_MODELS, ROOT, load_corpus_model
from randgen import DESCRIPTORS, carrier_values, random_model

_WEIGHTS = ["0", "1", "2", "7", "1/2", "3/4", "5/4", "1/0", "0.5", "0.25", "1.5", "inf",
            "99999", "9" * 40, "1/3 /", "/ 2", "inf / 2"]
_GAPS = [" ", "\n", "\t", "  ", " # note\n", "# x\n", "\r\n"]
_NAMES = ["s0", "s1", "s7", "l0", "l1", "l9", "*", "inf", "state"]
_EDITS = ("drop", "duplicate", "swap", "weight", "rename", "repeat", "declaration")


def _outcome(parse, text: str):
    """The model and its compiled form, or the error's type, message,
    position and diagnostics."""
    try:
        m = parse(text)
        return m, m.compiled
    except Exception as e:
        return (type(e), str(e), getattr(e, "line", None), getattr(e, "col", None),
                [d.render() for d in getattr(e, "diagnostics", [])])


def _repeat(toks: list, r: int) -> list:
    """Repeat one transition: the tokens after a '{' or ';' up to the next
    ';' or '}', again after a ';'."""
    starts = [i + 1 for i, t in enumerate(toks) if t in ("{", ";")]
    if not starts:
        return toks
    s = e = starts[r % len(starts)]
    while e < len(toks) and toks[e] not in (";", "}"):
        e += 1
    return toks[:e] + [";"] + toks[s:e] + toks[e:]


def _declaration(toks: list, r: int) -> list:
    """Repeat (r even) or delete (r odd) one declaration: from a 'label',
    'state' or 'offset' token up to the next one."""
    starts = [i for i, t in enumerate(toks) if t in ("label", "state", "offset")]
    if not starts:
        return toks
    s = e = starts[r // 2 % len(starts)]
    e += 1
    while e < len(toks) and toks[e] not in ("label", "state", "offset"):
        e += 1
    return toks[:e] + toks[s:e] + toks[e:] if r % 2 == 0 else toks[:s] + toks[e:]


def _mutate(toks: list, edits, rng: random.Random) -> list:
    for edit, r in edits:
        if not toks:
            break
        i = r % len(toks)
        if edit == "drop":
            del toks[i]
        elif edit == "duplicate":
            toks.insert(i, toks[i])
        elif edit == "swap":
            j = (i + 1) % len(toks)
            toks[i], toks[j] = toks[j], toks[i]
        elif edit == "weight":
            numbers = [k for k, t in enumerate(toks) if t[:1].isdigit() or t == "inf"]
            if numbers:
                toks[numbers[r % len(numbers)]] = rng.choice(_WEIGHTS)
        elif edit == "rename":
            names = [k for k, t in enumerate(toks) if t.isidentifier() or t == "*"]
            if names:
                toks[names[r % len(names)]] = rng.choice(_NAMES)
        elif edit == "declaration":
            toks = _declaration(toks, r)
        else:
            toks = _repeat(toks, r)
    return toks


def _join(toks: list, rng: random.Random) -> str:
    """The tokens with random whitespace and comments between them; the last
    line may end in a comment with no newline."""
    text = "".join(t + rng.choice(_GAPS) for t in toks)
    return text + rng.choice(["", "# end", "\n"])


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(DESCRIPTORS)),
       edits=st.lists(st.tuples(st.sampled_from(_EDITS), st.integers(0, 10**6)), max_size=3))
@settings(max_examples=600, deadline=None)
def test_parser_matches_reference_on_mutated_models(seed, kind, edits):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], max_states=4, allow_offsets=True)
    if kind == "probabilistic" and m.states and rng.random() < 0.5:
        m = m.with_offsets({m.states[0]: Fraction(rng.randint(0, 4), 4)})
    toks = _mutate(tokenize(render_model(m))[:-1], edits, rng)
    text = _join(toks, rng)
    assert _outcome(parse_model, text) == _outcome(model_reference.parse_model, text)


# texts that end or turn inside a weight, a merge or a successor list
_EDGES = [
    "semiring trop label a/0 state x { inf / 2 a }",
    "semiring trop label a/0 state x { inf a }",
    "semiring trop label a/0 state x { 1 / 2 a }",
    "semiring prob label a/0 state x { 1 / 2 a ; 1/2 a; 0.5 a }",
    "semiring prob label a/1 state x { 1/2 a -> x; 3/4 a -> x; 1/2 a -> x }",
    "semiring bool label a/0 state x { 1 a; 1 a; 1 a }",
    "semiring trop label a/0 state x { 1",
    "semiring trop label a/0 state x { 1 /",
    "semiring trop label a/0 state x { 1 / 2",
    "semiring trop label a/0 state x { 1 a;",
    "semiring trop label a/1 state x { 1 a ->",
    "semiring trop label a/1 state x { 1 a -> x y",
    "semiring trop label a/0 state x { } offset x = 1 /",
    "semiring trop label a/0 state x { } offset x = inf",
    "semiring trop label a/0 state x { } offset x = inf / 2",
    "semiring bool label a/0 state x { } offset x = 0 state",
    "semiring prob label */0 state x { 1/3 *; 2/3 * }",
    "semiring prob label a/1 state x { 1/4 a -> x; 1/2 a -> y } state y { 3/4 a -> y; 1/2 a -> y }",
]


@pytest.mark.parametrize("text", _EDGES)
def test_parser_matches_reference_on_edge_texts(text):
    assert _outcome(parse_model, text) == _outcome(model_reference.parse_model, text)


def _workload_models(workload: str, seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads.build(workload, seed).models


@pytest.mark.parametrize("workload", ["prob-kleene", "trop-kleene", "small-queries"])
def test_parser_matches_reference_on_workload_models(workload):
    models = _workload_models(workload, 1)
    assert models
    for name, text in models.items():
        assert _outcome(parse_model, text) == _outcome(model_reference.parse_model, text), name


def _by_hand(m: Model) -> Model:
    return Model(m.descriptor, m.signature, m.states,
                 {s: list(ts) for s, ts in m.transitions.items()}, dict(m.offsets))


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(DESCRIPTORS)))
@settings(max_examples=200, deadline=None)
def test_parsed_and_hand_built_models_compile_alike(seed, kind):
    m = random_model(random.Random(seed), DESCRIPTORS[kind], allow_offsets=True)
    parsed = parse_model(render_model(m))
    assert parsed == m and parsed.compiled == _by_hand(parsed).compiled == m.compiled


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_corpus_models_compile_alike_parsed_and_by_hand(name):
    m = load_corpus_model(name)
    assert m.compiled == _by_hand(m).compiled


# weights a model built in Python may hold: outside the carrier and the
# zero among them, and on prob ints and a bool next to Fractions
_ODD_WEIGHTS = [0, 1, 2, -1, 9]
_ODD_PROB_WEIGHTS = [Fraction(0), Fraction(3, 2), Fraction(-1, 2), Fraction(1, 3), True] + _ODD_WEIGHTS


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(DESCRIPTORS)))
@settings(max_examples=300, deadline=None)
def test_validate_matches_reference_on_hand_built_models(seed, kind):
    rng = random.Random(seed)
    m = random_model(rng, DESCRIPTORS[kind], allow_offsets=True)
    values = (_ODD_PROB_WEIGHTS if kind == "probabilistic" else _ODD_WEIGHTS) \
        + carrier_values(m.descriptor, rng, 4)
    odd = lambda v: rng.choice(values) if rng.random() < 0.3 else v
    transitions = {}
    for s, ts in m.transitions.items():
        row = [Transition(odd(t.weight), "q" if rng.random() < 0.1 else t.label, t.successors)
               for t in ts]
        transitions[s] = row + row[:1] if rng.random() < 0.2 else row
    h = Model(m.descriptor, m.signature, m.states, transitions,
              {s: odd(v) for s, v in m.offsets.items()})
    assert [d.render() for d in validate(h)] == [d.render() for d in model_reference.validate(h)]


def _built(m: Model) -> bool:
    """Whether `m` holds its `transitions`, read through the slot itself so
    that the read does not build them."""
    try:
        Model.transitions.__get__(m, Model)
    except AttributeError:
        return False
    return True


def _hash(m: Model):
    try:
        return hash(m)
    except TypeError as e:  # a model holds dicts
        return str(e)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(DESCRIPTORS)))
@settings(max_examples=200, deadline=None)
def test_parsed_model_builds_its_transitions_on_first_use(seed, kind, tmp_path_factory):
    m = random_model(random.Random(seed), DESCRIPTORS[kind], allow_offsets=True)
    text = render_model(m)
    parsed, ref = parse_model(text), model_reference.parse_model(text)
    assert not _built(parsed) and _built(ref)
    assert parsed == ref and _hash(parsed) == _hash(ref) and _built(parsed)
    assert pickle.loads(pickle.dumps(parse_model(text))) == ref
    assert render_model(parse_model(text)) == render_model(ref) == text
    path = tmp_path_factory.getbasetemp() / "lazy.model"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["info", str(path), "--format", "json"]) == 0
    count = json.loads(out.getvalue())["stats"]["transitions"]
    assert count == sum(len(ts) for ts in ref.transitions.values())


def test_hand_built_model_keeps_its_transitions():
    m = random_model(random.Random(5), DESCRIPTORS["tropical"])
    given_ = {s: list(ts) for s, ts in m.transitions.items()}
    h = Model(m.descriptor, m.signature, m.states, given_, dict(m.offsets))
    assert h.transitions is given_ and h == m


def test_extent_and_eval_never_build_transitions(monkeypatch, capsys):
    # what `Model.transitions` costs is paid only by the commands that read it
    parsed = []

    def recording(text):
        parsed.append(parse_model(text))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_model", recording)
    for name in CORPUS_MODELS:
        path = str(ROOT / "corpus" / name)
        label = load_corpus_model(name).signature.labels[0]
        modal = f"[{label.name}]({', '.join(['X'] * label.arity)})" if label.arity else \
            f"[{label.name}]"
        for argv in (["extent", "--mu", path], ["extent", "--nu", path],
                     ["eval", path, f"nu X. {modal}"]):
            assert cli.main(argv + ["--format", "json"]) == 0, argv
    assert parsed and len(parsed) == 3 * len(CORPUS_MODELS)
    assert not any(map(_built, parsed))
