"""Shared fixtures plus a per-criterion summary for the acceptance suite."""

from __future__ import annotations

import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(ROOT / "tests"))

from semimc import parse_model  # noqa: E402


def corpus_path(name: str) -> pathlib.Path:
    return CORPUS / name


def leq_pointwise(semiring, p: dict, q: dict) -> bool:
    """p <= q at every state, in the semiring's order."""
    return all(semiring.leq(p[k], q[k]) for k in p)


def load_corpus_model(name: str):
    return parse_model(corpus_path(name).read_text())


CORPUS_MODELS = sorted(p.name for p in CORPUS.glob("*.model"))


@pytest.fixture(scope="session")
def corpus_models():
    return {name: load_corpus_model(name) for name in CORPUS_MODELS}


@pytest.fixture(scope="session")
def extent_prob():
    return load_corpus_model("extent-example.prob.model")


@pytest.fixture(scope="session")
def extent_trop():
    return load_corpus_model("extent-example.trop.model")


@pytest.fixture(scope="session")
def deadlock_bool():
    return load_corpus_model("deadlock.bool.model")


@pytest.fixture(scope="session")
def counterexample_prob():
    return load_corpus_model("counterexample.prob.model")


@pytest.fixture
def default_digit_limit():
    """Python's default limit on printing an int (4300 digits) for one test,
    whatever the interpreter runs with; skipped where there is no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# acceptance summary: one pass/fail line per criterion at the end of the run

_CRITERION = re.compile(r"test_c(\d+)[a-z]?_?(\w*)")
_results: dict[str, list[str]] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid or report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    m = _CRITERION.match(name)
    if not m:
        return
    key = f"criterion {int(m.group(1)):2d}"
    if report.passed:
        outcome = "PASS"
    elif report.skipped and hasattr(report, "wasxfail"):
        outcome = "XFAIL (documented defect)"
    else:
        outcome = "FAIL"
    _results.setdefault(key, []).append(f"{outcome:<6} {name}")


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_results):
        for line in _results[key]:
            terminalreporter.write_line(f"{key}: {line}")
