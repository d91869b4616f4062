"""Classifies one query's outcome against its reference answer.

Outcomes: ``ok``; ``wrong`` (a value or report differs from the
reference); ``undecided`` (exit 2, non-convergence or an enumeration cap,
although the reference has an answer); ``error`` (any other exit code, an
uncaught exception or output that is not the expected JSON).
"""

from __future__ import annotations

import json
from fractions import Fraction


def _close(got: str, want: str, tol: Fraction) -> bool:
    if got == want:
        return True
    if not tol or "inf" in (got, want):
        return False
    try:
        return abs(Fraction(got) - Fraction(want)) <= tol
    except (ValueError, ZeroDivisionError):
        return False


def _values(expect, payload) -> str | None:
    tol = Fraction(expect["tol"])
    got = payload.get("values", {})
    if set(got) != set(expect["values"]):
        return f"states {sorted(got)} != {sorted(expect['values'])}"
    for s, want in expect["values"].items():
        if not _close(got[s], want, tol):
            return f"{s} = {got[s]}, reference {want}"
    return None


def _equiv(expect, payload) -> str | None:
    if payload.get("equivalent") != expect["equiv"]:
        return f"equivalent = {payload.get('equivalent')}, reference {expect['equiv']}"
    if expect["equiv"]:
        return None
    wit = payload.get("witness")
    if wit not in expect["witnesses"]:
        return f"witness {wit} does not distinguish the states"
    tol = Fraction(expect["tol"])
    lv, rv = expect["witnesses"][wit]
    if not (_close(payload["left_value"], lv, tol) and _close(payload["right_value"], rv, tol)):
        return f"witness {wit}: {payload['left_value']} vs {payload['right_value']}, reference {lv} vs {rv}"
    return None


def verdict(query: dict, code, stdout: str, stderr: str) -> tuple[str, str]:
    if code is None:
        return "error", stderr.strip().splitlines()[-1] if stderr.strip() else "exception"
    if code == 2:
        return "undecided", _error_text(stderr)
    if code != 0:
        return "error", f"exit {code}: {_error_text(stderr)}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "error", "output is not JSON"
    expect = query["expect"]
    if "values" in expect:
        problem = _values(expect, payload)
    elif "check" in expect:
        problem = None if payload.get("diagnostics") == expect["check"] else \
            f"diagnostics {payload.get('diagnostics')}"
    elif "info" in expect:
        problem = None if payload.get("stats") == expect["info"] else f"stats {payload.get('stats')}"
    elif "equiv" in expect:
        problem = _equiv(expect, payload)
    else:
        problem = None if payload.get("report", {}).get("ok") is True else "oracle report not ok"
    return ("wrong", problem) if problem else ("ok", "")


def _error_text(stderr: str) -> str:
    try:
        return json.loads(stderr).get("error", "")
    except ValueError:
        return stderr.strip()[:200]
