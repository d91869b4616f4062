"""Every name the benchmark's tracer patches exists in semimc.

`perfbench/tracing.py` wraps semimc functions by module and attribute
name, so a rename in semimc would otherwise show only in a traced
benchmark run.  The tracer is read as source text and run in a namespace
of its own: nothing under `perfbench/` is imported, cached or written.
"""

from __future__ import annotations

import importlib

from conftest import ROOT

# the names `Tracer.install` patches besides SPANS and the semiring operations
SPECIAL = [("evaluator", "kleene"), ("errors", "NonConvergence"), ("cli", "equiv_upto"),
           ("model", "semiring_for"), ("path_oracle", "cyl_measure"),
           ("path_oracle", "enum_fragments"), ("path_oracle", "frag_sat")]


def _tracing() -> dict:
    path = ROOT / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def test_traced_names_exist():
    tracing = _tracing()
    names = [(mod, attr) for mod, attr, _ in tracing["SPANS"]] + SPECIAL
    assert ("cli", "lt") in names and ("evaluator", "kleene") in names
    missing = [f"semimc.{mod}.{attr}" for mod, attr in names
               if not callable(getattr(importlib.import_module(f"semimc.{mod}"), attr, None))]
    assert not missing


def test_traced_semiring_operations_exist():
    tracing = _tracing()
    semiring = importlib.import_module("semimc.semiring")
    assert len(tracing["SEMIRING_CLASSES"]) == 4 and len(tracing["SEMIRING_OPS"]) == 5
    missing = [f"{cls}.{op}" for cls in tracing["SEMIRING_CLASSES"]
               for op in tracing["SEMIRING_OPS"]
               if not callable(getattr(getattr(semiring, cls, None), op, None))]
    assert not missing
