"""Outside-in tracing of semimc for the traced run.

Public functions are replaced at the name their caller looks up (for
example ``semimc.cli.lt`` for the CLI and ``semimc.traces.lt`` for
``equiv_upto``), so semimc itself is untouched.  Each wrapper records a
span (name, start, end, parent, query id); aggregates are folded in as
spans close, and the spans of the first pass are kept for writing out.
A few hot helpers are counted, not timed, because per-call timing would
swamp the calls.  Semiring operations run millions of times per pass, so
even a counting wrapper would distort the layer times: they are counted
in the first pass only (`count_ops`), and the timed metrics come from
later passes.

A span's layer is the part of its name before the dot, which is the semimc
module that does the work.  A layer's self time is the time its spans are
open minus the time their child spans are open, so the self times of all
layers add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "model", "logic", "evaluator", "traces", "path_oracle")

# (module, attribute looked up by the caller, span name)
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "render_certified", "cli.render"),
    ("cli", "parse_model", "model.parse_model"),
    ("cli", "validate", "model.validate"),
    ("model", "validate", "model.validate"),
    ("cli", "parse_formula", "logic.parse_formula"),
    ("path_oracle", "unroll", "logic.unroll"),
    ("logic", "unroll", "logic.unroll"),
    ("cli", "mu_extent_result", "evaluator.extent"),
    ("cli", "nu_extent_result", "evaluator.extent"),
    ("evaluator", "mu_extent_result", "evaluator.extent"),
    ("evaluator", "nu_extent_result", "evaluator.extent"),
    ("traces", "nu_extent", "evaluator.extent"),
    ("path_oracle", "nu_extent_result", "evaluator.extent"),
    ("cli", "eval_with_certificate", "evaluator.eval"),
    ("path_oracle", "eval_formula", "evaluator.eval"),
    ("cli", "lt", "traces.lt"),
    ("traces", "lt", "traces.lt"),
    ("cli", "tr_approx", "traces.tr_approx"),
    ("traces", "tr_approx", "traces.tr_approx"),
    ("cli", "finite_tr", "traces.finite_tr"),
    ("cli", "parse_fragment", "traces.parse_fragment"),
    ("cli", "compare_semantics", "path_oracle.compare"),
    ("path_oracle", "oracle_eval", "path_oracle.oracle_eval"),
]

SEMIRING_CLASSES = {"BooleanSemiring": "bool", "ProbabilisticSemiring": "prob",
                    "TropicalSemiring": "trop", "BoundedTropicalSemiring": "btrop"}
SEMIRING_OPS = ("times", "plus", "sum", "oslash", "leq")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [("cli.build_parser_s", "s"), ("cli.render_s", "s"), ("cli.main_calls", "count"),
           ("cli.main_self_s", "s"),
           ("model.parse_model_s", "s"), ("model.parse_model_calls", "count"),
           ("model.validate_s", "s"), ("model.semiring_for_calls", "count"),
           ("logic.parse_formula_s", "s"), ("logic.unroll_s", "s"),
           ("evaluator.kleene_calls", "count"), ("evaluator.kleene_nested_calls", "count"),
           ("evaluator.kleene_iterations", "count"), ("evaluator.kleene_max_iterations", "count"),
           ("evaluator.kleene_s", "s"), ("evaluator.kleene_self_s", "s"),
           ("evaluator.operator_s", "s"), ("evaluator.operator_calls", "count"),
           ("evaluator.s_per_iteration", "s/call"), ("evaluator.promoted_states", "count"),
           ("evaluator.nonconvergence", "count"), ("evaluator.extent_s", "s"),
           ("evaluator.eval_s", "s")]
    for short in SEMIRING_CLASSES.values():
        out += [(f"semiring.{short}.{op}_calls", "count") for op in SEMIRING_OPS]
    out += [("traces.lt_s", "s"), ("traces.lt_calls", "count"), ("traces.tr_approx_s", "s"),
            ("traces.finite_tr_s", "s"), ("traces.equiv_s", "s"),
            ("traces.fragments_checked", "count"),
            ("path_oracle.compare_s", "s"), ("path_oracle.oracle_eval_s", "s"),
            ("path_oracle.fragments_enumerated", "count"),
            ("path_oracle.cyl_measure_calls", "count"), ("path_oracle.sat_ratio", "ratio")]
    out += [(f"self_s.{layer}", "s") for layer in LAYERS]
    out += [("self_s.uncovered", "s"), ("traced_wall_s", "s"), ("tracing_overhead", "ratio")]
    return out


class Tracer:
    """Span recorder for one traced process; `install` patches semimc."""

    def __init__(self):
        self.qid = ""
        self.keep = True  # keep span records (first pass only)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [name, start, child_time, index]
        self._open = Counter()  # open spans per name, for outermost-only sums
        self.incl = defaultdict(float)  # outermost spans per name
        self.self_by_name = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()  # wrappers hold this object: clear, never rebind
        self.root_time = 0.0
        self._ops: dict[tuple, tuple] = {}  # (class, op) -> (original, counting wrapper)

    def reset(self):
        for table in (self.incl, self.self_by_name, self.calls, self.counts):
            table.clear()
        self.root_time = 0.0

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        index = -1
        if self.keep:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.qid])
        self._open[name] += 1
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        name, start, child, index = frame
        self._stack.pop()
        dur = end - start
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_by_name[name] += dur - child
        if not self._open[name]:
            self.incl[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_time += dur
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    # -- special cases -----------------------------------------------------

    def _wrap_kleene(self, fn, nonconvergence):
        op_wrap = self.wrap

        def kleene(semiring, operator, *args, **kwargs):
            if self._open["evaluator.kleene"]:
                self.counts["kleene_nested"] += 1
            frame = self._enter("evaluator.kleene")
            try:
                res = fn(semiring, op_wrap(operator, "evaluator.operator"), *args, **kwargs)
            except nonconvergence:
                self.counts["nonconvergence"] += 1
                raise
            finally:
                self._exit(frame)
            self.counts["kleene_iterations"] += res.report.iterations
            self.counts["kleene_max_iterations"] = max(
                self.counts["kleene_max_iterations"], res.report.iterations)
            self.counts["promoted_states"] += len(res.report.promoted)
            return res
        return kleene

    def _wrap_equiv(self, fn):
        wrapped = self.wrap(fn, "traces.equiv")

        def equiv_upto(*args, **kwargs):
            res = wrapped(*args, **kwargs)
            self.counts["fragments_checked"] += res.fragments_checked
            return res
        return equiv_upto

    def _count(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap_enum(self, fn):
        counts = self.counts

        def enum_fragments(*args, **kwargs):
            for frag in fn(*args, **kwargs):
                counts["fragments_enumerated"] += 1
                yield frag
        return enum_fragments

    def _wrap_frag_sat(self, fn):
        depth = [0]
        counts = self.counts

        def frag_sat(q, psi):
            depth[0] += 1
            try:
                res = fn(q, psi)
            finally:
                depth[0] -= 1
            if not depth[0]:  # outermost call: one attempt per fragment
                counts["frag_sat_calls"] += 1
                counts["frag_sat_true"] += bool(res)
            return res
        return frag_sat

    def install(self):
        """Patch the loaded semimc modules.  Call once per process; the
        semiring operations are counted only while `count_ops` is on."""
        mods = {name: sys.modules[f"semimc.{name}"] for name in
                ("cli", "model", "logic", "evaluator", "traces", "path_oracle", "semiring")}
        for mod, attr, name in SPANS:
            setattr(mods[mod], attr, self.wrap(getattr(mods[mod], attr), name))
        ev = mods["evaluator"]
        ev.kleene = self._wrap_kleene(ev.kleene, sys.modules["semimc.errors"].NonConvergence)
        mods["cli"].equiv_upto = self._wrap_equiv(mods["cli"].equiv_upto)
        mods["model"].semiring_for = self._count(mods["model"].semiring_for, "semiring_for")
        po = mods["path_oracle"]
        po.cyl_measure = self._count(po.cyl_measure, "cyl_measure")
        po.enum_fragments = self._wrap_enum(po.enum_fragments)
        po.frag_sat = self._wrap_frag_sat(po.frag_sat)
        # resolve every method before patching any, so a subclass never
        # counts through its parent's wrapper as well
        sr = mods["semiring"]
        for cls in SEMIRING_CLASSES:
            for op in SEMIRING_OPS:
                fn = getattr(getattr(sr, cls), op)
                key = f"semiring.{SEMIRING_CLASSES[cls]}.{op}_calls"
                self._ops[(getattr(sr, cls), op)] = (fn, self._count(fn, key))

    def count_ops(self, on: bool):
        """Install (or remove) the counting wrappers of the semiring
        operations."""
        for (cls, op), (fn, counted) in self._ops.items():
            setattr(cls, op, counted if on else fn)

    # -- results -------------------------------------------------------------

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of one pass that took `wall` seconds; the
        semiring counts are 0 unless `count_ops` was on."""
        c, incl, calls = self.counts, self.incl, self.calls
        op_self = self.self_by_name["evaluator.operator"]
        sat_calls = c["frag_sat_calls"]
        m = {
            "cli.build_parser_s": incl["cli.build_parser"],
            "cli.render_s": incl["cli.render"],
            "cli.main_calls": calls["cli.main"],
            "cli.main_self_s": self.self_by_name["cli.main"],
            "model.parse_model_s": incl["model.parse_model"],
            "model.parse_model_calls": calls["model.parse_model"],
            "model.validate_s": incl["model.validate"],
            "model.semiring_for_calls": c["semiring_for"],
            "logic.parse_formula_s": incl["logic.parse_formula"],
            "logic.unroll_s": incl["logic.unroll"],
            "evaluator.kleene_calls": calls["evaluator.kleene"],
            "evaluator.kleene_nested_calls": c["kleene_nested"],
            "evaluator.kleene_iterations": c["kleene_iterations"],
            "evaluator.kleene_max_iterations": c["kleene_max_iterations"],
            "evaluator.kleene_s": incl["evaluator.kleene"],
            "evaluator.kleene_self_s": self.self_by_name["evaluator.kleene"],
            "evaluator.operator_s": incl["evaluator.operator"],
            "evaluator.operator_calls": calls["evaluator.operator"],
            "evaluator.s_per_iteration": op_self / calls["evaluator.operator"]
            if calls["evaluator.operator"] else 0.0,
            "evaluator.promoted_states": c["promoted_states"],
            "evaluator.nonconvergence": c["nonconvergence"],
            "evaluator.extent_s": incl["evaluator.extent"],
            "evaluator.eval_s": incl["evaluator.eval"],
        }
        for short in SEMIRING_CLASSES.values():
            for op in SEMIRING_OPS:
                key = f"semiring.{short}.{op}_calls"
                m[key] = c[key]
        m.update({
            "traces.lt_s": incl["traces.lt"],
            "traces.lt_calls": calls["traces.lt"],
            "traces.tr_approx_s": incl["traces.tr_approx"],
            "traces.finite_tr_s": incl["traces.finite_tr"],
            "traces.equiv_s": incl["traces.equiv"],
            "traces.fragments_checked": c["fragments_checked"],
            "path_oracle.compare_s": incl["path_oracle.compare"],
            "path_oracle.oracle_eval_s": incl["path_oracle.oracle_eval"],
            "path_oracle.fragments_enumerated": c["fragments_enumerated"],
            "path_oracle.cyl_measure_calls": c["cyl_measure"],
            "path_oracle.sat_ratio": c["frag_sat_true"] / sat_calls if sat_calls else 0.0,
        })
        layers = defaultdict(float)
        for name, t in self.self_by_name.items():
            layers[name.split(".", 1)[0]] += t
        for layer in LAYERS:
            m[f"self_s.{layer}"] = layers[layer]
        m["self_s.uncovered"] = wall - self.root_time
        m["traced_wall_s"] = wall
        return m
