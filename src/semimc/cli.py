"""Command-line front end.

Commands: check, eval, extent, lt, tr, ftr, equiv, oracle, info.  Formulas
and fragments are taken inline or, when the argument names an existing
file, from that file.  Output is deterministic: states appear in
declaration order and scalars use the canonical per-semiring syntax.
Epsilon-converged probabilistic values are printed as the simplest
rational within the configured epsilon of the computed value.

`main` parses with one parser per process: `build_parser` runs on the
first call and its parser is shared by every later call, which saves
in-process callers (test suites, benchmark loops, programs embedding the
CLI) a few milliseconds per call.  Parsing does not change the parser and
every default is immutable, so sharing is safe; do not mutate the parser
that `main` uses.

Exit codes: 0 success, 1 validation or usage errors, 2 non-convergence or
enumeration caps, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .errors import (EvaluationError, NonConvergence, OffsetUnsupported,
                     ParseError, SemimcError, SizingError, ValidationError, quote)
from .evaluator import (EvalConfig, eval_with_certificate, mu_extent_result,
                        nu_extent_result)
from .logic import parse_formula
from .model import Model, parse_model, validate
from .path_oracle import compare_semantics
from .semiring import _EXP_LIMIT, _EXPONENT, render_certified
from .traces import (depth as fragment_depth, equiv_upto, finite_tr, lt,
                     parse_fragment, render_fragment, tr_approx)

EXIT_OK = 0
EXIT_USER = 1
EXIT_LIMIT = 2
EXIT_IO = 3


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _inline_or_file(arg: str) -> str:
    if os.path.exists(arg):
        return _read_text(arg)
    return arg


def _positive_rational(text: str) -> Fraction:
    m = _EXPONENT.search(text)  # Fraction builds 10**exponent: bound it as parse_scalar does
    try:
        if m and len(m[1]) > 5 and abs(int(m[1])) > max(_EXP_LIMIT, len(text)):
            raise argparse.ArgumentTypeError(f"must be written with |exponent| <= {_EXP_LIMIT}, "
                                             f"got {text!r}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type for an integer option with lower bound `low`, so an
    out-of-range value is a usage error rather than a failure later on."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_CONFIG_FIELDS = ("epsilon", "max_iterations", "promote_bound", "enum_cap")


def _config(args) -> EvalConfig:
    """The EvalConfig set by the solver options on the command line; an
    option the user left out (or the command does not offer) keeps its
    EvalConfig default."""
    return EvalConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS})


class _Output:
    def __init__(self, command: str, model: Model | None, fmt: str):
        self.fmt = fmt
        self.payload = {"command": command}
        if model is not None:
            self.payload["semiring"] = model.descriptor.short_name
        self.model = model
        self.lines: list[str] = []

    def _render(self, v, cfg: EvalConfig | None) -> str:
        """Certified to cfg.epsilon when a cfg is given, exact otherwise."""
        if cfg is None:
            return self.model.semiring.render(v)
        return render_certified(v, self.model.descriptor, cfg.epsilon)

    def values(self, pred: dict, cfg: EvalConfig):
        rendered = {s: self._render(pred[s], cfg) for s in self.model.states}
        self.payload["values"] = rendered
        for s, v in rendered.items():
            self.lines.append(f"{s} = {v}")

    def value(self, state: str, v, cfg: EvalConfig | None = None):
        rendered = self._render(v, cfg)
        self.payload["values"] = {state: rendered}
        self.lines.append(f"{state} = {rendered}")

    def diagnostics(self, diags):
        self.payload["diagnostics"] = [d.render() for d in diags]
        self.lines.extend(d.render() for d in diags)

    def extra(self, key, value, line: str | None = None):
        self.payload[key] = value
        if line is not None:
            self.lines.append(line)

    def emit(self) -> str:
        self.payload.setdefault("diagnostics", [])
        if self.fmt == "json":
            import json  # loaded only for JSON output: text output never needs it
            return json.dumps(self.payload, indent=2, sort_keys=False)
        return "\n".join(self.lines) if self.lines else "ok"


def _load_model(path: str) -> Model:
    return parse_model(_read_text(path))


def _cmd_check(args) -> tuple[int, _Output]:
    try:
        model = parse_model(_read_text(args.model))
    except (ParseError, ValidationError) as e:
        out = _Output("check", None, args.format)
        diags = getattr(e, "diagnostics", [])
        out.extra("diagnostics", [d.render() for d in diags] or [f"error: {e}"])
        out.lines.extend([d.render() for d in diags] or [f"error: {e}"])
        return EXIT_USER, out
    out = _Output("check", model, args.format)
    out.diagnostics(validate(model))
    return EXIT_OK, out


def _cmd_eval(args) -> tuple[int, _Output]:
    model = _load_model(args.model)
    cfg = _config(args)
    formula = parse_formula(_inline_or_file(args.formula), model.signature,
                            model.descriptor, require_closed=True)
    values, _ = eval_with_certificate(model, formula, cfg=cfg)
    out = _Output("eval", model, args.format)
    out.values(values, cfg)
    return EXIT_OK, out


def _cmd_extent(args) -> tuple[int, _Output]:
    model = _load_model(args.model)
    cfg = _config(args)
    res = mu_extent_result(model, cfg) if args.mu else nu_extent_result(model, cfg)
    out = _Output("extent", model, args.format)
    out.extra("kind", "mu" if args.mu else "nu")
    out.values(res.values, cfg)
    return EXIT_OK, out


def _cmd_lt(args) -> tuple[int, _Output]:
    model = _load_model(args.model)
    cfg = _config(args)
    frag = parse_fragment(_inline_or_file(args.fragment), model.signature)
    _need_state(model, args.state)
    v = lt(model, args.state, frag, cfg)
    out = _Output("lt", model, args.format)
    out.extra("fragment", render_fragment(frag))
    out.value(args.state, v, cfg)
    return EXIT_OK, out


def _cmd_ftr(args) -> tuple[int, _Output]:
    model = _load_model(args.model)
    frag = parse_fragment(_inline_or_file(args.fragment), model.signature)
    _need_state(model, args.state)
    v = finite_tr(model, args.state, frag)
    out = _Output("ftr", model, args.format)
    out.extra("fragment", render_fragment(frag))
    out.value(args.state, v)
    return EXIT_OK, out


def _cmd_tr(args) -> tuple[int, _Output]:
    model = _load_model(args.model)
    frag = parse_fragment(_inline_or_file(args.fragment), model.signature)
    _need_state(model, args.state)
    n = args.n if args.n is not None else fragment_depth(frag)
    v = tr_approx(model, args.state, frag, n)
    out = _Output("tr", model, args.format)
    out.extra("fragment", render_fragment(frag))
    out.extra("n", n)
    out.value(args.state, v)
    return EXIT_OK, out


def _cmd_equiv(args) -> tuple[int, _Output]:
    model = _load_model(args.model)
    cfg = _config(args)
    _need_state(model, args.left)
    _need_state(model, args.right)
    res = equiv_upto(model, args.left, args.right, args.depth, args.kind, cfg)
    out = _Output("equiv", model, args.format)
    out.extra("kind", args.kind)
    out.extra("depth", args.depth)
    out.extra("equivalent", res.equivalent)
    if res.equivalent:
        out.lines.append(f"equivalent up to depth {args.depth} "
                         f"({res.fragments_checked} fragments)")
    else:
        wit = render_fragment(res.witness)
        left, right = (render_certified(v, model.descriptor, cfg.epsilon)
                       for v in (res.left_value, res.right_value))
        out.extra("witness", wit)
        out.extra("left_value", left)
        out.extra("right_value", right)
        out.lines.append(f"not equivalent: witness {wit} "
                         f"({args.left}: {left}, {args.right}: {right})")
    return EXIT_OK, out


def _cmd_oracle(args) -> tuple[int, _Output]:
    model = _load_model(args.model)
    cfg = _config(args)
    formula = parse_formula(_inline_or_file(args.formula), model.signature,
                            model.descriptor, require_closed=True)
    rep = compare_semantics(model, formula, args.unroll, cfg)
    out = _Output("oracle", model, args.format)
    out.extra("report", rep.to_dict(model.descriptor))
    out.lines.append(rep.to_text(model.descriptor))
    return EXIT_OK, out


def _cmd_info(args) -> tuple[int, _Output]:
    model = _load_model(args.model)
    out = _Output("info", model, args.format)
    n_trans = sum(len(ts) for ts in model.transitions.values())
    stats = {
        "states": len(model.states),
        "transitions": n_trans,
        "labels": {l.name: l.arity for l in model.signature.labels},
        "deadlocks": model.deadlock_states(),
        "plain": model.is_plain,
    }
    out.extra("stats", stats)
    out.lines.append(f"semiring: {model.descriptor.short_name}")
    out.lines.append(f"states: {len(model.states)}")
    out.lines.append(f"transitions: {n_trans}")
    out.lines.append("labels: " + ", ".join(f"{l.name}/{l.arity}" for l in model.signature.labels))
    out.lines.append("deadlocks: " + (", ".join(model.deadlock_states()) or "none"))
    out.lines.append(f"plain: {'yes' if model.is_plain else 'no'}")
    return EXIT_OK, out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semimc",
        description="semiring-parametric model checker for quantitative "
                    "linear-time fixpoint logics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formula=False, fragment=False, state=False, solver=False, enum=False):
        """Arguments of a subcommand; `solver` adds the fixpoint options and
        `enum` the enumeration cap.  Their defaults are EvalConfig's."""
        sp.add_argument("model", help="model file")
        if formula:
            sp.add_argument("formula", help="formula text or file")
        if fragment:
            sp.add_argument("fragment", help="trace fragment text or file")
        if state:
            sp.add_argument("--state", required=True, help="state to query")
        if solver:
            sp.add_argument("--epsilon", type=_positive_rational, default=argparse.SUPPRESS,
                            help="probabilistic convergence target (rational > 0, "
                                 "default 1/10^9)")
            sp.add_argument("--max-iters", type=_int_at_least(1), default=argparse.SUPPRESS,
                            dest="max_iterations", help="iteration cap per fixpoint (>= 1)")
            sp.add_argument("--promote-bound", type=_int_at_least(0), default=argparse.SUPPRESS,
                            help="tropical divergence cutoff (>= 0, default: from the model)")
        if enum:
            sp.add_argument("--enum-cap", type=_int_at_least(1), default=argparse.SUPPRESS,
                            help="fragment enumeration cap (>= 1)")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    common(sub.add_parser("check", help="validate a model, list diagnostics"))
    common(sub.add_parser("eval", help="evaluate a closed formula"), formula=True, solver=True)
    ext = common(sub.add_parser("extent", help="greatest or least extent"), solver=True)
    g = ext.add_mutually_exclusive_group()
    g.add_argument("--nu", action="store_true", help="greatest extent (default)")
    g.add_argument("--mu", action="store_true", help="least extent")
    common(sub.add_parser("lt", help="linear-time behaviour of a fragment"),
           fragment=True, state=True, solver=True)
    tr = common(sub.add_parser("tr", help="depth-n trace approximant"),
                fragment=True, state=True)
    tr.add_argument("--n", type=_int_at_least(0), default=None,
                    help="approximation depth (>= 0, default: fragment depth)")
    common(sub.add_parser("ftr", help="completed-trace behaviour"),
           fragment=True, state=True)
    eq = common(sub.add_parser("equiv", help="depth-bounded equivalence check"),
                solver=True, enum=True)
    eq.add_argument("left", help="first state")
    eq.add_argument("right", help="second state")
    eq.add_argument("--kind", choices=("lt", "tr"), default="lt")
    eq.add_argument("--depth", type=_int_at_least(0), default=2,
                    help="fragment depth bound (>= 0)")
    orc = common(sub.add_parser("oracle", help="cross-check step-wise vs path semantics"),
                 formula=True, solver=True, enum=True)
    orc.add_argument("--unroll", type=_int_at_least(0), default=2,
                     help="fixpoint unrolling depth (>= 0)")
    common(sub.add_parser("info", help="model statistics"))
    return p


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


_HANDLERS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "extent": _cmd_extent,
    "lt": _cmd_lt,
    "tr": _cmd_tr,
    "ftr": _cmd_ftr,
    "equiv": _cmd_equiv,
    "oracle": _cmd_oracle,
    "info": _cmd_info,
}


def _need_state(model: Model, state: str):
    if state not in model.states:
        raise ValidationError(f"unknown state {quote(state)}")


def _error_payload(command: str, fmt: str, message: str, code: int) -> str:
    if fmt == "json":
        import json
        return json.dumps({"command": command, "error": message, "exit": code}, indent=2)
    return f"error: {message}"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed the usage error; its code 2 would read as
        # non-convergence here (--help exits 0 and passes through)
        if e.code == 2:
            return EXIT_USER
        raise
    fmt = getattr(args, "format", "text")
    try:
        code, out = _HANDLERS[args.command](args)
        print(out.emit())
        return code
    except (NonConvergence, SizingError) as e:
        print(_error_payload(args.command, fmt, str(e), EXIT_LIMIT), file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, ValidationError, EvaluationError, OffsetUnsupported, SemimcError) as e:
        print(_error_payload(args.command, fmt, str(e), EXIT_USER), file=sys.stderr)
        return EXIT_USER
    except OSError as e:
        print(_error_payload(args.command, fmt, str(e), EXIT_IO), file=sys.stderr)
        return EXIT_IO
    except RecursionError:
        # the parsers stop at _lex.MAX_DEPTH; formula walks still recurse
        print(_error_payload(args.command, fmt, "input nested too deeply", EXIT_USER),
              file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    raise SystemExit(main())
