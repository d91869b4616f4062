"""Command-line front end.

Commands: check, eval, extent, lt, tr, ftr, equiv, oracle, info.  Formulas
and fragments are taken inline or, when the argument names an existing
file, from that file.  Output is deterministic: states appear in
declaration order and scalars use the canonical per-semiring syntax.
Epsilon-converged probabilistic values are printed as the simplest
rational within the configured epsilon of the computed value.

`main` parses argv against one command table, built by `build_parser` on
import, which also gives each command's usage line and help.  Options are
written as for argparse: `--opt text`, `--opt=text` or a unique prefix.
Each command handler then makes one library call, which checks what it is
given (state names included), and fills one `_Output`, printed as a JSON
payload or as the same content in text lines.

Exit codes: 0 success, 1 validation or usage errors, 2 non-convergence or
enumeration caps, 3 I/O errors; `main` maps each error class to its code.
A deep `--depth` or `--unroll` ends in one of these codes too: the parsers
stop at `_lex.MAX_DEPTH` levels, and every walk past them is iterative.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .errors import (NonConvergence, ParseError, SemimcError, SizingError, ValidationError,
                     quote)
from .evaluator import (EvalConfig, eval_with_certificate, mu_extent_result,
                        nu_extent_result)
from .logic import parse_formula
from .model import Model, parse_model, validate
from .path_oracle import compare_semantics
from .semiring import _EXP_LIMIT, _fraction, render_certified
from .traces import (depth as fragment_depth, equiv_upto, finite_tr, lt,
                     parse_fragment, render_fragment, tr_approx)

EXIT_OK, EXIT_USER, EXIT_LIMIT, EXIT_IO = 0, 1, 2, 3


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _inline_or_file(arg: str) -> str:
    return _read_text(arg) if os.path.exists(arg) else arg


def _positive_rational(text: str) -> Fraction:
    try:
        value = _fraction(text)  # Fraction builds 10**exponent: bound it as parse_scalar does
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {quote(text)}") from None
    if value is None:
        raise ValueError(f"must be written with |exponent| <= {_EXP_LIMIT}, got {quote(text)}")
    if value <= 0:
        raise ValueError(f"must be positive, got {quote(text)}")
    return value


def _int_at_least(low: int):
    """Converter of an integer option with lower bound `low`, so an
    out-of-range value is a usage error rather than a failure later on."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {quote(text)}") from None
        if value < low:
            raise ValueError(f"must be at least {low}, got {quote(text)}")
        return value
    return parse


def _config(args) -> EvalConfig:
    """The EvalConfig of the solver options given; an option left out (or
    not offered by the command) keeps its EvalConfig default."""
    return EvalConfig(**{k: v for k, v in vars(args).items() if k in EvalConfig._fields})


class _Output:
    """What a command prints (one JSON payload, or the same content as text) and its exit code."""

    def __init__(self, command: str, model: Model | None, fmt: str):
        self.fmt, self.model, self.lines, self.code = fmt, model, [], EXIT_OK
        self.payload = {"command": command}
        if model is not None:
            self.payload["semiring"] = model.descriptor.short_name

    def _renderer(self, cfg: EvalConfig | None):
        """Certified to cfg.epsilon on prob when a cfg is given, exact
        otherwise: the other semirings compute exact values."""
        m = self.model
        if cfg is None or m.descriptor.kind != "probabilistic":
            return m.semiring.render
        return lambda v: render_certified(v, m.descriptor, cfg.epsilon)

    def values(self, pred: dict, cfg: EvalConfig | None = None):
        render = self._renderer(cfg)
        self.payload["values"] = rendered = {s: render(v) for s, v in pred.items()}
        self.lines += [f"{s} = {v}" for s, v in rendered.items()]

    def diagnostics(self, rendered: list[str]):
        self.payload["diagnostics"] = rendered
        self.lines += rendered

    def extra(self, key, value, line: str | None = None):
        self.payload[key] = value
        if line is not None:
            self.lines.append(line)

    def emit(self) -> str:
        self.payload.setdefault("diagnostics", [])
        if self.fmt == "json":
            return _json(self.payload)
        return "\n".join(self.lines) if self.lines else "ok"


def _json(payload) -> str:
    """`json.dumps(payload, indent=2)` for string keys, without the chain
    of generators json's own indented encoder runs: strings go to json's C
    escaper, other scalars but floats are written here as json writes them
    (ints by `int.__repr__`), and so is the layout.  Text output never loads json."""
    from json import dumps
    from json.encoder import encode_basestring_ascii as escape

    def write(x, indent: str) -> str:
        inner = indent + "  "
        if isinstance(x, dict):
            items = [f"{escape(k)}: {escape(v) if isinstance(v, str) else write(v, inner)}"
                     for k, v in x.items()]
            return f"{{{inner}{f',{inner}'.join(items)}{indent}}}" if items else "{}"
        if isinstance(x, (list, tuple)):
            items = [escape(v) if isinstance(v, str) else write(v, inner) for v in x]
            return f"[{inner}{f',{inner}'.join(items)}{indent}]" if items else "[]"
        if isinstance(x, int):  # bools among them
            return ("true" if x else "false") if isinstance(x, bool) else int.__repr__(x)
        return "null" if x is None else escape(x) if isinstance(x, str) else dumps(x)
    return write(payload, "\n")


def _load_model(path: str) -> Model:
    return parse_model(_read_text(path))


def _cmd_check(args) -> _Output:
    try:
        model = _load_model(args.model)
    except (ParseError, ValidationError) as e:
        out = _Output("check", None, args.format)
        out.diagnostics([d.render() for d in getattr(e, "diagnostics", [])] or [f"error: {e}"])
        out.code = EXIT_USER
        return out
    out = _Output("check", model, args.format)
    out.diagnostics([d.render() for d in validate(model)])
    return out


def _cmd_eval(args) -> _Output:
    model = _load_model(args.model)
    cfg = _config(args)
    formula = parse_formula(_inline_or_file(args.formula), model.signature,
                            model.descriptor, require_closed=True)
    values, _ = eval_with_certificate(model, formula, cfg=cfg)
    out = _Output("eval", model, args.format)
    out.values(values, cfg)
    return out


def _cmd_extent(args) -> _Output:
    model = _load_model(args.model)
    cfg = _config(args)
    res = mu_extent_result(model, cfg) if args.mu else nu_extent_result(model, cfg)
    out = _Output("extent", model, args.format)
    out.extra("kind", "mu" if args.mu else "nu")
    out.values(res.values, cfg)
    return out


def _fragment_command(args):
    """The front half of lt, ftr and tr: the model, the fragment, the output."""
    model = _load_model(args.model)
    frag = parse_fragment(_inline_or_file(args.fragment), model.signature)
    out = _Output(args.command, model, args.format)
    out.extra("fragment", render_fragment(frag))
    return model, frag, out


def _cmd_lt(args) -> _Output:
    model, frag, out = _fragment_command(args)
    cfg = _config(args)
    out.values({args.state: lt(model, args.state, frag, cfg)}, cfg)
    return out


def _cmd_ftr(args) -> _Output:
    model, frag, out = _fragment_command(args)
    out.values({args.state: finite_tr(model, args.state, frag)})
    return out


def _cmd_tr(args) -> _Output:
    model, frag, out = _fragment_command(args)
    n = args.n if args.n is not None else fragment_depth(frag)
    out.extra("n", n)
    out.values({args.state: tr_approx(model, args.state, frag, n)})
    return out


def _cmd_equiv(args) -> _Output:
    model = _load_model(args.model)
    cfg = _config(args)
    res = equiv_upto(model, args.left, args.right, args.depth, args.kind, cfg)
    out = _Output("equiv", model, args.format)
    out.extra("kind", args.kind)
    out.extra("depth", args.depth)
    if res.equivalent:
        out.extra("equivalent", True,
                  f"equivalent up to depth {args.depth} ({res.fragments_checked} fragments)")
        return out
    wit = render_fragment(res.witness)
    left, right = map(out._renderer(cfg), (res.left_value, res.right_value))
    out.extra("equivalent", False,
              f"not equivalent: witness {wit} ({args.left}: {left}, {args.right}: {right})")
    for key, value in (("witness", wit), ("left_value", left), ("right_value", right)):
        out.extra(key, value)
    return out


def _cmd_oracle(args) -> _Output:
    model = _load_model(args.model)
    cfg = _config(args)
    formula = parse_formula(_inline_or_file(args.formula), model.signature,
                            model.descriptor, require_closed=True)
    rep = compare_semantics(model, formula, args.unroll, cfg)
    out = _Output("oracle", model, args.format)
    out.extra("report", rep.to_dict(model.descriptor), rep.to_text(model.descriptor))
    return out


def _cmd_info(args) -> _Output:
    model = _load_model(args.model)
    labels, deadlocks = model.signature.labels, model.deadlock_states()
    stats = {"states": len(model.states),
             "transitions": sum(map(len, model._rows())),
             "labels": {l.name: l.arity for l in labels}, "deadlocks": deadlocks,
             "plain": model.is_plain}
    out = _Output("info", model, args.format)
    out.extra("stats", stats, "\n".join([
        f"semiring: {model.descriptor.short_name}", f"states: {stats['states']}",
        f"transitions: {stats['transitions']}",
        "labels: " + ", ".join(f"{l.name}/{l.arity}" for l in labels),
        "deadlocks: " + (", ".join(deadlocks) or "none"),
        f"plain: {'yes' if model.is_plain else 'no'}"]))
    return out


# the default of an option whose field is set only when it is given, and of a required one
_ABSENT, _REQUIRED = object(), object()
_HELP = dict.fromkeys(("-h", "--help"), ("help", None, _ABSENT, "show this help message and exit"))


def build_parser() -> dict:
    """The command table: name -> (handler, help, positionals, options,
    exclusive), and None -> semimc itself.  `options` maps each flag to
    (dest, convert, default, help); `convert` makes the value of the text
    after the flag, a tuple lists the texts allowed, and None marks a switch,
    which stores True.  `exclusive` maps a flag to one it excludes."""
    solver = {  # their defaults are EvalConfig's
        "--epsilon": ("epsilon", _positive_rational, _ABSENT, "prob convergence target (> 0)"),
        "--max-iters": ("max_iterations", _int_at_least(1), _ABSENT, "iteration cap per fixpoint"),
        "--promote-bound": ("promote_bound", _int_at_least(0), _ABSENT, "trop divergence cutoff")}
    enum = {"--enum-cap": ("enum_cap", _int_at_least(1), _ABSENT, "fragment enumeration cap")}
    state = {"--state": ("state", str, _REQUIRED, "state to query")}
    fragment = ("model", "fragment")
    table = {
        "check": (_cmd_check, "validate a model, list diagnostics", ("model",), {}),
        "eval": (_cmd_eval, "evaluate a closed formula", ("model", "formula"), solver),
        "extent": (_cmd_extent, "greatest or least extent", ("model",), {
            **solver, "--nu": ("nu", None, False, "greatest extent (default)"),
            "--mu": ("mu", None, False, "least extent")}, {"--nu": "--mu", "--mu": "--nu"}),
        "lt": (_cmd_lt, "linear-time behaviour of a fragment", fragment, {**state, **solver}),
        "tr": (_cmd_tr, "depth-n trace approximant", fragment, {**state, "--n": (
            "n", _int_at_least(0), None, "approximation depth (>= 0, default: fragment depth)")}),
        "ftr": (_cmd_ftr, "completed-trace behaviour", fragment, state),
        "equiv": (_cmd_equiv, "depth-bounded equivalence check", ("model", "left", "right"), {
            **solver, **enum, "--kind": ("kind", ("lt", "tr"), "lt", "lt (default) or tr"),
            "--depth": ("depth", _int_at_least(0), 2, "fragment depth bound (>= 0, default 2)")}),
        "oracle": (_cmd_oracle, "cross-check step-wise vs path semantics", ("model", "formula"), {
            **solver, **enum, "--unroll": ("unroll", _int_at_least(0), 2,
                                           "fixpoint unrolling depth (>= 0, default 2)")}),
        "info": (_cmd_info, "model statistics", ("model",), {}),
    }
    fmt = {"--format": ("format", ("text", "json"), "text", "text (default) or json")}
    return {None: (None, "semiring-parametric model checker for quantitative linear-time "
                   "fixpoint logics", ("command",), _HELP, {}),
            **{name: (handler, text, positionals, {**_HELP, **opts, **fmt}, dict(*exclusive))
               for name, (handler, text, positionals, opts, *exclusive) in table.items()}}


def _classify(word: str, options: dict):
    """What argparse makes of a word before `--`: None for a positional,
    else (flag, the text after `=` or None), with flag None for an option
    not in `options`.  A long flag may be cut to a unique prefix."""
    if word[:1] != "-" or word == "-":
        return None
    name, eq, text = word.partition("=")
    hits = [name] if name in options else \
        [f for f in options if f.startswith(name) and word[1] == "-"]
    if len(hits) > 1:
        raise ValueError(f"ambiguous option: {name} could match {', '.join(hits)}")
    if hits:
        return hits[0], text if eq else None
    return None if re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word else (None, None)


def _help(name: str | None, full: bool = True) -> str:
    """The usage line of a command, or of semimc for None, and with `full`
    the rest of what `-h`/`--help` prints."""
    _, text, positionals, options, _ = _COMMANDS[name]
    flags = {f: f if o[1] is None else f"{f} {o[0].upper()}" for f, o in options.items()}
    usage = " ".join([f"usage: semimc{' ' + name if name else ''}", *positionals, *(
        flags[f] if o[2] is _REQUIRED else f"[{flags[f]}]" for f, o in options.items()
        if f != "--help")])
    if not full:
        return usage
    rows = [] if name else [(n, c[1]) for n, c in _COMMANDS.items() if n]
    rows += [(flags[f], o[3]) for f, o in options.items() if f != "-h"]
    width = 2 + max(len(left) for left, _ in rows)
    return "\n".join([usage, "", text, "", *(f"  {l:<{width}}{r}" for l, r in rows)])


def _parse(argv: list[str]) -> SimpleNamespace:
    """The fields that argv sets and the defaults of the options left out,
    as argparse sets them.  Options may come anywhere among the positionals,
    as `--flag text` or `--flag=text`; the words after `--` are positionals.
    A usage error raises ValueError, and `-h`/`--help` SystemExit(0)."""
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    _, _, positionals, options, exclusive = _COMMANDS[name]
    words = argv[1:] if name else argv[:1]
    end = words.index("--") if "--" in words else len(words)
    kinds = [_classify(w, options) for w in words[:end]] + [None] * (len(words) - end)
    fields = {d: v for d, _, v, _ in options.values() if v is not _ABSENT and v is not _REQUIRED}
    pending, extras, seen = list(positionals), [], set()
    pending_at_run, i = len(pending), 0  # positionals left when the current run began
    while i < len(words):
        word, kind = words[i], kinds[i]
        i += 1
        if i - 1 == end:  # argparse drops `--` only in a run of positionals that fills one
            extras += [] if pending_at_run else [word]
        elif kind is None and pending:
            fields[pending.pop(0)] = word
        elif kind is None or kind[0] is None:
            extras.append(word)
        else:
            flag, text = kind
            dest, convert, _, _ = options[flag]
            if dest == "help" and text is None:
                print(_help(name))
                raise SystemExit(0)
            try:
                if convert is None and text is not None:
                    raise ValueError(f"ignored explicit argument {quote(text)}")
                if exclusive.get(flag) in seen:
                    raise ValueError(f"not allowed with argument {exclusive[flag]}")
                if convert is not None and text is None:
                    if i >= end or kinds[i] is not None:
                        raise ValueError("expected one argument")
                    text, i = words[i], i + 1
                if type(convert) is tuple and text not in convert:
                    raise ValueError(f"invalid choice: {quote(text)} "
                                     f"(choose from {', '.join(map(repr, convert))})")
                fields[dest] = True if convert is None else \
                    text if type(convert) is tuple else convert(text)
            except ValueError as e:
                raise ValueError(f"argument {flag}: {e}") from None
            seen.add(flag)
            pending_at_run = len(pending)
    missing = pending + [f for f, o in options.items() if o[2] is _REQUIRED and f not in seen]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(map(quote, extras))}")
    if not name:
        raise ValueError(f"argument command: invalid choice: {quote(fields['command'])} "
                         f"(choose from {', '.join(map(repr, list(_COMMANDS)[1:]))})")
    return SimpleNamespace(command=name, **fields)


_COMMANDS = build_parser()


def _error_payload(command: str, fmt: str, message: str, code: int) -> str:
    if fmt == "json":
        return _json({"command": command, "error": message, "exit": code})
    return f"error: {message}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
    except ValueError as e:
        name = argv[0] if argv and argv[0] in _COMMANDS else None
        print(_help(name, full=False), f"semimc{' ' + name if name else ''}: error: {e}",
              sep="\n", file=sys.stderr)
        return EXIT_USER
    try:
        out = _COMMANDS[args.command][0](args)
        print(out.emit())
        return out.code
    except (NonConvergence, SizingError) as e:
        code, message = EXIT_LIMIT, str(e)
    except SemimcError as e:  # after its subclasses NonConvergence and SizingError
        code, message = EXIT_USER, str(e)
    except OSError as e:
        code, message = EXIT_IO, str(e)
    print(_error_payload(args.command, args.format, message, code), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
