"""Seeded workloads: model files plus a fixed list of CLI queries, each with
the answer `reference` computes for it.

The three workloads stress different layers of semimc:

* ``prob-kleene``: long probabilistic fixpoint chains over exact rationals;
* ``trop-kleene``: integer chains on trop, trop[B] and bool models;
* ``small-queries``: hundreds of short calls of every command.

Sizes, family counts and the masses that set each chain's contraction are
fixed; the seed draws successors, exits and the remaining weights.  Two
seeds therefore run the same number of Kleene iterations to within a few
percent while their answers differ.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import reference as ref
from reference import INF, Spec

EPS = Fraction(1, 10**9)
CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

NESTED = "nu X. mu Y. ([a](X) | [b](Y) | [*])"
MU_FORMULA = "mu X. ([a](T) | [b](X) | [c](X))"
OFFSET_FORMULA = "nu X. mu Y. ([a](X) | [b](Y))"


@dataclass
class Query:
    """One CLI call; `expect` says what a correct answer looks like:
    {"values": {state: text}, "tol": text} for value-printing commands,
    {"check": [...]}, {"info": {...}}, {"equiv": bool, "witnesses": {...}}
    or {"oracle_ok": True}."""

    qid: str
    argv: list[str]
    expect: dict


class Workload:
    """Model files and queries of one workload, as they are generated."""

    def __init__(self):
        self.models: dict[str, str] = {}  # file name -> text
        self.specs: dict[str, Spec] = {}
        self.queries: list[Query] = []

    def model(self, spec: Spec) -> str:
        fname = f"{spec.name}.model"
        self.models[fname] = spec.text()
        self.specs[fname] = spec
        return fname

    def query(self, tag: str, argv: list[str], expect: dict):
        self.queries.append(Query(f"q{len(self.queries):03d}-{tag}", argv + ["--format", "json"], expect))

    def values(self, tag, argv, vals: dict, tol=Fraction(0)):
        self.query(tag, argv, {"values": {s: ref.render(v) for s, v in vals.items()},
                               "tol": str(tol)})

    def extent(self, fname: str, direction: str, tol=2 * EPS):
        vals = ref.extent(self.specs[fname], direction)
        self.values(f"{direction}-{fname[:-6]}", ["extent", f"--{direction}", fname], vals, tol)


# --- generators ---------------------------------------------------------------


def _split_mass(rng: random.Random, k: int, den: int, keep: int) -> list[Fraction]:
    """k positive weights over `den` summing to (den - keep)/den."""
    total = den - keep
    cuts = sorted(rng.sample(range(1, total), k - 1)) if k > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [Fraction(p, den) for p in parts]


def prob_ring(name: str, rng: random.Random, n: int, p: Fraction):
    """Each state moves on with probability p or exits via '*' with some
    q <= 1 - p (drawn from `rng`, or 2/5 of 1 - p without one); the rest
    of the mass is lost.  Returns the model and its extents (both equal,
    as the ring contracts)."""
    qs = [(1 - p) * Fraction(rng.randint(1, 4) if rng else 2, 5) for _ in range(n)]
    states = [f"s{i}" for i in range(n)]
    trans = {s: [(p, "a", (states[(i + 1) % n],)), (qs[i], "*", ())]
             for i, s in enumerate(states)}
    spec = Spec(name, "prob", [("*", 0), ("a", 1)], states, trans)
    return spec, dict(zip(states, ref.ring_closed_form([p] * n, qs)))


def prob_linear(name: str, rng: random.Random, n: int, den: int = 10) -> Spec:
    """Random arity <= 1 prob model: 1-3 moves on 'a'/'b' to random
    states and an exit '*' in half of the states.  The moves carry
    (den - 2)/den of the mass in every state and an exit 1/den, so every
    chain contracts at the same rate and takes nearly the same number of
    iterations for every seed."""
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        k = rng.randint(1, 3)
        exit_ = rng.random() < 0.5
        ws = _split_mass(rng, k, den, 2) + [Fraction(1, den)]
        moves: dict[tuple, Fraction] = {}
        for w in ws[:k]:
            key = (rng.choice("ab"), rng.choice(states))
            moves[key] = moves.get(key, Fraction(0)) + w
        out = [(w, lbl, (t,)) for (lbl, t), w in moves.items()]
        if exit_:
            out.append((ws[-1], "*", ()))
        trans[s] = out
    return Spec(name, "prob", [("*", 0), ("a", 1), ("b", 1)], states, trans)


def prob_nested_model(name: str, rng: random.Random, n: int) -> Spec:
    """Every state moves on 'a' and on 'b' with 2/5 each, to random states,
    and half of them exit with 1/10: the inner (b) chain contracts by 2/5
    and the outer one by 2/3 for every seed."""
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        out = [(Fraction(2, 5), "a", (rng.choice(states),)),
               (Fraction(2, 5), "b", (rng.choice(states),))]
        if rng.random() < 0.5:
            out.append((Fraction(1, 10), "*", ()))
        trans[s] = out
    return Spec(name, "prob", [("*", 0), ("a", 1), ("b", 1)], states, trans)


def prob_branching(name: str, rng: random.Random, n: int) -> Spec:
    """Random binary-branching prob model with an exit in every state.  At
    most 3/4 offspring are expected per node, so every chain contracts by
    3/4 at least: a random near-critical model could otherwise run for
    minutes (critical branching has its own query)."""
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        w_split, w_step = Fraction(rng.randint(1, 3), 12), Fraction(rng.randint(1, 3), 12)
        w_exit = Fraction(rng.randint(1, int(12 - 12 * (w_split + w_step))), 12)
        trans[s] = [(w_split, "split", (rng.choice(states), rng.choice(states))),
                    (w_step, "a", (rng.choice(states),)),
                    (w_exit, "*", ())]
    return Spec(name, "prob", [("*", 0), ("a", 1), ("split", 2)], states, trans)


def trop_linear(name: str, rng: random.Random, n: int, semiring: str = "trop",
                max_w: int = 9, exits: float = 0.3) -> Spec:
    """Random arity <= 1 tropical model; a few zero-cost edges make
    zero-cost cycles possible.  On bool every weight is 1."""
    unit = 1 if semiring == "bool" else 0
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        seen, out = set(), []
        for _ in range(rng.randint(1, 3)):
            key = (rng.choice("ab"), rng.choice(states))
            if key in seen:
                continue
            seen.add(key)
            w = 0 if rng.random() < 0.15 else rng.randint(1, max_w)
            out.append((unit or w, key[0], (key[1],)))
        if rng.random() < exits:
            out.append((unit or rng.randint(0, max_w), "*", ()))
        trans[s] = out
    return Spec(name, semiring, [("*", 0), ("a", 1), ("b", 1)], states, trans)


def trop_nested_model(name: str, rng: random.Random, n: int, climbing: bool) -> Spec:
    """Moves on 'a' and 'b' cost 1.  With `climbing` no state can exit, so
    every value is inf and the outer fixpoint climbs one unit per step to
    the promote bound, restarting the inner chain each time; otherwise
    every state exits at a random cost and the answers are finite."""
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        out = [(1, "a", (rng.choice(states),)), (1, "b", (rng.choice(states),))]
        if not climbing:
            out.append((rng.randint(0, 9), "*", ()))
        trans[s] = out
    return Spec(name, "trop", [("*", 0), ("a", 1), ("b", 1)], states, trans)


def trop_ternary(name: str, rng: random.Random, n: int, semiring: str = "trop") -> Spec:
    """Exit-free model, every weight >= 1, with a ternary label: every value
    is inf, and unbounded Kleene climbs all the way to the promote bound.
    The largest weight is always 3, so the bound depends on n alone, and
    the cheapest runs take 'a' at cost 1 per step, so the climb takes the
    same number of iterations for every seed."""
    states = [f"s{i}" for i in range(n)]
    trans = {}
    for s in states:
        trans[s] = [(3 if s == "s0" else rng.randint(1, 3), "t",
                     tuple(rng.choice(states) for _ in range(3))),
                    (1, "a", (rng.choice(states),))]
    return Spec(name, semiring, [("a", 1), ("t", 3)], states, trans)


def finite_branching(name: str, rng: random.Random, n: int, semiring: str) -> Spec:
    """Random bool or trop[B] model with labels of arity 0, 1 and 2."""
    states = [f"s{i}" for i in range(n)]
    bound = int(semiring[5:-1]) if semiring.startswith("trop[") else None
    trans = {}
    for s in states:
        seen, out = set(), []
        for _ in range(rng.randint(0, 3)):
            lbl, ar = rng.choice([("*", 0), ("a", 1), ("b", 1), ("f", 2)])
            succ = tuple(rng.choice(states) for _ in range(ar))
            if (lbl, succ) in seen:
                continue
            seen.add((lbl, succ))
            w = 1 if bound is None else rng.randint(0, max(1, bound // 3))
            out.append((w, lbl, succ))
        trans[s] = out
    return Spec(name, semiring, [("*", 0), ("a", 1), ("b", 1), ("f", 2)], states, trans)


def offset_ring(name: str, rng: random.Random, n: int):
    ws = [rng.randint(0, 4) for _ in range(n)]
    os_ = [rng.randint(0, 4) for _ in range(n)]
    states = [f"s{i}" for i in range(n)]
    trans = {s: [(ws[i], "a", (states[(i + 1) % n],))] for i, s in enumerate(states)}
    offsets = {s: os_[i] for i, s in enumerate(states) if os_[i]}
    spec = Spec(name, "trop", [("a", 1)], states, trans, offsets)
    return spec, dict(zip(states, ref.offset_ring_nu(ws, os_)))


def two_rate() -> Spec:
    """One slow and one fast state: an epsilon stop rule that takes a single
    contraction ratio for all states cuts the slow one off (true value 1)."""
    return Spec("two-rate", "prob", [("a", 1), ("e", 0)], ["u", "v"], {
        "u": [(Fraction(999999999999, 10**12), "a", ("u",)), (Fraction(1, 10**12), "e", ())],
        "v": [(Fraction(1, 2), "a", ("v",)), (Fraction(1, 2), "e", ())]})


def critical_branching() -> Spec:
    """x = 1/2 x^2 + 1/2: least fixpoint 1, reached only sublinearly."""
    return Spec("critical", "prob", [("s", 2), ("e", 0)], ["x"], {
        "x": [(Fraction(1, 2), "s", ("x", "x")), (Fraction(1, 2), "e", ())]})


# --- corpus -------------------------------------------------------------------


def parse_spec(name: str, text: str) -> Spec:
    """Reads the simple model files of the corpus (no comments inside
    declarations, one declaration per line)."""
    labels, states, trans, offsets = [], [], {}, {}
    semiring = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        kw, rest = line.split(None, 1)
        if kw == "semiring":
            semiring = rest.strip()
        elif kw == "label":
            n, a = rest.split("/")
            labels.append((n.strip(), int(a)))
        elif kw == "state":
            m = re.match(r"(\w+)\s*\{(.*)\}", rest)
            s, body = m.group(1), m.group(2)
            states.append(s)
            out = []
            for part in filter(None, (p.strip() for p in body.split(";"))):
                lhs, _, succ = part.partition("->")
                w, lbl = lhs.split()
                out.append((_weight(w, semiring), lbl, tuple(succ.split())))
            trans[s] = out
        elif kw == "offset":
            s, w = rest.split("=")
            offsets[s.strip()] = _weight(w.strip(), semiring)
    return Spec(name, semiring, labels, states, trans, offsets)


def _weight(text: str, semiring: str):
    if semiring == "prob":
        return Fraction(text)
    return INF if text == "inf" else int(text)


def _corpus(b: Workload) -> dict[str, str]:
    """Copies the corpus models in; returns short name -> file name."""
    names = {}
    for fname in sorted(os.listdir(CORPUS_DIR)):
        with open(os.path.join(CORPUS_DIR, fname), encoding="utf-8") as fh:
            text = fh.read()
        spec = parse_spec(fname[:-6].replace(".", "-"), text)
        b.models[fname] = text
        b.specs[fname] = spec
        names[fname[:-6]] = fname
    return names


# --- expectations shared by the workloads -------------------------------------


def _tol(spec: Spec, k=2):
    return k * EPS if spec.semiring == "prob" else Fraction(0)


def _check_diags(spec: Spec) -> list[str]:
    out = [f"warning: deadlock: {s}" for s in spec.states if not spec.trans[s]]
    if spec.semiring == "prob":
        for s in spec.states:
            total = sum((w for w, _, _ in spec.trans[s]), Fraction(0))
            if total < 1:
                out.append(f"warning: substochastic: {s} (outgoing mass {total})")
    return out


def _info(spec: Spec) -> dict:
    one = Fraction(1) if spec.semiring == "prob" else (1 if spec.semiring == "bool" else 0)
    return {"states": len(spec.states),
            "transitions": sum(len(ts) for ts in spec.trans.values()),
            "labels": {n: a for n, a in spec.labels},
            "deadlocks": [s for s in spec.states if not spec.trans[s]],
            "plain": all(v == one for v in spec.offsets.values())}


def _equiv(b: Workload, fname: str, left: str, right: str, kind: str, depth: int):
    spec = b.specs[fname]
    ops = ref.Ops(spec.semiring)
    witnesses = {}
    if kind == "lt":
        ext = ref.extent(spec, "nu")
        for frag in ref.fragments_upto(spec.labels, depth):
            lv, rv = ref.lt(spec, left, frag, ext), ref.lt(spec, right, frag, ext)
            if not ops.close(lv, rv, EPS / 2):
                witnesses[ref.render_fragment(frag)] = [ref.render(lv), ref.render(rv)]
    else:
        for n in range(depth + 1):
            for frag in ref.truncations(spec.labels, n):
                lv, rv = ref.tr(spec, left, frag, n), ref.tr(spec, right, frag, n)
                if lv != rv:
                    witnesses[ref.render_fragment(frag)] = [ref.render(lv), ref.render(rv)]
    b.query(f"equiv-{kind}-{fname[:-6]}",
            ["equiv", fname, left, right, "--kind", kind, "--depth", str(depth)],
            {"equiv": not witnesses, "witnesses": witnesses, "tol": str(_tol(spec, 4))})


# --- the three workloads -------------------------------------------------------


def prob_kleene(rng: random.Random) -> Workload:
    b = Workload()
    # Rings of one size cost the same for every seed.  The fast rings hold
    # the median latency and the fixed slow rings the slowest tenth of the
    # queries, which keeps p50 and p90 from moving with the seed.
    for i, p in enumerate([Fraction(9, 10)] * 18 + [Fraction(99, 100)] * 6):
        spec, vals = prob_ring(f"ring-{i:02d}", rng if i < 18 else None, 3 if i < 18 else 1, p)
        f = b.model(spec)
        for d in ("mu", "nu"):
            b.values(f"{d}-{f[:-6]}", ["extent", f"--{d}", f], vals, 2 * EPS)
    for i, n in enumerate([10] * 10 + [20] * 6 + [50] * 2 + [100, 200]):
        f = b.model(prob_linear(f"lin-{i:02d}", rng, n))
        b.extent(f, "mu" if i % 2 else "nu")
    for i in range(12):
        f = b.model(prob_nested_model(f"nest-{i:02d}", rng, 5 + i % 6))
        b.values(f"nested-{f[:-6]}", ["eval", f, NESTED], ref.prob_nested(b.specs[f]), 2 * EPS)
    for i in range(18):
        f = b.model(prob_branching(f"br-{i:02d}", rng, 2 + i % 3))
        b.extent(f, "mu", tol=2 * EPS + Fraction(1, 10**40))
    f = b.model(two_rate())
    b.extent(f, "mu")
    b.values("eval-two-rate", ["eval", f, "mu X. ([a](X) | [e])"],
             {"u": Fraction(1), "v": Fraction(1)}, 2 * EPS)
    f = b.model(critical_branching())
    b.values("mu-critical", ["extent", "--mu", f, "--max-iters", "2000"],
             {"x": Fraction(1)}, 2 * EPS)
    return b


def trop_kleene(rng: random.Random) -> Workload:
    b = Workload()
    # the largest ternary models are the slowest eighth of the queries and
    # hold p90; their climb does not depend on the seed
    for i, n in enumerate([3] * 8 + [4] * 12 + [5] * 20):
        f = b.model(trop_ternary(f"tern-{i:02d}", rng, n))
        b.values(f"nu-{f[:-6]}", ["extent", "--nu", f], {s: INF for s in b.specs[f].states})
    for i in range(12):
        f = b.model(trop_ternary(f"btern-{i:02d}", rng, 3 + i % 6, "trop[40]"))
        b.extent(f, "nu")
        b.extent(f, "mu")
    for i, n in enumerate([10] * 12 + [20] * 8 + [40] * 4):
        f = b.model(trop_linear(f"lin-{i:02d}", rng, n, exits=1.0))
        b.extent(f, "nu")
        b.extent(f, "mu")
    for i in range(12):
        f = b.model(trop_nested_model(f"nest-{i:02d}", rng, 6 + i % 6, climbing=i % 2 == 0))
        b.values(f"nested-{f[:-6]}", ["eval", f, NESTED], ref.trop_nested(b.specs[f]))
    for i in range(10):
        spec, vals = offset_ring(f"off-{i:02d}", rng, 2 + i % 5)
        f = b.model(spec)
        b.values(f"nu-{f[:-6]}", ["extent", "--nu", f], vals)
    for i in range(8):
        f = b.model(finite_branching(f"bool-{i:02d}", rng, 6 + i, "bool"))
        b.extent(f, "nu")
        b.extent(f, "mu")
    for i in range(6):
        f = b.model(trop_linear(f"bnest-{i:02d}", rng, 6 + i, "bool", 1))
        b.values(f"nested-{f[:-6]}", ["eval", f, NESTED], ref.bool_nested(b.specs[f]))
    return b


def _random_small(rng: random.Random, i: int, semiring: str) -> Spec:
    # sizes and prob masses follow the query index, so the slowest queries
    # (prob Kleene chains and oracle runs) cost the same for every seed
    n = 2 + (i // 4) % 3
    name = f"{semiring.replace('[', '').replace(']', '')}-{i:02d}"
    if semiring == "prob":
        return prob_linear(name, rng, n, den=8)
    if semiring == "trop":
        return trop_linear(name, rng, n, max_w=5, exits=0.5)
    return finite_branching(name, rng, n, semiring)


_MODAL_FORMULAS = [
    ("T",),
    ("F",),
    ("modal", (("a", (("T",),)),)),
    ("modal", (("a", (("modal", (("b", (("T",),)),)),)), ("*", ()))),
    ("modal", (("b", (("modal", (("a", (("T",),)), ("*", ()))),)),)),
]


def _frag(rng: random.Random, labels, depth: int):
    """A random trace fragment of depth at most `depth`."""
    if depth == 0 or rng.random() < 0.25:
        return "T"
    lbl, ar = rng.choice(labels)
    return (lbl, tuple(_frag(rng, labels, depth - 1) for _ in range(ar)))


def _completed(rng: random.Random, labels, depth: int):
    """A completed trace (nullary leaves only) of depth at most `depth`."""
    nullary = [l for l in labels if l[1] == 0]
    if depth <= 1:
        return (rng.choice(nullary)[0], ())
    lbl, ar = rng.choice(labels)
    return (lbl, tuple(_completed(rng, labels, depth - 1) for _ in range(ar)))


def _truncation(rng: random.Random, labels, n: int):
    if n == 0:
        return "T"
    lbl, ar = rng.choice(labels)
    return (lbl, tuple(_truncation(rng, labels, n - 1) for _ in range(ar)))


def small_queries(rng: random.Random) -> Workload:
    b = Workload()
    corpus = _corpus(b)
    for fname in corpus.values():
        spec = b.specs[fname]
        b.query(f"check-{fname[:-6]}", ["check", fname], {"check": _check_diags(spec)})
        b.query(f"info-{fname[:-6]}", ["info", fname], {"info": _info(spec)})
    # acceptance-test and README values
    ex = {k: corpus[f"extent-example.{k}"] for k in ("prob", "trop", "btrop")}
    want = {"x": Fraction(2, 5), "y": Fraction(3, 5), "z": Fraction(1, 5)}
    b.values("nu-ex-prob", ["extent", "--nu", ex["prob"]], want, 2 * EPS)
    b.values("mu-ex-prob", ["extent", "--mu", ex["prob"]], want, 2 * EPS)
    b.values("nu-ex-trop", ["extent", "--nu", ex["trop"]], {"x": 1, "y": 1, "z": 0})
    b.values("mu-ex-trop", ["extent", "--mu", ex["trop"]], {"x": 4, "y": 2, "z": 4})
    b.extent(ex["btrop"], "nu")
    b.extent(ex["btrop"], "mu")
    b.values("eval-ex-prob", ["eval", ex["prob"], MU_FORMULA],
             {"x": Fraction(2, 5), "y": Fraction(1, 10), "z": Fraction(1, 5)}, 2 * EPS)
    b.values("eval-ex-trop", ["eval", ex["trop"], MU_FORMULA], {"x": 3, "y": 3, "z": 3})
    for name, want in (("offset-plain.trop", {"s": INF, "t": INF}),
                       ("offset-s.trop", {"s": 0, "t": 0}),
                       ("offset-t.trop", {"s": 1, "t": 0})):
        b.values(f"eval-{name}", ["eval", corpus[name], OFFSET_FORMULA], want)
    ce = corpus["counterexample.prob"]
    b.query("equiv-counterexample", ["equiv", ce, "x", "u", "--kind", "lt", "--depth", "1"],
            {"equiv": False, "witnesses": {"a(T)": ["1/2", "1/4"]}, "tol": "0"})
    b.values("lt-counterexample-x", ["lt", ce, "a(T)", "--state", "x"], {"x": Fraction(1, 2)}, 2 * EPS)
    b.values("lt-counterexample-u", ["lt", ce, "a(T)", "--state", "u"], {"u": Fraction(1, 4)}, 2 * EPS)
    dl = corpus["deadlock.bool"]
    b.values("eval-deadlock-T", ["eval", dl, "T"], {"x": 0, "y": 0})
    b.values("eval-deadlock-bT", ["eval", dl, "[b](T)"], {"x": 0, "y": 0})
    b.extent(corpus["fork.btrop"], "nu")
    b.extent(corpus["fork.btrop"], "mu")
    b.extent(corpus["branching.prob"], "mu", tol=2 * EPS + Fraction(1, 10**40))
    # lt on the three-state prob example: 32 fixed queries as slow as the
    # slowest tenth of the rest, which keep p90 from moving with the seed
    spec = b.specs[ex["prob"]]
    ext = ref.extent(spec, "nu")
    for frag in ref.fragments_upto(spec.labels, 2)[1:]:
        for s in ("x", "y"):
            b.values(f"lt-ex-prob-{s}", ["lt", ex["prob"], ref.render_fragment(frag), "--state", s],
                     {s: ref.lt(spec, s, frag, ext)}, 2 * EPS)

    # random small models in all four semirings, every command
    for i in range(48):
        semiring = ("prob", "trop", "bool", "trop[12]")[i % 4]
        spec = _random_small(rng, i, semiring)
        f = b.model(spec)
        tol = _tol(spec)
        b.query(f"check-{f[:-6]}", ["check", f], {"check": _check_diags(spec)})
        b.query(f"info-{f[:-6]}", ["info", f], {"info": _info(spec)})
        ext = {d: ref.extent(spec, d) for d in ("nu", "mu")}
        d = "mu" if i % 8 < 4 else "nu"
        b.values(f"{d}-{f[:-6]}", ["extent", f"--{d}", f], ext[d], tol)
        formula = _MODAL_FORMULAS[i % len(_MODAL_FORMULAS)]
        b.values(f"eval-{f[:-6]}", ["eval", f, ref.render_formula(formula)],
                 ref.modal_eval(spec, formula, ext["nu"]), tol)
        s = rng.choice(spec.states)
        frag = _frag(rng, spec.labels, 3)
        b.values(f"lt-{f[:-6]}", ["lt", f, ref.render_fragment(frag), "--state", s],
                 {s: ref.lt(spec, s, frag, ext["nu"])}, tol)
        frag = _completed(rng, spec.labels, 3)
        b.values(f"ftr-{f[:-6]}", ["ftr", f, ref.render_fragment(frag), "--state", s],
                 {s: ref.tr(spec, s, frag, ref.frag_depth(frag))})
        n = rng.randint(1, 3)
        frag = _truncation(rng, spec.labels, n)
        b.values(f"tr-{f[:-6]}", ["tr", f, ref.render_fragment(frag), "--state", s,
                                  "--n", str(n)], {s: ref.tr(spec, s, frag, n)})
        left, right = rng.choice(spec.states), rng.choice(spec.states)
        _equiv(b, f, left, right, "lt" if i % 2 else "tr", 3 if spec.max_arity <= 1 else 2)
        if spec.max_arity <= 1:
            b.query(f"oracle-{f[:-6]}", ["oracle", f, "mu X. ([a](T) | [b](X) | [*])",
                                         "--unroll", str(1 + (i // 4) % 3)],
                    {"oracle_ok": True})
    return b


WORKLOADS = {
    "prob-kleene": prob_kleene,
    "trop-kleene": trop_kleene,
    "small-queries": small_queries,
}


def build(workload: str, seed: int) -> Workload:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
