"""Seeded request lists for the four benchmark workloads.

A request is one ``effdiag`` argv together with the exact standard output
it must produce (the law suite's counterexample lines are only checked
for presence) and exit code 0.  Every expected output is computed here, from closed forms
and from small direct simulators written for this benchmark, never by
calling the library under test.

Each workload is a fixed *schedule* of request shapes whose costs cover
a continuous range.  One cycle runs every shape once, in a seeded order
and with seeded contents (values, locations, weights, fuel within its
stratum); the seed never changes the mix of sizes, so the latency
percentiles of two seeds measure the same distribution.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import NamedTuple

LOCATIONS4 = ("l0", "l1", "l2", "l3")
CHAIN_VALUES = "abcde"
TAIL_VALUES = "vwxy"
LAWS = ("kleisli", "algebraicity", "unit", "associativity", "composition",
        "binding", "congruence", "monotonicity", "bottom", "absorption",
        "commutativity")
LAW_MONADS = ("maybe", "exc", "set", "dist", "state", "output")
# README "Law status": the only cells that fail, by design
LAW_FAILS = {("commutativity", "exc"), ("commutativity", "state"),
             ("commutativity", "output"), ("absorption", "exc"),
             ("absorption", "output")}


class Request(NamedTuple):
    argv: tuple
    stdout: str           # the exact expected output
    # an expected line equal to this prefix matches any longer output
    # line that starts with it (the law suite's counterexamples)
    free_prefix: str = ""


class Workload(NamedTuple):
    requests: list        # one or more cycles of the schedule
    cycle: int            # requests per cycle
    files: dict           # relative path -> text, written before the run


def _json(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


# ---------------------------------------------------------------------------
# A direct simulator for boolean state programs built from read/write.
# Terms: ("val", x) | ("read", i, t0, t1) | ("write", i, bit, t)

def _state_src(t, locs) -> str:
    if t[0] == "val":
        return t[1]
    if t[0] == "read":
        return f"read[{locs[t[1]]}]({_state_src(t[2], locs)}, " \
               f"{_state_src(t[3], locs)})"
    return f"write[{locs[t[1]]},{t[2]}]({_state_src(t[3], locs)})"


def _state_run(t, store):
    if t[0] == "val":
        return t[1], store
    if t[0] == "read":
        return _state_run(t[2] if store[t[1]] == 0 else t[3], store)
    i = t[1]
    return _state_run(t[3], store[:i] + (t[2],) + store[i + 1:])


def _bits(store) -> str:
    return "".join(str(b) for b in store)


def _state_table(chain, width):
    """Initial store -> (value, final store) for ``c1 ; ... ; ck``."""
    table = {}
    for store in itertools.product((0, 1), repeat=width):
        current = store
        for term in chain:
            value, current = _state_run(term, current)
        table[store] = (value, current)
    return table


def _state_eval_text(table) -> str:
    return "{" + ", ".join(f"{_bits(s)} ↦ ({x}, {_bits(n)})"
                           for s, (x, n) in sorted(table.items())) + "}"


def _state_decomposed(table):
    row = sorted({x for x, _ in table.values()})
    index = {x: i + 1 for i, x in enumerate(row)}
    return row, {s: (index[x], n) for s, (x, n) in table.items()}


def _state_diagram_text(table) -> str:
    row, body = _state_decomposed(table)
    if len(row) == 1 and all(n == s for s, (_, n) in body.items()):
        effect = "η"
    else:
        effect = " , ".join(f"{_bits(s)}↦({i},{_bits(n)})"
                            for s, (i, n) in sorted(body.items()))
    return _diagram(effect, row)


def _diagram(effect: str, row) -> str:
    cells = " ; ".join(f"{i + 1}→{x}" for i, x in enumerate(row))
    return f"[{effect} ‖ {cells}]"


# ---------------------------------------------------------------------------
# fanout: sequenced chains ``op ; op ; ... ; tail`` whose evaluation
# re-runs the rest of the chain once per value of each op.

# Branching ops per monad, and the range of single-valued fillers that
# follow them.  Each filler is re-evaluated on all 2^n paths, so cost
# grows smoothly with the filler count (about 6 ms at 0 fillers to
# ~100 ms at 12 on a 2-vCPU x86 VM); drawing it per stratum gives a
# continuous cost range with no gaps for p50 or p90 to fall into.
FANOUT_BRANCHES = {"dist": 6, "set": 8, "state": 4}
FANOUT_FILLERS = (0, 12)
FANOUT_STRATA = 8
FANOUT_CYCLES = 8


def _binary_tail(rng):
    """A small tree of binary choices over tail values."""
    t = [rng.choice(TAIL_VALUES) for _ in range(3)]
    return rng.choice((t[0], (t[0], t[1]), (t[0], (t[1], t[2])),
                       ((t[0], t[1]), t[2])))


def _tail_src(t, op: str) -> str:
    if isinstance(t, str):
        return t
    return f"{op}({_tail_src(t[0], op)}, {_tail_src(t[1], op)})"


def _tail_dist(t, weight=Fraction(1), acc=None) -> dict:
    acc = {} if acc is None else acc
    if isinstance(t, str):
        acc[t] = acc.get(t, Fraction(0)) + weight
    else:
        _tail_dist(t[0], weight / 2, acc)
        _tail_dist(t[1], weight / 2, acc)
    return acc


def _tail_set(t) -> set:
    return {t} if isinstance(t, str) else _tail_set(t[0]) | _tail_set(t[1])


def _fanout_binary(monad, n, j, command, rng) -> Request:
    op = "choice" if monad == "dist" else "union"
    chain = []
    for _ in range(n):
        x, y = rng.sample(CHAIN_VALUES, 2)
        chain.append(f"{op}({x}, {y})")
    for _ in range(j):
        x = rng.choice(CHAIN_VALUES)
        chain.append(f"{op}({x}, {x})")
    tail = _binary_tail(rng)
    program = " ; ".join(chain + [_tail_src(tail, op)])
    if monad == "dist":
        dist = sorted(_tail_dist(tail).items())
        if command == "eval":
            text = "{" + ", ".join(f"{x}: {p}" for x, p in dist) + "}"
        elif len(dist) == 1:
            text = _diagram("η", [dist[0][0]])
        else:
            text = _diagram(",".join(str(p) for _, p in dist),
                            [x for x, _ in dist])
    else:
        elems = sorted(_tail_set(tail))
        if command == "eval":
            text = "{" + ", ".join(elems) + "}"
        elif len(elems) == 1:
            text = _diagram("η", elems)
        else:
            text = _diagram(
                "{" + ",".join(str(i + 1) for i in range(len(elems))) + "}",
                elems)
    argv = (command, "-m", monad, "-f", "64", program)
    return Request(argv, text + "\n")


def _rand_state_term(rng, values, width, branching: bool):
    """A read/write term with two distinct values, or with one."""
    i, k = rng.randrange(width), rng.randrange(width)
    if branching:
        x, y = rng.sample(values, 2)
    else:
        x = y = rng.choice(values)
    form = rng.randrange(3)
    if form == 0:
        return ("read", i, ("val", x), ("val", y))
    if form == 1:
        return ("read", i, ("write", k, rng.randrange(2), ("val", x)),
                ("val", y))
    if branching:
        return ("read", i, ("val", x), ("write", k, rng.randrange(2),
                                        ("val", y)))
    return ("write", k, rng.randrange(2), ("val", x))


def _fanout_state(n, j, command, rng) -> Request:
    width = len(LOCATIONS4)
    chain = [_rand_state_term(rng, CHAIN_VALUES, width, True)
             for _ in range(n)]
    chain += [_rand_state_term(rng, CHAIN_VALUES, width, False)
              for _ in range(j)]
    chain.append(_rand_state_term(rng, TAIL_VALUES, width,
                                  rng.random() < 0.5))
    program = " ; ".join(_state_src(t, LOCATIONS4) for t in chain)
    table = _state_table(chain, width)
    text = _state_eval_text(table) if command == "eval" \
        else _state_diagram_text(table)
    argv = (command, "-m", "state", "--locations", ",".join(LOCATIONS4),
            "-f", "64", program)
    return Request(argv, text + "\n")


def fanout(seed: int) -> Workload:
    rng = random.Random(f"fanout:{seed}")
    lo, hi = FANOUT_FILLERS
    width = (hi - lo + 1) / FANOUT_STRATA
    requests = []
    for _ in range(FANOUT_CYCLES):
        slots = [(monad, n, lo + int((s + rng.random()) * width),
                  "eval" if s % 2 == 0 else "diagram")
                 for monad, n in FANOUT_BRANCHES.items()
                 for s in range(FANOUT_STRATA)]
        rng.shuffle(slots)
        for monad, n, j, command in slots:
            if monad == "state":
                requests.append(_fanout_state(n, j, command, rng))
            else:
                requests.append(_fanout_binary(monad, n, j, command, rng))
    return Workload(requests, len(FANOUT_BRANCHES) * FANOUT_STRATA, {})


# ---------------------------------------------------------------------------
# recursion: fixpoint and Church-numeral programs with little branching.
# At fuel k >= 3 the Z loops run k // 2 iterations.  The fuel ceiling
# stays well below the depth at which the recursive evaluator, plus the
# tracer's wrapper frames, exceeds the default recursion limit (fuel ~80
# for the Z loops when traced, ~130 untraced).

RECURSION_FUEL = {"omega": (8, 64), "print": (8, 48), "choice": (8, 48),
                  "union": (8, 48), "church": (10, 48)}
RECURSION_STRATA = 6
RECURSION_CYCLES = 8


def _recursion_request(kind: str, fuel: int, rng) -> Request:
    value = rng.choice("uvwy")
    char = rng.choice("abc")
    loops = fuel // 2
    if kind == "omega":
        argv = ("eval", "-m", "maybe", "-f", str(fuel), "OMEGA")
        text = "↑"
    elif kind == "print":
        argv = ("eval", "-m", "output", "--alphabet", "abc", "-f", str(fuel),
                f"Z (\\f. \\x. print[{char}](f x)) {value}")
        text = f'("{char * loops}", ↑)'
    elif kind == "choice":
        argv = ("eval", "-m", "dist", "-f", str(fuel),
                f"Z (\\f. \\x. choice(x, f x)) {value}")
        text = f"{{{value}: {1 - Fraction(1, 2 ** loops)}}}"
    elif kind == "union":
        argv = ("eval", "-m", "set", "-f", str(fuel),
                f"Z (\\f. \\x. union(x, f x)) {value}")
        text = f"{{{value}}}"
    else:
        # three three = 3^3 applications of the printing function
        argv = ("eval", "-m", "output", "--alphabet", "abc", "-f", str(fuel),
                f"three three (\\x. print[{char}](x)) {value}")
        text = f'("{char * 27}", {value})'
    return Request(argv, text + "\n")


def recursion(seed: int) -> Workload:
    rng = random.Random(f"recursion:{seed}")
    requests = []
    for _ in range(RECURSION_CYCLES):
        slots = []
        for kind, (lo, hi) in RECURSION_FUEL.items():
            width = (hi - lo) / RECURSION_STRATA
            for s in range(RECURSION_STRATA):
                slots.append((kind, lo + int((s + rng.random()) * width)))
        rng.shuffle(slots)
        requests += [_recursion_request(k, f, rng) for k, f in slots]
    cycle = len(RECURSION_FUEL) * RECURSION_STRATA
    return Workload(requests, cycle, {})


# ---------------------------------------------------------------------------
# laws: the full law suite at a seeded suite seed and trial count.

LAWS_TRIALS = (8, 32)
LAWS_STRATA = 8
LAWS_CYCLES = 32

COUNTEREXAMPLE = "    counterexample: "


def _laws_text(suite_seed: int) -> str:
    lines = [f"{'law':<15}{'monad':<8}{'result':<8}expected"]
    for law in LAWS:
        for monad in LAW_MONADS:
            verdict = "fail" if (law, monad) in LAW_FAILS else "pass"
            lines.append(f"{law:<15}{monad:<8}{verdict:<8}{verdict}")
            if verdict == "fail":
                lines.append(COUNTEREXAMPLE)
    lines.append(f"expectations met (seed={suite_seed})")
    return "\n".join(lines) + "\n"


def laws(seed: int) -> Workload:
    rng = random.Random(f"laws:{seed}")
    lo, hi = LAWS_TRIALS
    width = (hi - lo) / LAWS_STRATA
    requests = []
    for _ in range(LAWS_CYCLES):
        trials = [lo + int((s + rng.random()) * width)
                  for s in range(LAWS_STRATA)]
        rng.shuffle(trials)
        for t in trials:
            suite_seed = rng.randrange(1, 10 ** 6)
            argv = ("laws", "--seed", str(suite_seed), "--trials", str(t))
            requests.append(Request(argv, _laws_text(suite_seed),
                                    COUNTEREXAMPLE))
    return Workload(requests, LAWS_STRATA, {})


# ---------------------------------------------------------------------------
# compose: machine-JSON presentations written by the benchmark and
# composed by ``effdiag compose``, mixed with ``diagram --format machine``.
# Presentations follow the README's machine format
# ``{"effect":{"arity":n,"body":...},"row":[...]}``.

ROW_VALUES = ("a", "b", "c", "d", 1, 2, 3)
COMPOSE_ARITY = (8, 64)
COMPOSE_STRATA = 4          # per monad and cycle
MACHINE_DIAGRAMS = 2        # per monad and cycle
COMPOSE_CYCLES = 4
COMPOSE_LOCATIONS = ("l0", "l1")
COMPOSE_ALPHABET = ("a", "b")
COMPOSE_DIR = ".bench_run/compose"


def _split(total: int, parts: int, rng) -> list:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _dist_body(arity: int, rng):
    weights = [rng.randint(1, 5) for _ in range(arity)]
    denom = sum(weights) + rng.randint(0, 3)
    probs = [Fraction(w, denom) for w in weights]
    obj = {"kind": "dist",
           "entries": [[i + 1, str(p)] for i, p in enumerate(probs)]}
    return obj, probs


def _state_body(arity: int, rng):
    stores = list(itertools.product((0, 1), repeat=len(COMPOSE_LOCATIONS)))
    cells = {}
    for s in stores:
        cells[s] = None if rng.random() < 0.1 else \
            (rng.randint(1, arity), rng.choice(stores))
    obj = {"kind": "state", "locations": list(COMPOSE_LOCATIONS),
           "table": [[_bits(s), None if c is None else [c[0], _bits(c[1])]]
                     for s, c in cells.items()]}
    return obj, cells


def _output_body(arity: int, rng):
    w = "".join(rng.choice(COMPOSE_ALPHABET)
                for _ in range(rng.randint(1, 3)))
    obj = {"kind": "output", "alphabet": list(COMPOSE_ALPHABET), "out": w}
    if rng.random() < 0.1:
        obj["bottom"] = True
        return obj, (w, None)
    i = rng.randint(1, arity)
    obj["value"] = i
    return obj, (w, i)


BODIES = {"dist": _dist_body, "state": _state_body, "output": _output_body}


def _composite_text(monad, outer, members, offsets, row) -> str:
    """Hand-computed composite effect, in the text rendering.

    Weights are positive and printed strings non-empty, so only ``state``
    can compose to bottom.
    """
    if monad == "dist":
        effect = ",".join(str(p * q) for p, member in zip(outer, members)
                          for q in member)
    elif monad == "state":
        cells = {}
        for s, c in outer.items():
            if c is None:
                cells[s] = None
                continue
            i, s1 = c
            inner = members[i - 1][s1]
            cells[s] = None if inner is None else \
                (offsets[i - 1] + inner[0], inner[1])
        if all(c is None for c in cells.values()):
            effect = "⊥"
        else:
            effect = " , ".join(
                f"{_bits(s)}↦↑" if c is None
                else f"{_bits(s)}↦({c[0]},{_bits(c[1])})"
                for s, c in sorted(cells.items()))
    else:
        w, i = outer
        if i is None:
            out, idx = w, None
        else:
            u, j = members[i - 1]
            out, idx = w + u, None if j is None else offsets[i - 1] + j
        effect = f"({out},{'↑' if idx is None else idx})"
    return _diagram(effect, row)


def _compose_request(monad, total, tag, rng, files) -> Request:
    n = rng.randint(2, 8)
    arities = _split(total, n, rng)
    make = BODIES[monad]
    outer_obj, outer = make(n, rng)
    paths = []

    def write(name, arity, body_obj):
        row = [rng.choice(ROW_VALUES) for _ in range(arity)]
        path = f"{tag}-{name}.json"
        files[path] = _json({"effect": {"arity": arity, "body": body_obj},
                             "row": row})
        paths.append(path)
        return row

    write("outer", n, outer_obj)
    members, offsets, row = [], [], []
    for k, m in enumerate(arities):
        body_obj, body = make(m, rng)
        offsets.append(len(row))
        members.append(body)
        row += write(f"m{k + 1}", m, body_obj)
    text = _composite_text(monad, outer, members, offsets, row)
    return Request(("compose", *paths), text + "\n")


def _machine_diagram(monad, rng) -> Request:
    if monad == "dist":
        xs = [rng.choice(CHAIN_VALUES) for _ in range(3)]
        tail = (xs[0], (xs[1], xs[2]))
        dist = sorted(_tail_dist(tail).items())
        body = {"kind": "dist",
                "entries": [[i + 1, str(p)] for i, (_, p) in enumerate(dist)]}
        row = [x for x, _ in dist]
        argv = ("diagram", "-m", "dist", "--format", "machine",
                _tail_src(tail, "choice"))
    elif monad == "state":
        width = len(COMPOSE_LOCATIONS)
        term = _rand_state_term(rng, CHAIN_VALUES, width, True)
        row, table = _state_decomposed(_state_table([term], width))
        body = {"kind": "state", "locations": list(COMPOSE_LOCATIONS),
                "table": [[_bits(s), [i, _bits(n)]]
                          for s, (i, n) in sorted(table.items())]}
        argv = ("diagram", "-m", "state", "--locations",
                ",".join(COMPOSE_LOCATIONS), "--format", "machine",
                _state_src(term, COMPOSE_LOCATIONS))
    else:
        w = "".join(rng.choice(COMPOSE_ALPHABET)
                    for _ in range(rng.randint(1, 4)))
        x = rng.choice(CHAIN_VALUES)
        program = x
        for c in reversed(w):
            program = f"print[{c}]({program})"
        body = {"kind": "output", "alphabet": list(COMPOSE_ALPHABET),
                "out": w, "value": 1}
        row = [x]
        argv = ("diagram", "-m", "output", "--alphabet",
                "".join(COMPOSE_ALPHABET), "--format", "machine", program)
    text = _json({"effect": {"arity": len(row), "body": body}, "row": row})
    return Request(argv, text + "\n")


def compose(seed: int) -> Workload:
    rng = random.Random(f"compose:{seed}")
    lo, hi = COMPOSE_ARITY
    width = (hi - lo) / COMPOSE_STRATA
    requests, files = [], {}
    for c in range(COMPOSE_CYCLES):
        slots = [(monad, lo + int((s + rng.random()) * width))
                 for monad in BODIES for s in range(COMPOSE_STRATA)]
        slots += [(monad, None) for monad in BODIES
                  for _ in range(MACHINE_DIAGRAMS)]
        rng.shuffle(slots)
        for k, (monad, total) in enumerate(slots):
            if total is None:
                requests.append(_machine_diagram(monad, rng))
            else:
                requests.append(_compose_request(
                    monad, total, f"{COMPOSE_DIR}-{seed}/c{c}r{k}", rng,
                    files))
    cycle = len(BODIES) * (COMPOSE_STRATA + MACHINE_DIAGRAMS)
    return Workload(requests, cycle, files)


WORKLOADS = {"fanout": fanout, "recursion": recursion, "laws": laws,
             "compose": compose}
