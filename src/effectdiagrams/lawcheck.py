"""The law engine: a seeded search for violations of every calculus law.

Each law is one entry of ``_LAWS``, the only list of laws (``ALL_LAWS``
is its keys): a predicate that returns a witness dict for a violating
case or None, its deterministic first cases, and an endless generator of
seeded random cases over a carrier and an arity bound.  Every predicate
lives here.  Kleisli maps in a case are tables, so small scopes
enumerate; a drawn table draws each entry when it is first read, and a
witness copies the entries that were read.  ``_run`` feeds an entry to
``_search``, the one loop, which stops at the first violating case and
reports it as found in a ``LawResult``, the one report type.
``run_law_suite``, ``check_commutative``, ``check_algebraic`` (which
adds an exhaustive small-scope prefix) and ``replay`` share the
predicates, and every search is a ``_search``.

The default instances are every entry of ``monads.INSTANCES`` at its
command-line default.  Each (law, monad) cell seeds its own
``gen.Draws`` from the suite seed, so reports are reproducible and
independent of execution order.  ``run_law_suite`` therefore runs half
of the cells in a forked child once its first cells' time shows that
the fork pays (see ``_run_cells``), and reports what one process would.
Two laws fail by design and ship in ``EXPECTED_FAIL``: a raise or a
print survives a later divergence (absorption), and the order of two
raises, prints or store updates is observable (commutativity).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import threading
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from . import gen, presentations, serialize
from .algebra import (DerivedOperation, basic_effects, bottom_effect,
                      descriptor_op, effect_to_op, seq_compose,
                      trivial_effect)
from .monads import (INSTANCES, MonadKind, MonadValue, bind, bottom, leq,
                     map_carrier, signature, support, unit)
from .presentations import (GenericEffect, MAX_ARITY, Presentation,
                            decompose, diagram_eq, extend, interpret)

EXPECTED_FAIL = {
    "commutativity": frozenset({"exc", "state", "output"}),
    "absorption": frozenset({"exc", "output"}),
}


def default_kinds() -> tuple[MonadKind, ...]:
    """Every registered instance, at its command-line default."""
    return tuple(inst.kind_from_text({inst.param: inst.default})
                 for inst in INSTANCES.values())


def expected_pass(law: str, kind: MonadKind) -> bool:
    return kind.tag not in EXPECTED_FAIL.get(law, frozenset())


@dataclass(frozen=True)
class LawResult:
    """Outcome of searching one law on one instance."""

    law: str
    monad: MonadKind
    passed: bool
    trials: int
    seed: int
    counterexample: Optional[Mapping] = None

    def __post_init__(self):
        if self.counterexample is not None:
            object.__setattr__(self, "counterexample",
                               MappingProxyType(dict(self.counterexample)))

    def __reduce__(self):
        witness = self.counterexample
        return LawResult, (self.law, self.monad, self.passed, self.trials,
                           self.seed, None if witness is None
                           else dict(witness))

    @property
    def expected_pass(self) -> bool:
        return expected_pass(self.law, self.monad)

    @property
    def as_expected(self) -> bool:
        return self.passed == self.expected_pass

    def to_obj(self) -> dict:
        obj = {"law": self.law, "monad": self.monad.tag,
               "pass": self.passed, "trials": self.trials,
               "seed": self.seed, "expected_pass": self.expected_pass}
        if self.counterexample is not None:
            obj["counterexample"] = _describe(self.counterexample)
        return obj


def _describe(v) -> Any:
    if isinstance(v, MonadValue):
        return serialize.to_obj(v)
    if isinstance(v, GenericEffect):
        return {"arity": v.arity, "body": serialize.to_obj(v.body)}
    if isinstance(v, Presentation):
        return presentations.to_obj(v)
    if isinstance(v, Mapping):
        return {str(k): _describe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_describe(x) for x in v]
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return str(v)


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    results: tuple

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(self.results))

    @property
    def ok(self) -> bool:
        return all(r.as_expected for r in self.results)

    def to_obj(self) -> dict:
        return {"seed": self.seed, "ok": self.ok,
                "results": [r.to_obj() for r in self.results]}


def _search(law: str, kind: MonadKind, seed: int,
            violation: Callable[..., Optional[dict]],
            cases: Iterable) -> LawResult:
    """Try ``cases`` in order until one violates ``law`` on ``kind``.

    A case is the argument tuple of ``violation``, which returns a
    witness dict or None when the law holds.  The report counts the
    cases tried and carries the first witness as found.
    """
    trials = 0
    for trials, case in enumerate(cases, 1):
        witness = violation(*case)
        if witness is not None:
            return LawResult(law, kind, False, trials, seed, witness)
    return LawResult(law, kind, True, trials, seed)


def algebraic_violation(op: DerivedOperation, args: Sequence[MonadValue],
                        table: dict) -> Optional[dict]:
    """Check one instance of the bind-distribution law; None means it holds."""
    f = lambda x: table[x]
    lhs = bind(op.apply(*args), f)
    rhs = op.apply(*[bind(a, f) for a in args])
    if lhs == rhs:
        return None
    return {"args": list(args), "kleisli": dict(table),
            "lhs": lhs, "rhs": rhs}


def _algebraic_cases(ops: list, rng: random.Random, domain, codomain):
    """Random arguments and a Kleisli table for each of ``ops`` in turn."""
    for op in itertools.cycle(ops):
        args = [gen.random_value(op.kind, rng, domain)
                for _ in range(op.arity)]
        _, table = gen.random_kleisli(op.kind, rng, domain, codomain)
        yield op, args, table


def _kleisli_cases(kind, rng, carrier, arity_max):
    while True:
        x = rng.choice(carrier)
        mu = gen.random_value(kind, rng, carrier)
        _, f = gen.random_kleisli(kind, rng, carrier, carrier)
        _, g = gen.random_kleisli(kind, rng, carrier, carrier)
        yield x, mu, f, g


def _kleisli_violation(x, mu, f, g):
    if bind(unit(mu.kind, x), f.__getitem__) != f[x]:
        return {"side": "left-unit", "x": x, "kleisli": dict(f)}
    if bind(mu, lambda y: unit(mu.kind, y)) != mu:
        return {"side": "right-unit", "mu": mu}
    lhs = bind(bind(mu, f.__getitem__), g.__getitem__)
    rhs = bind(mu, lambda y: bind(f[y], g.__getitem__))
    if lhs != rhs:
        return {"side": "associativity", "mu": mu, "f": dict(f),
                "g": dict(g), "lhs": lhs, "rhs": rhs}
    return None


def _algebraicity_cases(kind, rng, carrier, arity_max):
    ops = [descriptor_op(d) for d in signature(kind)]
    ops += [effect_to_op(gen.random_effect(kind, rng, max_arity=3))
            for _ in range(3)]
    return _algebraic_cases(ops, rng, carrier, carrier)


def _unit_cases(kind, rng, carrier, arity_max):
    while True:
        yield (gen.random_presentation(kind, rng, carrier,
                                       max_arity=arity_max),)


def _unit_violation(xi):
    trivial = trivial_effect(xi.kind)
    left = seq_compose(Presentation(trivial, (0,)), [xi])
    right = seq_compose(xi, [Presentation(trivial, (x,)) for x in xi.row])
    for side, composite in (("left", left), ("right", right)):
        if not diagram_eq(composite, xi):
            return {"side": side, "xi_effect": xi.effect,
                    "xi_row": list(xi.row)}
    return None


def _associativity_cases(kind, rng, carrier, arity_max):
    while True:
        xi = gen.random_presentation(kind, rng, carrier, max_arity=3)
        family = [gen.random_presentation(kind, rng, carrier, max_arity=2)
                  for _ in range(xi.effect.arity)]
        yield xi, family, [
            [gen.random_presentation(kind, rng, carrier, max_arity=2)
             for _ in range(member.effect.arity)] for member in family]


def _associativity_violation(xi, family, subfamilies):
    flat = [p for sub in subfamilies for p in sub]
    lhs = seq_compose(seq_compose(xi, family), flat)
    rhs = seq_compose(xi, [seq_compose(member, sub)
                           for member, sub in zip(family, subfamilies)])
    if not diagram_eq(lhs, rhs):
        return {"outer": xi.effect, "xi": xi, "family": family,
                "subfamilies": subfamilies, "lhs": interpret(lhs),
                "rhs": interpret(rhs)}
    return None


def _composition_cases(kind, rng, carrier, arity_max):
    while True:
        xi = gen.random_presentation(kind, rng, carrier,
                                     max_arity=arity_max)
        yield xi, [gen.random_presentation(kind, rng, carrier, max_arity=2)
                   for _ in range(xi.effect.arity)]


def _composition_violation(xi, family):
    composite = seq_compose(xi, family)
    # independent oracle: bind the outer indices straight into the
    # interpreted family members
    oracle = bind(xi.effect.body, lambda i: interpret(family[i - 1]))
    if interpret(composite) != oracle:
        return {"outer": xi.effect, "composite": interpret(composite),
                "oracle": oracle}
    return None


def _binding_cases(kind, rng, carrier, arity_max):
    while True:
        mu = gen.random_value(kind, rng, carrier)
        yield mu, gen.random_kleisli(kind, rng, carrier, carrier)[1]


def _binding_violation(mu, f):
    lhs = decompose(bind(mu, f.__getitem__))
    xi = decompose(mu)
    rhs = seq_compose(xi, [decompose(f[x]) for x in xi.row])
    if not diagram_eq(lhs, rhs):
        return {"mu": mu, "kleisli": dict(f), "lhs": interpret(lhs),
                "rhs": interpret(rhs)}
    return None


def _congruence_cases(kind, rng, carrier, arity_max):
    """A random presentation, a differently-shaped equal one, a table."""
    while True:
        base = decompose(gen.random_value(kind, rng, carrier))
        n = base.effect.arity
        m = n + rng.randint(0, 2)
        # a uniform injection, as a uniform permutation followed by a
        # uniform increasing embedding would give
        iota = rng.sample(range(1, m + 1), n)
        fill = rng.choices(carrier, k=m - n)
        _, f = gen.random_kleisli(kind, rng, carrier, carrier)
        yield base, extend(base, iota, m, fill), f


def _congruence_violation(xi, rho, f):
    if not diagram_eq(xi, rho):
        return {"side": "generator", "xi": interpret(xi),
                "rho": interpret(rho)}
    lhs = bind(xi.effect.body, lambda i: f[xi.row[i - 1]])
    rhs = bind(rho.effect.body, lambda i: f[rho.row[i - 1]])
    if lhs != rhs:
        return {"xi": interpret(xi), "kleisli": dict(f), "lhs": lhs,
                "rhs": rhs}
    return None


def _monotonicity_cases(kind, rng, carrier, arity_max):
    while True:
        nu = gen.random_value(kind, rng, carrier)
        mu = gen.weaken(nu, rng)
        _, f = gen.random_kleisli(kind, rng, carrier, carrier)
        _, g = gen.random_kleisli(kind, rng, carrier, carrier)
        weak = {x: gen.weaken(g[x], rng) for x in support(nu)}
        eff = gen.random_effect(kind, rng, max_arity=3)
        _, high = gen.random_kleisli(kind, rng, range(1, eff.arity + 1),
                                     carrier)
        low = {i: gen.weaken(high[i], rng) for i in support(eff.body)}
        yield mu, nu, f, g, weak, eff, low, high


def _monotonicity_violation(mu, nu, f, g, weak, eff, low, high):
    # mu <= nu entails (mu >>= f) <= (nu >>= f)
    if not leq(bind(mu, f.__getitem__), bind(nu, f.__getitem__)):
        return {"rule": "left", "mu": mu, "nu": nu, "kleisli": dict(f)}
    # f <= g pointwise entails (mu >>= f) <= (mu >>= g)
    if not leq(bind(nu, weak.__getitem__), bind(nu, g.__getitem__)):
        return {"rule": "right", "nu": nu, "g": dict(g), "weak": weak}
    # slotwise: every family member below its mate
    if not leq(bind(eff.body, low.__getitem__),
               bind(eff.body, high.__getitem__)):
        return {"rule": "slotwise", "effect": eff, "low": low,
                "high": dict(high)}
    return None


def _bottom_cases(kind, rng, carrier, arity_max):
    while True:
        mu = gen.random_value(kind, rng, carrier)
        n = rng.randint(0, arity_max)
        row = tuple(rng.choices(carrier, k=n))
        yield mu, row, [gen.random_presentation(kind, rng, carrier,
                                                max_arity=2)
                        for _ in range(n)]


def _bottom_violation(mu, row, family):
    bot = bottom(mu.kind)
    if not leq(bot, mu):
        return {"rule": "least", "mu": mu}
    collapsed = Presentation(bottom_effect(mu.kind, len(row)), row)
    if interpret(collapsed) != bot:
        return {"rule": "collapse", "arity": len(row), "row": list(row)}
    if interpret(seq_compose(collapsed, family)) != bot:
        return {"rule": "left-absorption", "arity": len(row),
                "row": list(row), "family": family}
    if map_carrier(bot, lambda x: x) != bot:
        return {"rule": "strict-map"}
    return None


def _absorption_cases(kind, rng, carrier, arity_max):
    while True:
        yield kind, gen.random_effect(kind, rng, max_arity=arity_max)


def _absorption_violation(kind: MonadKind, eff: GenericEffect):
    """Right bottom absorption: an effect over all-bottom is bottom."""
    bot = bottom(kind)
    got = bind(eff.body, lambda i: bot)
    return None if got == bot else {"effect": eff, "got": got}


def exchange_violation(kind: MonadKind, left: GenericEffect,
                       right: GenericEffect, grid: Sequence[Sequence]) \
        -> Optional[dict]:
    """Check one instance of the exchange law; None means it holds.

    ``grid[i-1][j-1]`` is the carrier element for outer index ``i`` and
    inner index ``j``.
    """
    def cell(i, j):
        return unit(kind, grid[i - 1][j - 1])

    lhs = bind(left.body, lambda i: bind(right.body, lambda j: cell(i, j)))
    rhs = bind(right.body, lambda j: bind(left.body, lambda i: cell(i, j)))
    if lhs == rhs:
        return None
    return {"left_effect": left, "right_effect": right,
            "grid": [list(r) for r in grid], "lhs": lhs, "rhs": rhs}


def _exchange_fixed(kind):
    """Every pair of basic effects, over a grid of distinct elements."""
    basics = basic_effects(kind)
    return ((kind, left, right,
             [[f"x{i}{j}" for j in range(1, right.arity + 1)]
              for i in range(1, left.arity + 1)])
            for left in basics for right in basics)


def _exchange_cases(kind, rng, carrier, arity_max):
    while True:
        left = gen.random_effect(kind, rng, max_arity=3)
        right = gen.random_effect(kind, rng, max_arity=3)
        yield kind, left, right, [
            rng.choices(gen.LETTERS[:3], k=right.arity)
            for _ in range(left.arity)]


# law -> (violation, fixed, cases); ``fixed(kind)`` gives the
# deterministic first cases and ``cases(kind, rng, carrier, arity_max)``
# draws the rest
_LAWS: dict[str, tuple] = {
    "kleisli": (_kleisli_violation, None, _kleisli_cases),
    "algebraicity": (algebraic_violation, None, _algebraicity_cases),
    "unit": (_unit_violation, None, _unit_cases),
    "associativity": (_associativity_violation, None, _associativity_cases),
    "composition": (_composition_violation, None, _composition_cases),
    "binding": (_binding_violation, None, _binding_cases),
    "congruence": (_congruence_violation, None, _congruence_cases),
    "monotonicity": (_monotonicity_violation, None, _monotonicity_cases),
    "bottom": (_bottom_violation, None, _bottom_cases),
    "absorption": (_absorption_violation,
                   lambda kind: ((kind, eff) for eff in basic_effects(kind)),
                   _absorption_cases),
    "commutativity": (exchange_violation, _exchange_fixed, _exchange_cases),
}


ALL_LAWS = tuple(_LAWS)


@dataclass(frozen=True)
class LawSuiteConfig:
    seed: int = 1
    trials: int = 50
    carrier_size_max: int = 4
    arity_max: int = 4
    monads: tuple = field(default_factory=default_kinds)
    laws: tuple = ALL_LAWS

    def __post_init__(self):
        for name in ("monads", "laws"):
            if isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a sequence, not a str")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for kind in self.monads:
            if not isinstance(kind, MonadKind):
                raise TypeError(f"expected a MonadKind, got {kind!r}")
        for name in ("seed", "trials", "carrier_size_max", "arity_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.carrier_size_max < 1 or self.arity_max < 1:
            raise ValueError("bounds must be >= 1")
        if self.carrier_size_max > len(gen.LETTERS):
            raise ValueError(f"carrier_size_max must be <= {len(gen.LETTERS)}")
        # composition and bottom plug up to two slots into each of
        # arity_max slots
        if self.arity_max > MAX_ARITY // 2:
            raise ValueError(f"arity_max must be <= {MAX_ARITY // 2}")
        unknown = set(self.laws) - set(_LAWS)
        if unknown:
            raise ValueError(f"unknown law identifiers: {sorted(unknown)}")


def _run(law: str, kind: MonadKind, rng: random.Random,
         cfg: LawSuiteConfig) -> LawResult:
    """Search one law on one instance: fixed cases, then drawn ones."""
    violation, fixed, cases = _LAWS[law]
    drawn = cases(kind, rng, gen.LETTERS[:cfg.carrier_size_max],
                  cfg.arity_max)
    return _search(law, kind, cfg.seed, violation, itertools.chain(
        fixed(kind) if fixed else (), itertools.islice(drawn, cfg.trials)))


def _run_cell(cell: tuple, cfg: LawSuiteConfig) -> LawResult:
    law, kind = cell
    return _run(law, kind, gen.Draws(f"{cfg.seed}:{law}:{kind.tag}"), cfg)


# The wall time of a fork, a reap and an unpickle of the child's
# outcomes: ~1.6 ms on a 2-vCPU machine.
_FORK_S = 0.0016


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cells(cells: list, cfg: LawSuiteConfig) -> list:
    """Every cell's ``LawResult``, in the order of ``cells``.

    This process runs the white squares of a checkerboard over the
    law-major (law, instance) grid.  After each, it forks a child for the
    black squares, at most once, if the mean white cell time so far times
    the cells both would run at once (the white ones left, at most the
    black ones) exceeds ``_FORK_S``, and ``os.fork``, a second usable CPU
    and no other thread allow it; so two cells never fork.  The child
    pickles its ``LawResult``s into a pipe and leaves through ``os._exit``,
    flushing no inherited stream.  Any cell left without an outcome runs
    here, so an error surfaces as it would without the child.
    """
    width = len(cfg.monads)
    black = [(i // width + i % width) % 2 == 1 for i in range(len(cells))]
    white = [i for i, b in enumerate(black) if not b]
    theirs = [i for i, b in enumerate(black) if b]
    got = {}
    may_fork = (hasattr(os, "fork") and _usable_cpus() >= 2
                and threading.active_count() == 1)
    pid = pipe = None
    t0 = time.perf_counter()
    try:
        for done, i in enumerate(white, 1):
            got[i] = _run_cell(cells[i], cfg)
            left = min(len(white) - done, len(theirs))
            if may_fork and (time.perf_counter() - t0) / done * left > _FORK_S:
                may_fork = False
                import pickle   # here only: importing it costs ~2 ms
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:     # no process to spare
                    os.close(read_fd)
                    os.close(write_fd)
                    continue
                if pid == 0:    # the child: never return into the caller
                    try:
                        os.close(read_fd)
                        outcomes = [_run_cell(cells[j], cfg) for j in theirs]
                        blob = pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL)
                        with open(write_fd, "wb") as child_end:
                            child_end.write(blob)
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
                os.close(write_fd)
                pipe = open(read_fd, "rb")
        blob = pipe.read() if pipe else b""
    except BaseException:
        if pid:
            import signal
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pipe:
            pipe.close()
        if pid:
            _, status = os.waitpid(pid, 0)
    if pid and os.waitstatus_to_exitcode(status) == 0:
        with contextlib.suppress(EOFError, pickle.UnpicklingError):
            got.update(zip(theirs, pickle.loads(blob)))
    return [got[i] if i in got else _run_cell(cell, cfg)
            for i, cell in enumerate(cells)]


def run_law_suite(cfg: LawSuiteConfig) -> SuiteReport:
    """Run every configured law against every configured instance."""
    cells = [(law, kind) for law in cfg.laws for kind in cfg.monads]
    return SuiteReport(cfg.seed, _run_cells(cells, cfg))


def check_algebraic(op: DerivedOperation, trials: int = 100,
                    seed: int = 0) -> LawResult:
    """Search for a violation of bind distributing over the operation.

    An operation of arity at most two is first checked on every case over
    3-element carriers with at most 256 Kleisli tables: ``maybe`` and
    ``exc`` with one or two labels, not ``set`` (512) or ``exc`` with
    three or more (343 and up).  Then come ``trials`` seeded random
    cases.  A failure report carries the first violating case: its
    arguments, the entries of the function table that the check read,
    and both sides.
    """
    if not isinstance(op, DerivedOperation):
        raise TypeError(f"expected a DerivedOperation, got {op!r}")
    LawSuiteConfig(seed, trials, monads=(op.kind,))  # checks seed, trials
    domain = gen.LETTERS[:3]
    codomain = ("x", "y", "z")
    values = gen.enumerate_values(op.kind, domain)
    tables = gen.enumerate_kleisli(op.kind, domain, codomain)
    fixed = ()
    if values is not None and tables is not None and op.arity <= 2:
        fixed = ((op, args, table)
                 for args in itertools.product(values, repeat=op.arity)
                 for table in tables)
    randoms = _algebraic_cases([op], gen.Draws(seed), domain, codomain)
    return _search("algebraicity", op.kind, seed, algebraic_violation,
                   itertools.chain(fixed, itertools.islice(randoms, trials)))


def check_commutative(kind: MonadKind, trials: int = 50,
                      seed: int = 0) -> LawResult:
    """Search for an exchange-law violation over small effect pairs.

    A deterministic pass over signature-derived, trivial and bottom
    effects runs first, followed by seeded random pairs with arities up
    to 3.  Every instance that breaks the law already does so on the
    deterministic pairs (two signature effects, or one against bottom),
    so a witness is always one of them.
    """
    return _run("commutativity", kind, gen.Draws(seed),
                LawSuiteConfig(seed, trials, monads=(kind,)))


def replay(law: str, kind: MonadKind, counterexample: Mapping) -> bool:
    """Re-run a stored counterexample; True means it still violates.

    The witnesses of commutativity and absorption hold their whole case,
    which is checked before the predicate runs: a ``kind`` that is not a
    ``MonadKind``, a missing key, an effect that is not a
    ``GenericEffect`` of ``kind`` or a grid that does not fit the effects
    raises ``TypeError`` or ``ValueError``.
    """
    keys = {"commutativity": ("left_effect", "right_effect", "grid"),
            "absorption": ("effect",)}.get(law)
    if keys is None:
        raise ValueError(f"no replay support for law {law!r}")
    if not isinstance(kind, MonadKind):
        raise TypeError(f"expected a MonadKind, got {kind!r}")
    if not isinstance(counterexample, Mapping):
        raise TypeError(f"expected a mapping, got {counterexample!r}")
    missing = [k for k in keys if k not in counterexample]
    if missing:
        raise ValueError(f"counterexample lacks {', '.join(missing)}")
    case = [counterexample[k] for k in keys]
    for key, eff in zip(keys, case):
        if key == "grid":
            continue
        if not isinstance(eff, GenericEffect):
            raise TypeError(f"{key} must be a GenericEffect, got {eff!r}")
        if eff.kind != kind:
            raise ValueError(f"{key} is a {eff.kind.tag} effect, "
                             f"not a {kind.tag} one")
    if law == "commutativity":
        left, right, grid = case
        if len(grid) != left.arity or \
                any(len(row) != right.arity for row in grid):
            raise ValueError("grid must have a row per left index and an "
                             "entry per right index")
    violation = _LAWS[law][0]
    return violation(kind, *case) is not None
