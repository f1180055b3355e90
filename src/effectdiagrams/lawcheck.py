"""The law engine: a seeded search for violations of every calculus law.

Every law runs through one search loop, ``_search``: a violation
predicate is tried on a deterministic prefix of cases, then on seeded
random ones, and the search stops at the first violation.  A witness
from the prefix is reported as found; a random one is shrunk when the
law has a shrinker, which only algebraicity does.  Each search yields a
``LawResult``, the one report type, whether it ran as a cell of
``run_law_suite`` or through the public checkers ``check_algebraic`` and
``check_commutative``.

Each (law, monad) cell draws its own generator from the suite seed, so
reports are reproducible and independent of execution order.  Two laws
are expected to fail by design and ship in ``EXPECTED_FAIL``: the
exchange law and right bottom absorption do not hold for every instance
(raising an exception and printing both survive a later divergence, and
the order of two raises, two prints or two store updates is observable).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Optional

from . import gen, serialize
from .algebra import (DerivedOperation, algebraic_violation, basic_effects,
                      bottom_effect, descriptor_op, effect_to_op,
                      exchange_violation, seq_compose, trivial_effect)
from .monads import (DIST, MAYBE, MonadKind, MonadValue, POWERSET, bind,
                     bottom, exception_kind, leq, map_carrier, output_kind,
                     signature, state_kind, support, unit)
from .presentations import (GenericEffect, Presentation, decompose,
                            diagram_eq, extend, interpret)

ALL_LAWS = ("kleisli", "algebraicity", "unit", "associativity",
            "composition", "binding", "congruence", "monotonicity",
            "bottom", "absorption", "commutativity")

EXPECTED_FAIL = {
    "commutativity": frozenset({"exc", "state", "output"}),
    "absorption": frozenset({"exc", "output"}),
}


def default_kinds() -> tuple[MonadKind, ...]:
    return (MAYBE, exception_kind(("err",)), POWERSET, DIST,
            state_kind(("l0", "l1")), output_kind(("a", "b")))


def expected_pass(law: str, kind: MonadKind) -> bool:
    return kind.tag not in EXPECTED_FAIL.get(law, frozenset())


@dataclass(frozen=True)
class LawSuiteConfig:
    seed: int = 1
    trials: int = 50
    carrier_size_max: int = 4
    arity_max: int = 4
    monads: tuple = field(default_factory=default_kinds)
    laws: tuple = ALL_LAWS

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.carrier_size_max < 1 or self.arity_max < 1:
            raise ValueError("bounds must be >= 1")
        if self.carrier_size_max > len(gen.LETTERS):
            raise ValueError(f"carrier_size_max must be <= {len(gen.LETTERS)}")
        unknown = set(self.laws) - set(ALL_LAWS)
        if unknown:
            raise ValueError(f"unknown law identifiers: {sorted(unknown)}")


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


def _search(violation: Callable[..., Optional[dict]], fixed: Iterable[tuple],
            randoms: Iterable[tuple],
            shrink: Optional[Callable[..., Iterable[tuple]]] = None) \
        -> tuple[bool, int, Optional[dict]]:
    """Try cases until one violates; return (passed, trials, witness).

    A case is the argument tuple of ``violation``, which returns a
    witness dict or None when the law holds.  A witness from the
    deterministic ``fixed`` cases is already minimal and is reported as
    found.  A witness from ``randoms`` is shrunk greedily: the first of
    ``shrink(*case)`` that still violates replaces the case, until none
    does.
    """
    trials = 0
    for cases, shrinks in ((fixed, None), (randoms, shrink)):
        for case in cases:
            trials += 1
            witness = violation(*case)
            if witness is None:
                continue
            while shrinks is not None:
                for smaller in shrinks(*case):
                    found = violation(*smaller)
                    if found is not None:
                        case, witness = smaller, found
                        break
                else:
                    break
            return False, trials, witness
    return True, trials, None


def _value_shrinks(mu: MonadValue):
    """Smaller candidates for a monadic value: bottom first, then units."""
    yield bottom(mu.kind)
    for x in support(mu)[:2]:
        yield unit(mu.kind, x)


def _algebraic_case(op: DerivedOperation, rng: random.Random,
                    domain, codomain) -> tuple:
    args = [gen.random_value(op.kind, rng, domain) for _ in range(op.arity)]
    _, table = gen.random_kleisli(op.kind, rng, domain, codomain)
    return op, args, table


def _algebraic_shrinks(op: DerivedOperation, args, table: dict):
    """The case with one argument replaced by a smaller value."""
    for i, arg in enumerate(args):
        for candidate in _value_shrinks(arg):
            if candidate != arg:
                yield op, [*args[:i], candidate, *args[i + 1:]], table


def check_algebraic(op: DerivedOperation, trials: int = 100,
                    seed: int = 0) -> LawResult:
    """Search for a violation of bind distributing over the operation.

    Flat instances are checked exhaustively over small carriers; the
    rest get seeded random trials.  A failure report carries the
    arguments, the function table and both sides.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    domain = gen.LETTERS[:3]
    codomain = ("x", "y", "z")
    rng = random.Random(seed)
    values = gen.enumerate_values(op.kind, domain)
    tables = gen.enumerate_kleisli(op.kind, domain, codomain)
    fixed = ()
    if values is not None and tables is not None and op.arity <= 2:
        fixed = ((op, args, table)
                 for args in itertools.product(values, repeat=op.arity)
                 for table in tables)
    randoms = (_algebraic_case(op, rng, domain, codomain)
               for _ in range(trials))
    passed, ran, witness = _search(algebraic_violation, fixed, randoms,
                                   _algebraic_shrinks)
    return LawResult("algebraicity", op.kind, passed, ran, seed, witness)


def _exchange_case(kind: MonadKind, rng: random.Random) -> tuple:
    left = gen.random_effect(kind, rng, max_arity=3)
    right = gen.random_effect(kind, rng, max_arity=3)
    grid = [[rng.choice(gen.LETTERS[:3]) for _ in range(right.arity)]
            for _ in range(left.arity)]
    return kind, left, right, grid


def _distinct_grid(n: int, m: int) -> list[list[str]]:
    return [[f"x{i}{j}" for j in range(1, m + 1)] for i in range(1, n + 1)]


def _exchange_search(kind: MonadKind, trials: int, rng: random.Random):
    basics = basic_effects(kind)
    fixed = ((kind, left, right, _distinct_grid(left.arity, right.arity))
             for left in basics for right in basics)
    randoms = (_exchange_case(kind, rng) for _ in range(trials))
    return _search(exchange_violation, fixed, randoms)


def check_commutative(kind: MonadKind, trials: int = 50,
                      seed: int = 0) -> LawResult:
    """Search for an exchange-law violation over small effect pairs.

    A deterministic pass over signature-derived, trivial and bottom
    effects runs first, followed by seeded random pairs with arities up
    to 3.  Every instance that breaks the law already does so on the
    deterministic pairs (two signature effects, or one against bottom),
    so a witness is always one of them and is reported unshrunk.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    passed, ran, witness = _exchange_search(kind, trials,
                                            random.Random(seed))
    return LawResult("commutativity", kind, passed, ran, seed, witness)


def _carrier(cfg: LawSuiteConfig):
    return gen.LETTERS[:cfg.carrier_size_max]


def _per_trial(trial: Callable) -> Callable:
    """The suite cell that runs ``trial`` ``cfg.trials`` times.

    ``trial(kind, rng, cfg)`` draws its inputs from ``rng`` and returns
    a witness dict, or None when the law held.
    """
    def cell(kind, rng, cfg):
        return _search(lambda: trial(kind, rng, cfg), (),
                       itertools.repeat((), cfg.trials))
    return cell


@_per_trial
def _law_kleisli(kind, rng, cfg):
    carrier = _carrier(cfg)
    x = rng.choice(carrier)
    mu = gen.random_value(kind, rng, carrier)
    f, ftab = gen.random_kleisli(kind, rng, carrier, carrier)
    g, gtab = gen.random_kleisli(kind, rng, carrier, carrier)
    if bind(unit(kind, x), f) != f(x):
        return {"side": "left-unit", "x": x, "kleisli": ftab}
    if bind(mu, lambda y: unit(kind, y)) != mu:
        return {"side": "right-unit", "mu": mu}
    lhs = bind(bind(mu, f), g)
    rhs = bind(mu, lambda y: bind(f(y), g))
    if lhs != rhs:
        return {"side": "associativity", "mu": mu, "f": ftab, "g": gtab,
                "lhs": lhs, "rhs": rhs}
    return None


def _law_algebraicity(kind, rng, cfg):
    carrier = _carrier(cfg)
    ops = [descriptor_op(d) for d in signature(kind)]
    ops += [effect_to_op(gen.random_effect(kind, rng, max_arity=3))
            for _ in range(3)]
    randoms = (_algebraic_case(ops[t % len(ops)], rng, carrier, carrier)
               for t in range(cfg.trials))
    return _search(algebraic_violation, (), randoms, _algebraic_shrinks)


@_per_trial
def _law_unit(kind, rng, cfg):
    xi = gen.random_presentation(kind, rng, _carrier(cfg),
                                 max_arity=cfg.arity_max)
    wrapped = seq_compose(Presentation(trivial_effect(kind), (0,)), [xi])
    if not diagram_eq(wrapped, xi):
        return {"side": "left", "xi_effect": xi.effect,
                "xi_row": list(xi.row)}
    trivial_family = [Presentation(trivial_effect(kind), (x,))
                      for x in xi.row]
    if not diagram_eq(seq_compose(xi, trivial_family), xi):
        return {"side": "right", "xi_effect": xi.effect,
                "xi_row": list(xi.row)}
    return None


@_per_trial
def _law_associativity(kind, rng, cfg):
    carrier = _carrier(cfg)
    xi = gen.random_presentation(kind, rng, carrier, max_arity=3)
    family = [gen.random_presentation(kind, rng, carrier, max_arity=2)
              for _ in range(xi.effect.arity)]
    subfamilies = [[gen.random_presentation(kind, rng, carrier, max_arity=2)
                    for _ in range(member.effect.arity)]
                   for member in family]
    flat = [p for sub in subfamilies for p in sub]
    lhs = seq_compose(seq_compose(xi, family), flat)
    rhs = seq_compose(xi, [seq_compose(member, sub)
                           for member, sub in zip(family, subfamilies)])
    if not diagram_eq(lhs, rhs):
        return {"outer": xi.effect, "lhs": interpret(lhs),
                "rhs": interpret(rhs)}
    return None


@_per_trial
def _law_composition(kind, rng, cfg):
    carrier = _carrier(cfg)
    xi = gen.random_presentation(kind, rng, carrier, max_arity=cfg.arity_max)
    family = [gen.random_presentation(kind, rng, carrier, max_arity=2)
              for _ in range(xi.effect.arity)]
    composite = seq_compose(xi, family)
    # independent oracle: bind the outer indices straight into the
    # interpreted family members
    oracle = bind(xi.effect.body, lambda i: interpret(family[i - 1]))
    if interpret(composite) != oracle:
        return {"outer": xi.effect, "composite": interpret(composite),
                "oracle": oracle}
    return None


@_per_trial
def _law_binding(kind, rng, cfg):
    carrier = _carrier(cfg)
    mu = gen.random_value(kind, rng, carrier)
    f, table = gen.random_kleisli(kind, rng, carrier, carrier)
    lhs = decompose(bind(mu, f))
    xi = decompose(mu)
    rhs = seq_compose(xi, [decompose(f(x)) for x in xi.row])
    if not diagram_eq(lhs, rhs):
        return {"mu": mu, "kleisli": table, "lhs": interpret(lhs),
                "rhs": interpret(rhs)}
    return None


def _equal_pair(kind, rng, cfg):
    """A random presentation and a differently-shaped equal one."""
    carrier = _carrier(cfg)
    base = decompose(gen.random_value(kind, rng, carrier))
    n = base.effect.arity
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    permuted = extend(base, perm, n, ())
    m = n + rng.randint(0, 2)
    iota = sorted(rng.sample(range(1, m + 1), n))
    fill = [rng.choice(carrier) for _ in range(m - n)]
    return base, extend(permuted, iota, m, fill)


@_per_trial
def _law_congruence(kind, rng, cfg):
    carrier = _carrier(cfg)
    xi, rho = _equal_pair(kind, rng, cfg)
    if not diagram_eq(xi, rho):
        return {"side": "generator", "xi": interpret(xi),
                "rho": interpret(rho)}
    f, table = gen.random_kleisli(kind, rng, carrier, carrier)
    lhs = bind(xi.effect.body, lambda i: f(xi.row[i - 1]))
    rhs = bind(rho.effect.body, lambda i: f(rho.row[i - 1]))
    if lhs != rhs:
        return {"xi": interpret(xi), "kleisli": table, "lhs": lhs,
                "rhs": rhs}
    return None


@_per_trial
def _law_monotonicity(kind, rng, cfg):
    carrier = _carrier(cfg)
    nu = gen.random_value(kind, rng, carrier)
    mu = gen.weaken(nu, rng)
    f, ftab = gen.random_kleisli(kind, rng, carrier, carrier)
    # mu <= nu entails (mu >>= f) <= (nu >>= f)
    if not leq(bind(mu, f), bind(nu, f)):
        return {"rule": "left", "mu": mu, "nu": nu, "kleisli": ftab}
    g, gtab = gen.random_kleisli(kind, rng, carrier, carrier)
    weak = {x: gen.weaken(g(x), rng) for x in carrier}
    # f <= g pointwise entails (mu >>= f) <= (mu >>= g)
    if not leq(bind(nu, lambda x: weak[x]), bind(nu, g)):
        return {"rule": "right", "nu": nu, "g": gtab}
    # slotwise: every family member below its mate
    eff = gen.random_effect(kind, rng, max_arity=3)
    high = [gen.random_value(kind, rng, carrier) for _ in range(eff.arity)]
    low = [gen.weaken(h, rng) for h in high]
    if not leq(bind(eff.body, lambda i: low[i - 1]),
               bind(eff.body, lambda i: high[i - 1])):
        return {"rule": "slotwise", "effect": eff, "low": low, "high": high}
    return None


@_per_trial
def _law_bottom(kind, rng, cfg):
    carrier = _carrier(cfg)
    bot = bottom(kind)
    mu = gen.random_value(kind, rng, carrier)
    if not leq(bot, mu):
        return {"rule": "least", "mu": mu}
    n = rng.randint(0, cfg.arity_max)
    row = tuple([rng.choice(carrier) for _ in range(n)])
    if interpret(Presentation(bottom_effect(kind, n), row)) != bot:
        return {"rule": "collapse", "arity": n, "row": list(row)}
    family = [gen.random_presentation(kind, rng, carrier, max_arity=2)
              for _ in range(n)]
    absorbed = seq_compose(Presentation(bottom_effect(kind, n), row), family)
    if interpret(absorbed) != bot:
        return {"rule": "left-absorption", "arity": n}
    if map_carrier(bot, lambda x: x) != bot:
        return {"rule": "strict-map"}
    return None


def _absorption_violation(kind: MonadKind,
                          eff: GenericEffect) -> Optional[dict]:
    """Right bottom absorption: an effect over all-bottom is bottom."""
    bot = bottom(kind)
    got = bind(eff.body, lambda i: bot)
    return None if got == bot else {"effect": eff, "got": got}


def _law_absorption(kind, rng, cfg):
    fixed = ((kind, eff) for eff in basic_effects(kind))
    randoms = ((kind, gen.random_effect(kind, rng, max_arity=cfg.arity_max))
               for _ in range(cfg.trials))
    return _search(_absorption_violation, fixed, randoms)


def _law_commutativity(kind, rng, cfg):
    return _exchange_search(kind, cfg.trials,
                            random.Random(rng.randrange(2 ** 30)))


_LAW_FUNCTIONS: dict[str, Callable] = {
    "kleisli": _law_kleisli,
    "algebraicity": _law_algebraicity,
    "unit": _law_unit,
    "associativity": _law_associativity,
    "composition": _law_composition,
    "binding": _law_binding,
    "congruence": _law_congruence,
    "monotonicity": _law_monotonicity,
    "bottom": _law_bottom,
    "absorption": _law_absorption,
    "commutativity": _law_commutativity,
}


def run_law_suite(cfg: LawSuiteConfig) -> SuiteReport:
    """Run every configured law against every configured instance."""
    results = []
    for law in cfg.laws:
        fn = _LAW_FUNCTIONS[law]
        for kind in cfg.monads:
            rng = random.Random(f"{cfg.seed}:{law}:{kind.tag}")
            passed, trials, witness = fn(kind, rng, cfg)
            results.append(LawResult(law, kind, passed, trials, cfg.seed,
                                     witness))
    return SuiteReport(cfg.seed, results)


def replay(law: str, kind: MonadKind, counterexample: Mapping) -> bool:
    """Re-run a stored counterexample; True means it still violates."""
    if law == "commutativity":
        return exchange_violation(
            kind, counterexample["left_effect"],
            counterexample["right_effect"],
            counterexample["grid"]) is not None
    if law == "absorption":
        return _absorption_violation(
            kind, counterexample["effect"]) is not None
    raise ValueError(f"no replay support for law {law!r}")
