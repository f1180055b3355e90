"""A seeded, configurable engine running every calculus law as a property.

Each (law, monad) cell draws its own generator from the suite seed, so
reports are reproducible and independent of execution order.  Two laws
are expected to fail by design and ship in ``EXPECTED_FAIL``: the
exchange law and right bottom absorption do not hold for every instance
(raising an exception and printing both survive a later divergence, and
the order of two raises or two prints is observable).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import gen
from .algebra import (_describe, algebraic_violation, basic_effects,
                      bottom_effect, check_commutative, descriptor_op,
                      effect_to_op, exchange_violation, seq_compose,
                      trivial_effect)
from .monads import (DIST, MAYBE, MonadKind, POWERSET, bind, bottom,
                     exception_kind, leq, map_carrier, output_kind, signature,
                     state_kind, support, unit)
from .presentations import (Presentation, decompose, diagram_eq, extend,
                            interpret)

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


@dataclass
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
        unknown = set(self.laws) - set(ALL_LAWS)
        if unknown:
            raise ValueError(f"unknown law identifiers: {sorted(unknown)}")


@dataclass(frozen=True)
class LawResult:
    law: str
    monad: MonadKind
    passed: bool
    trials: int
    seed: int
    expected_pass: bool
    counterexample: Optional[dict] = None

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


@dataclass
class SuiteReport:
    seed: int
    results: list

    @property
    def ok(self) -> bool:
        return all(r.as_expected for r in self.results)

    def to_obj(self) -> dict:
        return {"seed": self.seed, "ok": self.ok,
                "results": [r.to_obj() for r in self.results]}


def _carrier(cfg: LawSuiteConfig):
    return gen.LETTERS[:cfg.carrier_size_max]


def _law_kleisli(kind, rng, cfg):
    carrier = _carrier(cfg)
    for t in range(cfg.trials):
        x = rng.choice(carrier)
        mu = gen.random_value(kind, rng, carrier)
        f, ftab = gen.random_kleisli(kind, rng, carrier, carrier)
        g, gtab = gen.random_kleisli(kind, rng, carrier, carrier)
        if bind(unit(kind, x), f) != f(x):
            return False, t + 1, {"side": "left-unit", "x": x,
                                  "kleisli": ftab}
        if bind(mu, lambda y: unit(kind, y)) != mu:
            return False, t + 1, {"side": "right-unit", "mu": mu}
        lhs = bind(bind(mu, f), g)
        rhs = bind(mu, lambda y: bind(f(y), g))
        if lhs != rhs:
            return False, t + 1, {"side": "associativity", "mu": mu,
                                  "f": ftab, "g": gtab,
                                  "lhs": lhs, "rhs": rhs}
    return True, cfg.trials, None


def _law_algebraicity(kind, rng, cfg):
    carrier = _carrier(cfg)
    ops = [descriptor_op(d) for d in signature(kind)]
    ops += [effect_to_op(gen.random_effect(kind, rng, max_arity=3))
            for _ in range(3)]
    for t in range(cfg.trials):
        op = ops[t % len(ops)]
        args = [gen.random_value(kind, rng, carrier)
                for _ in range(op.arity)]
        f, table = gen.random_kleisli(kind, rng, carrier, carrier)
        ce = algebraic_violation(op, args, table)
        if ce is not None:
            ce["operation_arity"] = op.arity
            return False, t + 1, ce
    return True, cfg.trials, None


def _law_unit(kind, rng, cfg):
    carrier = _carrier(cfg)
    for t in range(cfg.trials):
        xi = gen.random_presentation(kind, rng, carrier,
                                     max_arity=cfg.arity_max)
        wrapped = seq_compose(
            Presentation(trivial_effect(kind), (0,)), [xi])
        if not diagram_eq(wrapped, xi):
            return False, t + 1, {"side": "left", "xi_effect": xi.effect,
                                  "xi_row": list(xi.row)}
        trivial_family = [Presentation(trivial_effect(kind), (x,))
                          for x in xi.row]
        padded = seq_compose(xi, trivial_family)
        if not diagram_eq(padded, xi):
            return False, t + 1, {"side": "right", "xi_effect": xi.effect,
                                  "xi_row": list(xi.row)}
    return True, cfg.trials, None


def _law_associativity(kind, rng, cfg):
    carrier = _carrier(cfg)
    for t in range(cfg.trials):
        xi = gen.random_presentation(kind, rng, carrier, max_arity=3)
        family = [gen.random_presentation(kind, rng, carrier, max_arity=2)
                  for _ in range(xi.effect.arity)]
        subfamilies = [[gen.random_presentation(kind, rng, carrier,
                                                max_arity=2)
                        for _ in range(member.effect.arity)]
                       for member in family]
        flat = [p for sub in subfamilies for p in sub]
        lhs = seq_compose(seq_compose(xi, family), flat)
        rhs = seq_compose(
            xi, [seq_compose(member, sub)
                 for member, sub in zip(family, subfamilies)])
        if not diagram_eq(lhs, rhs):
            return False, t + 1, {"outer": xi.effect,
                                  "lhs": interpret(lhs),
                                  "rhs": interpret(rhs)}
    return True, cfg.trials, None


def _law_composition(kind, rng, cfg):
    carrier = _carrier(cfg)
    for t in range(cfg.trials):
        xi = gen.random_presentation(kind, rng, carrier,
                                     max_arity=cfg.arity_max)
        family = [gen.random_presentation(kind, rng, carrier, max_arity=2)
                  for _ in range(xi.effect.arity)]
        composite = seq_compose(xi, family)
        # independent oracle: bind the outer indices straight into the
        # interpreted family members
        oracle = bind(xi.effect.body,
                      lambda i: interpret(family[i - 1]))
        if interpret(composite) != oracle:
            return False, t + 1, {"outer": xi.effect,
                                  "composite": interpret(composite),
                                  "oracle": oracle}
    return True, cfg.trials, None


def _law_binding(kind, rng, cfg):
    carrier = _carrier(cfg)
    for t in range(cfg.trials):
        mu = gen.random_value(kind, rng, carrier)
        f, table = gen.random_kleisli(kind, rng, carrier, carrier)
        lhs = decompose(bind(mu, f))
        xi = decompose(mu)
        rhs = seq_compose(xi, [decompose(f(x)) for x in xi.row])
        if not diagram_eq(lhs, rhs):
            return False, t + 1, {"mu": mu, "kleisli": table,
                                  "lhs": interpret(lhs),
                                  "rhs": interpret(rhs)}
    return True, cfg.trials, None


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


def _law_congruence(kind, rng, cfg):
    carrier = _carrier(cfg)
    for t in range(cfg.trials):
        xi, rho = _equal_pair(kind, rng, cfg)
        if not diagram_eq(xi, rho):
            return False, t + 1, {"side": "generator", "xi": interpret(xi),
                                  "rho": interpret(rho)}
        f, table = gen.random_kleisli(kind, rng, carrier, carrier)
        lhs = bind(xi.effect.body, lambda i: f(xi.row[i - 1]))
        rhs = bind(rho.effect.body, lambda i: f(rho.row[i - 1]))
        if lhs != rhs:
            return False, t + 1, {"xi": interpret(xi), "kleisli": table,
                                  "lhs": lhs, "rhs": rhs}
    return True, cfg.trials, None


def _law_monotonicity(kind, rng, cfg):
    carrier = _carrier(cfg)
    for t in range(cfg.trials):
        nu = gen.random_value(kind, rng, carrier)
        mu = gen.weaken(nu, rng)
        f, ftab = gen.random_kleisli(kind, rng, carrier, carrier)
        # mu <= nu entails (mu >>= f) <= (nu >>= f)
        if not leq(bind(mu, f), bind(nu, f)):
            return False, t + 1, {"rule": "left", "mu": mu, "nu": nu,
                                  "kleisli": ftab}
        g, gtab = gen.random_kleisli(kind, rng, carrier, carrier)
        weak = {x: gen.weaken(g(x), rng) for x in carrier}
        # f <= g pointwise entails (mu >>= f) <= (mu >>= g)
        if not leq(bind(nu, lambda x: weak[x]), bind(nu, g)):
            return False, t + 1, {"rule": "right", "nu": nu, "g": gtab}
        # slotwise: every family member below its mate
        eff = gen.random_effect(kind, rng, max_arity=3)
        high = [gen.random_value(kind, rng, carrier)
                for _ in range(eff.arity)]
        low = [gen.weaken(h, rng) for h in high]
        if not leq(bind(eff.body, lambda i: low[i - 1]),
                   bind(eff.body, lambda i: high[i - 1])):
            return False, t + 1, {"rule": "slotwise", "effect": eff,
                                  "low": low, "high": high}
    return True, cfg.trials, None


def _law_bottom(kind, rng, cfg):
    carrier = _carrier(cfg)
    bot = bottom(kind)
    for t in range(cfg.trials):
        mu = gen.random_value(kind, rng, carrier)
        if not leq(bot, mu):
            return False, t + 1, {"rule": "least", "mu": mu}
        n = rng.randint(0, cfg.arity_max)
        row = tuple(rng.choice(carrier) for _ in range(n))
        if interpret(Presentation(bottom_effect(kind, n), row)) != bot:
            return False, t + 1, {"rule": "collapse", "arity": n,
                                  "row": list(row)}
        family = [gen.random_presentation(kind, rng, carrier, max_arity=2)
                  for _ in range(n)]
        absorbed = seq_compose(
            Presentation(bottom_effect(kind, n), row), family)
        if interpret(absorbed) != bot:
            return False, t + 1, {"rule": "left-absorption", "arity": n}
        if map_carrier(bot, lambda x: x) != bot:
            return False, t + 1, {"rule": "strict-map"}
    return True, cfg.trials, None


def _law_absorption(kind, rng, cfg):
    """Right bottom absorption: an effect over all-bottom is bottom."""
    bot = bottom(kind)
    randoms = (gen.random_effect(kind, rng, max_arity=cfg.arity_max)
               for _ in range(cfg.trials))
    for trials, eff in enumerate(
            itertools.chain(basic_effects(kind), randoms), 1):
        got = bind(eff.body, lambda i: bot)
        if got != bot:
            return False, trials, {"effect": eff, "got": got}
    return True, trials, None


def _law_commutativity(kind, rng, cfg):
    report = check_commutative(kind, trials=cfg.trials,
                               seed=rng.randrange(2 ** 30))
    return report.passed, report.trials, report.counterexample


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


def expected_pass(law: str, kind: MonadKind) -> bool:
    return kind.tag not in EXPECTED_FAIL.get(law, frozenset())


def run_law_suite(cfg: LawSuiteConfig) -> SuiteReport:
    """Run every configured law against every configured instance."""
    results = []
    for law in cfg.laws:
        fn = _LAW_FUNCTIONS[law]
        for kind in cfg.monads:
            cell_seed = f"{cfg.seed}:{law}:{kind.tag}"
            rng = random.Random(cell_seed)
            passed, trials, ce = fn(kind, rng, cfg)
            results.append(LawResult(
                law=law, monad=kind, passed=passed, trials=trials,
                seed=cfg.seed, expected_pass=expected_pass(law, kind),
                counterexample=ce))
    return SuiteReport(cfg.seed, results)


def replay(law: str, kind: MonadKind, counterexample: dict) -> bool:
    """Re-run a stored counterexample; True means it still violates."""
    if law == "commutativity":
        return exchange_violation(
            kind, counterexample["left_effect"],
            counterexample["right_effect"],
            counterexample["grid"]) is not None
    if law == "absorption":
        eff = counterexample["effect"]
        return bind(eff.body, lambda i: bottom(kind)) != bottom(kind)
    raise ValueError(f"no replay support for law {law!r}")
