"""The operation/effect correspondence and sequential composition.

Every generic effect of arity ``n`` induces an ``n``-ary operation on
monadic values (run the effect, dispatch on the returned index), and
every algebraic operation induces a generic effect (apply it to the unit
row).  Sequential composition of presentations is implemented directly
on monadic bodies by index re-blocking: block ``i`` of the composite
occupies positions ``sum(m_1..m_{i-1})+1 .. sum(m_1..m_i)``.

``check_algebraic`` and ``check_commutative`` are semantic checkers: they
search for violations of the bind-distribution law and of the exchange
law, returning a report rather than raising.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from . import gen, serialize
from .monads import (ArityError, KindError, MonadKind, MonadValue, bind,
                     bottom, map_carrier, op_apply, signature, support, unit,
                     OpDescriptor)
from .presentations import (ArityCapError, GenericEffect, MAX_ARITY,
                            Presentation)


@dataclass(frozen=True)
class DerivedOperation:
    """An n-ary operation on monadic values, typically from an effect."""

    kind: MonadKind
    arity: int
    apply: Callable[..., MonadValue]


def effect_to_op(eff: GenericEffect) -> DerivedOperation:
    """The operation induced by an effect: bind the body over the arguments."""
    body = eff.body
    n = eff.arity

    def apply(*args: MonadValue) -> MonadValue:
        if len(args) != n:
            raise ArityError(f"expected {n} arguments, got {len(args)}")
        return bind(body, lambda i: args[i - 1])

    return DerivedOperation(eff.kind, n, apply)


def descriptor_op(desc: OpDescriptor) -> DerivedOperation:
    """Wrap a signature operation as a derived operation."""
    return DerivedOperation(desc.kind, desc.arity,
                            lambda *args: op_apply(desc, list(args)))


def op_to_effect(op: Union[DerivedOperation, OpDescriptor],
                 arity: Optional[int] = None) -> GenericEffect:
    """The effect induced by an operation: apply it to the unit row."""
    if isinstance(op, OpDescriptor):
        op = descriptor_op(op)
    n = op.arity if arity is None else arity
    if n != op.arity:
        raise ArityError(f"operation has arity {op.arity}, requested {n}")
    units = [unit(op.kind, i) for i in range(1, n + 1)]
    return GenericEffect(n, op.apply(*units))


def trivial_effect(kind: MonadKind) -> GenericEffect:
    """The neutral effect for composition: return index 1, do nothing."""
    return GenericEffect(1, unit(kind, 1))


def bottom_effect(kind: MonadKind, arity: int = 0) -> GenericEffect:
    """The least effect at any arity; all of them interpret to bottom."""
    return GenericEffect(arity, bottom(kind))


def seq_compose(xi: Presentation,
                family: Sequence[Presentation]) -> Presentation:
    """Plug one presentation per slot of ``xi``.

    The result's effect runs ``xi``'s effect, then the chosen family
    member, with family indices shifted into consecutive blocks; the
    result row is the concatenation of the family rows.
    """
    n = xi.effect.arity
    if len(family) != n:
        raise ArityError(
            f"family has {len(family)} members, expected {n}")
    kind = xi.kind
    for member in family:
        if member.kind != kind:
            raise KindError(
                f"family member of kind {member.kind.tag} under {kind.tag}")
    offsets = []
    total = 0
    for member in family:
        offsets.append(total)
        total += member.effect.arity
    if total > MAX_ARITY:
        raise ArityCapError(
            f"composite arity {total} exceeds the cap of {MAX_ARITY}")

    def block(i: int) -> MonadValue:
        member = family[i - 1]
        shift = offsets[i - 1]
        return map_carrier(member.effect.body, lambda j: j + shift)

    body = bind(xi.effect.body, block)
    row = tuple(x for member in family for x in member.row)
    return Presentation(GenericEffect(total, body), row)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a semantic law search."""

    law: str
    passed: bool
    trials: int
    seed: int
    counterexample: Optional[dict] = None

    def to_obj(self) -> dict:
        obj = {"law": self.law, "pass": self.passed,
               "trials": self.trials, "seed": self.seed}
        if self.counterexample is not None:
            obj["counterexample"] = _describe(self.counterexample)
        return obj


def _describe(v) -> Any:
    if isinstance(v, MonadValue):
        return serialize.to_obj(v)
    if isinstance(v, GenericEffect):
        return {"arity": v.arity, "body": serialize.to_obj(v.body)}
    if isinstance(v, dict):
        return {str(k): _describe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_describe(x) for x in v]
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return str(v)


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


def check_algebraic(op: DerivedOperation, trials: int = 100,
                    carrier_size: int = 3, seed: int = 0) -> CheckReport:
    """Search for a violation of bind distributing over the operation.

    Flat instances are checked exhaustively over small carriers; the
    rest get seeded random trials.  A failure report carries the
    arguments, the function table and both sides.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    kind = op.kind
    domain = list(gen.LETTERS[:carrier_size])
    codomain = ["x", "y", "z"][:carrier_size]
    rng = random.Random(seed)
    ran = 0

    values = gen.enumerate_values(kind, domain)
    tables = gen.enumerate_kleisli(kind, domain, codomain)
    if values is not None and tables is not None and op.arity <= 2:
        for args in itertools.product(values, repeat=op.arity):
            for table in tables:
                ran += 1
                ce = algebraic_violation(op, args, table)
                if ce is not None:
                    return CheckReport("algebraicity", False, ran, seed,
                                       _shrink_algebraic(op, ce))

    for _ in range(trials):
        ran += 1
        args = [gen.random_value(kind, rng, carrier=domain)
                for _ in range(op.arity)]
        needed = set(domain)
        for a in args:
            needed |= set(support(a))
        _, table = gen.random_kleisli(kind, rng, sorted(needed, key=str),
                                      codomain=codomain)
        ce = algebraic_violation(op, args, table)
        if ce is not None:
            return CheckReport("algebraicity", False, ran, seed,
                               _shrink_algebraic(op, ce))
    return CheckReport("algebraicity", True, ran, seed)


def _value_shrinks(mu: MonadValue):
    """Smaller candidates for a monadic value: bottom first, then units."""
    yield bottom(mu.kind)
    for x in support(mu)[:2]:
        yield unit(mu.kind, x)


def _shrink_algebraic(op: DerivedOperation, ce: dict) -> dict:
    changed = True
    while changed:
        changed = False
        args = list(ce["args"])
        for i, arg in enumerate(args):
            for candidate in _value_shrinks(arg):
                if candidate == arg:
                    continue
                trial = args[:i] + [candidate] + args[i + 1:]
                smaller = algebraic_violation(op, trial, ce["kleisli"])
                if smaller is not None:
                    ce = smaller
                    changed = True
                    break
            if changed:
                break
    return ce


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


def basic_effects(kind: MonadKind) -> list[GenericEffect]:
    """Signature-derived effects plus the trivial and empty-bottom ones.

    Signature effects come first so that searches over this list report
    the most interpretable witnesses (two prints, a read against a
    write) before degenerate ones.
    """
    effs = [op_to_effect(desc) for desc in signature(kind)]
    effs.append(trivial_effect(kind))
    effs.append(bottom_effect(kind, 0))
    return effs


def _distinct_grid(n: int, m: int) -> list[list[str]]:
    return [[f"x{i}{j}" for j in range(1, m + 1)] for i in range(1, n + 1)]


def check_commutative(kind: MonadKind, trials: int = 50,
                      seed: int = 0) -> CheckReport:
    """Search for an exchange-law violation over small effect pairs.

    A deterministic pass over signature-derived, trivial and bottom
    effects runs first (so the canonical counterexamples are found with
    any trial budget), followed by seeded random pairs with arities up
    to 3.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    ran = 0
    basics = basic_effects(kind)
    for left in basics:
        for right in basics:
            ran += 1
            ce = exchange_violation(
                kind, left, right,
                _distinct_grid(left.arity, right.arity))
            if ce is not None:
                # prefix witnesses are already minimal and interpretable
                return CheckReport("commutativity", False, ran, seed, ce)
    for _ in range(trials):
        ran += 1
        left = gen.random_effect(kind, rng, max_arity=3)
        right = gen.random_effect(kind, rng, max_arity=3)
        grid = [[rng.choice(gen.LETTERS[:3]) for _ in range(right.arity)]
                for _ in range(left.arity)]
        ce = exchange_violation(kind, left, right, grid)
        if ce is not None:
            return CheckReport("commutativity", False, ran, seed,
                               _shrink_exchange(kind, ce))
    return CheckReport("commutativity", True, ran, seed)


def _effect_shrinks(eff: GenericEffect):
    """Smaller effects: lower arity when the support allows, simpler body."""
    indices = set(support(eff.body))
    if eff.arity > 0 and indices <= set(range(1, eff.arity)):
        yield GenericEffect(eff.arity - 1, eff.body), eff.arity - 1
    for body in _value_shrinks(eff.body):
        if body != eff.body:
            yield GenericEffect(eff.arity, body), eff.arity


def _shrink_exchange(kind: MonadKind, ce: dict) -> dict:
    # greedy: reduce arities first, then collapse the grid carrier, then
    # simplify effect bodies
    changed = True
    while changed:
        changed = False
        for key, slicer in (("left_effect", lambda g, n: g[:n]),
                            ("right_effect",
                             lambda g, n: [r[:n] for r in g])):
            eff = ce[key]
            for candidate, new_arity in _effect_shrinks(eff):
                grid = slicer(ce["grid"], new_arity) \
                    if new_arity != eff.arity else ce["grid"]
                other = dict(ce)
                other[key] = candidate
                smaller = exchange_violation(
                    kind,
                    other["left_effect"], other["right_effect"], grid)
                if smaller is not None:
                    ce = smaller
                    changed = True
                    break
            if changed:
                break
        if not changed and any(x != ce["grid"][0][0]
                               for row in ce["grid"] for x in row):
            uniform = [[ce["grid"][0][0] for _ in row]
                       for row in ce["grid"]]
            smaller = exchange_violation(
                kind, ce["left_effect"], ce["right_effect"], uniform)
            if smaller is not None:
                ce = smaller
                changed = True
    return ce
