"""The operation/effect correspondence and sequential composition.

Every generic effect of arity ``n`` induces an ``n``-ary operation on
monadic values (run the effect, dispatch on the returned index), and
every algebraic operation induces a generic effect (apply it to the unit
row).  Sequential composition of presentations is implemented directly
on monadic bodies by index re-blocking: block ``i`` of the composite
occupies positions ``sum(m_1..m_{i-1})+1 .. sum(m_1..m_i)``.
``basic_effects`` lists the signature-derived, trivial and bottom
effects of an instance.  The laws of this calculus, and the search for
their violations, are ``lawcheck``'s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .monads import (ArityError, KindError, MonadKind, MonadValue, bind,
                     bottom, map_carrier, op_apply, op_effect, signature,
                     unit, OpDescriptor)
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


def op_to_effect(op: Union[DerivedOperation, OpDescriptor]) -> GenericEffect:
    """The effect induced by an operation: apply it to the unit row, or
    for a signature operation read the generic effect that defines it."""
    if isinstance(op, OpDescriptor):
        return GenericEffect(op.arity, op_effect(op))
    units = [unit(op.kind, i) for i in range(1, op.arity + 1)]
    return GenericEffect(op.arity, op.apply(*units))


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
    *offsets, total = itertools.accumulate(
        (member.effect.arity for member in family), initial=0)
    if total > MAX_ARITY:
        raise ArityCapError(
            f"composite arity {total} exceeds the cap of {MAX_ARITY}")

    def block(i: int) -> MonadValue:
        member = family[i - 1]
        shift = offsets[i - 1]
        return map_carrier(member.effect.body, lambda j: j + shift)

    body = bind(xi.effect.body, block)
    row = tuple([x for member in family for x in member.row])
    return Presentation(GenericEffect(total, body), row)


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
