"""Formal presentations of monadic values.

A presentation splits a monadic value into a generic effect -- an element
of the instance over the index set ``{1, .., n}`` -- and a row of ``n``
carrier elements.  ``interpret`` collapses the pair back into a monadic
value by relabelling indices with row entries; ``decompose`` produces the
canonical minimal presentation of any value.  Two presentations count as
equal exactly when they interpret to the same value.

``GenericEffect(arity, body)`` and ``Presentation(effect, row)`` are the
only way to build the two types, here and in every other module, so each
effect returns only indices in ``1..arity`` and each row has ``arity``
entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from . import serialize
from .monads import (INSTANCES, KindError, MonadKind, MonadValue, bottom, leq,
                     map_carrier, support, unit)

MAX_ARITY = 64


class ArityCapError(ValueError):
    """A presentation or composition exceeded the configured arity cap."""


def _check_arity(arity) -> None:
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise TypeError(f"arity must be an int, got {arity!r}")
    if arity < 0:
        raise ValueError(f"negative arity {arity}")
    if arity > MAX_ARITY:
        raise ArityCapError(f"arity {arity} exceeds the cap of {MAX_ARITY}")


@dataclass(frozen=True, init=False)
class GenericEffect:
    """The effect part: a monadic value over the index set ``{1, .., n}``.

    A non-``int`` arity raises ``TypeError``, one above ``MAX_ARITY``
    ``ArityCapError``, a negative one or a body that returns anything but
    an ``int`` in ``1..n`` ``ValueError``."""

    arity: int
    body: MonadValue

    def __init__(self, arity: int, body: MonadValue):
        _check_arity(arity)
        for i in INSTANCES[body.kind.tag].returns(body.payload):
            if type(i) is not int or not 1 <= i <= arity:
                raise ValueError(
                    f"effect body mentions indices outside 1..{arity}")
        # the frozen dataclass __init__ would go through object.__setattr__
        self.__dict__.update(arity=arity, body=body)

    @property
    def kind(self) -> MonadKind:
        return self.body.kind


@dataclass(frozen=True, init=False)
class Presentation:
    """A generic effect paired with a value row of matching length."""

    effect: GenericEffect
    row: tuple

    def __init__(self, effect: GenericEffect, row: Sequence):
        row = tuple(row)
        if len(row) != effect.arity:
            raise ValueError(
                f"row length {len(row)} does not match "
                f"arity {effect.arity}")
        self.__dict__.update(effect=effect, row=row)

    @property
    def kind(self) -> MonadKind:
        return self.effect.kind


def interpret(pres: Presentation) -> MonadValue:
    """Collapse a presentation into the monadic value it denotes."""
    row = pres.row
    return map_carrier(pres.effect.body, lambda i: row[i - 1])


def decompose(mu: MonadValue) -> Presentation:
    """The canonical minimal presentation of a value.

    The row is the support in canonical order, so the result is
    deterministic, duplicate-free and exactly ``interpret``-inverse:
    ``interpret(decompose(mu)) == mu``.
    """
    elems = tuple(support(mu))
    index = {x: i + 1 for i, x in enumerate(elems)}
    body = map_carrier(mu, lambda x: index[x])
    return Presentation(GenericEffect(len(elems), body), elems)


def _same_kind(xi: Presentation, rho: Presentation) -> None:
    if xi.kind != rho.kind:
        raise KindError(
            f"cannot compare {xi.kind.tag} with {rho.kind.tag} presentations")


def diagram_eq(xi: Presentation, rho: Presentation) -> bool:
    """Semantic equality: both sides interpret to the same value."""
    _same_kind(xi, rho)
    return interpret(xi) == interpret(rho)


def diagram_leq(xi: Presentation, rho: Presentation) -> bool:
    """Semantic order: compare the interpretations."""
    _same_kind(xi, rho)
    return leq(interpret(xi), interpret(rho))


def extend(pres: Presentation, iota: Sequence[int], m: int,
           fill: Sequence) -> Presentation:
    """Widen a presentation along an injection of index sets.

    ``iota`` maps slot ``i`` (1-based) of the old presentation to slot
    ``iota[i-1]`` of the new one; ``fill`` supplies row entries for the
    remaining slots, in increasing position order.  The result always
    interprets to the same value as ``pres``.
    """
    iota = tuple(iota)
    n = pres.effect.arity
    if len(iota) != n:
        raise ValueError(f"injection has {len(iota)} entries, expected {n}")
    if len(set(iota)) != n:
        raise ValueError(f"injection is not injective: {iota!r}")
    if any(not 1 <= t <= m for t in iota):
        raise ValueError(f"injection targets outside 1..{m}: {iota!r}")
    missing = sorted(set(range(1, m + 1)) - set(iota))
    fill = tuple(fill)
    if len(fill) != len(missing):
        raise ValueError(
            f"fill has {len(fill)} entries, expected {len(missing)}")
    body = map_carrier(pres.effect.body, lambda i: iota[i - 1])
    slot = dict(zip((*iota, *missing), (*pres.row, *fill)))
    row = tuple([slot[p] for p in range(1, m + 1)])
    return Presentation(GenericEffect(m, body), row)


def _effect_text(eff: GenericEffect) -> str:
    body, kind = eff.body, eff.kind
    if body == bottom(kind):
        return "⊥"
    if eff.arity == 1 and body == unit(kind, 1):
        return "η"
    return INSTANCES[kind.tag].effect_text(eff.arity, body.payload)


def to_obj(pres: Presentation) -> dict:
    return {"effect": {"arity": pres.effect.arity,
                       "body": serialize.to_obj(pres.effect.body)},
            "row": [serialize.value_to_obj(x) for x in pres.row]}


def from_obj(obj: dict) -> Presentation:
    """Rebuild a presentation from its machine form.

    Malformed input raises ``KindError``, naming a missing key; an arity
    above the cap raises ``ArityCapError``.
    """
    if not isinstance(obj, dict) or "effect" not in obj or "row" not in obj:
        raise KindError(f"bad serialized presentation: {obj!r}")
    if not isinstance(obj["row"], list):
        raise KindError(
            f"bad serialized presentation: row {obj['row']!r} is not a list")
    try:
        eff = obj["effect"]
        effect = GenericEffect(eff["arity"], serialize.from_obj(eff["body"]))
        return Presentation(
            effect, tuple([serialize.value_from_obj(x) for x in obj["row"]]))
    except (KindError, ArityCapError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise serialize.malformed("presentation", exc) from None


def render(pres: Presentation, fmt: str = "text") -> str:
    """Render a presentation.

    ``text`` gives ``[<effect> ‖ 1→x1 ; 2→x2 ; …]``; ``machine`` gives the
    canonical JSON form.  Structurally equal presentations render
    identically.
    """
    if fmt == "machine":
        return json.dumps(to_obj(pres), ensure_ascii=False,
                          separators=(",", ":"))
    if fmt != "text":
        raise ValueError(f"unknown render format {fmt!r}")
    cells = " ; ".join(f"{i + 1}→{x}"
                       for i, x in enumerate(pres.row))
    return f"[{_effect_text(pres.effect)} ‖ {cells}]"
