"""Seeded random generators and small exhaustive enumerators.

Everything takes an explicit ``random.Random`` so callers control
determinism.  Distribution weights are exact rationals with
denominators of at most 16, printed prefixes have at most 3 characters,
and state tables are total over all stores by construction.  Instances
return canonical payloads, so the values are built without re-checking.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional, Sequence

from .monads import INSTANCES, MonadKind, MonadValue, _trusted
from .presentations import GenericEffect, Presentation

LETTERS = ("a", "b", "c", "d", "e")


def random_value(kind: MonadKind, rng: random.Random,
                 carrier: Sequence = LETTERS) -> MonadValue:
    """A random element of the instance over the given carrier."""
    return _trusted(kind, INSTANCES[kind.tag].random(
        kind, rng, list(carrier)))


def random_effect(kind: MonadKind, rng: random.Random,
                  max_arity: int = 4) -> GenericEffect:
    """A random generic effect of bounded arity."""
    n = rng.randint(0, max_arity)
    body = random_value(kind, rng, carrier=range(1, n + 1))
    return GenericEffect(n, body)


def random_presentation(kind: MonadKind, rng: random.Random,
                        carrier: Sequence = LETTERS,
                        max_arity: int = 4) -> Presentation:
    """A random presentation; rows may repeat carrier elements."""
    eff = random_effect(kind, rng, max_arity=max_arity)
    row = tuple([rng.choice(list(carrier)) for _ in range(eff.arity)])
    return Presentation(eff, row)


def random_kleisli(kind: MonadKind, rng: random.Random,
                   domain: Sequence,
                   codomain: Sequence = LETTERS) -> tuple[Callable, dict]:
    """A random carrier-to-monadic-value map, returned with its table."""
    table = {x: random_value(kind, rng, carrier=codomain) for x in domain}
    return (lambda x: table[x]), table


def weaken(nu: MonadValue, rng: random.Random) -> MonadValue:
    """A random value below ``nu`` in the instance order."""
    return _trusted(nu.kind, INSTANCES[nu.kind.tag].weaken(nu.payload, rng))


def enumerate_values(kind: MonadKind, carrier: Sequence) -> Optional[list]:
    """All values over the carrier, or None when that set is impractical.

    Only the flat instances enumerate; subdistributions, state tables and
    output strings are covered by randomized trials instead.
    """
    payloads = INSTANCES[kind.tag].enumerate(kind, list(carrier))
    if payloads is None:
        return None
    return [_trusted(kind, p) for p in payloads]


def enumerate_kleisli(kind: MonadKind, domain: Sequence,
                      codomain: Sequence) -> Optional[list]:
    """All functions from the domain into enumerable values, as tables."""
    values = enumerate_values(kind, codomain)
    if values is None:
        return None
    domain = list(domain)
    if len(values) ** len(domain) > 256:
        return None
    tables = []
    for picks in itertools.product(values, repeat=len(domain)):
        tables.append(dict(zip(domain, picks)))
    return tables
