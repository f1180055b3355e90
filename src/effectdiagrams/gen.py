"""Seeded random generators and small exhaustive enumerators.

Everything takes an explicit ``random.Random`` so callers control
determinism; the law suite passes a ``Draws``, which takes one
``random()`` call per pick.  A Kleisli table draws each entry when it is
first read, so a law pays only for the entries it reads.  Distribution
weights are exact rationals with denominators of at most 16, printed
prefixes have at most 3 characters, and state tables are total over all
stores by construction.  Instances return canonical payloads, so the
values are built without re-checking.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional, Sequence

from .monads import INSTANCES, MonadKind, MonadValue, _trusted
from .presentations import GenericEffect, Presentation

LETTERS = ("a", "b", "c", "d", "e")


class Draws(random.Random):
    """A seeded generator whose picks each take one ``random()`` call.

    It covers the value spaces of the ``random.Random`` methods it
    overrides but not their streams; ``int(random() * n)`` is below
    ``n`` for every ``n`` below 2**53.
    """

    def choice(self, seq):
        return seq[int(self.random() * len(seq))]

    def randint(self, a, b):
        if b < a:
            raise ValueError(f"empty range for randint({a}, {b})")
        return a + int(self.random() * (b - a + 1))

    def sample(self, population, k):
        """``k`` distinct elements by a partial Fisher-Yates shuffle."""
        pool = list(population)
        n = len(pool)
        if not 0 <= k <= n:
            raise ValueError("sample larger than population or is negative")
        for i in range(k):
            j = i + int(self.random() * (n - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


class _KleisliTable(dict):
    """A Kleisli table that draws each entry of its domain on first read.

    Entries stay in domain order, so ``dict(table)`` is a plain table of
    the entries read so far; a key outside the domain raises ``KeyError``.
    """

    __slots__ = ("kind", "rng", "domain", "codomain")

    def __init__(self, kind, rng, domain, codomain):
        self.kind, self.rng = kind, rng
        self.domain, self.codomain = domain, codomain

    def __missing__(self, x):
        if x not in self.domain:
            raise KeyError(x)
        self[x] = random_value(self.kind, self.rng, self.codomain)
        for y in [y for y in self.domain if y in self]:
            self[y] = self.pop(y)
        return self[x]


def random_value(kind: MonadKind, rng: random.Random,
                 carrier: Sequence = LETTERS) -> MonadValue:
    """A random element of the instance over the given carrier."""
    return _trusted(kind, INSTANCES[kind.tag].random(kind, rng, carrier))


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
    return Presentation(eff, rng.choices(carrier, k=eff.arity))


def random_kleisli(kind: MonadKind, rng: random.Random,
                   domain: Sequence,
                   codomain: Sequence = LETTERS) -> tuple[Callable, dict]:
    """A random carrier-to-monadic-value map, returned with its table.

    The table draws an entry when it is first read, from ``rng`` as it
    stands then.
    """
    table = _KleisliTable(kind, rng, domain, codomain)
    return table.__getitem__, table


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
