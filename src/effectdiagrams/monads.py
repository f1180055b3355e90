"""Concrete monad instances with algebraic effect operations.

Six instances over arbitrary hashable, canonically orderable carrier
elements:

* ``maybe``  -- possible divergence
* ``exc``    -- exceptions from a fixed finite label set (plus divergence,
                so that a least element exists)
* ``set``    -- finite-powerset nondeterminism
* ``dist``   -- probabilistic nondeterminism as exact-rational
                subdistributions (total mass <= 1)
* ``state``  -- boolean global state over a fixed finite location list
* ``output`` -- a finite printed prefix over a fixed alphabet and a
                converged-or-divergent tail

Each instance is one ``Instance`` subclass holding everything that
depends on its tag; ``INSTANCES`` maps tags to them and the module-level
functions dispatch through it.  An operation is given only by its
generic effect, a payload over ``1..arity`` (Plotkin and Power, 2003);
``op_apply`` is ``join`` over that effect, so every operation is
algebraic by the Kleisli laws.  ``MonadValue(kind, payload)`` validates
its payload; values built here from values that are already valid skip
that check.

Values are immutable after construction and every function here is pure,
so values may be shared and used from multiple threads freely.
Probabilities are ``fractions.Fraction`` throughout: equality of values
is always exact, never a float tolerance.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

MAX_LOCATIONS = 4


class KindError(ValueError):
    """Monad kinds, labels, locations or characters do not line up."""


class SignatureError(KindError):
    """An operation was used under a monad that does not provide it."""


class ArityError(ValueError):
    """An operation was applied to the wrong number of arguments."""


def canonical_key(x):
    """Total order key across the carrier element types we support.

    Integers sort first, then strings, then tuples (componentwise), then
    anything else by type name and string form.  Used wherever a
    deterministic enumeration of carrier elements is needed.
    """
    if isinstance(x, int):
        return (0, int(x))
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        # hot tuples are built from lists: tuple(<generator>) is resized, so
        # it is freed to another size's free list, emptied only by full gc
        return (2, tuple([canonical_key(v) for v in x]))
    return (3, type(x).__name__, str(x))


@dataclass(frozen=True)
class MonadKind:
    """Which instance a value belongs to, plus its parameters; the one
    way to build a kind, whose JSON envelope lives only in ``serialize``.

    ``params`` holds the exception labels of ``exc``, the locations of
    ``state`` or the characters of ``output``, stored as a tuple without
    duplicates; it is empty for an instance whose ``param`` is ``None``.
    """

    tag: str
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        inst = instance(self.tag)
        if self.params and inst.param is None:
            raise KindError(f"the {self.tag} monad takes no parameters")
        if len(set(self.params)) != len(self.params):
            raise KindError(
                f"duplicate entries in {inst.param}: {self.params!r}")
        inst.check_kind(self)


@dataclass(frozen=True, init=False)
class Present:
    """A converged result carrying one carrier element."""

    value: Any

    def __init__(self, value):
        # the frozen dataclass __init__ would go through object.__setattr__
        self.__dict__["value"] = value


@dataclass(frozen=True)
class Raised:
    """An uncaught exception with its label."""

    label: str


@dataclass(frozen=True)
class Diverge:
    """The divergence marker; also the tail of an unfinished output."""


DIVERGE = Diverge()


@dataclass(frozen=True)
class OpDescriptor:
    """A named algebraic operation from one instance's signature.

    ``index`` holds the label for ``raise``, the location for ``read``,
    the ``(location, bit)`` pair for ``write`` and the character for
    ``print``; it is ``None`` for ``union`` and ``choice``.  A descriptor
    outside its kind's signature raises ``SignatureError``.  The arity is
    not stored: it is the one the instance's ``ops`` gives the name.
    """

    name: str
    kind: MonadKind
    index: Any = None

    def __post_init__(self):
        INSTANCES[self.kind.tag].check_op(self.kind, self.name, self.index)

    @property
    def arity(self) -> int:
        return INSTANCES[self.kind.tag].ops[self.name][0]


@dataclass(frozen=True, slots=True)
class MonadValue:
    """One element of one monad instance, canonicalised on construction.

    A malformed payload raises ``KindError``.  The layout by tag, with
    every mapping a read-only ``MappingProxyType`` view:

    * maybe:  ``Present(x)`` or ``DIVERGE``
    * exc:    ``Present(x)``, ``Raised(e)`` or ``DIVERGE``
    * set:    a ``frozenset`` of carrier elements
    * dist:   a mapping ``{x: Fraction}``, entries positive, mass <= 1
    * state:  a mapping from every store (tuple of bits, aligned with
              ``kind.params``) to ``DIVERGE`` or ``Present((x, store'))``
    * output: a pair ``(w, tail)`` with ``w`` a string over the alphabet
              and ``tail`` either ``Present(x)`` or ``DIVERGE``
    """

    kind: MonadKind
    payload: Any

    def __post_init__(self):
        _set_payload(self, _normalise(self.kind, self.payload))

    __hash__ = None

    def __repr__(self):
        return f"MonadValue({self.kind.tag}, {self.payload!r})"

    def __reduce__(self):
        # a mapping payload pickles as a plain dict; the payload is
        # canonical already, so it is rebuilt unchecked
        payload = self.payload
        if type(payload) is MappingProxyType:
            payload = dict(payload)
        return _trusted, (self.kind, payload)


def _normalise(kind: MonadKind, payload):
    """Check and canonicalise a payload: the one validating entry point."""
    try:
        payload = INSTANCES[kind.tag].normalise(kind, payload)
    except KindError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise KindError(f"bad {kind.tag} payload {payload!r}: {exc}") \
            from None
    if type(payload) is dict:
        payload = MappingProxyType(payload)
    return payload


# the slot setters bypass the frozen MonadValue.__setattr__
_set_kind, _set_payload = MonadValue.kind.__set__, MonadValue.payload.__set__


def _trusted(kind: MonadKind, payload) -> MonadValue:
    """Wrap a payload that is canonical by construction, unchecked."""
    if type(payload) is dict:
        payload = MappingProxyType(payload)
    mu = object.__new__(MonadValue)
    _set_kind(mu, kind)
    _set_payload(mu, payload)
    return mu


def value_to_obj(x):
    if isinstance(x, bool):
        raise KindError("boolean carrier elements are not supported")
    if isinstance(x, (int, str)):
        return x
    return str(x)


def value_from_obj(obj):
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return obj
    raise KindError(f"bad serialized carrier element: {obj!r}")


class Instance:
    """Everything one monad instance knows, for one ``MonadKind.tag``.

    Methods take and return bare payloads.  ``normalise`` and
    ``from_obj`` accept untrusted input: ``from_obj`` reads machine JSON
    into a canonical payload, checking what ``normalise`` checks, so it
    is not checked again.  Every other method may assume its payloads
    are canonical and must return canonical payloads.  See the README for
    the list of methods a subclass provides.
    """

    tag = ""
    # the JSON key and CLI option naming MonadKind.params, if it has any,
    # with the option's default text and help
    param: Optional[str] = None
    default: Optional[str] = None
    help: Optional[str] = None
    # operation name -> (arity, number of bracket indices in the syntax)
    ops: dict = {}

    def check_kind(self, kind: MonadKind) -> None:
        """Reject parameters this instance cannot work with."""

    def kind_from_text(self, texts: Mapping[str, str]) -> MonadKind:
        """The kind named by command-line texts keyed by parameter."""
        return MonadKind(
            self.tag, texts[self.param].split(",") if self.param else ())

    def returns(self, payload) -> Iterable:
        """The carrier elements a payload may return, each once.

        ``bind`` calls its continuation on these in this order from its
        own frame, so nested binds cost one stack frame each, and hands
        the results, in the same order, to ``join``.
        """
        return payload

    def then(self, payload, out: Callable[[], Any]):
        """``join(payload, [o, o, ...])`` for ``o = out()``, one ``o`` per
        returned element: bind with a continuation that ignores its value.
        Calls ``out`` at most once, and never when nothing is returned."""
        returned = list(self.returns(payload))
        return self.join(payload, [out()] * len(returned) if returned else [])

    def support(self, payload) -> list:
        return sorted(self.returns(payload), key=canonical_key)

    def read_index(self, name: str, texts: Sequence[str]):
        """The index that ``name``'s bracket texts spell: ``None``, the one
        text, or a tuple of them; ``ValueError`` if they spell none."""
        n = self.ops[name][1]
        if len(texts) != n:
            raise ValueError(
                f"{name} takes {n} bracket indices, got {len(texts)}")
        return tuple(texts) if n > 1 else (texts[0] if n else None)

    def indices(self, kind: MonadKind, name: str) -> Sequence:
        """Every index the operation ``name`` takes under ``kind``."""
        return kind.params if self.param else (None,)

    def bad_index(self, kind: MonadKind, name: str, index) -> str:
        return f"{name} takes no index, got {index!r}"

    def check_op(self, kind: MonadKind, name: str, index):
        """Raise ``SignatureError`` unless ``kind`` has ``name[index]``."""
        if name not in self.ops:
            raise SignatureError(
                f"operation {name!r} is not in the {self.tag} signature")
        if index not in self.indices(kind, name):
            raise SignatureError(self.bad_index(kind, name, index))

    def minimal_kind(self, name: str, index) -> MonadKind:
        """The smallest kind whose signature has this operation."""
        return MonadKind(self.tag, (index,) if self.param else ())

    def enumerate(self, kind: MonadKind, carrier: list) -> Optional[list]:
        return None


class Maybe(Instance):
    tag = "maybe"
    cells: tuple = (Present, Diverge)

    def normalise(self, kind, payload):
        if isinstance(payload, self.cells):
            return payload
        raise KindError(f"bad {self.tag} payload: {payload!r}")

    def unit(self, kind, x):
        return Present(x)

    def bottom(self, kind):
        return DIVERGE

    def returns(self, payload):
        return [payload.value] if isinstance(payload, Present) else []

    def map(self, payload, g):
        return Present(g(payload.value)) if isinstance(payload, Present) \
            else payload

    def join(self, payload, outs):
        return outs[0] if outs else payload

    def leq(self, a, b):
        # DIVERGE is below everything, a converged cell only below itself
        return isinstance(a, Diverge) or a == b

    def to_obj(self, payload):
        if isinstance(payload, Present):
            return {"value": value_to_obj(payload.value)}
        if isinstance(payload, Raised):
            return {"raised": payload.label}
        return {"bottom": True}

    def from_obj(self, kind, obj):
        return self.normalise(kind, self._cell_from_obj(obj))

    def _cell_from_obj(self, obj):
        """The cell that ``obj``'s keys name, unchecked against a kind."""
        shapes = [key for key in ("value", "raised") if key in obj]
        if obj.get("bottom"):
            shapes.append("bottom")
        if len(shapes) > 1:
            raise ValueError(f"{' and '.join(shapes)} given together")
        if obj.get("bottom"):
            return DIVERGE
        if "raised" in obj:
            return Raised(obj["raised"])
        return Present(value_from_obj(obj["value"]))

    def render(self, payload):
        if isinstance(payload, Present):
            return str(payload.value)
        if isinstance(payload, Raised):
            return f"raise {payload.label}"
        return "↑"

    def effect_text(self, arity, payload):
        if isinstance(payload, Present):
            return f"ret {payload.value}"
        return self.render(payload)

    def random(self, kind, rng, carrier):
        if not carrier or rng.random() < 0.2:
            return DIVERGE
        return Present(rng.choice(carrier))

    def weaken(self, payload, rng):
        return payload if rng.random() < 0.6 else DIVERGE

    def enumerate(self, kind, carrier):
        return [DIVERGE, *map(Present, carrier)]


# state cells and output tails are maybe payloads
_CELL = Maybe()


class Exc(Maybe):
    tag = "exc"
    param = "exceptions"
    default = "err"
    help = "comma-separated labels for the exc monad"
    ops = {"raise": (0, 1)}
    cells = (Present, Raised, Diverge)

    def check_kind(self, kind):
        if not kind.params:
            raise KindError("exception monad needs a non-empty label set")
        if "" in kind.params:
            raise KindError(f"empty exception label in {kind.params!r}")

    def normalise(self, kind, payload):
        if isinstance(payload, Raised) and \
                payload.label not in kind.params:
            raise KindError(f"unknown exception label {payload.label!r}")
        return super().normalise(kind, payload)

    def bad_index(self, kind, name, index):
        return f"unknown exception label {index!r}"

    def effect(self, kind, name, index):
        return Raised(index)

    def random(self, kind, rng, carrier):
        roll = rng.random()
        if roll < 0.2 or not carrier:
            if roll < 0.1:
                return DIVERGE
            return Raised(rng.choice(kind.params))
        return Present(rng.choice(carrier))

    def enumerate(self, kind, carrier):
        return [DIVERGE, *map(Raised, kind.params), *map(Present, carrier)]


class Powerset(Instance):
    tag = "set"
    ops = {"union": (2, 0)}

    def normalise(self, kind, payload):
        return frozenset(payload)

    def unit(self, kind, x):
        return frozenset((x,))

    def bottom(self, kind):
        return frozenset()

    def returns(self, payload):
        # sorted, so that bind feeds the continuation in an order that
        # does not depend on the hash seed; fewer than two need no sort
        return (list(payload) if len(payload) < 2
                else sorted(payload, key=canonical_key))

    support = returns

    def map(self, payload, g):
        return frozenset(map(g, self.returns(payload)))

    def join(self, payload, outs):
        return frozenset().union(*outs)

    def then(self, payload, out):
        return out() if payload else payload

    def leq(self, a, b):
        return a <= b

    def effect(self, kind, name, index):
        return _PAIR

    def to_obj(self, payload):
        return {"elements": [value_to_obj(x) for x in self.support(payload)]}

    def from_obj(self, kind, obj):
        return frozenset(value_from_obj(x) for x in obj["elements"])

    def render(self, payload):
        if not payload:
            return "∅"
        return "{" + ", ".join(map(str, self.support(payload))) + "}"

    def effect_text(self, arity, payload):
        return "{" + ",".join(str(i) for i in sorted(payload)) + "}"

    def random(self, kind, rng, carrier):
        k = rng.randint(0, min(len(carrier), 3))
        return frozenset(rng.sample(carrier, k))

    def weaken(self, payload, rng):
        return frozenset([x for x in payload if rng.random() < 0.6])

    def enumerate(self, kind, carrier):
        if len(carrier) > 3:
            return None
        return [frozenset(combo) for k in range(len(carrier) + 1)
                for combo in itertools.combinations(carrier, k)]


def _sum(ps: list) -> tuple:
    """The exact sum of ``Fraction``s as ``(n, d)``: integer numerators
    over the lcm of the denominators, for one reduction by ``Fraction(n,
    d)`` (Knuth, TAOCP Vol. 2, 4.5.1)."""
    d = lcm(*[p.denominator for p in ps])
    return sum([p.numerator * (d // p.denominator) for p in ps]), d


_PROBABILITY = re.compile(r"(\d+)(?:/(\d+))?", re.ASCII)


def _probability_from_obj(text) -> Fraction:
    """A serialized probability: a string ``"n"`` or ``"p/q"`` of ASCII
    digits with ``q > 0``; anything else raises ``ValueError``."""
    match = _PROBABILITY.fullmatch(text) if isinstance(text, str) else None
    if match:
        num, den = match.groups("1")
        if int(den):
            return Fraction(int(num), int(den))
    raise ValueError(f'probability {text!r} is not a string "n" or "p/q" '
                     f'of digits with q > 0')


# the generic effects of union and choice: both indices, or a fair coin
_PAIR = frozenset((1, 2))
_HALVES = MappingProxyType({1: Fraction(1, 2), 2: Fraction(1, 2)})


class Dist(Instance):
    tag = "dist"
    ops = {"choice": (2, 0)}

    def normalise(self, kind, payload):
        entries = {}
        for x, p in dict(payload).items():
            if type(p) is not Fraction:
                if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
                    raise KindError(f"probability {p!r} for {x!r} is not "
                                    f"an int or a Fraction")
                p = Fraction(p)
            # signs and the mass are tested on ints: a Fraction comparison
            # costs about a microsecond
            if p.numerator < 0:
                raise KindError(f"negative probability {p} for {x!r}")
            if p.numerator:
                entries[x] = p
        n, d = _sum(list(entries.values()))
        if n > d:
            raise KindError(f"total mass {Fraction(n, d)} exceeds 1")
        return entries

    def unit(self, kind, x):
        return {x: Fraction(1)}

    def bottom(self, kind):
        return {}

    def map(self, payload, g):
        # an image with one preimage keeps its Fraction; colliding ones
        # are summed once each
        acc: dict = {}
        clash: dict = {}
        for x, p in payload.items():
            y = g(x)
            if y in acc:
                clash.setdefault(y, [acc[y]]).append(p)
            else:
                acc[y] = p
        for y, ps in clash.items():
            acc[y] = Fraction(*_sum(ps))
        return acc

    def join(self, payload, outs):
        # sum_i p_i * q_ij as an integer numerator over the lcm of its
        # terms' denominators, one Fraction per result element
        acc: dict = {}
        for p, out in zip(payload.values(), outs):
            a, b = p.numerator, p.denominator
            for y, q in out.items():
                n, d = a * q.numerator, b * q.denominator
                if y in acc:
                    m, e = acc[y]
                    if d == e:
                        n += m
                    else:
                        lcd = lcm(d, e)
                        n, d = n * (lcd // d) + m * (lcd // e), lcd
                acc[y] = (n, d)
        return {y: Fraction(n, d) for y, (n, d) in acc.items()}

    def then(self, payload, out):
        # every result is out's, so the join is it scaled by the mass
        if not payload:
            return payload
        n, d = _sum(list(payload.values()))
        o = out()
        if n == d:
            return o
        return {y: Fraction(n * q.numerator, d * q.denominator)
                for y, q in o.items()}

    def leq(self, a, b):
        return all(p <= b.get(x, 0) for x, p in a.items())

    def effect(self, kind, name, index):
        return _HALVES

    def to_obj(self, payload):
        return {"entries": [[value_to_obj(x), str(payload[x])]
                            for x in self.support(payload)]}

    def from_obj(self, kind, obj):
        entries = obj["entries"]
        # each distinct probability text is parsed once
        parsed: dict = {}
        payload = {}
        for x, p in entries:
            x = value_from_obj(x)
            q = parsed.get(p) if type(p) is str else None
            if q is None:
                q = parsed[p] = _probability_from_obj(p)
            payload[x] = q
        if len(payload) != len(entries):
            raise ValueError("entries list an element twice")
        n, d = _sum(list(payload.values()))
        if n > d:
            raise KindError(f"total mass {Fraction(n, d)} exceeds 1")
        if any(not q.numerator for q in parsed.values()):
            payload = {x: p for x, p in payload.items() if p.numerator}
        return payload

    def render(self, payload):
        return "{" + ", ".join(f"{x}: {payload[x]}"
                               for x in self.support(payload)) + "}"

    def effect_text(self, arity, payload):
        return ",".join(str(payload.get(i, 0)) for i in range(1, arity + 1))

    def random(self, kind, rng, carrier):
        denom = rng.randint(1, 16)
        k = rng.randint(0, min(len(carrier), 3))
        chosen = rng.sample(carrier, k)
        left = denom
        entries = {}
        for x in chosen:
            w = rng.randint(0, left)
            left -= w
            if w:
                entries[x] = Fraction(w, denom)
        return entries

    def weaken(self, payload, rng):
        scales = [Fraction(rng.randint(0, 4), 4) for _ in payload]
        return {x: p * s for (x, p), s in zip(payload.items(), scales) if s}


@lru_cache(maxsize=None)
def _stores(width: int) -> tuple:
    return tuple(itertools.product((0, 1), repeat=width))


@lru_cache(maxsize=None)
def _state_effect(width: int, i: int, bit: Optional[int]) -> Mapping:
    """The generic effect of ``read`` at location ``i`` (``bit`` None),
    which returns 1 plus the bit there, or of ``write``, which sets it to
    ``bit`` and returns 1.  Shared, so read-only; at most 30 tables."""
    return MappingProxyType({s: Present(
        (s[i] + 1, s) if bit is None else (1, s[:i] + (bit,) + s[i + 1:]))
        for s in _stores(width)})


@lru_cache(maxsize=None)
def _bits(width: int) -> Mapping:
    """Each store of ``_stores(width)``, in order, to its bit string."""
    return MappingProxyType({s: "".join(map(str, s)) for s in _stores(width)})


@lru_cache(maxsize=None)
def _stores_by_bits(width: int) -> Mapping:
    """The inverse of ``_bits(width)``."""
    return MappingProxyType({b: s for s, b in _bits(width).items()})


def _store_from_str(text, by_bits: Mapping) -> tuple:
    store = by_bits.get(text) if type(text) is str else None
    if store is None:
        raise KindError(f"bad serialized store {text!r}")
    return store


class State(Instance):
    tag = "state"
    param = "locations"
    default = "l0,l1"
    help = "comma-separated locations for the state monad"
    ops = {"read": (2, 1), "write": (1, 2)}

    def check_kind(self, kind):
        if not kind.params:
            raise KindError("state monad needs a non-empty location list")
        if "" in kind.params:
            raise KindError(f"empty location in {kind.params!r}")
        if len(kind.params) > MAX_LOCATIONS:
            raise KindError(
                f"at most {MAX_LOCATIONS} locations supported, "
                f"got {len(kind.params)}")

    def normalise(self, kind, payload):
        table = dict(payload)
        all_stores = _stores(len(kind.params))
        for store in all_stores:
            if store not in table:
                raise KindError(f"store {store!r} missing from state table")
        if len(table) != len(all_stores):
            raise KindError("state table mentions stores outside the kind")
        return {s: self._cell(kind, table[s]) for s in all_stores}

    def _cell(self, kind, cell):
        if isinstance(cell, Diverge):
            return DIVERGE
        if not isinstance(cell, Present):
            raise KindError(f"bad state cell {cell!r}")
        x, nxt = cell.value
        nxt = tuple(nxt)
        if len(nxt) != len(kind.params) or \
                any(b not in (0, 1) for b in nxt):
            raise KindError(f"bad successor store {nxt!r}")
        return Present((x, nxt))

    def unit(self, kind, x):
        return {s: Present((x, s)) for s in _stores(len(kind.params))}

    def bottom(self, kind):
        return dict.fromkeys(_stores(len(kind.params)), DIVERGE)

    def returns(self, payload):
        return list(dict.fromkeys([cell.value[0] for cell in payload.values()
                                   if isinstance(cell, Present)]))

    def map(self, payload, g):
        # one walk; g meets each returned element once, in returns order
        image: dict = {}
        table = {}
        for s, c in payload.items():
            if isinstance(c, Present):
                x, nxt = c.value
                if x not in image:
                    image[x] = g(x)
                table[s] = Present((image[x], nxt))
            else:
                table[s] = DIVERGE
        return table

    def join(self, payload, outs):
        # one continuation result per returned element, shared by every
        # store that returns it; chains of binds do not fan out per store.
        # outs follows returns order, which is first-occurrence order, so
        # one walk takes the next result at each element's first store
        results: dict = {}
        following = iter(outs).__next__
        table = {}
        for s, c in payload.items():
            if isinstance(c, Present):
                x, nxt = c.value
                out = results.get(x)
                if out is None:
                    out = results[x] = following()
                table[s] = out[nxt]
            else:
                table[s] = DIVERGE
        return table

    def then(self, payload, out):
        # join's walk with one result for every returned element, so no
        # element is read or hashed
        o = None
        table = {}
        for s, c in payload.items():
            if isinstance(c, Present):
                if o is None:
                    o = out()
                table[s] = o[c.value[1]]
            else:
                table[s] = DIVERGE
        return table

    def leq(self, a, b):
        return all(_CELL.leq(a[s], b[s]) for s in a)

    def read_index(self, name, texts):
        index = super().read_index(name, texts)
        if name == "write":
            bit = index[1]
            if not (bit.isdecimal() and int(bit) in (0, 1)):
                raise ValueError(f"write bit must be 0 or 1, got {bit!r}")
            index = index[0], int(bit)
        return index

    def indices(self, kind, name):
        if name == "read":
            return kind.params
        return [(loc, b) for loc in kind.params for b in (0, 1)]

    def bad_index(self, kind, name, index):
        if name == "write":
            if not isinstance(index, tuple) or len(index) != 2 or \
                    index[0] in kind.params:
                return f"bad write index {index!r}"
            index = index[0]
        return f"unknown location {index!r}"

    def effect(self, kind, name, index):
        loc, bit = (index, None) if name == "read" else index
        return _state_effect(len(kind.params), kind.params.index(loc), bit)

    def minimal_kind(self, name, index):
        return MonadKind(self.tag, (index if name == "read" else index[0],))

    def to_obj(self, payload):
        bits = _bits(len(next(iter(payload))))
        return {"table": [
            [bits[s], [value_to_obj(c.value[0]), bits[c.value[1]]]
             if isinstance(c, Present) else None]
            for s, c in sorted(payload.items())]}

    def from_obj(self, kind, obj):
        width = len(kind.params)
        by_bits = _stores_by_bits(width)
        rows = obj["table"]
        table = {}
        for store_s, cell in rows:
            store = _store_from_str(store_s, by_bits)
            if cell is None:
                table[store] = DIVERGE
            else:
                x, nxt = cell
                table[store] = Present(
                    (value_from_obj(x), _store_from_str(nxt, by_bits)))
        if len(table) != len(rows):
            raise ValueError("table lists a store twice")
        # in store order, as normalise gives it: returns follows it
        try:
            return {s: table[s] for s in _stores(width)}
        except KeyError as exc:
            raise KindError(f"store {exc.args[0]!r} missing from state "
                            f"table") from None

    def _cells(self, payload, arrow, sep, comma):
        bits = _bits(len(next(iter(payload))))
        return sep.join(
            f"{bits[s]}{arrow}({c.value[0]}{comma}{bits[c.value[1]]})"
            if isinstance(c, Present) else f"{bits[s]}{arrow}↑"
            for s, c in sorted(payload.items()))

    def render(self, payload):
        return "{" + self._cells(payload, " ↦ ", ", ", ", ") + "}"

    def effect_text(self, arity, payload):
        return self._cells(payload, "↦", " , ", ",")

    def random(self, kind, rng, carrier):
        all_stores = _stores(len(kind.params))
        return {s: DIVERGE if not carrier or rng.random() < 0.25
                else Present((rng.choice(carrier), rng.choice(all_stores)))
                for s in all_stores}

    def weaken(self, payload, rng):
        return {s: (cell if rng.random() < 0.6 else DIVERGE)
                for s, cell in payload.items()}


class Output(Instance):
    tag = "output"
    param = "alphabet"
    default = "ab"
    help = "characters for the output monad"
    ops = {"print": (1, 1)}

    def check_kind(self, kind):
        if not kind.params:
            raise KindError("output monad needs a non-empty alphabet")
        if any(not (isinstance(c, str) and len(c) == 1)
               for c in kind.params):
            raise KindError("alphabet entries must be single characters")

    def kind_from_text(self, texts):
        return MonadKind(self.tag, texts[self.param])

    def normalise(self, kind, payload):
        w, tail = payload
        if not isinstance(w, str) or any(c not in kind.params for c in w):
            raise KindError(f"output string {w!r} not over the alphabet")
        if not isinstance(tail, (Present, Diverge)):
            raise KindError(f"bad output tail {tail!r}")
        return (w, tail)

    def unit(self, kind, x):
        return ("", Present(x))

    def bottom(self, kind):
        return ("", DIVERGE)

    def returns(self, payload):
        return _CELL.returns(payload[1])

    def map(self, payload, g):
        return (payload[0], _CELL.map(payload[1], g))

    def join(self, payload, outs):
        if not outs:
            return payload
        u, tail = outs[0]
        return (payload[0] + u, tail)

    def leq(self, a, b):
        u, ta = a
        w, tb = b
        if isinstance(ta, Diverge):
            return w.startswith(u)
        return u == w and ta == tb

    def bad_index(self, kind, name, index):
        return f"character {index!r} not in the alphabet"

    def effect(self, kind, name, index):
        return (index, Present(1))

    def to_obj(self, payload):
        return {"out": payload[0], **_CELL.to_obj(payload[1])}

    def from_obj(self, kind, obj):
        return self.normalise(kind, (obj["out"], _CELL._cell_from_obj(obj)))

    def render(self, payload):
        return f'("{payload[0]}", {_CELL.render(payload[1])})'

    def effect_text(self, arity, payload):
        return f"({payload[0] or 'ε'},{_CELL.render(payload[1])})"

    def random(self, kind, rng, carrier):
        w = "".join(rng.choice(kind.params)
                    for _ in range(rng.randint(0, 3)))
        if not carrier or rng.random() < 0.25:
            return (w, DIVERGE)
        return (w, Present(rng.choice(carrier)))

    def weaken(self, payload, rng):
        if rng.random() < 0.5:
            return payload
        w = payload[0]
        return (w[:rng.randint(0, len(w))], DIVERGE)


INSTANCES: dict[str, Instance] = {
    inst.tag: inst
    for inst in (Maybe(), Exc(), Powerset(), Dist(), State(), Output())}


def instance(tag: str) -> Instance:
    """The registered instance for a tag."""
    try:
        return INSTANCES[tag]
    except (KeyError, TypeError):
        raise KindError(f"unknown monad tag {tag!r}") from None


MAYBE = MonadKind("maybe")
POWERSET = MonadKind("set")
DIST = MonadKind("dist")


exception_kind = partial(MonadKind, "exc")
state_kind = partial(MonadKind, "state")
output_kind = partial(MonadKind, "output")


def stores(kind: MonadKind) -> list[tuple[int, ...]]:
    """All boolean stores of a state kind, in lexicographic order."""
    if not isinstance(INSTANCES[kind.tag], State):
        raise KindError("stores() only applies to the state monad")
    return list(_stores(len(kind.params)))


def unit(kind: MonadKind, x) -> MonadValue:
    """The trivially converging computation returning ``x``."""
    return _trusted(kind, INSTANCES[kind.tag].unit(kind, x))


def bottom(kind: MonadKind) -> MonadValue:
    """The least element of the instance order."""
    return _trusted(kind, INSTANCES[kind.tag].bottom(kind))


def is_bottom(mu: MonadValue) -> bool:
    return mu == bottom(mu.kind)


def bind(mu: MonadValue, f: Callable[[Any], MonadValue]) -> MonadValue:
    """Kleisli extension: run ``mu``, feed each result through ``f``.

    ``f`` must be total on ``support(mu)`` and return values of the same
    kind as ``mu``.
    """
    kind = mu.kind
    inst = INSTANCES[kind.tag]
    outs = []
    for x in inst.returns(mu.payload):
        out = f(x)
        if not isinstance(out, MonadValue) or \
                out.kind is not kind and out.kind != kind:
            raise KindError(
                "bind continuation produced a value of another kind")
        outs.append(out.payload)
    return _trusted(kind, inst.join(mu.payload, outs))


def map_carrier(mu: MonadValue, g: Callable[[Any], Any]) -> MonadValue:
    """Functorial action: relabel every returned carrier element by ``g``.

    Equals ``bind(mu, lambda x: unit(mu.kind, g(x)))`` and calls ``g`` in
    the same order, but the instance's ``map`` builds it unchecked."""
    return _trusted(mu.kind, INSTANCES[mu.kind.tag].map(mu.payload, g))


def support(mu: MonadValue) -> list:
    """The smallest carrier subset the value lives over, canonically sorted."""
    return INSTANCES[mu.kind.tag].support(mu.payload)


def leq(a: MonadValue, b: MonadValue) -> bool:
    """The instance order.  Both arguments must share one kind."""
    if a.kind != b.kind:
        raise KindError(f"cannot compare {a.kind.tag} with {b.kind.tag}")
    return INSTANCES[a.kind.tag].leq(a.payload, b.payload)


def mass(mu: MonadValue) -> Fraction:
    """Total probability mass of a subdistribution."""
    if not isinstance(INSTANCES[mu.kind.tag], Dist):
        raise KindError("mass() only applies to the dist monad")
    return Fraction(*_sum(list(mu.payload.values())))


def signature(kind: MonadKind) -> tuple[OpDescriptor, ...]:
    """The effect-triggering operations of an instance."""
    inst = INSTANCES[kind.tag]
    return tuple(OpDescriptor(name, kind, index)
                 for name in inst.ops
                 for index in inst.indices(kind, name))


def op_effect(desc: OpDescriptor) -> MonadValue:
    """The generic effect of a signature operation, over ``1..arity``."""
    kind = desc.kind
    return _trusted(kind, INSTANCES[kind.tag].effect(
        kind, desc.name, desc.index))


def op_apply(desc: OpDescriptor, args: Sequence[MonadValue]) -> MonadValue:
    """Apply one signature operation to monadic arguments: bind its
    generic effect over them, which returns ``1..arity`` in order."""
    if len(args) != desc.arity:
        raise ArityError(
            f"{desc.name} expects {desc.arity} arguments, got {len(args)}")
    kind = desc.kind
    for a in args:
        if a.kind != kind:
            raise KindError(
                f"argument of kind {a.kind.tag} passed to a {kind.tag} op")
    inst = INSTANCES[kind.tag]
    return _trusted(kind, inst.join(inst.effect(kind, desc.name, desc.index),
                                    [a.payload for a in args]))
