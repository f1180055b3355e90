"""Canonical machine serialization and text rendering of monad values.

The machine format is a tagged JSON tree.  Rationals appear as strings
in lowest terms (``"1/2"``, ``"1"``); dict-like payloads are emitted in
canonical carrier order so equal values always serialize identically.
Carrier elements serialize as JSON numbers (ints) or strings; any other
element (a syntax tree, say) is flattened to its printed form and comes
back as a string.  A kind's envelope is read and written only here; the
per-instance payload layouts live in ``monads``.
"""

from __future__ import annotations

import json

from .monads import (INSTANCES, KindError, MonadKind, MonadValue, _trusted,
                     instance)
from .monads import value_from_obj, value_to_obj  # noqa: F401 (re-exported)


def to_obj(mu: MonadValue) -> dict:
    """Serialize a monad value to a JSON-ready dict."""
    inst = INSTANCES[mu.kind.tag]
    params = {inst.param: list(mu.kind.params)} if inst.param else {}
    return {"kind": inst.tag, **params, **inst.to_obj(mu.payload)}


def malformed(what: str, exc: Exception) -> KindError:
    """The error for a serialized ``what`` that ``exc`` was raised on."""
    reason = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) \
        else str(exc)
    return KindError(f"bad serialized {what}: {reason}")


def from_obj(obj: dict) -> MonadValue:
    """Rebuild a monad value from its serialized form.

    Malformed input raises ``KindError``, naming a missing key.  The
    instance's ``from_obj`` checks the payload as ``MonadValue`` would,
    so it is wrapped unchecked.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise KindError(f"bad serialized monad value: {obj!r}")
    inst = instance(obj["kind"])
    try:
        params = obj[inst.param] if inst.param else []
        if not isinstance(params, list):
            raise TypeError(f"{inst.param} {params!r} is not a list")
        kind = MonadKind(inst.tag, params)
        payload = inst.from_obj(kind, obj)
    except KindError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise malformed(f"{inst.tag} value", exc) from None
    return _trusted(kind, payload)


def dumps(mu: MonadValue) -> str:
    return json.dumps(to_obj(mu), ensure_ascii=False, separators=(",", ":"))


def loads(text: str) -> MonadValue:
    return from_obj(json.loads(text))


def render_value(mu: MonadValue) -> str:
    """Human-readable one-line rendering of a monad value."""
    return INSTANCES[mu.kind.tag].render(mu.payload)
