"""The term evaluator as it was before bodies that ignore their argument
were shared: plain recursive substitution, every beta step taken on every
path.  ``tests/test_lang.py`` checks ``lang.evaluate`` against it.

``free_vars``, ``substitute``, ``_eval`` and ``_beta`` are that
evaluator's code unchanged; only the imports are new.
"""

from effectdiagrams.lang import (Abs, App, EvalError, Op, Term, Var,
                                 _fresh, resolve_op)
from effectdiagrams.monads import (MonadKind, bind, bottom, op_apply,
                                   unit)


def evaluate(term, kind, fuel):
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    return _eval(term, kind, fuel)


def free_vars(term: Term) -> frozenset:
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Abs):
        return free_vars(term.body) - {term.param}
    if isinstance(term, App):
        return free_vars(term.fn) | free_vars(term.arg)
    if isinstance(term, Op):
        out = frozenset()
        for a in term.args:
            out |= free_vars(a)
        return out
    raise TypeError(f"not a term: {term!r}")


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of ``replacement`` for free ``name``.

    Bound variables that would capture a free variable of the
    replacement are renamed first.
    """
    fv_repl = free_vars(replacement)

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            return replacement if t.name == name else t
        if isinstance(t, Abs):
            if t.param == name:
                return t
            if t.param in fv_repl and name in free_vars(t.body):
                taken = fv_repl | free_vars(t.body) | {name}
                fresh = _fresh(t.param, taken)
                renamed = substitute(t.body, t.param, Var(fresh))
                return Abs(fresh, go(renamed))
            return Abs(t.param, go(t.body))
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, Op):
            return Op(t.op, tuple(go(a) for a in t.args))
        raise TypeError(f"not a term: {t!r}")

    return go(term)


def _eval(t: Term, kind: MonadKind, fuel: int):
    if isinstance(t, (Var, Abs)):
        return unit(kind, t)
    if isinstance(t, App):
        mf = _eval(t.fn, kind, fuel)
        ma = _eval(t.arg, kind, fuel)
        return bind(mf, lambda vf: bind(
            ma, lambda va: _beta(vf, va, kind, fuel)))
    if isinstance(t, Op):
        desc = resolve_op(t.op, kind)
        return op_apply(desc, [_eval(a, kind, fuel) for a in t.args])
    raise EvalError(f"not a term: {t!r}")


def _beta(vf: Term, va: Term, kind: MonadKind, fuel: int):
    if not isinstance(vf, Abs):
        raise EvalError(
            f"cannot apply {vf!s}: free variables are inert symbols")
    if fuel == 0:
        return bottom(kind)
    return _eval(substitute(vf.body, vf.param, va), kind, fuel - 1)

