"""Hypothesis strategies for monad values and programs shared across test
modules."""

from fractions import Fraction

import hypothesis.strategies as st

import effectdiagrams as ed
from effectdiagrams.lang import Abs, App, Op, Var

CARRIER = ("a", "b", "c")
EXC = ed.exception_kind(("err", "crash"))
STATE = ed.state_kind(("l0", "l1"))
OUTPUT = ed.output_kind(("a", "b"))
ALL_KINDS = (ed.MAYBE, EXC, ed.POWERSET, ed.DIST, STATE, OUTPUT)


def kinds():
    return st.sampled_from(ALL_KINDS)


def _dist_values(carrier):
    pair = st.tuples(st.sampled_from(carrier), st.integers(0, 4))
    raw = st.tuples(st.lists(pair, max_size=3), st.integers(0, 4))

    def build(args):
        pairs, slack = args
        total = sum(w for _, w in pairs) + slack
        if total == 0:
            return ed.MonadValue(ed.DIST, {})
        acc = {}
        for x, w in pairs:
            acc[x] = acc.get(x, Fraction(0)) + Fraction(w, total)
        return ed.MonadValue(ed.DIST, acc)

    return raw.map(build)


def _state_values(kind, carrier):
    store_list = ed.stores(kind)
    cell = st.one_of(
        st.none(),
        st.tuples(st.sampled_from(carrier), st.sampled_from(store_list)))

    def build(cells):
        table = {}
        for store, c in zip(store_list, cells):
            if c is None:
                table[store] = ed.DIVERGE
            else:
                table[store] = ed.Present(c)
        return ed.MonadValue(kind, table)

    return st.tuples(*[cell] * len(store_list)).map(build)


def _output_values(kind, carrier):
    word = st.text(alphabet="".join(kind.params), max_size=3)
    tail = st.one_of(st.none(), st.sampled_from(carrier))
    return st.tuples(word, tail).map(
        lambda wt: ed.MonadValue(
            kind, (wt[0],
                   ed.DIVERGE if wt[1] is None else ed.Present(wt[1]))))


def values_for(kind, carrier=CARRIER):
    """Arbitrary elements of one instance over a small fixed carrier."""
    carrier = list(carrier)
    tag = kind.tag
    if tag == "maybe":
        return st.one_of(
            st.just(ed.bottom(kind)),
            st.sampled_from(carrier).map(lambda x: ed.unit(kind, x)))
    if tag == "exc":
        return st.one_of(
            st.just(ed.bottom(kind)),
            st.sampled_from(kind.params).map(
                lambda e: ed.MonadValue(kind, ed.Raised(e))),
            st.sampled_from(carrier).map(lambda x: ed.unit(kind, x)))
    if tag == "set":
        return st.frozensets(st.sampled_from(carrier), max_size=3).map(
            lambda s: ed.MonadValue(kind, s))
    if tag == "dist":
        return _dist_values(carrier)
    if tag == "state":
        return _state_values(kind, carrier)
    if tag == "output":
        return _output_values(kind, carrier)
    raise ValueError(tag)


def kleisli_for(kind, domain=CARRIER, carrier=CARRIER):
    """A random carrier-indexed table of monadic values."""
    domain = list(domain)
    return st.tuples(*[values_for(kind, carrier) for _ in domain]).map(
        lambda vals: dict(zip(domain, vals)))


def kind_and_value():
    return kinds().flatmap(
        lambda k: st.tuples(st.just(k), values_for(k)))


def kind_value_and_kleisli():
    return kinds().flatmap(
        lambda k: st.tuples(st.just(k), values_for(k), kleisli_for(k)))


# binders of generated programs; "a" is also an inert symbol, so some
# substitutions must rename a bound "a" to avoid capturing a free one
BINDERS = ("x", "y", "a")
SYMBOLS = ("a", "b")
OMEGA = ed.default_defs()["OMEGA"]


@st.composite
def _program(draw, ops, scope, depth, form=None):
    """``scope`` lists the names in scope, innermost binder last; a
    ``form`` fixes the outermost constructor."""
    forms = ["var"] * 7 + ["omega"]
    if depth:
        forms += ["abs", "app", "seq"] + ["let"] * 2 + ["op"] * 3 * bool(ops)
    form = form or draw(st.sampled_from(forms))
    if form == "var":
        names = sorted(set(scope) | set(SYMBOLS))
        # half of the variables name the innermost binder
        return Var(draw(st.sampled_from(names + [*scope[-1:]] * len(names))))
    if form == "omega":
        return OMEGA
    if form in ("abs", "let"):
        name = draw(st.sampled_from(BINDERS))
        fn = Abs(name, draw(_program(ops, scope + (name,), depth - 1)))
        if form == "abs":
            return fn
        # (\name. body) arg: half the time arg is an operation, so the
        # body may run once per value it returns
        bound = "op" if ops and depth > 1 and draw(st.booleans()) else None
        return App(fn, draw(_program(ops, scope, depth - 1, bound)))
    if form == "op":
        desc = draw(st.sampled_from(ops))
        return Op(desc, tuple(draw(_program(ops, scope, depth - 1))
                              for _ in range(desc.arity)))
    first = draw(_program(ops, scope, depth - 1))
    second = draw(_program(ops, scope, depth - 1))
    if form == "seq":
        # what the parser makes of "first ; second"
        return App(Abs("_", second), first)
    return App(first, second)


def programs(kind, depth=4, free=()):
    """Programs whose only free variables are the inert symbols and
    the names in ``free``.

    They use abstraction, application, ``;``, a divergent ``OMEGA`` and
    every operation of ``kind`` with each index valid under it.
    """
    return _program(ed.signature(kind), tuple(free), depth)
