"""Instance semantics: unit, bind, operations, support, order, bottom."""

import dataclasses
import inspect
import itertools
import pickle
import random
from fractions import Fraction as F
from types import MappingProxyType

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import effectdiagrams as ed
from effectdiagrams import gen, serialize

from strategies import (ALL_KINDS, CARRIER, EXC, OUTPUT, STATE,
                        kind_and_value, kind_value_and_kleisli, kinds,
                        values_for, kleisli_for)


def dist(entries):
    return ed.MonadValue(ed.DIST, entries)


def pset(*elems):
    return ed.MonadValue(ed.POWERSET, frozenset(elems))


def out(w, tail):
    return ed.MonadValue(OUTPUT, (w, tail))


class TestUnit:
    def test_maybe(self):
        assert ed.unit(ed.MAYBE, "v") == ed.MonadValue(
            ed.MAYBE, ed.Present("v"))

    def test_dist_is_dirac(self):
        assert ed.unit(ed.DIST, "v") == dist({"v": F(1)})

    def test_output_has_empty_prefix(self):
        # pairing the empty word with a converged tail is the only unit
        # compatible with prefix concatenation on bind
        assert ed.unit(OUTPUT, "v") == out("", ed.Present("v"))

    def test_state_keeps_store(self):
        mv = ed.unit(STATE, "v")
        for store in ed.stores(STATE):
            assert mv.payload[store] == ed.Present(("v", store))

    def test_injective_on_carrier(self):
        for kind in ALL_KINDS:
            for x, y in itertools.combinations(CARRIER, 2):
                assert ed.unit(kind, x) != ed.unit(kind, y)


class TestBind:
    def test_left_unit_maybe(self):
        f = lambda x: ed.unit(ed.MAYBE, x + "!")
        assert ed.bind(ed.unit(ed.MAYBE, "v"), f) == f("v")

    def test_dist_convolution(self):
        mu = dist({"a": F(1, 2), "b": F(1, 2)})
        table = {"a": dist({"x": F(1)}),
                 "b": dist({"x": F(1, 2), "y": F(1, 2)})}
        # independent convolution oracle: sum_x mu(x) * f(x)(y)
        expected = {}
        for x, p in mu.payload.items():
            for y, q in table[x].payload.items():
                expected[y] = expected.get(y, F(0)) + p * q
        assert expected == {"x": F(3, 4), "y": F(1, 4)}
        assert ed.bind(mu, lambda x: table[x]) == dist(expected)

    def test_output_divergent_tail_stops(self):
        mu = out("ab", ed.DIVERGE)
        called = []

        def f(x):
            called.append(x)
            return ed.unit(OUTPUT, x)

        assert ed.bind(mu, f) == out("ab", ed.DIVERGE)
        assert called == []

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ed.KindError):
            ed.bind(ed.unit(ed.MAYBE, "v"), lambda x: ed.unit(ed.DIST, x))


# an injective relabelling and one that merges "a" with "b"
RELABELS = {
    "rename": str.upper,
    "merge": {"a": "x", "b": "x", "c": "y", "A": "x", "B": "x", "C": "y",
              "x": "y", "y": "y"}.__getitem__,
}


class TestMapCarrier:
    def test_maybe(self):
        got = ed.map_carrier(ed.unit(ed.MAYBE, "a"), lambda _: "b")
        assert got == ed.unit(ed.MAYBE, "b")

    def test_dist_mass_collapses_additively(self):
        mu = dist({"a": F(1, 3), "b": F(2, 3)})
        assert ed.map_carrier(mu, lambda _: "c") == dist({"c": F(1)})

    def test_set_image(self):
        assert ed.map_carrier(pset("a", "b"), lambda _: "c") == pset("c")

    def test_every_instance_maps_without_a_base_default(self):
        assert not hasattr(ed.monads.Instance, "map")
        for inst in ed.monads.INSTANCES.values():
            assert callable(inst.map)

    @given(kind_and_value(), st.sampled_from(sorted(RELABELS)))
    @settings(max_examples=150)
    def test_agrees_with_bind_and_is_a_functor(self, kv, which):
        kind, mu = kv
        g = RELABELS[which]
        by_map, by_bind = [], []
        got = ed.map_carrier(mu, lambda x: by_map.append(x) or g(x))
        want = ed.bind(mu, lambda x: by_bind.append(x) or ed.unit(kind, g(x)))
        # the same value, with g called in the same order and the same
        # dict order, so that later seeded draws over it do not change
        assert got == want and by_map == by_bind
        assert repr(got.payload) == repr(want.payload)
        canon = ed.monads._normalise(kind, got.payload)
        assert canon == got.payload and type(canon) is type(got.payload)
        assert repr(canon) == repr(got.payload)
        assert ed.map_carrier(mu, lambda x: x) == mu
        h = RELABELS["merge"]
        assert ed.map_carrier(ed.map_carrier(mu, g), h) == \
            ed.map_carrier(mu, lambda x: h(g(x)))


def _check_then(kind, mu, nu):
    """``then`` and the ``Instance`` default against ``join`` over one
    ``nu`` per returned element: the same value in the same order, with
    ``out`` called once, or never when nothing is returned."""
    inst = ed.monads.INSTANCES[kind.tag]
    returned = list(inst.returns(mu.payload))
    want = ed.monads._trusted(
        kind, inst.join(mu.payload, [nu.payload] * len(returned)))
    for then in (inst.then, ed.monads.Instance.then.__get__(inst)):
        calls = []
        got = ed.monads._trusted(kind, then(
            mu.payload, lambda: calls.append(1) or nu.payload))
        assert got == want
        if hasattr(want.payload, "items"):
            assert list(got.payload.items()) == list(want.payload.items())
        assert len(calls) == (1 if returned else 0)


class TestThen:
    @given(kinds().flatmap(lambda k: st.tuples(
        st.just(k), values_for(k), values_for(k))))
    @settings(max_examples=300)
    def test_join_of_one_result_for_every_element(self, kvv):
        _check_then(*kvv)

    @pytest.mark.parametrize("kind", (
        *ALL_KINDS, ed.state_kind(("l0",)),
        ed.state_kind(("l0", "l1", "l2", "l3")), ed.output_kind("xy")),
        ids=lambda k: f"{k.tag}-{len(k.params)}")
    def test_generated_values_and_edges(self, kind):
        rng = random.Random(f"then:{kind}")
        draws = [gen.random_value(kind, rng, CARRIER) for _ in range(200)]
        # empty payloads, and cells or mass that return nothing
        edges = [ed.bottom(kind), gen.random_value(kind, rng, ())]
        for mu in draws + edges:
            for nu in (rng.choice(draws), ed.bottom(kind)):
                _check_then(kind, mu, nu)

    def test_dist_below_mass_one_scales_and_at_one_hands_back(self):
        half = dist({"a": F(1, 3), "b": F(1, 6)})
        nu = dist({"x": F(1, 4), "y": F(3, 4)})
        then = ed.monads.INSTANCES["dist"].then
        assert then(half.payload, lambda: nu.payload) == \
            {"x": F(1, 8), "y": F(3, 8)}
        whole = dist({"a": F(1, 3), "b": F(2, 3)})
        assert then(whole.payload, lambda: nu.payload) is nu.payload
        _check_then(ed.DIST, half, nu)


class TestOpApply:
    def test_choice_is_fair_mixture(self):
        choice = ed.signature(ed.DIST)[0]
        got = ed.op_apply(choice, [dist({"a": F(1)}), dist({"b": F(1)})])
        assert got == dist({"a": F(1, 2), "b": F(1, 2)})

    def test_choice_matches_pointwise_formula(self):
        # (mu (+) nu)(x) = mu(x)/2 + nu(x)/2
        choice = ed.signature(ed.DIST)[0]
        mu = dist({"a": F(1, 2), "b": F(1, 4)})
        nu = dist({"b": F(1, 2)})
        got = ed.op_apply(choice, [mu, nu])
        for x in ("a", "b", "c"):
            lhs = got.payload.get(x, F(0))
            rhs = (mu.payload.get(x, F(0)) + nu.payload.get(x, F(0))) / 2
            assert lhs == rhs

    def test_print_prepends(self):
        print_a = ed.OpDescriptor("print", OUTPUT, "a")
        got = ed.op_apply(print_a, [out("b", ed.Present("v"))])
        assert got == out("ab", ed.Present("v"))

    def test_union_idempotent(self):
        union = ed.signature(ed.POWERSET)[0]
        assert ed.op_apply(union, [pset("a"), pset("a", "b")]) == \
            pset("a", "b")

    def test_raise(self):
        raise_err = ed.OpDescriptor("raise", EXC, "err")
        assert ed.op_apply(raise_err, []) == ed.MonadValue(
            EXC, ed.Raised("err"))

    def test_read_branches_on_bit(self):
        read = ed.OpDescriptor("read", STATE, "l0")
        got = ed.op_apply(read, [ed.unit(STATE, "zero"),
                                 ed.unit(STATE, "one")])
        for store in ed.stores(STATE):
            want = "zero" if store[0] == 0 else "one"
            assert got.payload[store] == ed.Present((want, store))

    def test_write_updates_store(self):
        write = ed.OpDescriptor("write", STATE, ("l1", 1))
        got = ed.op_apply(write, [ed.unit(STATE, "v")])
        for store in ed.stores(STATE):
            assert got.payload[store] == ed.Present(
                ("v", (store[0], 1)))

    def test_arity_mismatch(self):
        union = ed.signature(ed.POWERSET)[0]
        with pytest.raises(ed.ArityError):
            ed.op_apply(union, [pset("a")])

    def test_bad_index(self):
        with pytest.raises(ed.KindError):
            ed.op_apply(ed.OpDescriptor("print", OUTPUT, "z"),
                        [ed.unit(OUTPUT, "v")])


class TestSupport:
    def test_present(self):
        assert ed.support(ed.unit(ed.MAYBE, "v")) == ["v"]

    def test_dist_nonzero_entries(self):
        assert ed.support(dist({"b": F(1, 2), "a": F(1, 2)})) == ["a", "b"]

    def test_raised_is_empty(self):
        # an exception carries no carrier element: the value already
        # lives over the empty carrier
        assert ed.support(ed.MonadValue(EXC, ed.Raised("err"))) == []

    def test_state_collects_all_stores(self):
        table = {s: ed.DIVERGE for s in ed.stores(STATE)}
        table[(0, 0)] = ed.Present(("b", (1, 1)))
        table[(1, 1)] = ed.Present(("a", (0, 0)))
        assert ed.support(ed.MonadValue(STATE, table)) == ["a", "b"]

    def test_tuples_sort_after_strings_componentwise(self):
        mu = pset((2, "a"), (1, "b"), (1, "a"), "z", 3)
        assert ed.support(mu) == [3, "z", (1, "a"), (1, "b"), (2, "a")]


class TestLeq:
    def test_bottom_least_maybe(self):
        assert ed.leq(ed.bottom(ed.MAYBE), ed.unit(ed.MAYBE, "v"))

    def test_output_prefix_under_divergence(self):
        assert ed.leq(out("a", ed.DIVERGE), out("ab", ed.Present("v")))
        assert not ed.leq(out("b", ed.DIVERGE), out("ab", ed.Present("v")))

    def test_output_converged_needs_equality(self):
        assert not ed.leq(out("a", ed.Present("v")),
                          out("ab", ed.Present("v")))
        assert ed.leq(out("a", ed.Present("v")), out("a", ed.Present("v")))

    def test_dist_pointwise_failure(self):
        assert not ed.leq(dist({"a": F(1, 2)}),
                          dist({"a": F(1, 3), "b": F(1, 3)}))

    def test_dist_pointwise_success(self):
        assert ed.leq(dist({"a": F(1, 3)}),
                      dist({"a": F(1, 3), "b": F(1, 3)}))

    def test_kind_mismatch(self):
        with pytest.raises(ed.KindError):
            ed.leq(ed.unit(ed.MAYBE, "v"), ed.unit(ed.DIST, "v"))

    @settings(max_examples=150, deadline=None)
    @given(kinds(), st.data())
    def test_partial_order(self, kind, data):
        """Reflexive, antisymmetric and transitive, with bottom least and
        every ``gen.weaken`` below its argument, over drawn values and two
        weakenings in a chain below each."""
        rng = data.draw(st.randoms(use_true_random=False))
        values = data.draw(st.lists(values_for(kind), min_size=1, max_size=3))
        bot = ed.bottom(kind)
        pool = [bot, *values]
        for nu in values:
            for _ in range(2):
                mu = gen.weaken(nu, rng)
                assert ed.leq(mu, nu)
                pool.append(mu)
                nu = mu
        for a in pool:
            assert ed.leq(a, a) and ed.leq(bot, a)
        for a, b in itertools.product(pool, repeat=2):
            if ed.leq(a, b) and ed.leq(b, a):
                assert a == b
        for a, b, c in itertools.product(pool, repeat=3):
            if ed.leq(a, b) and ed.leq(b, c):
                assert ed.leq(a, c)


class TestBottom:
    def test_values(self):
        assert ed.bottom(ed.MAYBE) == ed.MonadValue(ed.MAYBE, ed.DIVERGE)
        assert ed.bottom(ed.DIST) == dist({})
        assert ed.mass(ed.bottom(ed.DIST)) == 0
        assert ed.bottom(OUTPUT) == out("", ed.DIVERGE)
        assert ed.bottom(ed.POWERSET) == pset()

    @given(kind_and_value())
    def test_least(self, kv):
        kind, mu = kv
        assert ed.leq(ed.bottom(kind), mu)

    def test_strict_map(self):
        for kind in ALL_KINDS:
            got = ed.map_carrier(ed.bottom(kind), lambda x: (x, x))
            assert got == ed.bottom(kind)


class TestKleisliLaws:
    @given(kind_value_and_kleisli())
    def test_right_unit(self, kvf):
        kind, mu, _ = kvf
        assert ed.bind(mu, lambda x: ed.unit(kind, x)) == mu

    @given(kind_value_and_kleisli())
    def test_left_unit(self, kvf):
        kind, _, table = kvf
        for x in CARRIER:
            assert ed.bind(ed.unit(kind, x), lambda y: table[y]) == table[x]

    @settings(max_examples=60)
    @given(kinds().flatmap(lambda k: st.tuples(
        st.just(k), values_for(k), kleisli_for(k), kleisli_for(k))))
    def test_associativity(self, kvfg):
        kind, mu, ftab, gtab = kvfg
        f = lambda x: ftab[x]
        g = lambda x: gtab[x]
        lhs = ed.bind(ed.bind(mu, f), g)
        rhs = ed.bind(mu, lambda x: ed.bind(f(x), g))
        assert lhs == rhs

    def test_exhaustive_flat_instances(self):
        # every (mu, f) combination over a 2-element carrier
        for kind in (ed.MAYBE, EXC, ed.POWERSET):
            carrier = ["a", "b"]
            values = gen.enumerate_values(kind, carrier)
            tables = gen.enumerate_kleisli(kind, carrier, carrier)
            assert values and tables
            for mu in values:
                assert ed.bind(mu, lambda x: ed.unit(kind, x)) == mu
                for table in tables:
                    f = lambda x: table[x]
                    for x in carrier:
                        assert ed.bind(ed.unit(kind, x), f) == f(x)
                    lhs = ed.bind(ed.bind(mu, f), f)
                    rhs = ed.bind(mu, lambda x: ed.bind(f(x), f))
                    assert lhs == rhs


class TestAlgebraicity:
    @settings(max_examples=40)
    @given(kind_value_and_kleisli())
    def test_signature_ops_distribute_over_bind(self, kvf):
        kind, mu, table = kvf
        f = lambda x: table[x]
        rng = random.Random(7)
        for desc in ed.signature(kind):
            args = [gen.random_value(kind, rng, CARRIER)
                    for _ in range(desc.arity)]
            lhs = ed.bind(ed.op_apply(desc, args), f)
            rhs = ed.op_apply(desc, [ed.bind(a, f) for a in args])
            assert lhs == rhs, desc


class TestMonotonicity:
    def test_bind_monotone_in_value(self):
        rng = random.Random(11)
        for kind in ALL_KINDS:
            for _ in range(50):
                nu = gen.random_value(kind, rng, CARRIER)
                mu = gen.weaken(nu, rng)
                assert ed.leq(mu, nu)
                f, _ = gen.random_kleisli(kind, rng, CARRIER, CARRIER)
                assert ed.leq(ed.bind(mu, f), ed.bind(nu, f))

    def test_bind_monotone_in_function(self):
        rng = random.Random(12)
        for kind in ALL_KINDS:
            for _ in range(50):
                mu = gen.random_value(kind, rng, CARRIER)
                g, gtab = gen.random_kleisli(kind, rng, CARRIER, CARRIER)
                weak = {x: gen.weaken(gtab[x], rng) for x in CARRIER}
                assert ed.leq(ed.bind(mu, lambda x: weak[x]),
                              ed.bind(mu, g))

    def test_ops_monotone_in_each_argument(self):
        rng = random.Random(13)
        for kind in ALL_KINDS:
            for desc in ed.signature(kind):
                for _ in range(30):
                    high = [gen.random_value(kind, rng, CARRIER)
                            for _ in range(desc.arity)]
                    low = list(high)
                    if high:
                        i = rng.randrange(len(high))
                        low[i] = gen.weaken(high[i], rng)
                    assert ed.leq(ed.op_apply(desc, low),
                                  ed.op_apply(desc, high))


class TestMassConservation:
    @given(values_for(ed.DIST), kleisli_for(ed.DIST))
    def test_bind_never_gains_mass(self, mu, table):
        assert ed.mass(ed.bind(mu, lambda x: table[x])) <= ed.mass(mu)

    @given(values_for(ed.DIST))
    def test_mass_preserved_by_total_functions(self, mu):
        f = lambda x: ed.unit(ed.DIST, x + x)
        assert ed.mass(ed.bind(mu, f)) == ed.mass(mu)


# Dist as it computed before its arithmetic moved to integer numerators:
# one reduced Fraction per term.  TestExactArithmetic holds the instance
# to these values and key orders.
def ref_join(payload, outs):
    acc = {}
    for p, out in zip(payload.values(), outs):
        for y, q in out.items():
            acc[y] = acc.get(y, 0) + p * q
    return acc


def ref_map(payload, g):
    acc = {}
    for x, p in payload.items():
        y = g(x)
        acc[y] = acc.get(y, 0) + p
    return acc


def ref_normalise(payload):
    entries = {x: F(p) for x, p in payload.items()}
    if any(p < 0 for p in entries.values()):
        raise ed.KindError("negative probability")
    entries = {x: p for x, p in entries.items() if p}
    if sum(entries.values(), F(0)) > 1:
        raise ed.KindError("total mass exceeds 1")
    return entries


DIST_INSTANCE = ed.monads.INSTANCES["dist"]


@st.composite
def big_payloads(draw, max_size=64):
    """Canonical dist payloads over the keys 0..99 with up to
    ``max_size`` entries of denominator up to 2**20 (each at most 1/64,
    so the mass stays at most 1)."""
    size = draw(st.integers(0, max_size))
    keys = draw(st.lists(st.integers(0, 99), unique=True, min_size=size,
                         max_size=size))
    dens = [draw(st.integers(1, 2 ** 14)) for _ in keys]
    return {x: F(draw(st.integers(1, d)), 64 * d) for x, d in zip(keys, dens)}


def _same(got, want):
    """The same values in the same key order, each a plain Fraction."""
    assert got == want and list(got) == list(want)
    assert all(type(v) is F for v in got.values())


class TestExactArithmetic:
    """``Dist`` sums integer numerators and builds one Fraction per
    support element; it must agree exactly with the per-term fold."""

    @settings(max_examples=30, deadline=None)
    @given(big_payloads(), st.lists(big_payloads(max_size=8), min_size=1,
                                    max_size=8))
    def test_join(self, payload, pool):
        # continuation results cycle through a pool of drawn payloads
        outs = [pool[i % len(pool)] for i in range(len(payload))]
        _same(DIST_INSTANCE.join(payload, outs), ref_join(payload, outs))

    @settings(max_examples=30, deadline=None)
    @given(big_payloads(), st.integers(1, 8))
    def test_map_sums_collisions_and_keeps_single_preimages(self, payload,
                                                           m):
        got = DIST_INSTANCE.map(payload, lambda x: x % m)
        _same(got, ref_map(payload, lambda x: x % m))
        for x, p in payload.items():
            if [y % m for y in payload].count(x % m) == 1:
                assert got[x % m] is p
        _same(DIST_INSTANCE.map(payload, lambda x: -x),
              ref_map(payload, lambda x: -x))

    @settings(max_examples=20, deadline=None)
    @given(big_payloads(), big_payloads())
    def test_choice(self, a, b):
        halves = {0: F(1, 2), 1: F(1, 2)}
        choice = ed.signature(ed.DIST)[0]
        _same(ed.op_apply(choice, [dist(a), dist(b)]).payload,
              ref_join(halves, [a, b]))

    @settings(max_examples=30, deadline=None)
    @given(big_payloads(), st.lists(st.integers(-1, 1), max_size=4))
    def test_normalise_and_mass(self, payload, ints):
        _same(DIST_INSTANCE.normalise(ed.DIST, payload),
              ref_normalise(payload))
        assert ed.mass(dist(payload)) == sum(payload.values(), F(0))
        assert type(ed.mass(dist(payload))) is F
        # ints, zeros, negatives and excess mass meet the same checks
        raw = {**payload, **{100 + i: n for i, n in enumerate(ints)}}
        raw["half"] = F(1, 2) * len(ints)
        try:
            want = ref_normalise(raw)
        except ed.KindError:
            with pytest.raises(ed.KindError):
                DIST_INSTANCE.normalise(ed.DIST, raw)
        else:
            _same(DIST_INSTANCE.normalise(ed.DIST, raw), want)

    def test_empty(self):
        _same(DIST_INSTANCE.join({}, []), {})
        assert ed.mass(dist({})) == 0 and type(ed.mass(dist({}))) is F



# State as it built its tables before join and map walked them once:
# TestStateTables holds the instance to these values and key orders.
def ref_state_join(payload, outs):
    returned = dict.fromkeys(c.value[0] for c in payload.values()
                             if isinstance(c, ed.Present))
    results = dict(zip(returned, outs))
    return {s: results[c.value[0]][c.value[1]]
            if isinstance(c, ed.Present) else ed.DIVERGE
            for s, c in payload.items()}


def ref_state_map(payload, g):
    returned = dict.fromkeys(c.value[0] for c in payload.values()
                             if isinstance(c, ed.Present))
    image = {x: g(x) for x in returned}
    return {s: ed.Present((image[c.value[0]], c.value[1]))
            if isinstance(c, ed.Present) else ed.DIVERGE
            for s, c in payload.items()}


def ref_state_write(kind, loc, bit, arg):
    i = kind.params.index(loc)
    return {s: arg[s[:i] + (bit,) + s[i + 1:]] for s in ed.stores(kind)}


STATE_INSTANCE = ed.monads.INSTANCES["state"]


STATE_KINDS = st.integers(1, 4).map(
    lambda width: ed.state_kind([f"l{i}" for i in range(width)]))


def state_tables(kind):
    """Canonical payloads of a state kind whose cells diverge or return
    one of three values, so values repeat across stores."""
    all_stores = ed.stores(kind)
    cell = st.one_of(st.just(ed.DIVERGE), st.builds(
        lambda x, s: ed.Present((x, s)), st.sampled_from("abc"),
        st.sampled_from(all_stores)))
    return st.lists(cell, min_size=len(all_stores),
                    max_size=len(all_stores)).map(
        lambda cells: ed.MonadValue(kind, dict(zip(all_stores, cells)))
        .payload)


def _same_table(got, want):
    """The same cells in the same key order."""
    assert got == want and list(got) == list(want)


class TestStateTables:
    """``State`` walks each table once and builds cells unchecked; it must
    agree exactly with the dict-comprehension tables it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_join(self, data):
        kind = data.draw(STATE_KINDS)
        payload = data.draw(state_tables(kind))
        outs = [data.draw(state_tables(kind))
                for _ in STATE_INSTANCE.returns(payload)]
        _same_table(STATE_INSTANCE.join(payload, outs),
                    ref_state_join(payload, outs))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([str.upper, lambda x: "z"]))
    def test_map_and_its_call_order(self, data, g):
        kind = data.draw(STATE_KINDS)
        payload = data.draw(state_tables(kind))
        _same_table(STATE_INSTANCE.map(payload, g),
                    ref_state_map(payload, g))
        by_map, by_bind = [], []
        mu = ed.MonadValue(kind, payload)
        mapped = ed.map_carrier(mu, lambda x: by_map.append(x) or g(x))
        bound = ed.bind(mu, lambda x: by_bind.append(x) or
                        ed.unit(kind, g(x)))
        assert mapped == bound and by_map == by_bind

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from((0, 1)))
    def test_write(self, data, bit):
        kind = data.draw(STATE_KINDS)
        arg = data.draw(state_tables(kind))
        loc = data.draw(st.sampled_from(kind.params))
        write = ed.OpDescriptor("write", kind, (loc, bit))
        _same_table(ed.op_apply(write, [ed.MonadValue(kind, arg)]).payload,
                    ref_state_write(kind, loc, bit, arg))

    def test_cells_built_unchecked_stay_frozen(self):
        kind = ed.state_kind(["l0"])
        unit = ed.unit(kind, "a")
        cells = [*unit.payload.values(),
                 *ed.map_carrier(unit, str.upper).payload.values()]
        assert cells == [ed.Present(("a", (0,))), ed.Present(("a", (1,))),
                         ed.Present(("A", (0,))), ed.Present(("A", (1,)))]
        for cell in cells:
            assert hash(cell) == hash(ed.Present(cell.value))
            with pytest.raises(dataclasses.FrozenInstanceError):
                cell.value = ("b", (0,))


# The operations as each instance applied them before they became join
# over their generic effects: TestGenericEffects holds op_apply to these.
def ref_exc_apply(kind, name, index, args):
    return ed.Raised(index)


def ref_set_apply(kind, name, index, args):
    return args[0] | args[1]


def ref_dist_apply(kind, name, index, args):
    return DIST_INSTANCE.join({0: F(1, 2), 1: F(1, 2)}, args)


def ref_state_apply(kind, name, index, args):
    all_stores = ed.stores(kind)
    if name == "read":
        i = kind.params.index(index)
        return {s: args[s[i]][s] for s in all_stores}
    loc, bit = index
    i = kind.params.index(loc)
    return {s: args[0][s[:i] + (bit,) + s[i + 1:]] for s in all_stores}


def ref_output_apply(kind, name, index, args):
    w, tail = args[0]
    return (index + w, tail)


REF_APPLY = {"exc": ref_exc_apply, "set": ref_set_apply,
             "dist": ref_dist_apply, "state": ref_state_apply,
             "output": ref_output_apply}

# every kind of the law suite, and state at each width
OP_KINDS = tuple(dict.fromkeys([
    *ed.default_kinds(),
    *(ed.state_kind([f"l{i}" for i in range(w)]) for w in range(1, 5))]))


class TestGenericEffects:
    """``op_apply`` is ``join`` over the operation's generic effect; it
    must agree with the per-instance operations it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_op_apply_matches_reference(self, data):
        kind = data.draw(st.sampled_from(OP_KINDS))
        for desc in ed.signature(kind):
            args = [data.draw(values_for(kind)) for _ in range(desc.arity)]
            got = ed.op_apply(desc, args).payload
            want = REF_APPLY[kind.tag](kind, desc.name, desc.index,
                                       [a.payload for a in args])
            assert got == want
            if isinstance(want, dict):
                assert list(got) == list(want)

    @pytest.mark.parametrize("kind", OP_KINDS,
                             ids=lambda k: f"{k.tag}{len(k.params)}")
    def test_effect_returns_its_indices_in_order(self, kind):
        inst = ed.monads.INSTANCES[kind.tag]
        for desc in ed.signature(kind):
            n = desc.arity
            eff = ed.op_to_effect(desc)
            assert list(inst.returns(eff.body.payload)) == \
                list(range(1, n + 1))
            assert eff.body == ed.op_apply(
                desc, [ed.unit(kind, i) for i in range(1, n + 1)])
            # divergent cells, empty sets and empty dists for certain
            bottoms = [ed.bottom(kind)] * n
            assert ed.op_apply(desc, bottoms).payload == REF_APPLY[kind.tag](
                kind, desc.name, desc.index, [b.payload for b in bottoms])
            # the state tables are cached and shared by every caller
            payload = eff.body.payload
            if isinstance(payload, (dict, MappingProxyType)):
                with pytest.raises(TypeError):
                    payload[next(iter(payload))] = None
            else:
                hash(payload)


class TestValidation:
    def test_dist_rejects_excess_mass(self):
        with pytest.raises(ed.KindError):
            dist({"a": F(3, 4), "b": F(1, 2)})

    def test_dist_drops_zero_entries(self):
        assert dist({"a": F(1, 2), "b": 0}) == dist({"a": F(1, 2)})

    def test_state_requires_total_table(self):
        with pytest.raises(ed.KindError):
            ed.MonadValue(STATE, {(0, 0): ed.DIVERGE})

    def test_output_rejects_foreign_characters(self):
        with pytest.raises(ed.KindError):
            out("qq", ed.DIVERGE)

    def test_exception_label_must_be_known(self):
        with pytest.raises(ed.KindError):
            ed.MonadValue(EXC, ed.Raised("nope"))

    def test_kind_params_validated(self):
        with pytest.raises(ed.KindError):
            ed.exception_kind(())
        with pytest.raises(ed.KindError):
            ed.state_kind(("a", "a"))
        with pytest.raises(ed.KindError):
            ed.state_kind(tuple("abcde"))
        with pytest.raises(ed.KindError):
            ed.output_kind(("ab",))

    # an instance without a parameter rejects the entries of each field
    # another instance reads (exc's labels, state's locations, output's
    # characters); the wrong-field state of exc, state and output cannot
    # be built now that a kind has one params field
    @pytest.mark.parametrize("tag, field", [
        (tag, field) for tag, inst in ed.monads.INSTANCES.items()
        if inst.param is None
        for field in ("exceptions", "locations", "alphabet")])
    def test_kind_rejects_fields_its_instance_does_not_read(self, tag, field):
        owner = {"exceptions": EXC, "locations": STATE, "alphabet": OUTPUT}
        params = owner[field].params
        assert params and ed.monads.instance(owner[field].tag).param == field
        with pytest.raises(ed.KindError, match="takes no parameters"):
            ed.MonadKind(tag, params)

    @pytest.mark.parametrize("cls, names", [
        (ed.MonadKind, ("tag", "params")),
        (ed.OpDescriptor, ("name", "kind", "index")),
        (ed.MonadValue, ("kind", "payload")),
    ])
    def test_field_names(self, cls, names):
        assert tuple(f.name for f in dataclasses.fields(cls)) == names


BOTTOM_TABLE = ed.bottom(STATE).payload


PARAMETRISED = [tag for tag, inst in ed.monads.INSTANCES.items()
                if inst.param is not None]


class TestKindConstructor:
    @pytest.mark.parametrize("tag", PARAMETRISED)
    def test_list_tuple_and_string_params_build_one_kind(self, tag):
        built = [ed.MonadKind(tag, ["a", "b"]), ed.MonadKind(tag, ("a", "b"))]
        if tag == "output":
            built.append(ed.MonadKind(tag, "ab"))
        for kind in built:
            assert kind == built[0] and hash(kind) == hash(built[0])
            assert type(kind.params) is tuple
        with pytest.raises(AttributeError):
            built[0].params.append("c")


class TestKindErrorMessages:
    @pytest.mark.parametrize("build, message", [
        (lambda: ed.MonadValue(STATE, {**BOTTOM_TABLE, "s": ed.DIVERGE}),
         "state table mentions stores outside the kind"),
        (lambda: ed.MonadValue(STATE, {**BOTTOM_TABLE, (0, 1): "v"}),
         "bad state cell 'v'"),
        (lambda: ed.MonadValue(STATE, {**BOTTOM_TABLE,
                                       (0, 1): ed.Present(("v", (0, 2)))}),
         r"bad successor store \(0, 2\)"),
        (lambda: serialize.loads(
            '{"kind":"state","locations":["l0"],'
            '"table":[["0",null],["2",null]]}'),
         "bad serialized store '2'"),
        (lambda: ed.output_kind(()),
         "output monad needs a non-empty alphabet"),
        (lambda: ed.stores(ed.MAYBE),
         r"stores\(\) only applies to the state monad"),
        (lambda: ed.mass(ed.unit(ed.MAYBE, "v")),
         r"mass\(\) only applies to the dist monad"),
        (lambda: ed.op_apply(ed.OpDescriptor("union", ed.POWERSET),
                             [ed.unit(ed.DIST, "v"), ed.unit(ed.DIST, "w")]),
         "argument of kind dist passed to a set op"),
        (lambda: serialize.dumps(ed.unit(ed.MAYBE, True)),
         "boolean carrier elements are not supported"),
        (lambda: ed.state_kind(()),
         "state monad needs a non-empty location list"),
        (lambda: serialize.loads(
            '{"kind":"state","locations":"l0","table":[]}'),
         "locations 'l0' is not a list"),
        (lambda: ed.exception_kind((1,)),
         r"exceptions must be text: \(1,\)"),
        (lambda: ed.state_kind((1,)), r"locations must be text: \(1,\)"),
    ])
    def test_message(self, build, message):
        with pytest.raises(ed.KindError, match=message):
            build()


class TestDescriptorValidation:
    @pytest.mark.parametrize("name, kind, index", [
        ("union", ed.DIST, None),
        ("choice", ed.DIST, "a"),
        ("raise", EXC, "nope"),
        ("read", STATE, "l9"),
        ("write", STATE, ("l0", 2)),
        ("write", STATE, "l0"),
        ("print", OUTPUT, "z"),
        ("print", ed.MAYBE, "a"),
        ("print", ed.MonadKind("output", "ab"), "ab"),
    ])
    def test_outside_signature_rejected(self, name, kind, index):
        with pytest.raises(ed.SignatureError):
            ed.OpDescriptor(name, kind, index)

    def test_signature_descriptors_accepted(self):
        for kind in ALL_KINDS:
            for desc in ed.signature(kind):
                assert ed.OpDescriptor(desc.name, kind, desc.index) == desc

    @pytest.mark.parametrize("src, kind, message", [
        ("choice(v, w)", ed.MAYBE,
         "operation 'choice' is not in the maybe signature"),
        ("print[z](v)", OUTPUT, "character 'z' not in the alphabet"),
        ("raise[nope]()", EXC, "unknown exception label 'nope'"),
        ("read[l9](v, w)", STATE, "unknown location 'l9'"),
        ("write[l9,1](v)", STATE, "unknown location 'l9'"),
    ])
    def test_parser_raises_signature_error(self, src, kind, message):
        with pytest.raises(ed.SignatureError) as err:
            ed.parse(src, kind=kind)
        assert str(err.value) == message

    def test_rebinding_at_evaluation_raises_signature_error(self):
        term = ed.parse("read[l2](v, w)")
        with pytest.raises(ed.SignatureError) as err:
            ed.evaluate(term, STATE, 5)
        assert str(err.value) == "unknown location 'l2'"


class TestMalformedPayloads:
    @pytest.mark.parametrize("kind, payload", [
        (ed.state_kind(["l"]), {(0,): ed.Present(5), (1,): ed.DIVERGE}),
        (ed.POWERSET, 3),
        (ed.POWERSET, [["unhashable"]]),
        (ed.DIST, {"a": "x"}),
        (ed.DIST, {"a": None}),
        (ed.DIST, {"a": float("inf")}),
        (ed.DIST, [1, 2]),
        (ed.MAYBE, "v"),
        (EXC, ed.Raised("nope")),
        (STATE, 7),
        (OUTPUT, 3),
        (OUTPUT, ("abc",)),
        (OUTPUT, ("a", "v")),
        (ed.DIST, {"a": 0.5}),
        (ed.DIST, {"a": True}),
        (ed.DIST, {"a": "1/2"}),
    ])
    def test_only_kind_error(self, kind, payload):
        with pytest.raises(ed.KindError):
            ed.MonadValue(kind, payload)


@st.composite
def _trusted_results(draw):
    kind = draw(kinds())
    mu = draw(values_for(kind))
    table = draw(kleisli_for(kind))
    f = table.__getitem__
    outs = [ed.unit(kind, draw(st.sampled_from(CARRIER))), ed.bottom(kind),
            ed.bind(mu, f), ed.bind(ed.bind(mu, f), f),
            ed.map_carrier(mu, str.upper)]
    for desc in ed.signature(kind):
        args = [draw(values_for(kind)) for _ in range(desc.arity)]
        outs.append(ed.op_apply(desc, args))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    outs += [gen.random_value(kind, rng, CARRIER),
             gen.random_value(kind, rng, ()),
             gen.random_effect(kind, rng).body, gen.weaken(mu, rng),
             *(gen.enumerate_values(kind, CARRIER) or ())]
    return outs


class TestTrustedPath:
    @given(_trusted_results())
    @settings(max_examples=60)
    def test_results_are_canonical(self, outs):
        # set == frozenset, so compare types (and reprs, which also show
        # element types and dict order) besides plain equality
        for out in outs:
            canon = ed.monads._normalise(out.kind, out.payload)
            assert canon == out.payload
            assert type(canon) is type(out.payload)
            assert repr(canon) == repr(out.payload)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.tag)
def test_values_pickle(kind):
    # the law suite sends witnesses between processes as pickles
    rng = gen.Draws(f"pickle:{kind.tag}")
    for _ in range(40):
        mu = gen.random_value(kind, rng, CARRIER)
        back = pickle.loads(pickle.dumps(mu, pickle.HIGHEST_PROTOCOL))
        assert back == mu and type(back.payload) is type(mu.payload)
        assert serialize.to_obj(back) == serialize.to_obj(mu)
        # a set may iterate in another order; a mapping keeps its order
        if type(mu.payload) is MappingProxyType:
            assert list(back.payload.items()) == list(mu.payload.items())


@pytest.mark.parametrize("fn, params", [
    pytest.param(gen.random_value, ["kind", "rng", "carrier"],
                 id="random_value"),
    pytest.param(gen.random_effect, ["kind", "rng", "max_arity"],
                 id="random_effect"),
    pytest.param(gen.random_kleisli, ["kind", "rng", "domain", "codomain"],
                 id="random_kleisli"),
    pytest.param(ed.default_defs, [], id="default_defs"),
    pytest.param(ed.check_algebraic, ["op", "trials", "seed"],
                 id="check_algebraic"),
    pytest.param(ed.op_to_effect, ["op"], id="op_to_effect"),
    *[pytest.param(inst.random, ["kind", "rng", "carrier"],
                   id=f"{tag}.random")
      for tag, inst in ed.monads.INSTANCES.items()],
])
def test_generator_parameters(fn, params):
    assert list(inspect.signature(fn).parameters) == params
