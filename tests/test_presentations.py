"""Presentations: interpret, decompose, equality, order, extension, render."""

import dataclasses
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effectdiagrams as ed
from effectdiagrams import gen, lawcheck, monads, presentations

from strategies import ALL_KINDS, CARRIER, kind_and_value


def dist_effect(*probs):
    body = ed.MonadValue(ed.DIST,
                         {i + 1: F(p) for i, p in enumerate(probs) if p})
    return ed.GenericEffect(len(probs), body)


def pres(effect, *row):
    return ed.Presentation(effect, tuple(row))


class TestInterpret:
    def test_trivial_effect(self):
        for kind in ALL_KINDS:
            xi = pres(ed.trivial_effect(kind), "x")
            assert ed.interpret(xi) == ed.unit(kind, "x")

    def test_two_halves_of_same_value_is_dirac(self):
        xi = pres(dist_effect(F(1, 2), F(1, 2)), "x", "x")
        assert ed.interpret(xi) == ed.unit(ed.DIST, "x")

    def test_powerset_image(self):
        eff = ed.GenericEffect(3, ed.MonadValue(ed.POWERSET,
                                                frozenset({1, 3})))
        xi = pres(eff, "a", "b", "a")
        # oracle: the image of {1, 3} under the row
        expected = frozenset(xi.row[i - 1] for i in (1, 3))
        assert expected == frozenset({"a"})
        assert ed.interpret(xi) == ed.MonadValue(ed.POWERSET, expected)


class TestDecompose:
    def test_unit(self):
        got = ed.decompose(ed.unit(ed.DIST, "x"))
        assert got.effect.arity == 1
        assert got.effect.body == ed.unit(ed.DIST, 1)
        assert got.row == ("x",)

    def test_dist_rows_in_canonical_order(self):
        mu = ed.MonadValue(ed.DIST, {"b": F(2, 3), "a": F(1, 3)})
        got = ed.decompose(mu)
        # oracle: support enumeration plus relabelling
        assert got.row == ("a", "b")
        assert got.effect.body == ed.MonadValue(
            ed.DIST, {1: F(1, 3), 2: F(2, 3)})
        assert ed.interpret(got) == mu

    def test_bottom_has_empty_row(self):
        for kind in ALL_KINDS:
            got = ed.decompose(ed.bottom(kind))
            assert got.effect.arity == 0
            assert got.row == ()
            assert got.effect.body == ed.bottom(kind)

    def test_deterministic(self):
        rng = random.Random(3)
        for kind in ALL_KINDS:
            for _ in range(20):
                mu = gen.random_value(kind, rng, CARRIER)
                a, b = ed.decompose(mu), ed.decompose(mu)
                assert a.row == b.row and a.effect.body == b.effect.body

    @given(kind_and_value())
    def test_round_trip(self, kv):
        _, mu = kv
        assert ed.interpret(ed.decompose(mu)) == mu

    @given(kind_and_value())
    def test_minimality(self, kv):
        _, mu = kv
        got = ed.decompose(mu)
        assert len(got.row) == len(ed.support(mu))
        assert len(set(got.row)) == len(got.row)


class TestDiagramEq:
    def test_distinct_formal_sums_same_value(self):
        xi = pres(dist_effect(F(1, 2), F(1, 2)), "x", "x")
        rho = pres(dist_effect(F(1)), "x")
        assert ed.diagram_eq(xi, rho)

    def test_reflexive(self):
        xi = pres(dist_effect(F(1, 2)), "x")
        assert ed.diagram_eq(xi, xi)

    def test_distinct_dirac_rows_differ(self):
        # needs unit injectivity
        assert not ed.diagram_eq(pres(dist_effect(F(1)), "x"),
                                 pres(dist_effect(F(1)), "y"))

    def test_kind_mismatch(self):
        with pytest.raises(ed.KindError):
            ed.diagram_eq(pres(ed.trivial_effect(ed.MAYBE), "x"),
                          pres(ed.trivial_effect(ed.DIST), "x"))

    def test_equivalence_relation(self):
        rng = random.Random(5)
        for kind in ALL_KINDS:
            for _ in range(20):
                mu = gen.random_value(kind, rng, CARRIER)
                base = ed.decompose(mu)
                n = base.effect.arity
                m = n + rng.randint(0, 2)
                iota = sorted(rng.sample(range(1, m + 1), n))
                fill = [rng.choice(CARRIER) for _ in range(m - n)]
                other = ed.extend(base, iota, m, fill)
                third = ed.decompose(ed.interpret(other))
                assert ed.diagram_eq(base, other)
                assert ed.diagram_eq(other, base)
                assert ed.diagram_eq(other, third)
                assert ed.diagram_eq(base, third)


class TestDiagramLeq:
    def test_bottom_below_everything(self):
        bot = pres(ed.bottom_effect(ed.DIST, 0))
        xi = pres(dist_effect(F(1, 2), F(1, 4)), "x", "y")
        assert ed.diagram_leq(bot, xi)

    def test_reflexive(self):
        xi = pres(dist_effect(F(1, 2), F(1, 4)), "x", "y")
        assert ed.diagram_leq(xi, xi)

    def test_pointwise(self):
        assert ed.diagram_leq(pres(dist_effect(F(1, 2)), "x"),
                              pres(dist_effect(F(1)), "x"))

    def test_preorder_induces_diagram_eq(self):
        rng = random.Random(6)
        for kind in ALL_KINDS:
            for _ in range(25):
                a = ed.decompose(gen.random_value(kind, rng, CARRIER))
                b = ed.decompose(gen.random_value(kind, rng, CARRIER))
                both = ed.diagram_leq(a, b) and ed.diagram_leq(b, a)
                assert both == ed.diagram_eq(a, b)


class TestExtend:
    def test_padding_with_zero_weights(self):
        xi = pres(dist_effect(F(1)), "x")
        got = ed.extend(xi, (1,), 3, ("y", "z"))
        assert got.row == ("x", "y", "z")
        assert got.effect.body == ed.MonadValue(ed.DIST, {1: F(1)})
        assert ed.diagram_eq(got, xi)

    def test_identity_injection(self):
        xi = pres(dist_effect(F(1, 2), F(1, 2)), "x", "y")
        assert ed.extend(xi, (1, 2), 2, ()) == xi

    def test_bottom_extension_stays_bottom(self):
        for kind in ALL_KINDS:
            xi = pres(ed.bottom_effect(kind, 0))
            got = ed.extend(xi, (), 2, ("a", "b"))
            assert got.row == ("a", "b")
            assert ed.diagram_eq(got, xi)

    def test_never_changes_interpretation(self):
        rng = random.Random(7)
        for kind in ALL_KINDS:
            for _ in range(30):
                xi = ed.decompose(gen.random_value(kind, rng, CARRIER))
                n = xi.effect.arity
                m = n + rng.randint(0, 3)
                iota = rng.sample(range(1, m + 1), n)
                fill = [rng.choice(CARRIER) for _ in range(m - n)]
                assert ed.diagram_eq(ed.extend(xi, iota, m, fill), xi)

    def test_rejects_non_injective(self):
        xi = pres(dist_effect(F(1, 2), F(1, 2)), "x", "y")
        with pytest.raises(ValueError):
            ed.extend(xi, (1, 1), 3, ("z",))

    def test_rejects_wrong_fill_size(self):
        xi = pres(dist_effect(F(1)), "x")
        with pytest.raises(ValueError):
            ed.extend(xi, (1,), 3, ("y",))


class TestValueErrorMessages:
    @pytest.mark.parametrize("build, message", [
        (lambda: ed.extend(pres(dist_effect(F(1)), "x"), (1, 2), 3, ("y",)),
         "injection has 2 entries, expected 1"),
        (lambda: ed.extend(pres(dist_effect(F(1)), "x"), (4,), 3,
                           ("y", "z")),
         r"injection targets outside 1\.\.3: \(4,\)"),
        (lambda: ed.render(pres(dist_effect(F(1)), "x"), "yaml"),
         "unknown render format 'yaml'"),
    ])
    def test_message(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestRender:
    def test_trivial(self):
        assert ed.render(pres(ed.trivial_effect(ed.MAYBE), "v")) == \
            "[η ‖ 1→v]"

    def test_dist(self):
        xi = pres(dist_effect(F(1, 2), F(1, 2)), "a", "b")
        assert ed.render(xi) == "[1/2,1/2 ‖ 1→a ; 2→b]"

    def test_bottom(self):
        assert ed.render(pres(ed.bottom_effect(ed.MAYBE, 0))) == "[⊥ ‖ ]"

    def test_structural_determinism(self):
        rng = random.Random(8)
        for kind in ALL_KINDS:
            for _ in range(10):
                xi = gen.random_presentation(kind, rng, CARRIER)
                rho = ed.Presentation(
                    ed.GenericEffect(xi.effect.arity, xi.effect.body),
                    tuple(xi.row))
                assert ed.render(xi) == ed.render(rho)
                assert ed.render(xi, "machine") == ed.render(rho, "machine")

    def test_machine_round_trip(self):
        rng = random.Random(9)
        for kind in ALL_KINDS:
            for _ in range(10):
                xi = gen.random_presentation(kind, rng, CARRIER)
                back = presentations.from_obj(
                    json.loads(ed.render(xi, "machine")))
                assert back.row == xi.row
                assert back.effect.body == xi.effect.body


class TestBottomCollapse:
    def test_any_arity_collapses(self):
        for kind in ALL_KINDS:
            empty = pres(ed.bottom_effect(kind, 0))
            for n in (0, 1, 2, 5, 8):
                row = tuple(CARRIER[i % len(CARRIER)] for i in range(n))
                xi = pres(ed.bottom_effect(kind, n), *row)
                assert ed.diagram_eq(xi, empty)

    def test_arity_cap_is_hard(self):
        ed.bottom_effect(ed.MAYBE, presentations.MAX_ARITY)
        with pytest.raises(ed.ArityCapError):
            ed.bottom_effect(ed.MAYBE, presentations.MAX_ARITY + 1)


class TestGenericEffectInvariants:
    def test_body_must_live_over_index_set(self):
        with pytest.raises(ValueError):
            ed.GenericEffect(1, ed.unit(ed.DIST, 5))

    @pytest.mark.parametrize("arity", [True, False, 1.0, "1", None])
    def test_arity_must_be_an_int(self, arity):
        body = ed.bottom(ed.MAYBE)
        with pytest.raises(TypeError):
            ed.GenericEffect(arity, body)
        with pytest.raises(TypeError):
            ed.bottom_effect(ed.MAYBE, arity)

    def test_internal_builders_check_the_arity(self):
        with pytest.raises(ValueError):
            ed.bottom_effect(ed.MAYBE, -1)
        with pytest.raises(ed.ArityCapError):
            ed.decompose(ed.MonadValue(ed.POWERSET, frozenset(range(65))))
        with pytest.raises(ed.ArityCapError):
            ed.extend(pres(ed.trivial_effect(ed.MAYBE), "a"), (1,), 65,
                      ["b"] * 64)

    @given(kind_and_value(), st.integers(0, 2 ** 32))
    @settings(max_examples=60)
    def test_internal_builders_give_valid_effects(self, kv, seed):
        # what the library builds equals a fresh construction from its parts
        kind, mu = kv
        xi = ed.decompose(mu)
        rng = random.Random(seed)
        effects = [xi.effect, ed.trivial_effect(kind),
                   ed.bottom_effect(kind, 3), gen.random_effect(kind, rng),
                   ed.extend(xi, range(2, xi.effect.arity + 2),
                             xi.effect.arity + 1, ["z"]).effect,
                   ed.seq_compose(xi, [xi] * xi.effect.arity).effect]
        for eff in effects:
            assert ed.GenericEffect(eff.arity, eff.body) == eff

    @given(kind_and_value(), st.integers(0, 2 ** 32))
    @settings(max_examples=60)
    def test_internal_builders_give_valid_presentations(self, kv, seed):
        # what the library builds equals a fresh construction from its parts
        kind, mu = kv
        xi = ed.decompose(mu)
        n = xi.effect.arity
        built = [xi, ed.extend(xi, range(2, n + 2), n + 1, ["z"]),
                 ed.seq_compose(xi, [xi] * n),
                 gen.random_presentation(kind, random.Random(seed))]
        for p in built:
            assert type(p.row) is tuple
            assert ed.Presentation(p.effect, p.row) == p

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            ed.Presentation(ed.trivial_effect(ed.DIST), ("x", "y"))

    def test_support_check_matches_the_set_rule(self):
        # the constructor walks the returned indices; the reference sorts
        # the support and compares sets, counting only ints: values that
        # merely equal an index (True, 1.0, Fraction(2)) are refused
        def reference_ok(n, body):
            return all(type(i) is int for i in ed.support(body)) and \
                set(ed.support(body)) <= set(range(1, n + 1))

        rng = random.Random(14)
        verdicts = set()
        for kind in lawcheck.default_kinds():
            for n in range(6):
                pool = [*range(1, n + 1), 0, n + 1, -1, "a", True, 1.0, F(2)]
                for _ in range(60):
                    carrier = rng.sample(pool, rng.randint(1, len(pool)))
                    body = gen.random_value(kind, rng, carrier)
                    ok = reference_ok(n, body)
                    verdicts.add(ok)
                    if ok:
                        assert ed.GenericEffect(n, body).body == body
                    else:
                        with pytest.raises(ValueError, match=(
                                f"effect body mentions indices outside "
                                f"1..{n}")):
                            ed.GenericEffect(n, body)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("index", [1.0, F(1), True],
                             ids=["float", "Fraction", "bool"])
    def test_index_that_only_equals_an_int_is_refused(self, index):
        # interpret would index the row with it and raise TypeError
        body = ed.MonadValue(ed.DIST, {index: F(1, 2)})
        with pytest.raises(ValueError,
                           match="effect body mentions indices outside 1..1"):
            ed.GenericEffect(1, body)


class TestImmutability:
    @pytest.mark.parametrize("make, field, value", [
        (lambda: ed.trivial_effect(ed.MAYBE), "arity", 5),
        (lambda: pres(ed.trivial_effect(ed.MAYBE), "a"), "row", ("b", "c")),
        (lambda: ed.effect_to_op(ed.trivial_effect(ed.DIST)), "arity", 2),
        (lambda: ed.check_commutative(ed.MAYBE, trials=1), "passed", False),
        (lambda: ed.run_law_suite(ed.LawSuiteConfig(
            trials=1, laws=("unit",), monads=(ed.MAYBE,))).results[0],
         "passed", False),
        (lambda: ed.LawSuiteConfig(laws=("kleisli",)), "trials", 0),
        (lambda: ed.run_law_suite(ed.LawSuiteConfig(
            trials=1, laws=("unit",), monads=(ed.MAYBE,))), "seed", 2),
        (lambda: ed.unit(ed.DIST, "a"), "payload", {}),
        (lambda: ed.trivial_effect(ed.DIST), "body", None),
        (lambda: ed.decompose(ed.unit(ed.DIST, "a")).effect, "arity", 2),
        (lambda: gen.random_effect(ed.DIST, random.Random(0)), "body",
         None),
        (lambda: ed.decompose(ed.unit(ed.DIST, "a")), "row", ("b",)),
    ], ids=["GenericEffect", "Presentation", "DerivedOperation",
            "check_commutative", "LawResult", "LawSuiteConfig",
            "SuiteReport", "MonadValue", "trivial_effect",
            "decompose-effect", "random_effect", "decompose"])
    def test_assignment_raises(self, make, field, value):
        obj = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, value)

    def test_default_prelude_is_one_read_only_mapping(self):
        defs = ed.default_defs()
        assert defs is ed.default_defs()
        with pytest.raises(TypeError):
            defs["id"] = defs["OMEGA"]
        assert str(defs["id"]) == "\\x. x"

    @pytest.mark.parametrize("make, key, value", [
        (lambda: ed.MonadValue(ed.DIST, {"x": F(1, 2)}), "y", F(3, 4)),
        (lambda: ed.unit(ed.DIST, "x"), "x", F(1, 2)),
        (lambda: ed.bottom(ed.state_kind(("l0",))), (0,), ed.DIVERGE),
        (lambda: ed.MonadValue(ed.state_kind(("l0",)), {
            (0,): ed.DIVERGE, (1,): ed.DIVERGE}), (1,), ed.DIVERGE),
    ], ids=["dist", "dist-unit", "state-bottom", "state"])
    def test_payload_item_assignment_raises(self, make, key, value):
        mu = make()
        before = dict(mu.payload)
        with pytest.raises(TypeError):
            mu.payload[key] = value
        assert dict(mu.payload) == before


# the keys and strings of the machine format, so that arbitrary JSON
# often gets past the first checks
FORMAT_WORDS = ("effect", "row", "arity", "body", "kind", "elements",
                "entries", "table", "value", "raised", "bottom", "out",
                *monads.INSTANCES, "exceptions", "locations", "alphabet",
                "err", "l0", "a", "0", "01", "1/2", "1", "-1/2", "1/0")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats()
    | st.sampled_from(FORMAT_WORDS) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FORMAT_WORDS) | st.text(max_size=2), inner,
        max_size=5),
    max_leaves=20)


@st.composite
def mutated_presentations(draw):
    """The machine form of a valid presentation with one part replaced
    by arbitrary JSON or removed."""
    kind, mu = draw(kind_and_value())
    obj = json.loads(ed.render(ed.decompose(mu), "machine"))
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node and \
            draw(st.booleans()):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        node = node[key]
    if parent is None:
        return draw(json_values)
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return obj


class TestMalformedJson:
    """Any JSON given to ``from_obj`` gives a presentation or a KindError
    (an ArityCapError above the arity cap), never another exception."""

    @staticmethod
    def load(obj):
        try:
            presentations.from_obj(obj)
        except (ed.KindError, ed.ArityCapError):
            pass

    @settings(max_examples=300)
    @given(json_values)
    def test_arbitrary_json(self, obj):
        self.load(obj)

    @settings(max_examples=300)
    @given(mutated_presentations())
    def test_one_part_broken(self, obj):
        self.load(obj)
