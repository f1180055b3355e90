"""Operation/effect bijection, composition, and the semantic checkers."""

import random
from fractions import Fraction as F

import pytest

import effectdiagrams as ed
from effectdiagrams import gen
from effectdiagrams.lawcheck import exchange_violation

from strategies import ALL_KINDS, CARRIER, EXC, OUTPUT, STATE


def dist(entries):
    return ed.MonadValue(ed.DIST, entries)


def dist_effect(*probs):
    body = dist({i + 1: F(p) for i, p in enumerate(probs) if p})
    return ed.GenericEffect(len(probs), body)


def pres(effect, *row):
    return ed.Presentation(effect, tuple(row))


class TestEffectToOp:
    def test_trivial_effect_is_identity(self):
        rng = random.Random(0)
        for kind in ALL_KINDS:
            op = ed.effect_to_op(ed.trivial_effect(kind))
            mu = gen.random_value(kind, rng, CARRIER)
            assert op.apply(mu) == mu

    def test_fair_effect_is_choice(self):
        op = ed.effect_to_op(dist_effect(F(1, 2), F(1, 2)))
        choice = ed.signature(ed.DIST)[0]
        rng = random.Random(1)
        for _ in range(20):
            mu = gen.random_value(ed.DIST, rng, CARRIER)
            nu = gen.random_value(ed.DIST, rng, CARRIER)
            assert op.apply(mu, nu) == ed.op_apply(choice, [mu, nu])

    def test_bottom_effect_constant_bottom(self):
        for kind in ALL_KINDS:
            op = ed.effect_to_op(ed.bottom_effect(kind, 0))
            assert op.apply() == ed.bottom(kind)

    def test_arity_checked_at_apply(self):
        op = ed.effect_to_op(ed.trivial_effect(ed.DIST))
        with pytest.raises(ed.ArityError):
            op.apply()


class TestOpToEffect:
    def test_print_effect(self):
        print_c = ed.OpDescriptor("print", OUTPUT, "a")
        eff = ed.op_to_effect(print_c)
        assert eff.arity == 1
        assert eff.body == ed.MonadValue(OUTPUT, ("a", ed.Present(1)))

    def test_identity_op_gives_trivial_effect(self):
        op = ed.DerivedOperation(ed.MAYBE, 1, lambda mu: mu)
        assert ed.op_to_effect(op).body == ed.trivial_effect(ed.MAYBE).body

    def test_union_effect(self):
        eff = ed.op_to_effect(ed.signature(ed.POWERSET)[0])
        assert eff.body == ed.MonadValue(ed.POWERSET, frozenset({1, 2}))


class TestBijection:
    def test_effect_round_trip(self):
        rng = random.Random(2)
        for kind in ALL_KINDS:
            for _ in range(40):
                eff = gen.random_effect(kind, rng, max_arity=4)
                back = ed.op_to_effect(ed.effect_to_op(eff))
                assert back.arity == eff.arity
                assert back.body == eff.body

    def test_op_round_trip_on_signature(self):
        rng = random.Random(3)
        for kind in ALL_KINDS:
            for desc in ed.signature(kind):
                derived = ed.effect_to_op(ed.op_to_effect(desc))
                for _ in range(15):
                    args = [gen.random_value(kind, rng, CARRIER)
                            for _ in range(desc.arity)]
                    assert derived.apply(*args) == ed.op_apply(desc, args)


class TestSeqCompose:
    def test_dist_blocks(self):
        xi = pres(dist_effect(F(1, 2), F(1, 2)), "p", "q")
        family = [pres(dist_effect(F(1)), "x"),
                  pres(dist_effect(F(1, 2), F(1, 2)), "x", "y")]
        got = ed.seq_compose(xi, family)
        assert got.row == ("x", "x", "y")
        # scalar multiplication of the outer weight into each block
        assert got.effect.body == dist({1: F(1, 2), 2: F(1, 4), 3: F(1, 4)})
        assert ed.interpret(got) == dist({"x": F(3, 4), "y": F(1, 4)})

    def test_trivial_wrapper_is_neutral(self):
        rng = random.Random(4)
        for kind in ALL_KINDS:
            xi = gen.random_presentation(kind, rng, CARRIER)
            got = ed.seq_compose(pres(ed.trivial_effect(kind), "slot"), [xi])
            assert ed.diagram_eq(got, xi)

    def test_output_prefix_then_divergence(self):
        outer_eff = ed.GenericEffect(
            1, ed.MonadValue(OUTPUT, ("a", ed.Present(1))))
        inner = pres(ed.GenericEffect(
            0, ed.MonadValue(OUTPUT, ("b", ed.DIVERGE))))
        got = ed.seq_compose(pres(outer_eff, "slot"), [inner])
        assert got.effect.arity == 0
        assert got.effect.body == ed.MonadValue(OUTPUT, ("ab", ed.DIVERGE))
        assert got.row == ()

    def test_family_length_checked(self):
        xi = pres(dist_effect(F(1, 2), F(1, 2)), "p", "q")
        with pytest.raises(ed.ArityError):
            ed.seq_compose(xi, [pres(ed.trivial_effect(ed.DIST), "x")])

    def test_arity_cap_enforced(self):
        xi = pres(dist_effect(F(1, 2), F(1, 2)), "p", "q")
        wide = ed.decompose(ed.MonadValue(
            ed.DIST, {i: F(1, 40) for i in range(40)}))
        with pytest.raises(ed.ArityCapError):
            ed.seq_compose(xi, [wide, wide])

    def test_homomorphism_oracle(self):
        rng = random.Random(5)
        for kind in ALL_KINDS:
            for _ in range(40):
                xi = gen.random_presentation(kind, rng, CARRIER,
                                             max_arity=3)
                family = [gen.random_presentation(kind, rng, CARRIER,
                                                  max_arity=2)
                          for _ in range(xi.effect.arity)]
                got = ed.interpret(ed.seq_compose(xi, family))
                oracle = ed.bind(xi.effect.body,
                                 lambda i: ed.interpret(family[i - 1]))
                assert got == oracle

    def test_associative(self):
        rng = random.Random(6)
        for kind in ALL_KINDS:
            for _ in range(25):
                xi = gen.random_presentation(kind, rng, CARRIER, max_arity=3)
                fam = [gen.random_presentation(kind, rng, CARRIER,
                                               max_arity=2)
                       for _ in range(xi.effect.arity)]
                subs = [[gen.random_presentation(kind, rng, CARRIER,
                                                 max_arity=2)
                         for _ in range(m.effect.arity)] for m in fam]
                lhs = ed.seq_compose(ed.seq_compose(xi, fam),
                                     [p for s in subs for p in s])
                rhs = ed.seq_compose(
                    xi, [ed.seq_compose(m, s) for m, s in zip(fam, subs)])
                assert ed.diagram_eq(lhs, rhs)

    def test_unit_laws(self):
        rng = random.Random(7)
        for kind in ALL_KINDS:
            for _ in range(25):
                xi = gen.random_presentation(kind, rng, CARRIER)
                wrapped = ed.seq_compose(
                    pres(ed.trivial_effect(kind), "w"), [xi])
                assert ed.diagram_eq(wrapped, xi)
                padded = ed.seq_compose(
                    xi, [pres(ed.trivial_effect(kind), x) for x in xi.row])
                assert ed.diagram_eq(padded, xi)

    def test_encoded_algebraicity(self):
        # composing under an operation's own effect equals applying the
        # operation to the composed branches
        rng = random.Random(8)
        for kind in ALL_KINDS:
            for desc in ed.signature(kind):
                eff = ed.op_to_effect(desc)
                family = [gen.random_presentation(kind, rng, CARRIER,
                                                  max_arity=2)
                          for _ in range(desc.arity)]
                lhs = ed.interpret(ed.seq_compose(
                    pres(eff, *(["s"] * desc.arity)), family))
                rhs = ed.op_apply(
                    desc, [ed.interpret(p) for p in family])
                assert lhs == rhs


class TestDistinguishedEffects:
    def test_trivial_effect_values(self):
        assert ed.trivial_effect(ed.MAYBE).body == ed.MonadValue(
            ed.MAYBE, ed.Present(1))
        assert ed.trivial_effect(OUTPUT).body == ed.MonadValue(
            OUTPUT, ("", ed.Present(1)))
        assert ed.trivial_effect(ed.DIST).body == dist({1: F(1)})

    def test_bottom_effect_values(self):
        assert ed.bottom_effect(ed.MAYBE, 0).body == ed.MonadValue(
            ed.MAYBE, ed.DIVERGE)
        eff = ed.bottom_effect(ed.DIST, 3)
        assert eff.arity == 3 and ed.mass(eff.body) == 0

    def test_bottom_effect_op_is_constant_bottom(self):
        rng = random.Random(9)
        for kind in ALL_KINDS:
            op = ed.effect_to_op(ed.bottom_effect(kind, 2))
            args = [gen.random_value(kind, rng, CARRIER) for _ in range(2)]
            assert op.apply(*args) == ed.bottom(kind)

    def test_left_absorption(self):
        rng = random.Random(10)
        for kind in ALL_KINDS:
            family = [gen.random_presentation(kind, rng, CARRIER,
                                              max_arity=2)
                      for _ in range(3)]
            got = ed.seq_compose(pres(ed.bottom_effect(kind, 3),
                                      "x", "y", "z"), family)
            assert ed.interpret(got) == ed.bottom(kind)


class TestCheckAlgebraic:
    def test_signature_ops_pass(self):
        for kind in ALL_KINDS:
            for desc in ed.signature(kind):
                report = ed.check_algebraic(ed.descriptor_op(desc),
                                            trials=60, seed=1)
                assert report.passed, (kind.tag, desc.name)

    def test_derived_ops_pass(self):
        rng = random.Random(11)
        for kind in ALL_KINDS:
            eff = gen.random_effect(kind, rng, max_arity=3)
            report = ed.check_algebraic(ed.effect_to_op(eff),
                                        trials=60, seed=2)
            assert report.passed

    def test_trivial_effect_op_passes(self):
        for kind in ALL_KINDS:
            op = ed.effect_to_op(ed.trivial_effect(kind))
            assert ed.check_algebraic(op, trials=30, seed=5).passed

    def test_planted_non_algebraic_fails(self):
        # returns the first supported element, dropping all weights
        def head_or_bottom(mu):
            elems = ed.support(mu)
            if not elems:
                return ed.bottom(ed.DIST)
            return ed.unit(ed.DIST, elems[0])

        bogus = ed.DerivedOperation(ed.DIST, 1, head_or_bottom)
        report = ed.check_algebraic(bogus, trials=200, seed=3)
        assert not report.passed
        ce = report.counterexample
        assert ce["lhs"] != ce["rhs"]
        # the stored pieces replay to the same violation
        from effectdiagrams.lawcheck import algebraic_violation
        assert algebraic_violation(bogus, ce["args"], ce["kleisli"])

    def test_report_serializes(self):
        report = ed.check_algebraic(
            ed.descriptor_op(ed.signature(ed.DIST)[0]), trials=5, seed=4)
        obj = report.to_obj()
        assert obj["law"] == "algebraicity" and obj["pass"] is True


def exchange_kinds():
    """Every registered instance; parametrised ones at 1, 2 and 3 entries."""
    for tag, inst in ed.monads.INSTANCES.items():
        if inst.param is None:
            yield pytest.param(ed.MonadKind(tag), id=tag)
            continue
        for n in (1, 2, 3):
            yield pytest.param(ed.MonadKind(tag, "abc"[:n]), id=f"{tag}-{n}")


class TestCheckCommutative:
    @pytest.mark.parametrize("kind", exchange_kinds())
    def test_violations_are_found_among_basic_pairs(self, kind):
        # the exchange search has no shrinker: every instance that breaks
        # the law must break it on a pair of basic effects, which comes
        # before any random pair
        basic_pairs = len(ed.basic_effects(kind)) ** 2
        for seed in range(10):
            report = ed.check_commutative(kind, trials=20, seed=seed)
            assert report.passed == (kind.tag in {"maybe", "set", "dist"})
            if not report.passed:
                assert report.trials <= basic_pairs

    def test_dist_passes(self):
        assert ed.check_commutative(ed.DIST, trials=60, seed=1).passed

    def test_maybe_passes(self):
        assert ed.check_commutative(ed.MAYBE, trials=60, seed=1).passed

    def test_set_passes(self):
        assert ed.check_commutative(ed.POWERSET, trials=60, seed=1).passed

    def test_output_fails_with_print_print(self):
        report = ed.check_commutative(OUTPUT, trials=1, seed=1)
        assert not report.passed
        ce = report.counterexample
        assert ce["lhs"].payload[0] == "ab"
        assert ce["rhs"].payload[0] == "ba"

    def test_state_fails(self):
        report = ed.check_commutative(STATE, trials=1, seed=1)
        assert not report.passed
        assert exchange_violation(STATE, report.counterexample["left_effect"],
                                  report.counterexample["right_effect"],
                                  report.counterexample["grid"]) is not None

    def test_exception_fails(self):
        # raising then diverging differs from diverging then raising
        report = ed.check_commutative(EXC, trials=1, seed=1)
        assert not report.passed

    def test_deterministic_for_fixed_seed(self):
        a = ed.check_commutative(OUTPUT, trials=30, seed=7)
        b = ed.check_commutative(OUTPUT, trials=30, seed=7)
        assert a.to_obj() == b.to_obj()


class TestReportShape:
    """The public checkers report through the law suite's ``LawResult``."""

    @pytest.mark.parametrize("kind, expected", [
        (ed.output_kind(("a", "b")), False), (ed.DIST, True)],
        ids=["output", "dist"])
    def test_check_commutative(self, kind, expected):
        report = ed.check_commutative(kind, trials=1)
        assert isinstance(report, ed.LawResult)
        assert report.law == "commutativity" and report.monad == kind
        assert report.expected_pass is expected
        assert report.passed is expected and report.as_expected
        obj = report.to_obj()
        assert obj["monad"] == kind.tag
        assert obj["expected_pass"] is expected

    def test_check_algebraic(self):
        desc = ed.signature(STATE)[0]
        report = ed.check_algebraic(ed.descriptor_op(desc), trials=3)
        assert isinstance(report, ed.LawResult)
        assert report.law == "algebraicity" and report.monad == STATE
        assert report.expected_pass is True and report.as_expected
        assert report.to_obj()["monad"] == "state"

    def test_planted_failure_is_unexpected(self):
        # bottom where the argument returns, a unit where it diverges
        def flip(mu):
            if ed.is_bottom(mu):
                return ed.unit(ed.MAYBE, "a")
            return ed.bottom(ed.MAYBE)

        planted = ed.DerivedOperation(ed.MAYBE, 1, flip)
        report = ed.check_algebraic(planted, trials=5, seed=2)
        assert report.monad == ed.MAYBE and not report.passed
        assert report.expected_pass is True and not report.as_expected
        obj = report.to_obj()
        assert obj["monad"] == "maybe" and obj["expected_pass"] is True
        assert obj["pass"] is False and "counterexample" in obj


class TestAbsorptionPattern:
    def test_right_bottom_absorption_table(self):
        # raising and printing survive a following divergence; state
        # updates and everything else do not
        rng = random.Random(12)
        expected = {"maybe": True, "exc": False, "set": True,
                    "dist": True, "state": True, "output": False}
        for kind in ALL_KINDS:
            holds = True
            effects = ed.basic_effects(kind) + [
                gen.random_effect(kind, rng, max_arity=3)
                for _ in range(40)]
            for eff in effects:
                if ed.bind(eff.body,
                           lambda i: ed.bottom(kind)) != ed.bottom(kind):
                    holds = False
                    break
            assert holds == expected[kind.tag], kind.tag
