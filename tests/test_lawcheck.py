"""The law suite engine: determinism, expectations, replayable failures."""

import itertools
import json
import os
import pickle
import re
import threading
from fractions import Fraction
from types import MappingProxyType

import pytest

import effectdiagrams as ed
from effectdiagrams import cli, gen, lawcheck, monads
from effectdiagrams.lawcheck import ALL_LAWS, EXPECTED_FAIL


def small_config(**overrides):
    base = dict(seed=1, trials=10, carrier_size_max=3, arity_max=3)
    base.update(overrides)
    return ed.LawSuiteConfig(**base)


class TestConfig:
    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError):
            small_config(laws=("kleisli", "nonsense"))

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            small_config(trials=0)

    def test_carrier_bounded_by_the_letters(self):
        small_config(carrier_size_max=len(gen.LETTERS))
        with pytest.raises(ValueError):
            small_config(carrier_size_max=len(gen.LETTERS) + 1)

    @pytest.mark.parametrize("build, message", [
        (lambda: ed.LawSuiteConfig(carrier_size_max=0),
         "bounds must be >= 1"),
        (lambda: ed.check_algebraic(
            ed.descriptor_op(ed.signature(ed.POWERSET)[0]), trials=0),
         "trials must be >= 1"),
    ])
    def test_message(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("field", ["seed", "trials", "carrier_size_max",
                                       "arity_max"])
    @pytest.mark.parametrize("value", [2.5, True, "3", None])
    def test_bounds_must_be_ints(self, field, value):
        message = re.escape(f"{field} must be an int, got {value!r}")
        with pytest.raises(TypeError, match=message):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["seed", "trials"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_single_checks_take_ints(self, field, value):
        op = ed.descriptor_op(ed.signature(ed.POWERSET)[0])
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            ed.check_algebraic(op, **{field: value})
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            ed.check_commutative(ed.POWERSET, **{field: value})

    @pytest.mark.parametrize("build", [
        lambda: ed.LawSuiteConfig(monads=("maybe",)),
        lambda: ed.LawSuiteConfig(monads=(ed.MAYBE, None)),
        lambda: ed.LawSuiteConfig(monads="maybe"),
        lambda: ed.LawSuiteConfig(laws="unit"),
        lambda: ed.check_commutative("maybe"),
    ], ids=["str-kind", "none-kind", "str-monads", "str-laws",
            "commutative-str-kind"])
    def test_str_or_non_kind_rejected_before_any_cell(self, build,
                                                      monkeypatch):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(lawcheck, "_run", no_cell)
        with pytest.raises(TypeError, match="not a str|expected a MonadKind"):
            build()

    def test_arity_bounded_by_half_the_cap(self):
        small_config(arity_max=ed.MAX_ARITY // 2)
        with pytest.raises(ValueError, match="arity_max must be <= 32"):
            small_config(arity_max=ed.MAX_ARITY // 2 + 1)

    def test_empty_law_set_gives_empty_report(self):
        report = ed.run_law_suite(small_config(laws=()))
        assert report.results == () and report.ok

    def test_config_keeps_tuples(self):
        cfg = ed.LawSuiteConfig(trials=2, laws=["unit"], monads=[ed.MAYBE])
        assert cfg.laws == ("unit",) and cfg.monads == (ed.MAYBE,)
        with pytest.raises(AttributeError):
            cfg.laws.append("nope")
        assert hash(cfg) == hash(ed.LawSuiteConfig(
            trials=2, laws=("unit",), monads=(ed.MAYBE,)))

    def test_failing_report_cannot_be_cleared(self):
        unexpected = ed.LawResult("unit", ed.MAYBE, False, 1, 1)
        report = ed.SuiteReport(1, [unexpected])
        with pytest.raises(AttributeError):
            report.results.clear()
        assert report.results == (unexpected,) and not report.ok
        # nor can the witness of a failing cell
        report = ed.run_law_suite(small_config(
            laws=("commutativity",), monads=(ed.output_kind(("a", "b")),)))
        witness = report.results[0].counterexample
        before = report.to_obj()
        with pytest.raises(AttributeError):
            witness.clear()
        with pytest.raises(TypeError):
            witness["grid"] = []
        with pytest.raises(TypeError):
            del witness["lhs"]
        assert report.to_obj() == before and not report.results[0].passed


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = ed.run_law_suite(small_config(seed=42))
        b = ed.run_law_suite(small_config(seed=42))
        assert a.to_obj() == b.to_obj()

    def test_subset_run_matches_full_run_cells(self):
        # per-cell seeding makes results independent of which other
        # cells run
        full = ed.run_law_suite(small_config(seed=5))
        sub = ed.run_law_suite(small_config(seed=5,
                                            laws=("commutativity",)))
        full_cells = {(r.law, r.monad.tag): r.to_obj()
                      for r in full.results if r.law == "commutativity"}
        sub_cells = {(r.law, r.monad.tag): r.to_obj() for r in sub.results}
        assert full_cells == sub_cells

    def test_report_is_json_ready(self):
        report = ed.run_law_suite(small_config(seed=3, trials=5))
        text = json.dumps(report.to_obj())
        parsed = json.loads(text)
        assert parsed["seed"] == 3
        for cell in parsed["results"]:
            assert {"law", "monad", "pass", "trials",
                    "seed"} <= set(cell)


class TestExpectations:
    def test_full_suite_meets_expectations(self):
        report = ed.run_law_suite(small_config(seed=1, trials=15))
        assert report.ok
        for res in report.results:
            assert res.as_expected, (res.law, res.monad.tag)

    def test_failure_pattern(self):
        report = ed.run_law_suite(small_config(seed=2, trials=15))
        failures = {(r.law, r.monad.tag)
                    for r in report.results if not r.passed}
        expected = {(law, tag) for law, tags in EXPECTED_FAIL.items()
                    for tag in tags}
        assert failures == expected

    def test_binding_law_subdistributions(self):
        cfg = small_config(seed=9, trials=100, laws=("binding",),
                           monads=(ed.DIST,))
        report = ed.run_law_suite(cfg)
        (res,) = report.results
        assert res.passed and res.trials == 100


class TestCounterexamples:
    def test_failures_carry_replayable_counterexamples(self):
        report = ed.run_law_suite(small_config(seed=4, trials=10))
        failing = [r for r in report.results if not r.passed]
        assert failing
        for res in failing:
            assert res.counterexample is not None
            assert ed.replay(res.law, res.monad, res.counterexample)

    def test_expected_pass_flag_in_report(self):
        report = ed.run_law_suite(small_config(seed=4, trials=5))
        cells = {(r.law, r.monad.tag): r.expected_pass
                 for r in report.results}
        assert cells[("commutativity", "output")] is False
        assert cells[("commutativity", "dist")] is True
        assert cells[("absorption", "state")] is True
        assert cells[("absorption", "exc")] is False

    def test_replay_refuses_a_law_whose_witness_is_not_its_case(self):
        with pytest.raises(ValueError,
                           match="no replay support for law 'kleisli'"):
            ed.replay("kleisli", ed.MAYBE, {})

    def test_replay_of_a_case_that_holds_is_false(self):
        effect = ed.trivial_effect(ed.DIST)
        assert ed.replay("absorption", ed.DIST, {"effect": effect}) is False

    @pytest.mark.parametrize("law, kind, witness, error, message", [
        ("absorption", "maybe", {"effect": None}, TypeError,
         "expected a MonadKind, got 'maybe'"),
        ("absorption", ed.MAYBE, [None], TypeError, "expected a mapping"),
        ("absorption", ed.MAYBE, {}, ValueError,
         "counterexample lacks effect"),
        ("commutativity", ed.MAYBE, {"grid": []}, ValueError,
         "counterexample lacks left_effect, right_effect"),
        ("absorption", ed.MAYBE, {"effect": None}, TypeError,
         "effect must be a GenericEffect, got None"),
        ("absorption", ed.MAYBE, {"effect": ed.trivial_effect(ed.DIST)},
         ValueError, "effect is a dist effect, not a maybe one"),
        ("commutativity", ed.DIST,
         {"left_effect": ed.trivial_effect(ed.DIST),
          "right_effect": ed.trivial_effect(ed.MAYBE), "grid": [["x"]]},
         ValueError, "right_effect is a maybe effect, not a dist one"),
        ("commutativity", ed.DIST,
         {"left_effect": ed.trivial_effect(ed.DIST),
          "right_effect": ed.trivial_effect(ed.DIST), "grid": [["x", "y"]]},
         ValueError, "grid must have a row per left index"),
        ("commutativity", ed.DIST,
         {"left_effect": ed.trivial_effect(ed.DIST),
          "right_effect": ed.trivial_effect(ed.DIST), "grid": []},
         ValueError, "grid must have a row per left index"),
    ], ids=["kind", "not-a-mapping", "missing", "missing-two", "not-effect",
            "other-kind", "right-other-kind", "wide-grid", "short-grid"])
    def test_replay_checks_its_inputs_first(self, monkeypatch, law, kind,
                                            witness, error, message):
        def never(*case):
            raise AssertionError("the predicate ran")

        monkeypatch.setitem(lawcheck._LAWS, law,
                            (never, *lawcheck._LAWS[law][1:]))
        with pytest.raises(error, match=re.escape(message)):
            ed.replay(law, kind, witness)

    @pytest.mark.parametrize("op", [
        ed.signature(ed.POWERSET)[0], ed.trivial_effect(ed.POWERSET),
        "union", None])
    def test_check_algebraic_takes_a_derived_operation(self, op):
        with pytest.raises(TypeError, match="expected a DerivedOperation"):
            ed.check_algebraic(op)


class TestLawCoverage:
    def test_every_law_runs_on_every_monad(self):
        report = ed.run_law_suite(small_config(trials=2))
        seen = {(r.law, r.monad.tag) for r in report.results}
        tags = [k.tag for k in ed.default_kinds()]
        assert seen == {(law, tag) for law in ALL_LAWS for tag in tags}


SCOPE = ("a", "b")
# the instances whose values enumerate, with their case counts: kleisli
# (x, mu, f, g), binding (mu, f) and effects of arity at most 2
SCOPE_KINDS = [(ed.MAYBE, 486, 27, 6),
               (ed.exception_kind(("err",)), 2048, 64, 9),
               (ed.POWERSET, 2048, 64, 7)]


def violations(law, cases):
    """The witnesses of the law's predicate over every case."""
    violation = lawcheck._LAWS[law][0]
    return [w for w in (violation(*case) for case in cases)
            if w is not None]


@pytest.mark.parametrize("kind, n_kleisli, n_binding, n_effects",
                         SCOPE_KINDS, ids=[k.tag for k, *_ in SCOPE_KINDS])
class TestSmallScope:
    """Every law predicate on every case over a two-element carrier."""

    def test_kleisli_and_binding_hold_on_every_case(
            self, kind, n_kleisli, n_binding, n_effects):
        values = gen.enumerate_values(kind, SCOPE)
        tables = gen.enumerate_kleisli(kind, SCOPE, SCOPE)
        kleisli = list(itertools.product(SCOPE, values, tables, tables))
        binding = list(itertools.product(values, tables))
        assert (len(kleisli), len(binding)) == (n_kleisli, n_binding)
        assert violations("kleisli", kleisli) == []
        assert violations("binding", binding) == []

    def test_absorption_and_exchange_fail_exactly_where_expected(
            self, kind, n_kleisli, n_binding, n_effects):
        effects = [ed.GenericEffect(n, body) for n in range(3)
                   for body in gen.enumerate_values(kind, range(1, n + 1))]
        assert len(effects) == n_effects
        pairs = [(kind, left, right,
                  [[f"x{i}{j}" for j in range(1, right.arity + 1)]
                   for i in range(1, left.arity + 1)])
                 for left in effects for right in effects]
        absorbs = not violations("absorption", [(kind, e) for e in effects])
        commutes = not violations("commutativity", pairs)
        assert absorbs == (kind.tag not in EXPECTED_FAIL["absorption"])
        assert commutes == (kind.tag not in EXPECTED_FAIL["commutativity"])


def _exhaustive_cases(kind):
    """How many cases ``check_algebraic`` tries before its one drawn trial."""
    op = ed.effect_to_op(ed.bottom_effect(kind, 1))
    report = ed.check_algebraic(op, trials=1)
    assert report.passed
    return report.trials - 1


class TestAlgebraicExhaustivePass:
    """``check_algebraic`` tries every argument and Kleisli table over a
    3-element domain and codomain only where the tables number at most
    256; the cap is ``gen.enumerate_kleisli``'s."""

    def test_default_kinds(self):
        got = {kind.tag: _exhaustive_cases(kind)
               for kind in lawcheck.default_kinds()}
        # maybe: 4 values, 4 ** 3 tables; exc with one label: 5 and 5 ** 3;
        # set: 8 ** 3 = 512 tables, above the cap
        assert got == {"maybe": 4 * 4 ** 3, "exc": 5 * 5 ** 3, "set": 0,
                       "dist": 0, "state": 0, "output": 0}

    @pytest.mark.parametrize("labels, cases", [
        (("e1", "e2"), 6 * 6 ** 3), (("e1", "e2", "e3"), 0)])
    def test_exc_labels(self, labels, cases):
        assert _exhaustive_cases(ed.MonadKind("exc", labels)) == cases


def test_check_algebraic_reports_the_first_violating_case():
    # keeps the first element of its argument, dropping every weight; dist
    # has no exhaustive pass, so the cases are the drawn ones alone
    def head_or_bottom(mu):
        elems = ed.support(mu)
        return ed.unit(ed.DIST, elems[0]) if elems else ed.bottom(ed.DIST)

    op = ed.DerivedOperation(ed.DIST, 1, head_or_bottom)
    cases = lawcheck._algebraic_cases([op], gen.Draws(3), gen.LETTERS[:3],
                                      ("x", "y", "z"))
    for position, case in enumerate(cases, 1):
        witness = lawcheck.algebraic_violation(*case)
        if witness is not None:
            break
    report = ed.check_algebraic(op, trials=200, seed=3)
    assert report.trials == position
    assert dict(report.counterexample) == witness


def _dist_join_drops_last_branch(self, payload, outs):
    return _DIST_JOIN(self, dict(list(payload.items())[:-1]), outs)


def _state_join_reads_the_old_store(self, payload, outs):
    results, following, table = {}, iter(outs).__next__, {}
    for s, c in payload.items():
        if isinstance(c, monads.Present):
            x = c.value[0]
            if x not in results:
                results[x] = following()
            table[s] = results[x][s]
        else:
            table[s] = monads.DIVERGE
    return table


def _powerset_join_keeps_one_branch(self, payload, outs):
    return frozenset().union(*outs[:1])


def _output_join_drops_the_printed_prefix(self, payload, outs):
    return (payload[0], outs[0][1]) if outs else payload


def _dist_map_keeps_the_last_preimage(self, payload, g):
    acc = {}
    for x, p in payload.items():
        acc[g(x)] = p
    return acc


_DIST_JOIN = monads.Dist.join
PLANTED = [
    (monads.Dist, "join", _dist_join_drops_last_branch, ed.DIST),
    (monads.State, "join", _state_join_reads_the_old_store,
     ed.state_kind(("l0", "l1"))),
    (monads.Powerset, "join", _powerset_join_keeps_one_branch, ed.POWERSET),
    (monads.Output, "join", _output_join_drops_the_printed_prefix,
     ed.output_kind(("a", "b"))),
    (monads.Dist, "map", _dist_map_keeps_the_last_preimage, ed.DIST),
]


@pytest.mark.parametrize("cls, name, bug, kind", PLANTED,
                         ids=[bug.__name__.lstrip("_")
                              for _, _, bug, _ in PLANTED])
class TestPlantedBugs:
    """The suite at its default trials catches each bug at every seed."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_suite_fails(self, monkeypatch, cls, name, bug, kind, seed):
        monkeypatch.setattr(cls, name, bug)
        report = ed.run_law_suite(ed.LawSuiteConfig(seed=seed,
                                                    monads=(kind,)))
        assert not report.ok


def _output_join_keeps_one_printed_character(self, payload, outs):
    if not outs:
        return payload
    u, tail = outs[0]
    return (payload[0] + u[:1], tail)


def _dist_join_keeps_the_last_branch_of_an_element(self, payload, outs):
    acc = {}
    for p, out in zip(payload.values(), outs):
        for y, q in out.items():
            acc[y] = p * q
    return acc


def _maybe_join_ignores_a_divergent_rest(self, payload, outs):
    return outs[0] if outs and isinstance(outs[0], monads.Present) \
        else payload


def _maybe_order_is_equality(self, a, b):
    return a == b


_BOTTOM_EFFECT, _SEQ_COMPOSE = lawcheck.bottom_effect, lawcheck.seq_compose
_MAP_CARRIER, _EXTEND = lawcheck.map_carrier, lawcheck.extend


def _bottom_effect_returns_its_first_index(kind, arity=0):
    if arity:
        return ed.GenericEffect(arity, ed.unit(kind, 1))
    return _BOTTOM_EFFECT(kind, arity)


def _seq_compose_skips_the_outer_effect(xi, family):
    return family[0] if family else _SEQ_COMPOSE(xi, family)


def _map_carrier_turns_bottom_into_a_value(mu, g):
    if mu == ed.bottom(mu.kind):
        return ed.unit(mu.kind, "x")
    return _MAP_CARRIER(mu, g)


def _extend_leaves_the_row_in_place(pres, iota, m, fill):
    # the body follows the injection, the row does not
    wide = _EXTEND(pres, iota, m, fill)
    return ed.Presentation(wide.effect, (*pres.row, *fill))


# law, its side or rule (None for a row with one check), the planted
# bug as (owner, name, function), the instance, a seed that finds it, and
# the witness's keys
WITNESSES = [
    ("associativity", None,
     (monads.Output, "join", _output_join_keeps_one_printed_character),
     ed.output_kind(("a", "b")), 3,
     {"outer", "xi", "family", "subfamilies", "lhs", "rhs"}),
    ("kleisli", "associativity",
     (monads.Dist, "join", _dist_join_keeps_the_last_branch_of_an_element),
     ed.DIST, 4, {"side", "mu", "f", "g", "lhs", "rhs"}),
    ("congruence", "generator",
     (lawcheck, "extend", _extend_leaves_the_row_in_place),
     ed.DIST, 3, {"side", "xi", "rho"}),
    ("monotonicity", "right",
     (monads.Maybe, "join", _maybe_join_ignores_a_divergent_rest),
     ed.MAYBE, 2, {"rule", "nu", "g", "weak"}),
    ("monotonicity", "slotwise",
     (monads.Maybe, "join", _maybe_join_ignores_a_divergent_rest),
     ed.MAYBE, 1, {"rule", "effect", "low", "high"}),
    ("bottom", "least",
     (monads.Maybe, "leq", _maybe_order_is_equality),
     ed.MAYBE, 1, {"rule", "mu"}),
    ("bottom", "collapse",
     (lawcheck, "bottom_effect", _bottom_effect_returns_its_first_index),
     ed.MAYBE, 1, {"rule", "arity", "row"}),
    ("bottom", "left-absorption",
     (lawcheck, "seq_compose", _seq_compose_skips_the_outer_effect),
     ed.MAYBE, 2, {"rule", "arity", "row", "family"}),
    ("bottom", "strict-map",
     (lawcheck, "map_carrier", _map_carrier_turns_bottom_into_a_value),
     ed.MAYBE, 1, {"rule"}),
]


@pytest.mark.parametrize(
    "law, branch, bug, kind, seed, keys", WITNESSES,
    ids=[f"{law}-{branch or 'row'}" for law, branch, *_ in WITNESSES])
def test_planted_bug_gives_the_witness_shape(monkeypatch, law, branch, bug,
                                             kind, seed, keys):
    # each witness a replay reader must parse, reached by a bug that only
    # that check sees first
    monkeypatch.setattr(*bug)
    result, = ed.run_law_suite(ed.LawSuiteConfig(
        seed=seed, laws=(law,), monads=(kind,))).results
    witness = result.counterexample
    assert not result.passed and set(witness) == keys
    assert witness.get("side", witness.get("rule")) == branch
    assert set(json.loads(json.dumps(result.to_obj()))["counterexample"]) \
        == keys


class TestDraws:
    """``gen.Draws`` picks in range, reaches every outcome, repeats."""

    def test_choice_and_randint_reach_every_outcome(self):
        rng = gen.Draws(1)
        for n in range(1, 6):
            assert {rng.choice("abcde"[:n]) for _ in range(500)} == \
                set("abcde"[:n])
        for a, b in [(0, 0), (0, 3), (1, 16), (-2, 2)]:
            assert {rng.randint(a, b) for _ in range(1000)} == \
                set(range(a, b + 1))

    def test_sample_gives_distinct_elements_in_every_order(self):
        rng = gen.Draws(2)
        for n in range(5):
            for k in range(n + 1):
                seen = {tuple(rng.sample(range(n), k)) for _ in range(600)}
                assert all(len(set(s)) == k for s in seen)
                assert seen == set(itertools.permutations(range(n), k))

    def test_shuffle_reaches_every_permutation(self):
        rng = gen.Draws(3)
        seen = set()
        for _ in range(1000):
            x = list("abcd")
            rng.shuffle(x)
            seen.add(tuple(x))
        assert seen == set(itertools.permutations("abcd"))

    def test_empty_ranges_are_refused(self):
        rng = gen.Draws(4)
        with pytest.raises(ValueError):
            rng.randint(3, 2)
        with pytest.raises(ValueError):
            rng.sample("ab", 3)
        with pytest.raises(ValueError):
            rng.sample("ab", -1)
        with pytest.raises(IndexError):
            rng.choice("")

    def test_one_seed_gives_one_stream(self):
        def stream(seed):
            rng = gen.Draws(seed)
            return [(rng.choice("abc"), rng.randint(0, 9),
                     rng.sample(range(6), 3), rng.random())
                    for _ in range(20)]
        assert stream(5) == stream(5)
        assert stream(5) != stream(6)


class TestLazyTables:
    """A Kleisli table draws only the entries a law reads."""

    def table(self, kind=ed.DIST, seed=1):
        return gen.random_kleisli(kind, gen.Draws(seed), gen.LETTERS[:4],
                                  gen.LETTERS[:4])[1]

    def test_a_predicate_leaves_only_the_keys_it_read(self):
        mu = ed.MonadValue(ed.DIST, {"c": Fraction(1, 2),
                                     "a": Fraction(1, 4)})
        f = self.table()
        assert len(f) == 0
        assert lawcheck._LAWS["binding"][0](mu, f) is None
        assert list(f) == ["a", "c"]

    def test_entries_stay_in_domain_order(self):
        f = self.table()
        for x in "dbca":
            f[x]
        assert list(f) == list("abcd")
        assert f["b"] is f["b"]

    def test_a_key_outside_the_domain_raises(self):
        f = self.table()
        f["a"]
        with pytest.raises(KeyError):
            f["e"]
        assert list(f) == ["a"]

    def test_witness_tables_are_plain_and_do_not_grow(self, monkeypatch):
        monkeypatch.setattr(monads.Output, "join",
                            _output_join_drops_the_printed_prefix)
        kind = ed.output_kind(("a", "b"))
        report = ed.run_law_suite(small_config(laws=("kleisli",),
                                               monads=(kind,)))
        (res,) = report.results
        assert not res.passed
        table = res.counterexample["kleisli"]
        assert type(table) is dict and list(table) == [res.counterexample["x"]]
        missing = next(x for x in gen.LETTERS if x not in table)
        with pytest.raises(KeyError):
            table[missing]
        assert len(table) == 1


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _planted_unit(tag):
    """The unit law's row, with a predicate that raises on ``tag``."""
    violation, fixed, cases = lawcheck._LAWS["unit"]

    def planted(xi):
        if xi.kind.tag == tag:
            raise ZeroDivisionError(f"planted on {tag}")
        return violation(xi)

    return planted, fixed, cases


class TestTwoProcesses:
    """A forked child runs half of the cells and changes no report.

    A fork costs nothing here, so every suite with a white cell left to
    overlap forks after its first one, whatever its speed, except where
    a test makes the fork dear.
    """

    @pytest.fixture(autouse=True)
    def _count_forks(self, monkeypatch):
        self.monkeypatch, self.forks = monkeypatch, []
        monkeypatch.setattr(lawcheck, "_FORK_S", 0.0)
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                self.forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        yield
        _no_children_left()

    def cpus(self, n):
        self.monkeypatch.setattr(lawcheck, "_usable_cpus", lambda: n)

    def reports(self, cfg):
        """The report on one CPU, on two, and the number of forks."""
        self.cpus(1)
        serial = ed.run_law_suite(cfg)
        _no_children_left()
        self.cpus(2)
        before = len(self.forks)
        split = ed.run_law_suite(cfg)
        _no_children_left()
        return serial, split, len(self.forks) - before

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_same_report_as_one_process(self, seed):
        serial, split, made = self.reports(small_config(seed=seed))
        assert made == 1
        assert split.to_obj() == serial.to_obj()
        assert split.results == serial.results
        assert sum(not r.passed for r in split.results) == 5

    def test_this_process_runs_the_white_squares(self):
        ran = []
        real_run_cell = lawcheck._run_cell
        self.monkeypatch.setattr(
            lawcheck, "_run_cell",
            lambda cell, cfg: ran.append(cell) or real_run_cell(cell, cfg))
        self.cpus(2)
        cfg = small_config(trials=3)
        ed.run_law_suite(cfg)
        assert ran == [(law, kind) for i, law in enumerate(cfg.laws)
                       for j, kind in enumerate(cfg.monads)
                       if (i + j) % 2 == 0]

    @pytest.mark.parametrize("laws, monads, made", [
        (("unit",), (ed.MAYBE,), 0),
        (("unit",), (ed.MAYBE, ed.POWERSET, ed.DIST), 1),
        (("absorption", "commutativity", "unit"),
         (ed.output_kind(("a",)),), 1),
        (ALL_LAWS[:3], (ed.DIST, ed.POWERSET, ed.DIST), 1),
    ])
    def test_small_configs(self, laws, monads, made):
        cfg = small_config(seed=6, laws=laws, monads=monads)
        serial, split, forked = self.reports(cfg)
        assert forked == made
        assert split.to_obj() == serial.to_obj()

    @pytest.mark.parametrize("fork_s, laws, monads, trials", [
        (float("inf"), ALL_LAWS, lawcheck.default_kinds(), 10),
        (0.0, ("unit",), (ed.MAYBE, ed.POWERSET), 200),
        (0.0, ("absorption", "commutativity"),
         (ed.output_kind(("a",)),), 10),
    ], ids=["dear-fork", "two-instances", "two-laws"])
    def test_never_forks(self, fork_s, laws, monads, trials):
        # with two cells nothing is left to overlap once the white one
        # has run
        self.monkeypatch.setattr(lawcheck, "_FORK_S", fork_s)
        cfg = small_config(seed=6, laws=laws, monads=monads, trials=trials)
        serial, split, forked = self.reports(cfg)
        assert forked == 0
        assert split.to_obj() == serial.to_obj()

    def test_the_cli_default_suite_splits(self, capsys):
        self.cpus(2)
        assert cli.main(["laws", "--seed", "2", "--trials", "8"]) == 0
        _no_children_left()
        assert len(self.forks) == 1
        assert capsys.readouterr().out.endswith("expectations met (seed=2)\n")

    @pytest.mark.parametrize("suite", [
        ["--seed", "1", "--trials", "5"],
        ["--seed", "3", "--trials", "5"],
        ["--laws", "associativity", "--trials", "50"],
    ], ids=["1", "3", "associativity"])
    def test_same_laws_text(self, capsys, suite):
        outputs = []
        for cpus in (1, 2):
            self.cpus(cpus)
            for fmt in ("text", "machine"):
                code = cli.main(["laws", *suite, "--format", fmt])
                _no_children_left()
                outputs.append((code, *capsys.readouterr()))
        assert len(self.forks) == 2
        assert outputs[:2] == outputs[2:]
        assert outputs[0][1].count("expectations met") == 1

    def test_no_output_written_twice(self, capfd):
        self.cpus(2)
        print("before the suite", end="")
        ed.run_law_suite(small_config(trials=3))
        assert len(self.forks) == 1
        assert capfd.readouterr() == ("before the suite", "")

    @pytest.mark.parametrize("tag", ["maybe", "set"])
    def test_a_raising_cell_raises_from_either_half(self, tag):
        # the fork follows the dist cell; maybe is this process's next
        # cell, set the child's
        self.monkeypatch.setitem(lawcheck._LAWS, "unit", _planted_unit(tag))
        self.cpus(2)
        cfg = small_config(laws=("unit",),
                           monads=(ed.DIST, ed.POWERSET, ed.MAYBE))
        with pytest.raises(ZeroDivisionError, match=f"^planted on {tag}$"):
            ed.run_law_suite(cfg)
        assert len(self.forks) == 1

    def test_a_short_pickle_reruns_the_childs_cells(self):
        serial, _, _ = self.reports(small_config(seed=2))
        real_dumps = pickle.dumps
        self.monkeypatch.setattr(pickle, "dumps",
                            lambda obj, *args: real_dumps(obj, *args)[:-3])
        split = ed.run_law_suite(small_config(seed=2))
        assert split.to_obj() == serial.to_obj()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open descriptors in /proc")
    def test_one_process_when_fork_fails(self):
        serial, _, _ = self.reports(small_config(seed=2))

        def refuse():
            raise BlockingIOError("no process to spare")

        self.monkeypatch.setattr(os, "fork", refuse)
        open_fds = len(os.listdir("/proc/self/fd"))
        split = ed.run_law_suite(small_config(seed=2))
        assert split.to_obj() == serial.to_obj()
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_a_refused_fork_is_tried_once(self):
        serial, _, _ = self.reports(small_config(seed=2))
        tries = []

        def refuse():
            tries.append(None)
            raise BlockingIOError("no process to spare")

        self.monkeypatch.setattr(os, "fork", refuse)
        assert ed.run_law_suite(small_config(seed=2)).to_obj() \
            == serial.to_obj()
        assert len(tries) == 1

    def test_one_process_while_another_thread_runs(self):
        self.cpus(2)
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            report = ed.run_law_suite(small_config(trials=3))
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert self.forks == [] and report.ok

    def test_reports_pickle(self):
        report = ed.run_law_suite(small_config(seed=2, trials=15))
        failing = [r for r in report.results if not r.passed]
        assert len(failing) == 5
        for res in report.results:
            back = pickle.loads(pickle.dumps(res, pickle.HIGHEST_PROTOCOL))
            assert back == res and back.to_obj() == res.to_obj()
        for res in failing:
            back = pickle.loads(pickle.dumps(res))
            assert type(back.counterexample) is MappingProxyType
            assert ed.replay(back.law, back.monad, back.counterexample)
