"""Parsing, substitution, and the fuel-indexed monadic evaluator."""

import dataclasses
import functools
import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import effectdiagrams as ed
from effectdiagrams import lang, lawcheck, serialize
from effectdiagrams.lang import Abs, App, Op, Var

import reference_eval
import reference_parse
from strategies import (ALL_KINDS, BINDERS, EXC, OMEGA, OUTPUT, STATE,
                        programs)

DEFS = ed.default_defs()


def ev(src, kind, fuel=32, defs=DEFS):
    return ed.evaluate(ed.parse(src, kind=kind, defs=defs), kind, fuel)


class TestParse:
    def test_identity(self):
        assert ed.parse("\\x. x") == Abs("x", Var("x"))

    def test_application_left_associative(self):
        assert ed.parse("f g h") == App(App(Var("f"), Var("g")), Var("h"))

    def test_choice(self):
        term = ed.parse("choice(v, w)")
        assert isinstance(term, Op)
        assert term.op.name == "choice" and term.op.arity == 2
        assert term.args == (Var("v"), Var("w"))

    def test_print_with_index(self):
        term = ed.parse("print[a](\\x. x)")
        assert isinstance(term, Op)
        assert term.op.name == "print" and term.op.index == "a"
        assert term.args == (Abs("x", Var("x")),)

    def test_write_index_pair(self):
        term = ed.parse("write[l0,1](v)", kind=STATE)
        assert term.op.index == ("l0", 1)

    def test_bracket_entries_stay_text(self):
        term = ed.parse("print[0](v)")
        assert term.op.index == "0"
        assert term.op.kind == ed.output_kind(("0",))
        term = ed.parse("read[0](v, w)", kind=ed.state_kind(("0", "1")))
        assert term.op.index == "0"

    @pytest.mark.parametrize("bit, want", [
        ("0", 0), ("1", 1), ("01", 1), ("2", None), ("x", None),
        ("²", None)])
    def test_write_bit_is_decimal_zero_or_one(self, bit, want):
        src = f"write[l0,{bit}](v)"
        if want is None:
            with pytest.raises(ed.ParseError, match="write bit"):
                ed.parse(src, kind=STATE)
        else:
            assert ed.parse(src, kind=STATE).op.index == ("l0", want)

    def test_seq_sugar(self):
        term = ed.parse("u ; w")
        assert isinstance(term, App)
        assert isinstance(term.fn, Abs)
        assert term.fn.body == Var("w")
        assert term.arg == Var("u")
        assert term.fn.param not in ed.free_vars(Var("w"))

    def test_lambda_body_extends_right(self):
        assert ed.parse("\\x. x x") == Abs("x", App(Var("x"), Var("x")))

    def test_parens(self):
        assert ed.parse("(\\x. x) y") == App(Abs("x", Var("x")), Var("y"))

    def test_syntax_error_has_position(self):
        with pytest.raises(ed.ParseError) as err:
            ed.parse("\\x. $")
        assert err.value.pos == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(ed.ParseError):
            ed.parse("x )")

    def test_op_arity_mismatch(self):
        with pytest.raises(ed.ParseError):
            ed.parse("choice(v)")

    def test_op_constructor_arity_mismatch_is_an_arity_error(self):
        # nothing was parsed, so there is no offset to report
        with pytest.raises(ed.ArityError) as err:
            Op(ed.OpDescriptor("union", ed.POWERSET), [Var("a")])
        assert not isinstance(err.value, ed.ParseError)
        assert str(err.value) == "union expects 2 arguments, got 1"

    def test_op_under_wrong_kind(self):
        with pytest.raises(ed.SignatureError):
            ed.parse("choice(v, w)", kind=ed.MAYBE)

    def test_bad_op_index(self):
        with pytest.raises(ed.SignatureError):
            ed.parse("print[z](v)", kind=OUTPUT)

    def test_defs_are_spliced(self):
        term = ed.parse("id id", defs=DEFS)
        assert term == App(DEFS["id"], DEFS["id"])

    def test_defs_respect_shadowing(self):
        term = ed.parse("\\id. id", defs=DEFS)
        assert term == Abs("id", Var("id"))

    def test_str_round_trip(self):
        samples = [
            "\\x. x",
            "(\\x. x x) (\\y. y)",
            "f g h",
            "f (g h)",
            "choice(v, choice(w, w))",
            "print[a](\\x. x y)",
            "print[0](v)",
            "print[-](v)",
            "raise[not-found]()",
            "write[l0,1](read[l1](v, w))",
            "raise[err]()",
        ]
        for src in samples:
            term = ed.parse(src)
            assert ed.parse(str(term)) == term


class TestSubstitute:
    def test_variable(self):
        assert ed.substitute(Var("x"), "x", Var("v")) == Var("v")

    def test_shadowing(self):
        term = Abs("x", Var("x"))
        assert ed.substitute(term, "x", Var("v")) == term

    def test_capture_forces_renaming(self):
        term = Abs("y", Var("x"))
        got = ed.substitute(term, "x", Var("y"))
        assert isinstance(got, Abs)
        assert got.param != "y"
        assert got.body == Var("y")

    def test_renaming_skips_names_already_free(self):
        got = ed.substitute(ed.parse("\\x. y x_1"), "y", Var("x"))
        assert str(got) == "\\x_2. x x_1"

    @pytest.mark.parametrize("src, closed", [
        ("\\x. x", True),
        ("\\x. y", False),
    ])
    def test_is_closed(self, src, closed):
        assert ed.is_closed(ed.parse(src)) is closed

    def test_beta_equivalence_preserved(self):
        # ((\y. x y) applied later must not capture the substituted y
        term = ed.parse("\\y. x y")
        got = ed.substitute(term, "x", ed.parse("\\z. y"))
        kind = ed.MAYBE
        applied = ed.evaluate(App(got, Abs("q", Var("q"))), kind, 10)
        assert applied == ed.unit(kind, Var("y"))


class TestEvaluate:
    def test_single_beta_step(self):
        got = ev("(\\x. x) (\\y. y)", ed.MAYBE, fuel=10)
        assert got == ed.unit(ed.MAYBE, Abs("y", Var("y")))

    def test_omega_diverges_at_any_fuel(self):
        omega = ed.parse("OMEGA", defs=DEFS)
        for kind in ALL_KINDS:
            for fuel in (0, 1, 10, 100):
                assert ed.evaluate(omega, kind, fuel) == ed.bottom(kind)

    def test_values_need_no_fuel(self):
        for src in ("\\x. x", "v"):
            term = ed.parse(src)
            assert ed.evaluate(term, ed.DIST, 0) == ed.unit(ed.DIST, term)

    @pytest.mark.parametrize("fuel", [2.5, True, "3"])
    def test_fuel_that_is_not_an_int_is_refused(self, fuel):
        term = ed.parse("OMEGA", defs=DEFS)
        with pytest.raises(TypeError, match="fuel must be an int"):
            ed.evaluate(term, ed.MAYBE, fuel)

    def test_nested_choice(self):
        got = ev("choice(v, choice(v, w))", ed.DIST, fuel=10)
        # 1/2 + 1/2 * 1/2 on v, 1/2 * 1/2 on w
        assert got == ed.MonadValue(
            ed.DIST, {Var("v"): F(3, 4), Var("w"): F(1, 4)})

    def test_print_twice(self):
        got = ev("print[a](print[b](v))", OUTPUT, fuel=10)
        assert got == ed.MonadValue(OUTPUT, ("ab", ed.Present(Var("v"))))

    def test_raise_wins_over_value(self):
        got = ev("raise[err]() ; v", EXC, fuel=10)
        assert got == ed.MonadValue(EXC, ed.Raised("err"))

    def test_state_read_after_write(self):
        got = ev("write[l0,1](read[l0](zero, one))", STATE, fuel=10,
                 defs=DEFS)
        one_value = ed.support(ev("one", STATE, fuel=10, defs=DEFS))[0]
        for store in ed.stores(STATE):
            # every branch reads the freshly written bit and keeps it set
            assert got.payload[store] == ed.Present(
                (one_value, (1, store[1])))

    def test_applying_free_variable_is_an_error(self):
        with pytest.raises(ed.EvalError):
            ev("x (\\y. y)", ed.MAYBE)

    def test_op_revalidated_against_eval_kind(self):
        term = ed.parse("print[a](v)")
        with pytest.raises(ed.SignatureError):
            ed.evaluate(term, ed.output_kind(("b",)), 10)
        ok = ed.output_kind(("a", "c"))
        assert ed.evaluate(term, ok, 10) == ed.MonadValue(
            ok, ("a", ed.Present(Var("v"))))

    def test_fuel_monotone(self):
        rng = random.Random(1)
        programs = {
            ed.MAYBE: ["(\\x. x) ((\\y. y) v)", "OMEGA", "id (id id)"],
            EXC: ["raise[err]() ; v", "(\\x. raise[crash]()) v", "OMEGA"],
            ed.POWERSET: ["union(v, OMEGA)",
                          "Z (\\e. \\x. union(x, e (succ x))) zero"],
            ed.DIST: ["choice(v, OMEGA)", "choice(id id, w)"],
            STATE: ["write[l0,1](read[l0](v, OMEGA))", "OMEGA"],
            OUTPUT: ["print[a](print[b](OMEGA))", "print[a](id id)"],
        }
        for kind, sources in programs.items():
            for src in sources:
                term = ed.parse(src, kind=kind, defs=DEFS)
                fuels = sorted(rng.sample(range(0, 30), 6))
                results = [ed.evaluate(term, kind, f) for f in fuels]
                for lo, hi in zip(results, results[1:]):
                    assert ed.leq(lo, hi), src

    def test_seq_associativity_in_the_limit(self):
        cases = [
            (ed.DIST, "choice(u, v)", "choice(v, w)", "w"),
            (OUTPUT, "print[a](u)", "print[b](v)", "w"),
            (EXC, "u", "raise[err]()", "w"),
            (ed.POWERSET, "union(u, v)", "union(v, w)", "u"),
        ]
        for kind, e, f, g in cases:
            sides = [f"{e} ; ({f} ; {g})", f"({e} ; {f}) ; {g}"]
            results = []
            for src in sides:
                term = ed.parse(src, kind=kind, defs=DEFS)
                stable = ed.evaluate(term, kind, 50)
                # the chain has flattened out, so 50 is the limit here
                assert stable == ed.evaluate(term, kind, 49)
                results.append(stable)
            assert results[0] == results[1], kind.tag

    def test_op_hoisting_exact_at_equal_fuel(self):
        # op(e1, e2) ; f  ==  op(e1 ; f, e2 ; f), at every fuel
        for fuel in (0, 1, 2, 3, 10):
            lhs = ev("choice(u, v) ; w", ed.DIST, fuel=fuel)
            rhs = ev("choice(u ; w, v ; w)", ed.DIST, fuel=fuel)
            assert lhs == rhs
            lhs = ev("print[a](u) ; w", OUTPUT, fuel=fuel)
            rhs = ev("print[a](u ; w)", OUTPUT, fuel=fuel)
            assert lhs == rhs

    def test_commuting_conversion_for_commutative_instances(self):
        pairs = {
            ed.DIST: ("choice(a, b)", "choice(b, c)"),
            ed.POWERSET: ("union(a, b)", "union(b, c)"),
            ed.MAYBE: ("id a", "id b"),
        }
        for kind, (e, f) in pairs.items():
            lhs = ev(f"(\\x. (\\y. union(x, y)) ({f})) ({e})"
                     if kind is ed.POWERSET else
                     f"(\\x. (\\y. choice(x, y)) ({f})) ({e})"
                     if kind is ed.DIST else
                     f"(\\x. (\\y. x) ({f})) ({e})", kind, fuel=40)
            rhs = ev(f"(\\y. (\\x. union(x, y)) ({e})) ({f})"
                     if kind is ed.POWERSET else
                     f"(\\y. (\\x. choice(x, y)) ({e})) ({f})"
                     if kind is ed.DIST else
                     f"(\\y. (\\x. x) ({e})) ({f})", kind, fuel=40)
            assert lhs == rhs, kind.tag

    def test_commuting_conversion_fails_for_output(self):
        lhs = ev("(\\x. (\\y. x) (print[b](v))) (print[a](u))",
                 OUTPUT, fuel=40)
        rhs = ev("(\\y. (\\x. x) (print[a](u))) (print[b](v))",
                 OUTPUT, fuel=40)
        assert lhs != rhs
        assert lhs.payload[0] == "ab" and rhs.payload[0] == "ba"


class TestEvalDiagram:
    def test_value(self):
        got = ed.eval_diagram(ed.parse("v"), ed.DIST, 5)
        assert got.effect.body == ed.unit(ed.DIST, 1)
        assert got.row == (Var("v"),)

    def test_omega(self):
        got = ed.eval_diagram(ed.parse("OMEGA", defs=DEFS), ed.DIST, 5)
        assert got.effect.arity == 0 and got.row == ()

    def test_choice_up_to_row_order(self):
        got = ed.eval_diagram(ed.parse("choice(v, w)"), ed.DIST, 5)
        want = ed.Presentation(
            ed.GenericEffect(2, ed.MonadValue(ed.DIST,
                                              {1: F(1, 2), 2: F(1, 2)})),
            (Var("v"), Var("w")))
        assert ed.diagram_eq(got, want)

    def test_coherent_with_evaluate(self):
        sources = ["choice(v, choice(v, w))", "OMEGA", "id v"]
        for src in sources:
            term = ed.parse(src, kind=ed.DIST, defs=DEFS)
            assert ed.interpret(ed.eval_diagram(term, ed.DIST, 8)) == \
                ed.evaluate(term, ed.DIST, 8)


class TestEvalMonadicTerm:
    def test_unit_law(self):
        term = ed.parse("choice(v, w)")
        xi = ed.Presentation(ed.trivial_effect(ed.DIST), (term,))
        got = ed.eval_monadic_term(xi, ed.DIST, 8)
        assert ed.diagram_eq(got, ed.eval_diagram(term, ed.DIST, 8))

    def test_divergent_row_loses_mass(self):
        omega = ed.parse("OMEGA", defs=DEFS)
        xi = ed.Presentation(
            ed.GenericEffect(2, ed.MonadValue(ed.DIST,
                                              {1: F(1, 2), 2: F(1, 2)})),
            (ed.parse("v"), omega))
        got = ed.eval_monadic_term(xi, ed.DIST, 8)
        assert ed.interpret(got) == ed.MonadValue(
            ed.DIST, {Var("v"): F(1, 2)})

    def test_congruence_instance(self):
        term_a, term_b = ed.parse("v"), ed.parse("id w")
        xi = ed.Presentation(
            ed.GenericEffect(2, ed.MonadValue(ed.DIST,
                                              {1: F(1, 2), 2: F(1, 2)})),
            (term_a, ed.parse("id w", defs=DEFS)))
        rho = ed.extend(xi, (2, 1), 3, (ed.parse("OMEGA", defs=DEFS),))
        assert ed.diagram_eq(xi, rho)
        assert ed.diagram_eq(ed.eval_monadic_term(xi, ed.DIST, 8),
                             ed.eval_monadic_term(rho, ed.DIST, 8))


class TestPrelude:
    def test_numerals_differ(self):
        kind = ed.POWERSET
        seen = []
        for name in ("zero", "one", "two", "three"):
            mv = ev(name, kind, fuel=20)
            vals = ed.support(mv)
            assert len(vals) == 1
            seen.append(vals[0])
        assert len(set(seen)) == 4

    def test_fixpoint_combinator_unfolds(self):
        got = ev("Z (\\e. \\x. union(x, e (succ x))) zero",
                 ed.POWERSET, fuel=20)
        assert len(got.payload) >= 2

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.tag)
    def test_default_prelude_parses_the_same_under_every_kind(self, kind):
        assert ed.parse_defs(lang.DEFAULT_PRELUDE, kind=kind) == \
            ed.default_defs()

    def test_parse_defs_rejects_reserved_names(self):
        with pytest.raises(ed.ParseError):
            ed.parse_defs("union = \\x. x")

    @pytest.mark.parametrize("src, pos", [
        ("a = v\nx-y = v\n", 6), ("a = v\r\n\r\nunion = v", 9),
        ("a = v\n  b =  (v", 15), ("a = v\r\nb = raise[]()", 17),
    ], ids=["bad-line", "reserved-name", "right-hand-side", "index"])
    def test_parse_defs_errors_count_offsets_in_the_text(self, src, pos):
        with pytest.raises(ed.ParseError) as caught:
            ed.parse_defs(src)
        assert caught.value.pos == pos
        assert str(caught.value).endswith(f" (at offset {pos})")

    def test_a_definition_reaches_names_defined_after_it(self):
        # "a" holds "b" free, and "b" is substituted after "a"
        defs = ed.parse_defs("a = b\nb = v", defs=DEFS)
        assert ed.parse("a", defs=defs) == Var("v")

    def test_user_prelude_extends(self):
        defs = ed.parse_defs("twice = \\f. \\x. f (f x)")
        assert "twice" in defs
        got = ed.evaluate(
            ed.parse("twice id v", defs={**DEFS, **defs}), ed.MAYBE, 10)
        assert got == ed.unit(ed.MAYBE, Var("v"))

    def test_prelude_bracket_entries_and_comments(self):
        defs = ed.parse_defs("# a comment line\n"
                             "p = print[#](v)  # a comment = after a term\n")
        assert defs == {"p": ed.parse("print[#](v)")}

    @pytest.mark.parametrize("name", ["f'", "x\u00b2", "\u00e9", "_1"])
    def test_definition_names_are_identifiers_as_programs_read_them(
            self, name):
        defs = ed.parse_defs(f"{name} = \\x. x")
        assert ed.parse(f"{name} v", defs=defs) == \
            App(Abs("x", Var("x")), Var("v"))

    # text that is not one identifier token: a dash, a comment, a
    # decomposed "e" with its accent, a middle dot, a Roman numeral, two
    # identifiers, a number and a parenthesis
    @pytest.mark.parametrize("name", [
        "x-y", "f # c", "e\u0301", "a\u00b7b", "\u2160", "f g", "1", "("])
    def test_other_definition_names_are_bad_lines(self, name):
        with pytest.raises(ed.ParseError, match="bad definition line"):
            ed.parse_defs(f"{name} = v")


class TestBracketNames:
    """``monads.NAME`` is the one rule for a bracket name, so a kind holds
    only labels, locations and characters that a program can write."""

    @settings(max_examples=300, deadline=None)
    @given(tag=st.sampled_from(["exc", "state", "output"]),
           names=st.lists(st.text(), max_size=4), alphabet=st.text())
    @example(tag="exc", names=["a b"], alphabet="")
    def test_every_operation_prints_as_text_that_parses_back(
            self, tag, names, alphabet):
        try:
            kind = ed.MonadKind(tag, alphabet if tag == "output" else names)
        except ed.KindError:
            assume(False)
        for desc in ed.signature(kind):
            term = Op(desc, [Var(f"x{i}") for i in range(desc.arity)])
            assert ed.parse(str(term), kind) == term


def _outcome(evaluate, term, kind, fuel):
    try:
        mu = evaluate(term, kind, fuel)
    except ed.EvalError as exc:
        return "stuck", str(exc)
    return mu, serialize.render_value(mu)


class TestAgainstReference:
    """``evaluate`` against the evaluator that shares nothing."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.tag)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), fuel=st.integers(0, 8))
    def test_same_value_and_text(self, kind, data, fuel):
        term = data.draw(programs(kind))
        assert _outcome(ed.evaluate, term, kind, fuel) == \
            _outcome(reference_eval.evaluate, term, kind, fuel)

    @settings(max_examples=300)
    @given(term=programs(STATE, free=BINDERS),
           name=st.sampled_from(BINDERS),
           replacement=programs(STATE, depth=2, free=BINDERS))
    def test_substitute_on_open_terms(self, term, name, replacement):
        assert ed.substitute(term, name, replacement) == \
            reference_eval.substitute(term, name, replacement)


def small_terms(kind, size):
    """Every term of exactly ``size`` nodes built from the inert symbols
    ``a`` and ``b``, the binders ``x`` and ``y`` (as variables only where
    bound), abstraction, application and each operation of ``kind``."""
    ops = ed.signature(kind)

    @functools.lru_cache(maxsize=None)
    def terms(size, scope):
        out = []
        if size == 1:
            out += [Var(n) for n in sorted({"a", "b"} | scope)]
        else:
            for x in ("x", "y"):
                out += [Abs(x, body) for body in terms(size - 1, scope | {x})]
            for i in range(1, size - 1):
                out += [App(f, a) for f in terms(i, scope)
                        for a in terms(size - 1 - i, scope)]
        for desc in ops:
            for sizes in _arg_sizes(size - 1, desc.arity):
                out += [Op(desc, args) for args in itertools.product(
                    *[terms(n, scope) for n in sizes])]
        return out

    return terms(size, frozenset())


def _arg_sizes(total, parts):
    """Every way to split ``total`` nodes into ``parts`` non-empty terms."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(first, *rest) for first in range(1, total + 1)
            for rest in _arg_sizes(total - first, parts - 1)]


def _value_or_exception_type(evaluate, term, kind, fuel):
    try:
        mu = evaluate(term, kind, fuel)
    except Exception as exc:
        return type(exc)
    return mu


class TestExhaustiveSmallTerms:
    """Every term up to a size bound, in the style of SmallCheck
    (Runciman, Naylor & Lindblad, 2008): ``evaluate`` against the
    reference evaluator at several fuels, and ``str`` against ``parse``.
    The bounds keep the whole class to a few seconds.  ``dist`` goes to
    size 7, the smallest at which a function whose body is more than its
    bare parameter meets two results, as in ``(\\x. \\y. x) choice(a, b)``."""

    @pytest.mark.parametrize("kind, max_size, count", [
        (ed.MAYBE, 6, 1744), (EXC, 5, 1068), (ed.POWERSET, 6, 3928),
        (ed.DIST, 7, 22518), (STATE, 4, 1006), (OUTPUT, 5, 1866)],
        ids=lambda k: getattr(k, "tag", str(k)))
    def test_agrees_with_reference_and_round_trips(self, kind, max_size,
                                                   count):
        terms = [t for size in range(1, max_size + 1)
                 for t in small_terms(kind, size)]
        assert len(terms) == count
        for term in terms:
            assert ed.parse(str(term), kind=kind) == term
            for fuel in (0, 2, 5):
                assert _value_or_exception_type(
                    ed.evaluate, term, kind, fuel) == \
                    _value_or_exception_type(
                        reference_eval.evaluate, term, kind, fuel)


def _chain(op, n):
    return " ; ".join([f"{op}(a, b)"] * n + ["v"])


def counted_steps(monkeypatch):
    """The list of beta steps evaluation takes from now on, recorded where
    it takes them: in ``_beta``, and where an ``out`` of ``_once``
    evaluates its shared body, once."""
    steps = []
    beta, once = lang._beta, lang._once

    def counting_beta(vf, va, kind, fuel):
        if isinstance(vf, Abs) and fuel:
            steps.append(vf)
        return beta(vf, va, kind, fuel)

    def counting_once(vf, inst, kind, fuel):
        out, taken = once(vf, inst, kind, fuel), []

        def counted():
            if fuel and not taken:
                taken.append(vf)
                steps.append(vf)
            return out()

        return counted

    monkeypatch.setattr(lang, "_beta", counting_beta)
    monkeypatch.setattr(lang, "_once", counting_once)
    return steps


class TestSharing:
    @pytest.mark.parametrize("n", (4, 8, 16))
    @pytest.mark.parametrize("op, kind, want", [
        ("choice", ed.DIST, {Var("v"): 1}),
        ("union", ed.POWERSET, {Var("v")}),
    ], ids=("choice", "union"))
    def test_chain_takes_n_beta_steps(self, monkeypatch, n, op, kind, want):
        term = ed.parse(_chain(op, n), kind=kind)
        steps = counted_steps(monkeypatch)
        assert ed.evaluate(term, kind, n) == ed.MonadValue(kind, want)
        assert len(steps) == n
        # each path still needs all n steps: one unit less starves it
        assert ed.evaluate(term, kind, n - 1) == ed.bottom(kind)

    def test_body_not_run_without_a_value(self):
        # the ignored argument diverges, so the stuck body is never reached
        assert ev("(\\_. x x) OMEGA", ed.MAYBE, fuel=5) == \
            ed.bottom(ed.MAYBE)
        assert ev("raise[err]() ; x x", EXC) == \
            ed.MonadValue(EXC, ed.Raised("err"))
        with pytest.raises(ed.EvalError):
            ev("union(a, b) ; x x", ed.POWERSET)

    def test_substitute_returns_terms_without_the_name(self):
        term = ed.parse("(\\y. f (g y)) (\\x. x)")
        assert ed.substitute(term, "x", Var("z")) is term
        assert ed.substitute(term, "y", Var("z")) is term
        got = ed.substitute(term, "f", Var("z"))
        assert got.arg is term.arg
        assert got.fn.body.arg is term.fn.body.arg

    def test_cache_is_not_part_of_equality(self):
        samples = {
            Var("x"): "Var(name='x')",
            Abs("x", Var("y")): "Abs(param='x', body=Var(name='y'))",
            App(Var("f"), Var("y")):
                "App(fn=Var(name='f'), arg=Var(name='y'))",
        }
        op = ed.parse("union(x, y)")
        samples[op] = f"Op(op={op.op!r}, args=(Var(name='x'), Var(name='y')))"
        for term, text in samples.items():
            twin = ed.parse(str(term))
            object.__setattr__(twin, "_fv", frozenset({"unrelated"}))
            assert repr(term) == repr(twin) == text
            assert term == twin and hash(term) == hash(twin)
            assert ed.free_vars(twin) == {"unrelated"}


def _ops_on_values():
    """Every signature operation of every instance at its command-line
    default kind and a few more kinds, applied to every argument tuple
    over ``a``, ``b`` and ``\\x. x``, such as ``choice(a, a)``,
    ``union(a, a)``, ``read[l0](a, a)`` and ``raise[err]()``."""
    kinds = (*lawcheck.default_kinds(), EXC, ed.state_kind(("l0",)),
             ed.state_kind(("l0", "l1", "l2", "l3")), ed.output_kind("xy"))
    values = (Var("a"), Var("b"), Abs("x", Var("x")))
    return [(kind, Op(desc, args)) for kind in kinds
            for desc in ed.signature(kind)
            for args in itertools.product(values, repeat=desc.arity)]


def _observed(mu):
    payload = mu.payload
    order = list(payload.items()) if hasattr(payload, "items") else None
    return mu, order, serialize.render_value(mu)


class TestOperationsOnValues:
    """An operation whose arguments are values evaluates to its generic
    effect relabelled by the arguments, and ``op ; v`` binds the generic
    effect itself; both give what ``op_apply`` over units gives, in the
    same payload order and text."""

    @pytest.fixture(autouse=True)
    def no_general_path(self, monkeypatch):
        def refused(*args):
            raise AssertionError("op_apply ran")
        monkeypatch.setattr(lang, "op_apply", refused)

    @pytest.mark.parametrize("fuel", (0, 3))
    @pytest.mark.parametrize("kind, term", _ops_on_values(),
                             ids=lambda x: str(x) if isinstance(x, Op)
                             else x.tag)
    def test_same_as_binding_units(self, kind, term, fuel):
        desc = lang.resolve_op(term.op, kind)
        applied = ed.op_apply(desc, [ed.unit(kind, a) for a in term.args])
        assert _observed(ed.evaluate(term, kind, fuel)) == _observed(applied)
        seq = App(Abs("_", Var("v")), term)
        then = ed.unit(kind, Var("v")) if fuel else ed.bottom(kind)
        assert _observed(ed.evaluate(seq, kind, fuel)) == \
            _observed(ed.bind(applied, lambda _: then))


_SEQUENCED_KINDS = (*lawcheck.default_kinds(), EXC, ed.state_kind(("l0",)),
                    ed.state_kind(("l0", "l1", "l2", "l3")),
                    ed.output_kind("xy"))


def _argument_pool(kind):
    """``a``, ``\\x. x``, two operations on values, a stuck ``(c d)``, a
    nested operation and two operations with a divergent argument, such as
    ``read[l0](a, b)``, ``write[l1,1](b)``, ``read[l0](write[l1,1](a), b)``,
    ``read[l0](OMEGA, a)`` and ``read[l0](c, OMEGA)``."""
    a, b, c, d = map(Var, "abcd")
    ops = ed.signature(kind)
    first, last = ops[0], ops[-1]

    def on(desc, *args):
        return Op(desc, (args * desc.arity)[:desc.arity])

    return list(dict.fromkeys([
        a, Abs("x", Var("x")), on(first, a, b), on(last, b), App(c, d),
        on(first, on(last, a), b), on(first, OMEGA, a),
        on(first, c, OMEGA)]))


def _observed_or_stuck(evaluate, term, kind, fuel):
    try:
        mu = evaluate(term, kind, fuel)
    except ed.EvalError as exc:
        return "stuck", str(exc)
    return _observed(mu)


class TestSequencedOperations:
    """``op(e1, ..., en) ; f`` is ``op(e1 ; f, ..., en ; f)`` with ``f``
    evaluated at most once, after every argument: the same value, payload
    order, text and stuck message as the evaluator that shares nothing,
    with one beta step for the ``;`` when the operation returns a value,
    and none otherwise."""

    @pytest.mark.parametrize("kind, desc", [
        (kind, desc) for kind in _SEQUENCED_KINDS
        for desc in ed.signature(kind)],
        ids=lambda x: f"{x.tag}-{len(x.params)}" if isinstance(
            x, ed.MonadKind) else str(Op(x, [Var("e")] * x.arity)))
    def test_same_as_reference(self, monkeypatch, kind, desc):
        terms = [Op(desc, args) for args in itertools.product(
            _argument_pool(kind), repeat=desc.arity)]
        steps = counted_steps(monkeypatch)
        for term, f, fuel in itertools.product(
                terms, (Var("v"), App(Var("x"), Var("x")), OMEGA), range(4)):
            seq = App(Abs("_", f), term)
            case = f"{seq} at fuel {fuel}"
            assert _observed_or_stuck(ed.evaluate, seq, kind, fuel) == \
                _observed_or_stuck(reference_eval.evaluate, seq, kind,
                                   fuel), case
            seq_steps = len(steps)
            del steps[:]
            alone = _outcome(ed.evaluate, term, kind, fuel)
            reached = alone[0] != "stuck" and ed.support(alone[0])
            f_steps = fuel if f is OMEGA else 1
            assert seq_steps == len(steps) + f_steps * bool(
                reached and fuel), case
            del steps[:]

    def test_f_fails_only_where_the_operation_reaches_it(self):
        # each inner read returns a value only at the stores where the
        # outer read takes the other branch, so x x is never reached
        kind = ed.state_kind(("l0",))
        src = "read[l0](read[l0](OMEGA, b), read[l0](c, OMEGA)) ; x x"
        assert ev(src, kind, fuel=3) == ed.bottom(kind)
        with pytest.raises(ed.EvalError, match="cannot apply x"):
            ev("read[l0](read[l0](b, OMEGA), read[l0](c, OMEGA)) ; x x",
               kind, fuel=3)
        with pytest.raises(ed.EvalError, match="cannot apply c"):
            ev("union(a, (c d)) ; x x", ed.POWERSET)


def _subterms(term):
    """Every node of a term in preorder, without recursion."""
    todo, out = [term], []
    while todo:
        t = todo.pop()
        out.append(t)
        if isinstance(t, Abs):
            todo.append(t.body)
        elif isinstance(t, App):
            todo += [t.arg, t.fn]
        elif isinstance(t, Op):
            todo += reversed(t.args)
    return out


def _parsed(parse, *args):
    """The result, with the free names of every node of a term, or the
    type, message and offset of the error raised."""
    try:
        result = parse(*args)
    except (ed.ParseError, ed.KindError) as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    if isinstance(result, lang.Term):
        return result, [node._fv for node in _subterms(result)]
    return result


# single tokens: every punctuation mark and operation name, identifiers,
# numbers, bracket entries, comments and characters that start no token
_TOKENS = [
    *"\\.()[],;", "x", "y", "v", "_", "x'", "x²", "é", "λ", "_1", "x_y",
    "0", "1", "42", "²", "½", "$", "# a comment\n", "#", "\n",
    "l0", "l1", "err", "crash", "a", "b", *sorted(lang.OP_FAMILIES)]
# fragments of well-formed programs, so that deeper shapes parse too
_FRAGMENTS = [
    "\\x. ", "\\_. ", "(\\y. ", "union(", "choice(", "read[l0](",
    "write[l0,1](", "write[l1,0](", "print[a](", "raise[err]()",
    "raise[crash](", "union()", " ; ", ", ", ")", "x)", "v, w)"]
_SOUP = st.sampled_from(_TOKENS) | st.sampled_from(_FRAGMENTS)
_SEPARATORS = st.sampled_from(["", "", " ", "\t", "\n"])
_PARSE_KINDS = (None, *ALL_KINDS)


class TestAgainstReferenceParser:
    """``parse`` against the recursive-descent parser it replaced: the
    same term, or the same error with the same message and offset."""

    @pytest.mark.parametrize("kind", _PARSE_KINDS,
                             ids=lambda k: getattr(k, "tag", "none"))
    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(st.tuples(_SOUP, _SEPARATORS), max_size=24))
    def test_token_soup(self, kind, pieces):
        src = "".join(a + b for a, b in pieces)
        assert _parsed(lang._tokenize, src) == \
            _parsed(reference_parse._tokenize, src)
        assert _parsed(lang.parse, src, kind) == \
            _parsed(reference_parse.parse, src, kind)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.tag)
    def test_enumerated_terms_under_every_kind(self, kind):
        max_size = {"dist": 5, "set": 5}.get(kind.tag, 4)
        for size in range(1, max_size + 1):
            for term in small_terms(kind, size):
                src = str(term)
                for parse_kind in _PARSE_KINDS:
                    assert _parsed(lang.parse, src, parse_kind) == \
                        _parsed(reference_parse.parse, src, parse_kind)

    def test_nodes_are_frozen_and_hash_like_constructed_ones(self):
        # "_" is free at the end, so the sequence binds "__1" instead
        src = "(\\x. union(x, y)) v ; raise[e]() ; \\z. _ _1"
        built = _subterms(ed.parse(src))
        constructed = _subterms(reference_parse.parse(src))
        assert len(built) == len(constructed) == 15
        assert built[1].param == "__1"
        for node, twin in zip(built, constructed):
            assert node == twin and hash(node) == hash(twin)
            assert node._fv == twin._fv and repr(node) == repr(twin)
            field = dataclasses.fields(node)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, None)

    def test_constructor_parser_and_substitute_build_alike(self):
        union = ed.OpDescriptor("union", ed.POWERSET)
        by_constructor = App(Abs("x", Op(union, [Var("x"), Var("y")])),
                             Var("v"))
        by_parser = ed.parse("(\\x. union(x, y)) v", ed.POWERSET)
        by_substitute = ed.substitute(
            ed.parse("(\\x. union(x, w)) v", ed.POWERSET), "w", Var("y"))
        trees = [_subterms(t)
                 for t in (by_constructor, by_parser, by_substitute)]
        assert len(trees[0]) == 6
        for nodes in zip(*trees):
            for node in nodes:
                assert node == nodes[0] and hash(node) == hash(nodes[0])
                assert node._fv == nodes[0]._fv
                for field in dataclasses.fields(node):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(node, field.name, None)
        cells = [ed.Present(("a", (1,))),
                 ed.unit(ed.state_kind(["l0"]), "a").payload[(1,)]]
        assert cells[0] == cells[1] and hash(cells[0]) == hash(cells[1])
        for cell in cells:
            with pytest.raises(dataclasses.FrozenInstanceError):
                cell.value = None

    @pytest.mark.parametrize("build", [
        lambda: Abs("x", "y"), lambda: App(Var("f"), 3),
        lambda: App(None, Var("a")),
        lambda: Op(ed.OpDescriptor("union", ed.POWERSET), [Var("a"), "b"]),
    ], ids=["abs", "app-arg", "app-fn", "op"])
    def test_non_term_child_raises_type_error(self, build):
        with pytest.raises(TypeError, match="not a term"):
            build()

    def test_identifier_tail_is_isalnum_or_underscore_or_quote(self):
        tail = lang._IDENT_TAIL
        assert all((c.isalnum() or c in "_'") ==
                   (tail.match(c).end() == 1)
                   for c in map(chr, range(sys.maxunicode + 1)))


class TestDeepInput:
    """The parser keeps its own stack; the shapes are checked by loops,
    since ``==`` and ``str`` on these terms would recurse."""

    def test_nested_parentheses(self):
        n = 10 ** 5
        assert ed.parse("(" * n + "v" + ")" * n) == Var("v")

    def test_sequence_chain(self):
        n = 10 ** 5
        term = ed.parse(" ; ".join(["v"] * n))
        for _ in range(n - 1):
            assert isinstance(term, App) and term.arg == Var("v")
            assert isinstance(term.fn, Abs) and term.fn.param == "_"
            term = term.fn.body
        assert term == Var("v")

    @pytest.mark.parametrize("left, right, outer", [
        ("(", ")", None), ("union(", ", b)", Op), ("\\x. ", "", Abs),
    ], ids=["parenthesis", "first-argument", "body"])
    def test_sequence_chain_inside_a_frame(self, left, right, outer):
        n = 10 ** 4
        term = ed.parse(left + " ; ".join(["v"] * n) + right)
        if outer is Op:
            assert isinstance(term, Op) and term.op.name == "union"
            assert term.args[1] == Var("b")
            term = term.args[0]
        elif outer is Abs:
            assert isinstance(term, Abs) and term.param == "x"
            term = term.body
        for _ in range(n - 1):
            assert isinstance(term, App) and term.arg == Var("v")
            assert isinstance(term.fn, Abs) and term.fn.param == "_"
            term = term.fn.body
        assert term == Var("v")

    def test_free_vars_of_deep_terms(self):
        n = 10 ** 5
        assert ed.free_vars(ed.parse("\\x. " * n + "f x")) == {"f"}
        assert ed.free_vars(ed.parse("f" + " x" * n)) == {"f", "x"}
        assert ed.free_vars(ed.parse(_chain("union", 3000))) == \
            {"a", "b", "v"}

    def test_a_chain_is_parsed_and_evaluated_without_a_set(self):
        # only a Var is built with its set of free variables
        term = ed.parse("choice(a, b) ; choice(c, c) ; choice(v, "
                        "choice(w, x))", ed.DIST, DEFS)
        assert ed.evaluate(term, ed.DIST, 64) == ed.MonadValue(
            ed.DIST, {Var("v"): F(1, 2), Var("w"): F(1, 4),
                      Var("x"): F(1, 4)})
        assert [node for node in _subterms(term)
                if "_fv" in vars(node) and not isinstance(node, Var)] == []

    def test_nested_operations(self):
        n = 2 * 10 ** 4
        term = ed.parse("union(" * n + "a" + ", b)" * n)
        assert ed.free_vars(term) == {"a", "b"}
        for _ in range(n):
            assert isinstance(term, Op) and term.op.name == "union"
            assert term.args[1] == Var("b")
            term = term.args[0]
        assert term == Var("a")
