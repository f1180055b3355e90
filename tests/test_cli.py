"""Command-line interface: outputs, exit codes, machine round trips."""

import argparse
import gc
import json
import shlex
from pathlib import Path

import pytest

import effectdiagrams as ed
from effectdiagrams import cli, monads, presentations
from effectdiagrams.cli import build_parser, main

from fresh import run_fresh
from test_golden import workdir  # noqa: F401 (the golden files fixture)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestEval:
    def test_dist(self, capsys):
        code, out, _ = run(capsys, "eval", "-m", "dist", "-f", "10",
                           "choice(v, choice(v,w))")
        assert code == 0 and out == "{v: 3/4, w: 1/4}"

    def test_maybe_omega(self, capsys):
        code, out, _ = run(capsys, "eval", "-m", "maybe", "-f", "100",
                           "OMEGA")
        assert code == 0 and out == "↑"

    def test_output(self, capsys):
        code, out, _ = run(capsys, "eval", "-m", "output", "-f", "10",
                           "print[a](print[b](v))")
        assert code == 0 and out == '("ab", v)'

    def test_machine_format(self, capsys):
        code, out, _ = run(capsys, "eval", "-m", "dist", "--format",
                           "machine", "choice(v, w)")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["kind"] == "dist"
        assert parsed["entries"] == [["v", "1/2"], ["w", "1/2"]]

    def test_program_from_file(self, capsys, tmp_path):
        path = tmp_path / "prog.lam"
        path.write_text("choice(v, w)\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval", "-m", "dist", f"@{path}")
        assert code == 0 and out == "{v: 1/2, w: 1/2}"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "-m", "maybe", "(\\x. x")
        assert code == 2 and "parse error" in err

    def test_signature_error_exit_3(self, capsys):
        code, _, err = run(capsys, "eval", "-m", "maybe", "choice(v, w)")
        assert code == 3 and "signature" in err

    def test_bad_index_exit_3(self, capsys):
        code, _, err = run(capsys, "eval", "-m", "output",
                           "--alphabet", "ab", "print[z](v)")
        assert code == 3

    def test_exceptions_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "-m", "exc",
                           "--exceptions", "boom,bust", "raise[bust]()")
        assert code == 0 and out == "raise bust"

    @pytest.mark.parametrize("argv, code, text", [
        (["-m", "output", "--alphabet", "01", "print[0](v)"], 0,
         '("0", v)'),
        (["-m", "state", "--locations", "0,1", "read[0](v, w)"], 0,
         "{00 ↦ (v, 00), 01 ↦ (v, 01), 10 ↦ (w, 10), 11 ↦ (w, 11)}"),
        (["-m", "exc", "--exceptions", "404", "raise[404]()"], 0,
         "raise 404"),
        (["-m", "state", "read[²](v, w)"], 3,
         "signature error: unknown location '²'"),
    ], ids=["alphabet", "locations", "exceptions", "superscript"])
    def test_indices_written_with_digits(self, capsys, argv, code, text):
        got, out, err = run(capsys, "eval", *argv)
        assert got == code and text == (out if code == 0 else err)

    @pytest.mark.parametrize("argv, text", [
        (["-m", "output", "--alphabet=-a", "print[-](v)"], '("-", v)'),
        (["-m", "exc", "--exceptions", "not-found", "raise[not-found]()"],
         "raise not-found"),
        (["-m", "state", "--locations", "l.0", "read[ l.0 ](v, w)"],
         "{0 ↦ (v, 0), 1 ↦ (w, 1)}"),
    ], ids=["alphabet", "exceptions", "locations"])
    def test_bracket_entries_need_not_be_identifiers(self, capsys, argv,
                                                      text):
        assert run(capsys, "eval", *argv) == (0, text, "")

    def test_stuck_set_names_the_same_element_under_every_hash_seed(self):
        # bind feeds a set's elements in canonical order, not hash order
        for seed in range(4):
            assert run_fresh(["eval", "-m", "set", "-f", "0",
                              "union(a, b) a"],
                             PYTHONHASHSEED=str(seed)) == \
                (1, "", "error: cannot apply a: "
                        "free variables are inert symbols\n")

    def test_custom_prelude(self, capsys, tmp_path):
        path = tmp_path / "prelude.lam"
        path.write_text("twice = \\f. \\x. f (f x)\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval", "-m", "maybe",
                           "--prelude", str(path), "twice id v")
        assert code == 0 and out == "v"
        # the file's lines see the default names
        path.write_text("foo = id\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval", "--prelude", str(path), "foo v")
        assert code == 0 and out == "v"


def _chain(link, n):
    return " ; ".join([link] * n + ["v"])


class TestDepth:
    """Deep evaluations in a fresh interpreter, at the default recursion
    limit.  Every ``;`` link, beta step and loop turn costs stack frames;
    these must still exit 0.  Before ``;`` was bound through ``then``,
    the largest fuels that did were 246, 246, 246 and 164 on Python 3.10
    and 3.11 (400-link chains), and 247, 247, 247 and 179 on 3.12."""

    @pytest.mark.parametrize("argv, stdout", [
        (["-m", "state", "-f", "100000",
          _chain("read[l0](write[l1,1](a), b)", 220)],
         "{00 ↦ (v, 01), 01 ↦ (v, 01), 10 ↦ (v, 10), 11 ↦ (v, 11)}\n"),
        (["-m", "set", "-f", "100000", _chain("union(a, b)", 220)],
         "{v}\n"),
        (["-m", "maybe", "-f", "220", "OMEGA"], "↑\n"),
        (["-m", "output", "--alphabet", "abc", "-f", "150",
          "Z (\\f. \\x. print[a](f x)) v"], f'("{"a" * 75}", ↑)\n'),
    ], ids=["read-write-chain", "union-chain", "omega", "print-loop"])
    def test_exits_0(self, argv, stdout):
        assert run_fresh(["eval", *argv]) == (0, stdout, "")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """The ``effdiag eval|diagram ...  # <stdout>`` lines of the README's
    CLI block, as (argv, stdout) pairs."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [(shlex.split(cmd)[1:], want.strip())
            for cmd, _, want in (line.rpartition(" # ")
                                 for line in block.splitlines())
            if cmd.startswith(("effdiag eval ", "effdiag diagram "))]


def test_readme_examples_print_what_they_say(capsys):
    examples = readme_examples()
    assert len(examples) == 5
    for argv, want in examples:
        assert run(capsys, *argv) == (0, want, ""), argv


class TestDiagram:
    def test_dist(self, capsys):
        code, out, _ = run(capsys, "diagram", "-m", "dist", "choice(v,w)")
        assert code == 0 and out == "[1/2,1/2 ‖ 1→v ; 2→w]"

    def test_maybe_value(self, capsys):
        code, out, _ = run(capsys, "diagram", "-m", "maybe", "v")
        assert code == 0 and out == "[η ‖ 1→v]"

    def test_maybe_omega(self, capsys):
        code, out, _ = run(capsys, "diagram", "-m", "maybe", "OMEGA")
        assert code == 0 and out == "[⊥ ‖ ]"


def write_presentation(path, pres):
    path.write_text(ed.render(pres, "machine"), encoding="utf-8")


def trivial_member(kind, value):
    return ed.Presentation(ed.trivial_effect(kind), (value,))


class TestCompose:
    def test_dist_blocks(self, capsys, tmp_path):
        from fractions import Fraction as F
        outer = ed.Presentation(
            ed.GenericEffect(2, ed.MonadValue(
                ed.DIST, {1: F(1, 2), 2: F(1, 2)})), ("p", "q"))
        fam1 = trivial_member(ed.DIST, "x")
        fam2 = ed.Presentation(
            ed.GenericEffect(2, ed.MonadValue(
                ed.DIST, {1: F(1, 2), 2: F(1, 2)})), ("x", "y"))
        paths = []
        for i, pres in enumerate([outer, fam1, fam2]):
            p = tmp_path / f"p{i}.json"
            write_presentation(p, pres)
            paths.append(str(p))
        code, out, _ = run(capsys, "compose", *paths)
        assert code == 0
        assert out == "[1/2,1/4,1/4 ‖ 1→x ; 2→x ; 3→y]"

    def test_identity_family_round_trip(self, capsys, tmp_path):
        # machine output of `diagram` feeds back through `compose`
        code, out, _ = run(capsys, "diagram", "-m", "dist",
                           "--format", "machine", "choice(v, choice(v,w))")
        assert code == 0
        original = presentations.from_obj(json.loads(out))
        paths = [tmp_path / "outer.json"]
        paths[0].write_text(out, encoding="utf-8")
        for i, value in enumerate(original.row):
            p = tmp_path / f"triv{i}.json"
            write_presentation(p, trivial_member(ed.DIST, value))
            paths.append(p)
        code, out2, _ = run(capsys, "compose", "--format", "machine",
                            *[str(p) for p in paths])
        assert code == 0
        composed = presentations.from_obj(json.loads(out2))
        assert ed.diagram_eq(composed, original)

    def test_family_length_mismatch_exit_4(self, capsys, tmp_path):
        from fractions import Fraction as F
        outer = ed.Presentation(
            ed.GenericEffect(2, ed.MonadValue(
                ed.DIST, {1: F(1, 2), 2: F(1, 2)})), ("p", "q"))
        p0, p1 = tmp_path / "a.json", tmp_path / "b.json"
        write_presentation(p0, outer)
        write_presentation(p1, trivial_member(ed.DIST, "x"))
        code, _, err = run(capsys, "compose", str(p0), str(p1))
        assert code == 4 and "error" in err

    def test_kind_mismatch_exit_3(self, capsys, tmp_path):
        p0, p1 = tmp_path / "a.json", tmp_path / "b.json"
        write_presentation(p0, trivial_member(ed.DIST, "x"))
        write_presentation(p1, trivial_member(ed.MAYBE, "x"))
        code, _, _ = run(capsys, "compose", str(p0), str(p1))
        assert code == 3


    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_boolean_arity_exit_3(self, capsys, tmp_path, fmt):
        path = tmp_path / "bool-arity.json"
        path.write_text('{"effect":{"arity":true,"body":{"kind":"maybe",'
                        '"value":1}},"row":["a"]}', encoding="utf-8")
        code, out, err = run(capsys, "compose", "--format", fmt,
                             str(path), str(path))
        assert code == 3 and out == "" and "arity" in err


class TestLaws:
    def test_default_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "laws", "--seed", "1", "--trials", "5")
        assert code == 0
        assert "expectations met" in out

    def test_expected_failure_is_green(self, capsys):
        code, out, _ = run(capsys, "laws", "--laws", "commutativity",
                           "--monads", "output", "--trials", "3")
        assert code == 0
        assert "fail    fail" in out
        assert "counterexample" in out

    def test_kleisli_single_trial(self, capsys):
        code, out, _ = run(capsys, "laws", "--laws", "kleisli",
                           "--trials", "1")
        assert code == 0 and "unexpected" not in out

    def test_machine_report(self, capsys):
        code, out, _ = run(capsys, "laws", "--format", "machine",
                           "--laws", "bottom", "--trials", "2",
                           "--seed", "7")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["ok"] is True
        assert {r["law"] for r in parsed["results"]} == {"bottom"}

    def test_kind_flags_apply_without_monads(self, capsys):
        code, out, _ = run(capsys, "laws", "--laws", "commutativity",
                           "--trials", "1", "--locations", "zz",
                           "--format", "machine")
        assert code == 0
        state, = [r for r in json.loads(out)["results"]
                  if r["monad"] == "state"]
        assert state["counterexample"]["lhs"]["locations"] == ["zz"]

    def test_unknown_law_errors(self, capsys):
        code, _, err = run(capsys, "laws", "--laws", "bogus")
        assert code == 1 and "unknown law" in err

    def test_carrier_above_the_letters_errors(self, capsys):
        code, _, err = run(capsys, "laws", "--laws", "kleisli", "--monads",
                           "set", "--trials", "1", "--carrier-max", "9")
        assert code == 1 and "carrier_size_max must be <= 5" in err

    def test_arity_above_half_the_cap_errors(self, capsys):
        # composition and bottom plug up to 2 * arity_max slots
        code, out, err = run(capsys, "laws", "--laws", "composition,bottom",
                             "--monads", "set", "--arity-max", "33")
        assert code == 1 and out == ""
        assert err == "error: arity_max must be <= 32"

    def test_arity_at_half_the_cap_runs(self, capsys):
        code, out, err = run(capsys, "laws", "--laws", "composition,bottom",
                             "--monads", "set", "--arity-max", "32",
                             "--trials", "200")
        assert code == 0 and err == "" and "expectations met" in out


KIND_TEXTS = {"--exceptions", "--locations", "--alphabet"}
PROGRAM_OPTIONS = {"-m", "--monad", *KIND_TEXTS, "-f", "--fuel", "--format",
                   "--prelude"}
OPTIONS = {
    "eval": PROGRAM_OPTIONS,
    "diagram": PROGRAM_OPTIONS,
    "compose": {"--format"},
    "laws": {*KIND_TEXTS, "--format", "--seed", "--trials", "--laws",
             "--monads", "--carrier-max", "--arity-max"},
}

# options no handler reads, each after arguments that are valid without it
REMOVED = [
    ("eval", "--seed", "1"), ("diagram", "--seed", "1"),
    ("compose", "-m", "dist"), ("compose", "--exceptions", "err"),
    ("compose", "--locations", "l0"), ("compose", "--alphabet", "ab"),
    ("compose", "-f", "5"), ("compose", "--prelude", "defs.lam"),
    ("compose", "--seed", "1"),
    ("laws", "-m", "dist"), ("laws", "-f", "5"),
    ("laws", "--prelude", "defs.lam"),
]
VALID_ARGS = {
    "eval": ["v"], "diagram": ["v"], "compose": ["{dir}/outer.json"],
    "laws": ["--laws", "bottom", "--trials", "1"],
}


def run_or_exit(argv):
    """``main`` in this process; an argparse exit gives its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_each_subcommand_declares_what_its_handler_reads(self):
        subs, = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        declared = {name: {s for a in sub._actions for s in a.option_strings}
                    - {"-h", "--help"} for name, sub in subs.choices.items()}
        assert declared == OPTIONS

    @pytest.mark.parametrize("command, flag, value", REMOVED)
    def test_unread_option_is_a_bad_argument(self, capsys, workdir,
                                             command, flag, value):
        args = [a.replace("{dir}", str(workdir))
                for a in VALID_ARGS[command]]
        assert run_or_exit([command, *args, flag, value]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    def test_one_process_answers_like_fresh_processes(self, capsys,
                                                      workdir,
                                                      monkeypatch):
        # usage lines wrap at the terminal width, so fix it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        d = str(workdir)
        argvs = [
            ["eval", "-m", "exc", "--exceptions", "err,crash",
             "(\\x. raise[crash]()) v"],
            ["eval", "-m", "exc", "--format", "machine", "id v"],
            ["laws", "--format", "machine", "--laws", "bottom",
             "--trials", "2"],
            ["compose", f"{d}/outer.json", "-m", "dist"],
            ["compose", f"{d}/outer.json", f"{d}/left.json",
             f"{d}/right.json"],
        ]
        in_process = []
        for argv in argvs:
            code = run_or_exit(argv)
            in_process.append((code, *capsys.readouterr()))
        fresh = [run_fresh(argv) for argv in argvs]
        assert [r[0] for r in in_process] == [0, 0, 0, 2, 0]
        assert in_process == fresh


class Faults(monads.Exc):
    """A throwaway seventh instance: exceptions under another tag."""

    tag = "faults"
    param = "faults"
    default = "f1,f2"
    help = "comma-separated labels for the faults monad"


class TestSeventhInstance:
    """One subclass plus one registry entry reaches every list."""

    @pytest.fixture(autouse=True)
    def faults(self, monkeypatch):
        monkeypatch.setitem(monads.INSTANCES, "faults", Faults())
        # the module parser was built from the registry at import
        monkeypatch.setattr(cli, "_PARSER", build_parser())

    def test_option_default_kind_and_laws_come_from_the_registry(
            self, capsys):
        args = build_parser().parse_args(["laws"])
        assert args.faults == "f1,f2"
        assert ed.MonadKind("faults", ("f1", "f2")) in ed.default_kinds()
        code, out, _ = run(capsys, "laws", "--monads", "faults", "--laws",
                           "kleisli", "--trials", "2")
        assert code == 0 and out.endswith("expectations met (seed=1)")
        code, out, _ = run(capsys, "eval", "-m", "faults", "--faults",
                           "f1,f2", "raise[f2]()")
        assert code == 0 and out == "raise f2"

    def test_a_law_broken_by_design_needs_an_expected_failure(self, capsys):
        code, out, _ = run(capsys, "laws", "--trials", "2")
        unexpected = [line.split()[:2] for line in out.splitlines()
                      if line.endswith("<-- unexpected")]
        assert code == 1
        assert unexpected == [["absorption", "faults"],
                              ["commutativity", "faults"]]


CYCLE_FREE = [
    *[[command, "-m", tag, "-f", "40", program]
      for command in ("eval", "diagram")
      for tag, program in (
          ("dist", "three (\\x. choice(x, w)) v"),
          ("set", "Z (\\f. \\n. union(n, f n)) v ; three id v"),
          ("state", "three (\\x. read[l0](write[l1,1](x), x)) v"),
          ("output",
           "three (\\x. print[a](x)) v ; Z (\\f. \\x. print[b](f x)) v"))],
    ["compose", "{dir}/outer.json", "{dir}/left.json", "{dir}/right.json"],
    ["laws", "--trials", "1"],
]


def test_successful_requests_make_no_reference_cycles(capsys, workdir):
    # a cycle outlives its request until the cycle collector runs, and
    # every collection it triggers is work no request asked for
    argvs = [[a.replace("{dir}", str(workdir)) for a in argv]
             for argv in CYCLE_FREE]
    for argv in argvs:  # warm-up: lazily built caches are not per request
        main(argv)
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        codes = [main(argv) for argv in argvs]
        found = gc.collect()
    finally:
        gc.enable()
    assert codes == [0] * len(argvs)
    assert found == 0
