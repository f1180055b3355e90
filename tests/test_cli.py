"""Command-line checks: a few short exit-code and output checks per
subcommand, plus what a row of ``tests/test_golden.py::CASES`` cannot make:
hash seeds, deep evaluations, the README's examples, the parser's declared
options, its totality and its plain argv reader, what a command imports, a
seventh instance, the ``diagram_eq`` round trip and reference cycles.
Whole-output pins are rows there."""

import argparse
import gc
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import effectdiagrams as ed
from effectdiagrams import cli, monads, presentations
from effectdiagrams.cli import build_parser, main

from fresh import run_fresh, run_python
from test_golden import FILES, workdir  # noqa: F401 (the files fixture)


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

    def test_stuck_set_names_the_same_element_under_every_hash_seed(self):
        # bind feeds a set's elements in canonical order, not hash order
        for seed in range(4):
            assert run_fresh(["eval", "-m", "set", "-f", "0",
                              "union(a, b) a"],
                             PYTHONHASHSEED=str(seed)) == \
                (1, "", "error: cannot apply a: "
                        "free variables are inert symbols\n")


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

    def test_maybe_omega(self, capsys):
        code, out, _ = run(capsys, "diagram", "-m", "maybe", "OMEGA")
        assert code == 0 and out == "[⊥ ‖ ]"


def write_presentation(path, pres):
    path.write_text(ed.render(pres, "machine"), encoding="utf-8")


def trivial_member(kind, value):
    return ed.Presentation(ed.trivial_effect(kind), (value,))


class TestCompose:
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


class TestLaws:
    def test_default_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "laws", "--seed", "1", "--trials", "5")
        assert code == 0
        assert "expectations met" in out


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


def declared_options():
    """Each subcommand's option strings as ``build_parser()`` declares
    them, ``-h`` and ``--help`` included."""
    subs, = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {name: {s for a in sub._actions for s in a.option_strings}
            for name, sub in subs.choices.items()}


# every declared option, and values of each sort an option or operand takes
WORDS = sorted(set().union(*declared_options().values())) + [
    "v", "x", "-1", "0", "dist", "foo", "bottom", "{dir}/outer.json",
    "@missing", ""]


class TestParser:
    def test_each_subcommand_declares_what_its_handler_reads(self):
        assert {name: options - {"-h", "--help"} for name, options
                in declared_options().items()} == OPTIONS

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(OPTIONS)),
           words=st.lists(st.sampled_from(WORDS), max_size=6))
    def test_main_is_total(self, capsys, monkeypatch, workdir, command,
                           words):
        # a law run is six one-trial cells unless a drawn option says more
        monkeypatch.chdir(workdir)
        head = ["--laws", "bottom", "--trials", "1"] if command == "laws" \
            else []
        code = main([command, *head,
                     *(w.replace("{dir}", str(workdir)) for w in words)])
        err = capsys.readouterr().err
        assert type(code) is int and 0 <= code <= 5
        assert len(err.splitlines()) <= 1


# well-formed values of each option, with a bad one or two among them
VALUES = {
    "-m": sorted(monads.INSTANCES), "--monad": ["dist", "state", "foo"],
    "--exceptions": ["err", "err,crash", ""],
    "--locations": ["l0", "l0,l1", "l0,,l1"], "--alphabet": ["ab", "a"],
    "-f": ["0", "5", "x"], "--fuel": ["40", "-1"],
    "--format": ["text", "machine", "xml"],
    "--prelude": ["{dir}/twice.lam", "{dir}/oops.defs", "missing.lam"],
    "--seed": ["1", "2"], "--trials": ["1", "0"],
    "--laws": ["bottom", "unit,kleisli", "bogus"],
    "--monads": ["maybe", "set,dist", "state", "foo"],
    "--carrier-max": ["2", "9"], "--arity-max": ["2", "33"],
}
PAIRS = sorted((option, value)
               for option in VALUES for value in VALUES[option])
PROGRAMS = ["v", "choice(v, w)", "union(a, b) a", "(\\x. x", "raise[err]()",
            "read[l0](v, w)", "write[l1,1](v)", "print[b](v)", "OMEGA",
            "@{dir}/prog.lam", "@missing"]
COMPOSED = [f"{{dir}}/{name}" for name in sorted(FILES)]
JUNK = ["", "-", "--", "-x", "--bogus", "--form", "--x\ny", "eval"]


@st.composite
def argvs(draw):
    """A subcommand, or a word that is none, its options with values,
    its operands, and at most one junk word or other command's option,
    in any order, or half the time with every option first, the shape
    that ``cli._read_plain`` reads."""
    command = draw(st.sampled_from([*sorted(OPTIONS), "bogus", "-h", ""]))
    own = [pair for pair in PAIRS if pair[0] in OPTIONS.get(command, ())]
    items = draw(st.lists(st.sampled_from(own), max_size=3)) if own else []
    if command in ("eval", "diagram"):
        items.append((draw(st.sampled_from(PROGRAMS)),))
    elif command == "compose":
        items += [(path,) for path in draw(st.lists(
            st.sampled_from(COMPOSED), min_size=1, max_size=4))]
    items += draw(st.lists(st.one_of(
        st.sampled_from(JUNK).map(lambda w: (w,)), st.sampled_from(PAIRS)),
        max_size=1))
    # a law run is a handful of one-trial cells unless a draw says more
    head = ["--laws", "bottom", "--trials", "1"] if command == "laws" else []
    items = draw(st.permutations(items))
    if draw(st.booleans()):
        items.sort(key=len, reverse=True)
    return [command, *head, *(w for item in items for w in item)]


class TestDispatch:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argvs())
    @example(argv=["compose", "{dir}/outer.json", "{dir}/not-json.json"])
    @example(argv=["eval", "-m", "maybe", "choice(v, w)"])
    @example(argv=["compose", "{dir}/outer.json", "{dir}/left.json"])
    @example(argv=["compose", "{dir}/deep.json"])
    @example(argv=["eval", "v", "--x\ny", "--", "w"])
    @example(argv=[])
    def test_one_pass_matches_argparse(self, capsys, monkeypatch, workdir,
                                       argv):
        # with no subcommand known to the plain reader, argparse reads all
        monkeypatch.chdir(workdir)
        argv = [w.replace("{dir}", str(workdir)) for w in argv]
        got = (main(argv), *capsys.readouterr())
        commands = cli._PARSER.commands
        cli._PARSER.commands = {}
        try:
            want = (main(argv), *capsys.readouterr())
        finally:
            cli._PARSER.commands = commands
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(argv=argvs())
    @example(argv=["compose", "--format", "machine", "f1", "--format",
                   "machine", "f2"])
    @example(argv=["laws", "--monads", "set,dist", "--seed", "2"])
    def test_plain_reader_reads_as_argparse(self, argv):
        args = cli._read_plain(argv)
        if args is not None:
            assert vars(args) == vars(cli._PARSER.parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["eval", "--fu", "64", "v"], ["eval", "--fuel=64", "v"],
        ["eval", "-f64", "v"], ["eval", "-f", "-1", "v"], ["eval", "-x"],
        ["eval", "-f", "5", "-x"], ["eval", ""], ["eval", "--", "v"],
        ["eval", "-h"], ["eval", "-m", "foo", "v"], ["eval", "v", "w"],
        ["eval", "v", "-f", "5"], ["laws", "--laws", "unit,unit"],
        ["compose", "f1", "--format", "machine", "f2"], ["compose"],
        ["bogus", "v"], [],
    ])
    def test_plain_reader_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_plain(argv) is None

    def test_plain_reader_takes_a_benchmark_argv(self):
        args = cli._read_plain(["diagram", "-m", "dist", "-f", "64",
                                "choice(a, b) ; v"])
        assert (args.command, args.monad, args.fuel, args.func) == \
            ("diagram", "dist", 64, cli._cmd_diagram)


def test_only_laws_loads_the_law_suite(workdir):
    # a fresh interpreter, so no other test has imported lawcheck yet
    script = (
        "import sys\n"
        "from effectdiagrams.cli import main\n"
        "d = sys.argv[1]\n"
        "for argv in (['eval', 'v'], ['diagram', 'v'],\n"
        "             ['compose', d + '/outer.json', d + '/left.json',\n"
        "              d + '/right.json']):\n"
        "    assert main(argv) == 0\n"
        "print(sorted({'effectdiagrams.gen', 'effectdiagrams.lawcheck'}\n"
        "             & set(sys.modules)))\n"
        "import effectdiagrams as ed\n"
        "print(ed.run_law_suite.__module__, len(ed.ALL_LAWS))\n")
    code, out, err = run_python(["-c", script, str(workdir)])
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == ["[]", "effectdiagrams.lawcheck 11"]


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
