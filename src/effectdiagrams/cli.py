"""Command-line front end.

Four subcommands: ``eval`` runs a program and prints the resulting
monadic value, ``diagram`` prints its effect/value presentation,
``compose`` plugs machine-format presentation files together, and
``laws`` runs the executable law suite.  Each subcommand accepts only
the options its handler reads (the README lists them).

Programs are given literally or as ``@path``.  Exit codes: 0 on
success; 1 for unmet law expectations, a stuck evaluation, an arity
above the cap, an unreadable file or a ``compose`` file that is not
UTF-8 JSON (the error names the file); 2 for a syntax error or bad
command-line arguments; 3 for an operation that does not fit the chosen
monad (``signature error``), or a bad kind or malformed machine JSON
(``kind error``); 4 for a composition arity mismatch; 5 when evaluation,
the expansion of prelude names or a ``compose`` file's JSON (the error
names the file) nests too deeply for the recursion limit.  The parser
keeps its own stack, so deep nesting alone parses.  Each error is one
line on stderr (``effdiag <command>: error: ...`` for a bad argument,
with a line end inside an argument shown as ``\\n`` or ``\\r``), and
``main`` returns every code rather than raising ``SystemExit``.

An argv of options spelled as declared, each with one plain value, before
the positional words is read straight from its subcommand's declared
actions (``_read_plain``); argparse reads every other argv and writes
every message.  The law suite is imported by ``laws`` alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import presentations, serialize
from .lang import (EvalError, ParseError, default_defs, eval_diagram,
                   evaluate, parse, parse_defs)
from .algebra import seq_compose
from .monads import (ArityError, INSTANCES, KindError, SignatureError,
                     instance)
from .presentations import ArityCapError, render


def _load_program(spec: str) -> str:
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as handle:
            return handle.read()
    return spec


def _parse_program(args) -> tuple:
    kind = instance(args.monad).kind_from_text(vars(args))
    if args.prelude:
        # newline="": error offsets count each line end as the file has it
        with open(args.prelude, encoding="utf-8", newline="") as handle:
            defs = parse_defs(handle.read(), kind=kind, defs=default_defs())
    else:
        defs = default_defs()
    term = parse(_load_program(args.program), kind=kind, defs=defs)
    return kind, term


def _cmd_eval(args) -> int:
    kind, term = _parse_program(args)
    value = evaluate(term, kind, args.fuel)
    if args.format == "machine":
        print(serialize.dumps(value))
    else:
        print(serialize.render_value(value))
    return 0


def _cmd_diagram(args) -> int:
    kind, term = _parse_program(args)
    pres = eval_diagram(term, kind, args.fuel)
    print(render(pres, args.format))
    return 0


def _cmd_compose(args) -> int:
    loaded = []
    for path in args.files:
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            # decoded, and line ends translated, as text mode reads a file
            obj = json.loads(data.decode("utf-8").replace("\r\n", "\n")
                             .replace("\r", "\n"))
        except RecursionError:
            print(f"error: recursion limit reached: {path} nests its "
                  "JSON too deeply to read", file=sys.stderr)
            return 5
        except ValueError as exc:
            # not JSON, or not UTF-8
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        loaded.append(presentations.from_obj(obj))
    result = seq_compose(loaded[0], loaded[1:])
    print(render(result, args.format))
    return 0


def _cmd_laws(args) -> int:
    from .lawcheck import ALL_LAWS, LawSuiteConfig, run_law_suite
    kinds = tuple(instance(tag).kind_from_text(vars(args))
                  for tag in args.monads or INSTANCES)
    cfg = LawSuiteConfig(seed=args.seed, trials=args.trials,
                         carrier_size_max=args.carrier_max,
                         arity_max=args.arity_max,
                         monads=kinds, laws=args.laws or ALL_LAWS)
    report = run_law_suite(cfg)
    if args.format == "machine":
        print(json.dumps(report.to_obj(), ensure_ascii=False))
    else:
        print(f"{'law':<15}{'monad':<8}{'result':<8}expected")
        for res in report.results:
            verdict = "pass" if res.passed else "fail"
            wanted = "pass" if res.expected_pass else "fail"
            marker = "" if res.as_expected else "   <-- unexpected"
            print(f"{res.law:<15}{res.monad.tag:<8}{verdict:<8}"
                  f"{wanted}{marker}")
            if res.counterexample is not None:
                shown = json.dumps(res.to_obj()["counterexample"],
                                   ensure_ascii=False)
                if len(shown) > 160:
                    shown = shown[:157] + "..."
                print(f"    counterexample: {shown}")
        status = "met" if report.ok else "NOT met"
        print(f"expectations {status} (seed={report.seed})")
    return 0 if report.ok else 1


def _names(text: str) -> tuple:
    """A comma-separated list, which must name something, each once."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"names nothing: {text!r}")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"names an entry twice: {text!r}")
    return names


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line and no usage text; the subparsers are _Parsers too
        message = message.replace("\n", "\\n").replace("\r", "\\r")
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # option groups that several subcommands read
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "machine"), default="text")
    texts = argparse.ArgumentParser(add_help=False)
    for inst in INSTANCES.values():
        if inst.param is not None:
            texts.add_argument(f"--{inst.param}", default=inst.default,
                               help=inst.help)

    parser = _Parser(
        prog="effdiag",
        description="Evaluate effectful programs and work with their "
                    "effect/value presentations.")
    subs = parser.add_subparsers(dest="command", required=True)
    # each subcommand's parser by name, for the plain reader
    parser.commands = subs.choices

    for name, func, text in (
            ("eval", _cmd_eval, "evaluate a program"),
            ("diagram", _cmd_diagram, "evaluate and print the presentation")):
        p_prog = subs.add_parser(name, help=text, parents=[texts, fmt])
        p_prog.add_argument("-m", "--monad", choices=tuple(INSTANCES),
                            default="maybe")
        p_prog.add_argument("-f", "--fuel", type=int, default=32)
        p_prog.add_argument("--prelude", help="extra definitions file "
                                              "(name = term per line)")
        p_prog.add_argument("program", help="source text, or @file")
        p_prog.set_defaults(func=func)

    p_comp = subs.add_parser(
        "compose", parents=[fmt],
        help="sequentially compose presentation files (outer first)")
    p_comp.add_argument("files", nargs="+",
                        help="machine-format presentation files")
    p_comp.set_defaults(func=_cmd_compose)

    p_laws = subs.add_parser("laws", help="run the law suite",
                             parents=[texts, fmt])
    p_laws.add_argument("--seed", type=int, default=1)
    p_laws.add_argument("--trials", type=int, default=50)
    p_laws.add_argument("--laws", type=_names,
                        help="comma-separated law identifiers")
    p_laws.add_argument("--monads", type=_names,
                        help="comma-separated monad tags")
    p_laws.add_argument("--carrier-max", type=int, default=4)
    p_laws.add_argument("--arity-max", type=int, default=4)
    p_laws.set_defaults(func=_cmd_laws)
    return parser


# argparse only reads a parser while parsing, so one serves every call
_PARSER = build_parser()


def _value(action, word: str):
    if not word or word[0] == "-":
        raise ValueError(word)
    value = word if action.type is None else action.type(word)
    if action.choices is not None and value not in action.choices:
        raise ValueError(word)
    return value


def _read_plain(argv):
    """``_PARSER.parse_args(argv)``, read from the declared actions of
    argv's subcommand when every option is spelled as declared and takes
    one value, before the positionals; ``None`` for any other argv and
    for a value that is empty, starts with "-" or is refused by its type
    or choices, so that argparse writes every message."""
    sub = _PARSER.commands.get(argv[0]) if argv else None
    if sub is None:
        return None
    ns = vars(args := argparse.Namespace())
    ns.update({"command": argv[0], **sub._defaults, **{
        a.dest: a.default for a in sub._actions
        if a.default is not argparse.SUPPRESS}})
    slots, i = [a for a in sub._actions if not a.option_strings], 1
    try:
        while i < len(argv) and argv[i][:1] == "-":
            action = sub._option_string_actions.get(argv[i])
            if type(action) is not argparse._StoreAction \
                    or action.nargs is not None or i + 1 == len(argv):
                return None
            ns[action.dest] = _value(action, argv[i + 1])
            i += 2
        rest, nargs = argv[i:], [a.nargs for a in slots]
        if nargs == ["+"] and rest:
            ns[slots[0].dest] = [_value(slots[0], w) for w in rest]
        elif nargs == [None] * len(rest):
            ns.update((a.dest, _value(a, w)) for a, w in zip(slots, rest))
        else:
            return None
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_plain(argv) or _PARSER.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # a bad argument (2) or --help (0), whose text argparse wrote
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except KindError as exc:
        label = "signature" if isinstance(exc, SignatureError) else "kind"
        print(f"{label} error: {exc}", file=sys.stderr)
        return 3
    except ArityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (EvalError, ArityCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: recursion limit reached: the program is nested "
              "too deeply, or its evaluation is at this fuel",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
