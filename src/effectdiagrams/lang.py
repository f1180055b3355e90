r"""A call-by-value lambda calculus with effect operations.

Concrete syntax::

    \x. e                abstraction (body extends as far right as possible)
    e f                  application, left-associative
    union(e, f)          powerset choice        choice(e, f)   fair coin
    raise[l]()           raise exception l      print[c](e)    print c, then e
    read[l](e0, e1)      branch on location l   write[l,b](e)  set l to bit b
    e ; f                run e, discard its value, run f (f extends right)
    (e)                  grouping
    # ...                comment, to end of line

Evaluation is monadic and fuel-bounded: every beta step consumes one
unit of fuel along its path, and running out of fuel yields the bottom
of the chosen instance.  Results are therefore monotone in fuel and
approximate the least semantics from below.  Free variables evaluate to
themselves as inert symbols; only applying one is an error.

An abstraction whose parameter does not occur in its body, such as the
``\_. f`` that ``e ; f`` stands for, gives the same result for every
value it is applied to, so it is bound through the instance's ``then``,
``join(payload, [o, o, ...])`` for ``o = out()``: its body is evaluated
at most once per bind, and not at all when nothing is returned, so an
n-fold ``;`` chain costs n beta steps, not 2^(n+1) - 2.  Fuel is still
charged per path, because the shared result was computed with the fuel
that path has left.  Applying a syntactic value skips ``bind(unit(f),
...)`` by the monad left-unit law.  An operation whose arguments are
all values is its generic effect xi with index i relabelled to the i-th
argument, the diagram ``[xi | v1 ... vn]``, built with no ``unit`` per
argument.  Bind distributes over every operation (algebraicity), so
``op(e1, ..., en) ; f`` is ``op(e1 ; f, ..., en ; f)``, with f
evaluated at most once and only after every argument: a value argument
gives f's result, an operation on values ``then``s its generic effect,
whose relabelling ``;`` never reads, and any other argument ``then``s
its value.  With every argument a value, that is xi ``then``ed itself.
When no argument is a value or an operation on values, f runs only if
the operation over the arguments returns a value, since a state
argument may return values only at stores that the operation routes to
another argument.

Terms are frozen ``Var``, ``Abs``, ``App`` and ``Op`` nodes, and their
constructors are the only way they are built: by the parser, by
``substitute`` and by callers alike.

Operation arguments and applications evaluate left to right.  Note the
evaluation order inside an operation is a choice this module makes; for
the non-commutative instances (exceptions, state, output) reordering
arguments can change the result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from .algebra import seq_compose
# SignatureError is re-exported: parsing and evaluation raise it
from .monads import (INSTANCES, ArityError, MonadKind, MonadValue,
                     OpDescriptor, SignatureError, _trusted, bind, bottom,
                     map_carrier, op_apply, op_effect, unit)
from .presentations import Presentation, decompose


class ParseError(ValueError):
    """Bad concrete syntax; carries the source offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class EvalError(ValueError):
    """Evaluation got stuck, e.g. a free variable in function position."""


class Term:
    """Base class for syntax nodes.

    Every node carries ``_fv``, its set of free variables, computed once
    when it is built; it takes no part in ``==``, ``hash`` or ``repr``.
    Each constructor fills the frozen fields directly rather than through
    ``object.__setattr__``; a child that is not a ``Term`` raises
    ``TypeError``, and an ``Op`` with the wrong number of arguments
    ``ArityError``.
    """

    __slots__ = ()


@dataclass(frozen=True, init=False)
class Var(Term):
    name: str
    _fv: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, name: str):
        self.__dict__.update(name=name, _fv=frozenset((name,)))

    def __str__(self):
        return self.name


@dataclass(frozen=True, init=False)
class Abs(Term):
    param: str
    body: Term
    _fv: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, param: str, body: Term):
        self.__dict__.update(param=param, body=body,
                             _fv=free_vars(body) - {param})

    def __str__(self):
        return f"\\{self.param}. {self.body}"


@dataclass(frozen=True, init=False)
class App(Term):
    fn: Term
    arg: Term
    _fv: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, fn: Term, arg: Term):
        self.__dict__.update(fn=fn, arg=arg,
                             _fv=free_vars(fn) | free_vars(arg))

    def __str__(self):
        fn = f"({self.fn})" if isinstance(self.fn, Abs) else str(self.fn)
        arg = f"({self.arg})" if isinstance(self.arg, (Abs, App)) \
            else str(self.arg)
        return f"{fn} {arg}"


@dataclass(frozen=True, init=False)
class Op(Term):
    op: OpDescriptor
    args: tuple
    _fv: frozenset = field(init=False, repr=False, compare=False)

    def __init__(self, op: OpDescriptor, args):
        args = tuple(args)
        if len(args) != op.arity:
            raise ArityError(
                f"{op.name} expects {op.arity} arguments, got {len(args)}")
        self.__dict__.update(op=op, args=args, _fv=frozenset().union(
            *map(free_vars, args)))

    def __str__(self):
        name, idx = self.op.name, self.op.index
        if idx is not None:
            shown = f"{idx[0]},{idx[1]}" if isinstance(idx, tuple) else str(idx)
            name = f"{name}[{shown}]"
        return f"{name}({', '.join(str(a) for a in self.args)})"


def is_value(term: Term) -> bool:
    return isinstance(term, (Var, Abs))


def free_vars(term: Term) -> frozenset:
    if not isinstance(term, Term):
        raise TypeError(f"not a term: {term!r}")
    return term._fv


def is_closed(term: Term) -> bool:
    return not free_vars(term)


def _fresh(base: str, taken: frozenset) -> str:
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of ``replacement`` for free ``name``.

    Bound variables that would capture a free variable of the
    replacement are renamed first.  Subterms in which ``name`` is not
    free are returned as they are, not copied.  Makes no reference cycle.
    """
    fv_repl = free_vars(replacement)
    if name not in free_vars(term):
        return term
    return _subst(term, name, replacement, fv_repl)


def _subst(t: Term, name: str, replacement: Term, fv_repl: frozenset) -> Term:
    if name not in t._fv:
        return t
    if isinstance(t, Var):
        return replacement
    if isinstance(t, Abs):
        # name is free in t, so it is not t.param and is free in the body
        if t.param in fv_repl:
            taken = fv_repl | t.body._fv | {name}
            fresh = _fresh(t.param, taken)
            renamed = substitute(t.body, t.param, Var(fresh))
            return Abs(fresh, _subst(renamed, name, replacement, fv_repl))
        return Abs(t.param, _subst(t.body, name, replacement, fv_repl))
    if isinstance(t, App):
        return App(_subst(t.fn, name, replacement, fv_repl),
                   _subst(t.arg, name, replacement, fv_repl))
    return Op(t.op, tuple([_subst(a, name, replacement, fv_repl)
                           for a in t.args]))


# operation name -> the instance whose signature holds it
OP_FAMILIES = {name: inst for inst in INSTANCES.values() for name in inst.ops}


def _op_descriptor(name: str, indices: list, kind: Optional[MonadKind],
                   pos: int) -> OpDescriptor:
    owner = OP_FAMILIES[name]
    try:
        index = owner.read_index(name, indices)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None
    if kind is None:
        kind = owner.minimal_kind(name, index)
    return OpDescriptor(name, kind, index)


def resolve_op(desc: OpDescriptor, kind: MonadKind) -> OpDescriptor:
    """Rebind a parsed descriptor to the active monad, or refuse."""
    if desc.kind == kind:
        return desc
    return OpDescriptor(desc.name, kind, desc.index)


_PUNCT = "\\.()[],;"
# an identifier goes on with letters, digits, "_" and "'": for str
# patterns \w is exactly str.isalnum() plus "_"
_IDENT_TAIL = re.compile(r"[\w']*")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(src)
    bracket = False
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
        elif bracket and c not in ",]":
            # a bracket entry is any text up to whitespace, "," or "]"
            start = i
            while i < n and src[i] not in " \t\r\n,]":
                i += 1
            tokens.append(("index", src[start:i], start))
        elif c == "#":
            while i < n and src[i] != "\n":
                i += 1
        elif c in _PUNCT:
            tokens.append(("punct", c, i))
            bracket = c == "[" or bracket and c != "]"
            i += 1
        elif c.isdigit():
            start = i
            while i < n and src[i].isdigit():
                i += 1
            tokens.append(("number", src[start:i], start))
        elif c.isalpha() or c == "_":
            start = i
            i = _IDENT_TAIL.match(src, i + 1).end()
            tokens.append(("ident", src[start:i], start))
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


# frames of the parse stack: the whole program, an argument list (its
# data is descriptor, offset and arguments; a parenthesis is one with no
# descriptor), the body of an abstraction (its data is the parameter),
# and the part after ";" (its data is the term before it)
_PROGRAM, _ARGS, _BODY, _SEQ = range(4)


def _parse(src: str, kind: Optional[MonadKind]) -> Term:
    """One loop over the tokens with an explicit stack of open frames.

    ``fn`` is the application read so far in the innermost frame, or
    ``None`` where a term must start.  A body and the part after ``;``
    extend as far right as possible: a token that neither starts an atom
    nor is ``;`` closes every body and every ``;`` still open, ``e ; f``
    as ``(\\_. f) e`` with ``_`` renamed away from the free names of
    ``f``, and must then be the ``)`` or ``,`` of an argument list (a
    parenthesis takes no ``,``) or the end of the program.  Index tokens
    occur only between brackets, and only the index loop reads those, so
    elsewhere a punctuation mark is known by its text alone.
    """
    tokens = _tokenize(src)
    variables: dict = {}
    descriptors: dict = {}
    stack = []
    frame, fn, data = _PROGRAM, None, None
    i = 0
    while True:
        typ, text, pos = tokens[i]
        i += 1
        if typ == "ident":
            if text not in OP_FAMILIES:
                atom = variables.get(text)
                if atom is None:
                    atom = variables[text] = Var(text)
            else:
                indices = []
                if tokens[i][1] == "[":
                    while True:
                        ityp, itext, ipos = tokens[i + 1]
                        if ityp != "index":
                            raise ParseError(f"bad index {itext!r}", ipos)
                        indices.append(itext)
                        _, sep, spos = tokens[i + 2]
                        i += 2
                        if sep == "]":
                            break
                        if sep != ",":
                            raise ParseError(
                                "expected ',' or ']' in index list", spos)
                    i += 1
                key = (text, *indices)
                desc = descriptors.get(key)
                if desc is None:
                    desc = descriptors[key] = _op_descriptor(
                        text, indices, kind, pos)
                _, paren, ppos = tokens[i]
                if paren != "(":
                    raise ParseError(f"expected '(', found {paren!r}", ppos)
                if tokens[i + 1][1] != ")":
                    i += 1
                    stack.append((frame, fn, data))
                    frame, fn, data = _ARGS, None, (desc, pos, [])
                    continue
                i += 2
                if desc.arity:
                    raise ParseError(
                        f"{text} expects {desc.arity} arguments, got 0", pos)
                atom = Op(desc, ())
        elif text == "(":
            stack.append((frame, fn, data))
            frame, fn, data = _ARGS, None, (None, pos, [])
            continue
        elif text == "\\":
            vtyp, param, vpos = tokens[i]
            if vtyp != "ident":
                raise ParseError("expected a variable after '\\'", vpos)
            _, dot, dpos = tokens[i + 1]
            if dot != ".":
                raise ParseError(f"expected '.', found {dot!r}", dpos)
            i += 2
            stack.append((frame, fn, data))
            frame, fn, data = _BODY, None, param
            continue
        elif fn is None:
            raise ParseError(f"expected a term, found {text or 'end'!r}", pos)
        elif text == ";":
            stack.append((frame, None, data))
            frame, fn, data = _SEQ, None, fn
            continue
        else:
            while frame >= _BODY:
                if frame == _BODY:
                    atom = Abs(data, fn)
                else:
                    ignored = "_" if "_" not in fn._fv else _fresh("_", fn._fv)
                    atom = App(Abs(ignored, fn), data)
                frame, fn, data = stack.pop()
                fn = atom if fn is None else App(fn, atom)
            if frame == _PROGRAM:
                if typ != "eof":
                    raise ParseError(
                        f"trailing input starting at {text!r}", pos)
                return fn
            desc, op_pos, args = data
            args.append(fn)
            if text == "," and desc:
                fn = None
                continue
            if text != ")":
                raise ParseError(f"expected ')', found {text!r}", pos)
            if desc is None:
                atom = fn
            elif len(args) != desc.arity:
                raise ParseError(f"{desc.name} expects {desc.arity} "
                                 f"arguments, got {len(args)}", op_pos)
            else:
                atom = Op(desc, args)
            frame, fn, data = stack.pop()
        fn = atom if fn is None else App(fn, atom)


def parse(src: str, kind: Optional[MonadKind] = None,
          defs: Optional[Mapping[str, Term]] = None) -> Term:
    """Parse a program.

    When ``kind`` is given, operations are checked against its signature
    (a mismatch raises SignatureError); otherwise each operation is bound
    to a minimal inferred kind and rechecked at evaluation time.  Free
    identifiers named in ``defs`` are replaced by their definitions.
    The parser keeps its own stack, so nesting depth is bounded by
    memory, not by the recursion limit.
    """
    term = _parse(src, kind)
    for name, repl in (defs or {}).items():
        term = substitute(term, name, repl)
    return term


def evaluate(term: Term, kind: MonadKind, fuel: int) -> MonadValue:
    """The fuel-indexed approximation of the monadic semantics.

    Values map to unit, operations apply their instance semantics over
    the evaluated arguments, and each beta step spends one fuel unit;
    spent fuel yields the instance bottom.  For any k <= k' the result
    at k is below the result at k' in the instance order.
    """
    if not isinstance(fuel, int) or isinstance(fuel, bool):
        raise TypeError(f"fuel must be an int, got {fuel!r}")
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    return _eval(term, kind, fuel)


def _eval(t: Term, kind: MonadKind, fuel: int):
    if isinstance(t, (Var, Abs)):
        return unit(kind, t)
    if isinstance(t, App):
        fn, arg = t.fn, t.arg
        if not is_value(fn):
            mf = _eval(fn, kind, fuel)
            ma = _eval(arg, kind, fuel)
            return bind(mf, _applying(ma, kind, fuel))
        if not (isinstance(fn, Abs) and fn.param not in fn.body._fv):
            # bind(unit(f), k) == k(f) by the left-unit law
            return bind(_eval(arg, kind, fuel),
                        lambda va: _beta(fn, va, kind, fuel))
        if is_value(arg):
            # then(unit(v), out) is out()
            return _beta(fn, arg, kind, fuel)
        if not isinstance(arg, Op):
            return _then(_eval(arg, kind, fuel), fn, kind, fuel)
        # op(e1, ..., en) ; f is op(e1 ; f, ..., en ; f) by algebraicity;
        # taken here, not in a helper, so a ; chain costs fewer frames
        inst = INSTANCES[kind.tag]
        out = _once(fn, inst, kind, fuel)
        desc = resolve_op(arg.op, kind)
        effect = inst.effect(kind, desc.name, desc.index)
        if _on_values(arg):
            return _trusted(kind, inst.then(effect, out))
        args = arg.args
        # every argument is evaluated before f, so it fails first
        ms = [_then_input(a, inst, kind, fuel) for a in args]
        if not any(m is None or _on_values(a) for a, m in zip(args, ms)):
            # bind reaches f through any value or operation on values, as
            # a generic effect returns every index; other arguments may
            # return values only where the operation routes elsewhere, as
            # a state table can, and then f must not run: it may fail
            whole = inst.join(effect, ms)
            if not inst.returns(whole):
                return _trusted(kind, whole)
        outs = []
        for m in ms:
            # a loop, not a comprehension, so f runs one frame shallower
            outs.append(out() if m is None else inst.then(m, out))
        return _trusted(kind, inst.join(effect, outs))
    if isinstance(t, Op):
        desc = resolve_op(t.op, kind)
        args = t.args
        if _on_values(t):
            return map_carrier(op_effect(desc), lambda i: args[i - 1])
        return op_apply(desc, [_eval(a, kind, fuel) for a in args])
    raise EvalError(f"not a term: {t!r}")


def _then_input(t: Term, inst, kind: MonadKind, fuel: int):
    """What ``then`` needs of an argument of ``op(...) ; f``: ``None`` for
    a value, whose ``e ; f`` is f's result, the generic effect of an
    operation on values, whose relabelling ``then`` never reads, and the
    payload of any other argument."""
    if is_value(t):
        return None
    if _on_values(t):
        desc = resolve_op(t.op, kind)
        return inst.effect(kind, desc.name, desc.index)
    return _eval(t, kind, fuel).payload


def _on_values(t: Term) -> bool:
    return isinstance(t, Op) and all(map(is_value, t.args))


def _applying(ma: MonadValue, kind: MonadKind, fuel: int):
    """The bind continuation that applies each function value to ``ma``."""
    def apply(vf):
        if isinstance(vf, Abs) and vf.param not in vf.body._fv:
            return _then(ma, vf, kind, fuel)
        return bind(ma, lambda va: _beta(vf, va, kind, fuel))

    return apply


def _then(ma: MonadValue, vf: Abs, kind: MonadKind, fuel: int):
    """``bind(ma, va -> vf va)`` for a ``vf`` that ignores its argument,
    so gives the same result for every value: through ``then``, which
    evaluates the body at most once and never when ``ma`` returns
    nothing."""
    inst = INSTANCES[kind.tag]
    return _trusted(kind, inst.then(ma.payload, _once(vf, inst, kind, fuel)))


def _once(vf: Abs, inst, kind: MonadKind, fuel: int):
    """The ``out`` of ``then`` for a ``vf`` that ignores its argument: the
    payload of its body, evaluated on the first call and shared after.
    The beta step is ``_beta``'s, taken in this frame; fuel is still
    charged per path, as the body is evaluated with the fuel left here."""
    shared = []

    def out():
        if not shared:
            shared.append(inst.bottom(kind) if fuel == 0 else _eval(
                substitute(vf.body, vf.param, vf), kind, fuel - 1).payload)
        return shared[0]

    return out


def _beta(vf: Term, va: Term, kind: MonadKind, fuel: int):
    if not isinstance(vf, Abs):
        raise EvalError(
            f"cannot apply {vf!s}: free variables are inert symbols")
    if fuel == 0:
        return bottom(kind)
    return _eval(substitute(vf.body, vf.param, va), kind, fuel - 1)


def eval_diagram(term: Term, kind: MonadKind, fuel: int) -> Presentation:
    """Evaluate, then split the result into effect and value row."""
    return decompose(evaluate(term, kind, fuel))


def eval_monadic_term(pres: Presentation, kind: MonadKind,
                      fuel: int) -> Presentation:
    """Extend evaluation to a presentation whose row holds programs.

    Each row term is evaluated to its own diagram and the diagrams are
    composed under the original effect.  The result only depends on what
    the input presentation denotes, not on the representative chosen.
    """
    family = [eval_diagram(e, kind, fuel) for e in pres.row]
    return seq_compose(pres, family)


DEFAULT_PRELUDE = """\
# Call-by-value fixpoint combinator and Church numeral helpers.
id = \\x. x
OMEGA = (\\x. x x) (\\x. x x)
Z = \\f. (\\x. f (\\v. x x v)) (\\x. f (\\v. x x v))
zero = \\s. \\z. z
succ = \\n. \\s. \\z. s (n s z)
one = succ zero
two = succ one
three = succ two
"""


def parse_defs(src: str, kind: Optional[MonadKind] = None) -> dict:
    """Parse a prelude: one ``name = term`` per line, '#' comments.

    Later definitions may use and redefine earlier ones, so text appended
    to ``DEFAULT_PRELUDE`` sees every default name.
    """
    defs: dict = {}
    for raw in src.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, rhs = line.partition("=")
        name = name.strip()
        if not eq or not name.isidentifier():
            raise ParseError(f"bad definition line: {raw!r}", 0)
        if name in OP_FAMILIES:
            raise ParseError(f"{name!r} is a reserved operation name", 0)
        defs[name] = parse(rhs, kind=kind, defs=defs)
    return defs


_DEFAULT_DEFS = MappingProxyType(parse_defs(DEFAULT_PRELUDE))


def default_defs() -> Mapping[str, Term]:
    """``DEFAULT_PRELUDE`` parsed once, as one read-only mapping."""
    return _DEFAULT_DEFS
