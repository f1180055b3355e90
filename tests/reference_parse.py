"""The recursive-descent parser as it was before parsing became one loop
over the token list.  ``tests/test_lang.py`` checks ``lang.parse``
against it, term for term and error for error.

``_PUNCT``, ``_tokenize`` and ``_Parser`` are that parser's code
unchanged; only the imports and ``parse`` are new.
"""

from typing import Optional

from effectdiagrams.lang import (OP_FAMILIES, Abs, App, Op, ParseError,
                                 Term, Var, _fresh, _op_descriptor,
                                 free_vars)
from effectdiagrams.monads import MonadKind


def parse(src: str, kind: Optional[MonadKind] = None):
    return _Parser(src, kind).parse_program()


_PUNCT = "\\.()[],;"


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
            while i < n and (src[i].isalnum() or src[i] in "_'"):
                i += 1
            tokens.append(("ident", src[start:i], start))
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, kind: Optional[MonadKind]):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.kind = kind

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, punct: str):
        typ, text, pos = self.next()
        if typ != "punct" or text != punct:
            raise ParseError(f"expected {punct!r}, found {text!r}", pos)

    def parse_program(self) -> Term:
        term = self.parse_seq()
        typ, text, pos = self.peek()
        if typ != "eof":
            raise ParseError(f"trailing input starting at {text!r}", pos)
        return term

    def at(self, punct: str) -> bool:
        typ, text, _ = self.peek()
        return typ == "punct" and text == punct

    def parse_seq(self) -> Term:
        left = self.parse_app()
        if self.at(";"):
            self.next()
            right = self.parse_seq()
            taken = free_vars(right)
            ignored = "_" if "_" not in taken else _fresh("_", taken)
            return App(Abs(ignored, right), left)
        return left

    def _starts_atom(self) -> bool:
        typ, text, _ = self.peek()
        return typ == "ident" or (typ == "punct" and text in "\\(")

    def parse_app(self) -> Term:
        typ, text, pos = self.peek()
        if not self._starts_atom():
            raise ParseError(f"expected a term, found {text or 'end'!r}", pos)
        term = self.parse_atom()
        while self._starts_atom():
            term = App(term, self.parse_atom())
        return term

    def parse_atom(self) -> Term:
        typ, text, pos = self.next()
        if typ == "punct" and text == "\\":
            vtyp, vname, vpos = self.next()
            if vtyp != "ident":
                raise ParseError("expected a variable after '\\'", vpos)
            self.expect(".")
            return Abs(vname, self.parse_seq())
        if typ == "punct" and text == "(":
            inner = self.parse_seq()
            self.expect(")")
            return inner
        if typ == "ident":
            if text in OP_FAMILIES:
                return self.parse_op(text, pos)
            return Var(text)
        raise ParseError(f"unexpected token {text!r}", pos)

    def parse_op(self, name: str, pos: int) -> Term:
        indices = []
        if self.at("["):
            self.next()
            while True:
                ityp, itext, ipos = self.next()
                if ityp != "index":
                    raise ParseError(f"bad index {itext!r}", ipos)
                indices.append(itext)
                ttyp, ttext, tpos = self.next()
                if ttyp == "punct" and ttext == "]":
                    break
                if not (ttyp == "punct" and ttext == ","):
                    raise ParseError("expected ',' or ']' in index list",
                                     tpos)
        desc = _op_descriptor(name, indices, self.kind, pos)
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_seq())
            while self.at(","):
                self.next()
                args.append(self.parse_seq())
        self.expect(")")
        if len(args) != desc.arity:
            raise ParseError(
                f"{name} expects {desc.arity} arguments, got {len(args)}",
                pos)
        return Op(desc, tuple(args))
