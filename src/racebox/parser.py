"""Recursive-descent parser for the concurrent toy language.

Numeric literals are exact rationals (decimal or p/q syntax inside interval
brackets); a scalar constant c is sugar for [c,c].  `#` starts a line
comment.  The parser reads the tokens into the plain tuple trees of
`syntax.Builder`; once the threads are sorted by id, the builder builds
each record once, with its canonical operator label and statement id
(depth-first, left-to-right), so pretty-printed programs reparse to
identical ASTs.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import (
    BIN_PREC,
    CMP_OPS,
    INF,
    NEG_INF,
    Assign,
    Block,
    Builder,
    Const,
    Expr,
    Ext,
    If,
    IsLocked,
    Lock,
    Num,
    Program,
    Unlock,
    Var,
    While,
    Yield,
    num,
    ratdiv,
)


# The deepest nesting of blocks inside a thread's body.  The statement
# walkers of a run (parser, builder, engine, path builder) recurse once or
# twice per level, so this keeps every mode within the default recursion
# limit.
MAX_NESTING = 256


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class DuplicateThreadId(ParseError):
    pass


_KEYWORDS = frozenset({
    "var", "mutex", "thread", "if", "then", "while", "do",
    "lock", "unlock", "yield", "islocked", "inf",
})
_PUNCTS = frozenset({"<-", "<=", ">=", "!=", *"{}()[],;=<>+*/-"})

# one match per token of a line: the run of whitespace and `#` comment
# before it, then the token, tried left to right: an ASCII-only number
# (str.isdigit also accepts digits that num refuses), a word, a
# two-character operator, or any one character (punctuation, or else an
# error).  The token is optional, so trailing space ends a line's matches.
_TOKEN = re.compile(r"(?:\s|#.*)*([0-9]+(?:\.[0-9]+)?|\w+|<-|<=|>=|!=|.)?")


class _Tok(NamedTuple):
    kind: str  # 'ident' | 'num' | 'punct' | 'kw' | 'eof'
    text: str
    line: int
    col: int


def _kind(word: str, line: int, col: int) -> str:
    if word in _PUNCTS:
        return "punct"
    c = word[0]
    if "0" <= c <= "9":
        return "num"
    # a word may only start with a letter or `_`; \w also holds digits
    if c.isalpha() or c == "_":
        return "kw" if word in _KEYWORDS else "ident"
    raise ParseError(f"unexpected character {c!r}", line, col)


def _tokenize(text: str) -> list[_Tok]:
    """The tokens of text, line by line (only a newline starts a line;
    other line breaks are whitespace), each kind worked out once per
    text."""
    toks: list[_Tok] = []
    kinds: dict[str, str] = {}
    new = tuple.__new__
    for line, ln in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(ln):
            word = m[1]
            if word is None:
                continue
            col = m.start(1) + 1
            kind = kinds.get(word)
            if kind is None:
                kind = kinds[word] = _kind(word, line, col)
            toks.append(new(_Tok, (kind, word, line, col)))
    toks.append(new(_Tok, ("eof", "", line, len(ln) + 1)))
    return toks


def _number(text: str) -> Num:
    return int(text) if "." not in text else num(text)


class _Parser:
    """Parses the tokens into the trees of syntax.Builder, which builds
    the records once the threads are sorted by id."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0
        self.depth = 0  # blocks open around the current position
        self.declared_vars: dict[str, tuple[Ext, Ext] | None] = {}
        self.declared_mutexes: list[str] = []
        self.used_vars: list[str] = []
        self.used_mutexes: list[str] = []

    # -- token helpers

    def expect(self, text: str) -> _Tok:
        """The next token, which must read text (a keyword or punctuation:
        their texts name their kinds)."""
        t = self.toks[self.pos]
        if t.text != text:
            raise self.unexpected(text)
        self.pos += 1
        return t

    def expect_kind(self, kind: str) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != kind:
            raise self.unexpected(kind)
        self.pos += 1
        return t

    def unexpected(self, want: str) -> ParseError:
        t = self.toks[self.pos]
        return ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                          t.line, t.col)

    def err(self, msg: str) -> ParseError:
        t = self.toks[self.pos]
        return ParseError(msg, t.line, t.col)

    # -- program structure

    def program(self) -> Program:
        toks = self.toks
        while toks[self.pos].text in ("var", "mutex"):
            self.decl()
        threads: list[tuple[int, tuple]] = []
        seen: set[int] = set()
        while toks[self.pos].text == "thread":
            tid, body = self.thread()
            if tid in seen:
                tok = toks[self.pos - 1]
                raise DuplicateThreadId(f"duplicate thread id {tid}",
                                        tok.line, tok.col)
            seen.add(tid)
            threads.append((tid, body))
        if not threads:
            raise self.err("program needs at least one thread")
        self.expect_kind("eof")
        n = len(threads)
        if seen != set(range(1, n + 1)):
            raise ParseError(
                f"thread ids must be exactly 1..{n}, got {sorted(seen)}", 1, 1)
        threads.sort(key=lambda t: t[0])

        variables = sorted(set(self.declared_vars) | set(self.used_vars))
        initial = tuple(
            (v, iv) for v, iv in sorted(self.declared_vars.items())
            if iv is not None)
        mutexes = tuple(sorted(set(self.declared_mutexes) | set(self.used_mutexes)))
        return Builder().program([body for _, body in threads], mutexes,
                                 tuple(variables), initial)

    def decl(self) -> None:
        if self.toks[self.pos].text == "var":
            self.pos += 1
            tok = self.expect_kind("ident")
            if tok.text in self.declared_vars:
                raise ParseError(f"variable {tok.text} declared twice",
                                 tok.line, tok.col)
            init: tuple[Ext, Ext] | None = None
            if self.toks[self.pos].text == "=":
                self.pos += 1
                init = self.interval_literal()
            self.expect(";")
            self.declared_vars[tok.text] = init
        else:
            self.expect("mutex")
            name = self.expect_kind("ident").text
            self.expect(";")
            self.declared_mutexes.append(name)

    def thread(self) -> tuple[int, tuple]:
        self.expect("thread")
        tok = self.expect_kind("num")
        if "." in tok.text:
            raise ParseError("thread id must be an integer", tok.line, tok.col)
        tid = int(tok.text)
        if tid <= 0:
            raise ParseError("thread id must be positive", tok.line, tok.col)
        return tid, self.block()

    def block(self) -> tuple:
        tok = self.expect("{")
        if self.depth > MAX_NESTING:
            raise ParseError(f"blocks nested more than {MAX_NESTING} deep",
                             tok.line, tok.col)
        self.depth += 1
        stmts: list[tuple] = []
        toks = self.toks
        while toks[self.pos].text != "}":
            stmts.append(self.stmt())
        self.pos += 1
        self.depth -= 1
        return (Block, stmts)

    def stmt(self) -> tuple:
        t = self.toks[self.pos]
        text = t.text
        if t.kind == "ident":
            self.pos += 1
            self.used_vars.append(text)
            self.expect("<-")
            if self.toks[self.pos].text == "islocked":
                self.pos += 1
                self.expect("(")
                m = self.mutex_name()
                self.expect(")")
                self.expect(";")
                return (IsLocked, text, m)
            e = self.expr()
            self.expect(";")
            return (Assign, text, e)
        if text == "{":
            return self.block()
        if text == "if" or text == "while":
            self.pos += 1
            e, cmp = self.condition()
            self.expect("then" if text == "if" else "do")
            return (If if text == "if" else While, e, cmp, self.block())
        if text == "lock" or text == "unlock":
            self.pos += 1
            self.expect("(")
            m = self.mutex_name()
            self.expect(")")
            self.expect(";")
            return (Lock if text == "lock" else Unlock, m)
        if text == "yield":
            self.pos += 1
            self.expect(";")
            return (Yield,)
        raise self.err("expected a statement")

    def condition(self) -> tuple[tuple | Expr, str]:
        e = self.expr()
        t = self.toks[self.pos]
        if t.text not in CMP_OPS:
            raise self.err("expected a comparison operator")
        self.pos += 1
        zero = self.expect_kind("num")
        if zero.text != "0":
            raise ParseError("comparisons are against 0", zero.line, zero.col)
        return e, t.text

    def mutex_name(self) -> str:
        name = self.expect_kind("ident").text
        self.used_mutexes.append(name)
        return name

    # -- expressions

    def expr(self) -> tuple | Expr:
        """Operator precedence over explicit stacks, so that no nesting of
        prefix `-` or parentheses makes the parser recurse: `-` binds
        tightest, then `*` `/`, then `+` `-`, all left-associative."""
        toks = self.toks
        pos = self.pos
        # pending operators as (precedence, op, line, col); None marks an
        # open `(`
        ops: list[tuple | None] = []
        vals: list = []
        while True:
            t = toks[pos]
            while t.text == "-" or t.text == "(":
                ops.append((3, "-u", t.line, t.col) if t.text == "-" else None)
                pos += 1
                t = toks[pos]
            if t.kind == "ident":
                self.used_vars.append(t.text)
                vals.append(Var(t.text))
            elif t.kind == "num":
                c = _number(t.text)
                vals.append(Const(c, c))
            else:
                self.pos = pos
                if t.text != "[":
                    raise self.err("expected an expression")
                vals.append(Const(*self.interval_literal()))
                pos = self.pos - 1
            pos += 1
            while True:  # after an operand: reduce, then close a `(`
                t = toks[pos]
                prec = BIN_PREC.get(t.text, 0)
                while ops and ops[-1] is not None and ops[-1][0] >= prec:
                    p, op, line, col = ops.pop()
                    if p == 3:
                        vals[-1] = (op, line, col, vals[-1])
                    else:
                        right = vals.pop()
                        vals[-1] = (op, line, col, vals[-1], right)
                if prec or not ops:
                    break
                if t.text != ")":
                    self.pos = pos
                    raise self.unexpected(")")
                pos += 1
                ops.pop()
            if not prec:
                self.pos = pos
                return vals[0]
            ops.append((prec, t.text, t.line, t.col))
            pos += 1

    def endpoint(self) -> Ext:
        neg = False
        if self.toks[self.pos].text == "-":
            self.pos += 1
            neg = True
        if self.toks[self.pos].text == "inf":
            self.pos += 1
            return NEG_INF if neg else INF
        c = _number(self.expect_kind("num").text)
        # p/q rational syntax is only available inside interval brackets
        if self.toks[self.pos].text == "/":
            self.pos += 1
            t = self.expect_kind("num")
            d = _number(t.text)
            if d == 0:
                raise ParseError("zero denominator in rational literal",
                                 t.line, t.col)
            c = ratdiv(c, d)
        return -c if neg else c

    def interval_literal(self) -> tuple[Ext, Ext]:
        tok = self.expect("[")
        lo = self.endpoint()
        self.expect(",")
        hi = self.endpoint()
        self.expect("]")
        # [inf,inf] and [-inf,-inf] hold no real number either
        if lo > hi or lo == INF or hi == NEG_INF:
            raise ParseError(f"empty interval [{lo},{hi}]", tok.line, tok.col)
        return lo, hi


def parse_program(text: str) -> Program:
    """Parse source text into a labeled Program.  Undeclared variables and
    mutexes are collected implicitly."""
    return _Parser(_tokenize(text)).program()
