"""Recursive-descent parser for the concurrent toy language.

Numeric literals are exact rationals (decimal or p/q syntax inside interval
brackets); a scalar constant c is sugar for [c,c].  `#` starts a line
comment.  Operator labels and statement ids are assigned canonically
(depth-first, left-to-right) after parsing, so pretty-printed programs
reparse to identical ASTs.
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
    BinOp,
    Const,
    Expr,
    Ext,
    If,
    IsLocked,
    Location,
    Lock,
    Neg,
    Num,
    Program,
    Stmt,
    Thread,
    Unlock,
    Var,
    While,
    Yield,
    block,
    num,
    ratdiv,
    relabel_program,
)


# The deepest nesting of blocks inside a thread's body.  The statement
# walkers of a run (parser, labeler, engine, path builder) recurse once or
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


_KEYWORDS = {
    "var", "mutex", "thread", "if", "then", "while", "do",
    "lock", "unlock", "yield", "islocked", "inf",
}

# one alternation, tried left to right at each position: runs of
# whitespace and `#` comments, ASCII-only numbers (str.isdigit also accepts
# digits that num refuses), words, punctuation longest first, and
# any other character
_TOKEN = re.compile("|".join([
    r"(?P<space>(?:\s|#[^\n]*)+)",
    r"(?P<num>[0-9]+(?:\.[0-9]+)?)",
    r"(?P<word>\w+)",
    r"(?P<punct><-|<=|>=|!=|[{}()\[\],;=<>+*/-])",
    r"(?P<bad>.)",
]), re.DOTALL)


class _Tok(NamedTuple):
    kind: str  # 'ident' | 'num' | 'punct' | 'kw' | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, bol = 1, 0  # bol: offset of the current line's first character
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "space":
            if "\n" in word:
                line += word.count("\n")
                bol = m.start() + word.rindex("\n") + 1
            continue
        col = m.start() - bol + 1
        # a word may only start with a letter or `_`; \w also holds digits
        if kind == "bad" or (kind == "word" and not (
                word[0].isalpha() or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", line, col)
        if kind == "word":
            kind = "kw" if word in _KEYWORDS else "ident"
        toks.append(_Tok(kind, word, line, col))
    toks.append(_Tok("eof", "", line, len(text) - bol + 1))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0
        self.depth = 0  # blocks open around the current position
        self.declared_vars: dict[str, tuple[Ext, Ext] | None] = {}
        self.declared_mutexes: list[str] = []
        self.used_vars: list[str] = []
        self.used_mutexes: list[str] = []

    # -- token helpers

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                             t.line, t.col)
        return self.next()

    def err(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    # -- program structure

    def program(self) -> Program:
        while self.at("kw", "var") or self.at("kw", "mutex"):
            self.decl()
        threads: list[Thread] = []
        seen: set[int] = set()
        while self.at("kw", "thread"):
            t = self.thread()
            if t.tid in seen:
                tok = self.toks[self.pos - 1]
                raise DuplicateThreadId(f"duplicate thread id {t.tid}",
                                        tok.line, tok.col)
            seen.add(t.tid)
            threads.append(t)
        if not threads:
            raise self.err("program needs at least one thread")
        self.expect("eof")
        n = len(threads)
        if seen != set(range(1, n + 1)):
            raise ParseError(
                f"thread ids must be exactly 1..{n}, got {sorted(seen)}", 1, 1)
        threads.sort(key=lambda t: t.tid)

        variables = sorted(set(self.declared_vars) | set(self.used_vars))
        initial = tuple(
            (v, iv) for v, iv in sorted(self.declared_vars.items())
            if iv is not None)
        mutexes = tuple(sorted(set(self.declared_mutexes) | set(self.used_mutexes)))
        prog = Program(
            threads=tuple(threads),
            mutexes=mutexes,
            variables=tuple(variables),
            initial=initial,
        )
        return relabel_program(prog)

    def decl(self) -> None:
        if self.at("kw", "var"):
            self.next()
            tok = self.expect("ident")
            if tok.text in self.declared_vars:
                raise ParseError(f"variable {tok.text} declared twice",
                                 tok.line, tok.col)
            init: tuple[Ext, Ext] | None = None
            if self.at("punct", "="):
                self.next()
                init = self.interval_literal()
            self.expect("punct", ";")
            self.declared_vars[tok.text] = init
        else:
            self.expect("kw", "mutex")
            name = self.expect("ident").text
            self.expect("punct", ";")
            self.declared_mutexes.append(name)

    def thread(self) -> Thread:
        self.expect("kw", "thread")
        tok = self.expect("num")
        if "." in tok.text:
            raise ParseError("thread id must be an integer", tok.line, tok.col)
        tid = int(tok.text)
        if tid <= 0:
            raise ParseError("thread id must be positive", tok.line, tok.col)
        body = self.block()
        return Thread(tid, body)

    def block(self) -> Stmt:
        tok = self.expect("punct", "{")
        if self.depth > MAX_NESTING:
            raise ParseError(f"blocks nested more than {MAX_NESTING} deep",
                             tok.line, tok.col)
        self.depth += 1
        stmts: list[Stmt] = []
        while not self.at("punct", "}"):
            stmts.append(self.stmt())
        self.expect("punct", "}")
        self.depth -= 1
        return block(stmts)

    def stmt(self) -> Stmt:
        if self.at("punct", "{"):
            return self.block()
        if self.at("kw", "if"):
            self.next()
            e, cmp = self.condition()
            self.expect("kw", "then")
            return If(0, e, cmp, self.block())
        if self.at("kw", "while"):
            self.next()
            e, cmp = self.condition()
            self.expect("kw", "do")
            return While(0, e, cmp, self.block())
        if self.at("kw", "lock") or self.at("kw", "unlock"):
            kw = self.next().text
            self.expect("punct", "(")
            m = self.mutex_name()
            self.expect("punct", ")")
            self.expect("punct", ";")
            return Lock(0, m) if kw == "lock" else Unlock(0, m)
        if self.at("kw", "yield"):
            self.next()
            self.expect("punct", ";")
            return Yield(0)
        if self.at("ident"):
            name = self.var_name()
            self.expect("punct", "<-")
            if self.at("kw", "islocked"):
                self.next()
                self.expect("punct", "(")
                m = self.mutex_name()
                self.expect("punct", ")")
                self.expect("punct", ";")
                return IsLocked(0, name, m)
            e = self.expr()
            self.expect("punct", ";")
            return Assign(0, name, e)
        raise self.err("expected a statement")

    def condition(self) -> tuple[Expr, str]:
        e = self.expr()
        t = self.peek()
        if t.kind == "punct" and t.text in CMP_OPS:
            self.next()
        else:
            raise self.err("expected a comparison operator")
        zero = self.expect("num")
        if zero.text != "0":
            raise ParseError("comparisons are against 0", zero.line, zero.col)
        return e, t.text

    def var_name(self) -> str:
        t = self.expect("ident")
        self.used_vars.append(t.text)
        return t.text

    def mutex_name(self) -> str:
        t = self.expect("ident")
        self.used_mutexes.append(t.text)
        return t.text

    # -- expressions

    def expr(self) -> Expr:
        """Operator precedence over explicit stacks, so that no nesting of
        prefix `-` or parentheses makes the parser recurse: `-` binds
        tightest, then `*` `/`, then `+` `-`, all left-associative."""
        ops: list[tuple[int, _Tok] | None] = []  # None marks an open `(`
        vals: list[Expr] = []
        while True:
            while self.at("punct", "-") or self.at("punct", "("):
                t = self.next()
                ops.append((3, t) if t.text == "-" else None)
            vals.append(self.atom())
            while True:  # after an operand: reduce, then close a `(`
                t = self.peek()
                prec = BIN_PREC.get(t.text, 0) if t.kind == "punct" else 0
                while ops and ops[-1] is not None and ops[-1][0] >= prec:
                    p, op = ops.pop()
                    if p == 3:
                        loc = Location(0, op.line, op.col, "-u")
                        vals[-1] = Neg(loc, vals[-1])
                    else:
                        loc = Location(0, op.line, op.col, op.text)
                        right = vals.pop()
                        vals[-1] = BinOp(op.text, loc, vals[-1], right)
                if prec or not ops:
                    break
                self.expect("punct", ")")
                ops.pop()
            if not prec:
                return vals[0]
            ops.append((prec, self.next()))

    def atom(self) -> Expr:
        if self.at("punct", "["):
            return Const(*self.interval_literal())
        if self.at("num"):
            c = self.number()
            return Const(c, c)
        if self.at("ident"):
            return Var(self.var_name())
        raise self.err("expected an expression")

    def number(self) -> Num:
        return num(self.expect("num").text)

    def endpoint(self) -> Ext:
        neg = False
        if self.at("punct", "-"):
            self.next()
            neg = True
        if self.at("kw", "inf"):
            self.next()
            return NEG_INF if neg else INF
        c = self.number()
        # p/q rational syntax is only available inside interval brackets
        if self.at("punct", "/"):
            self.next()
            d = self.number()
            if d == 0:
                t = self.toks[self.pos - 1]
                raise ParseError("zero denominator in rational literal",
                                 t.line, t.col)
            c = ratdiv(c, d)
        return -c if neg else c

    def interval_literal(self) -> tuple[Ext, Ext]:
        tok = self.expect("punct", "[")
        lo = self.endpoint()
        self.expect("punct", ",")
        hi = self.endpoint()
        self.expect("punct", "]")
        # [inf,inf] and [-inf,-inf] hold no real number either
        if lo > hi or lo == INF or hi == NEG_INF:
            raise ParseError(f"empty interval [{lo},{hi}]", tok.line, tok.col)
        return lo, hi


def parse_program(text: str) -> Program:
    """Parse source text into a labeled Program.  Undeclared variables and
    mutexes are collected implicitly."""
    return _Parser(_tokenize(text)).program()
