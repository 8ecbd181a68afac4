import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebox.parser import (
    MAX_NESTING,
    DuplicateThreadId,
    ParseError,
    _tokenize,
    parse_program,
)
from racebox.randgen import GeneratorConfig, random_program
from racebox.syntax import (
    Assign,
    BinOp,
    Block,
    Const,
    Guard,
    If,
    Location,
    Neg,
    Record,
    Var,
    collect_lock_sets,
    pretty_program,
    sub_exprs,
    sub_stmts,
    stmt_exprs,
)
from racebox.transforms import context_for
from reference_semantics import program_locations


def test_single_assignment():
    p = parse_program("thread 1 { x <- [0,1]; }")
    assert len(p.threads) == 1
    body = p.threads[0].body
    assert isinstance(body, Assign)
    assert body.var == "x"
    assert body.expr == Const(Fraction(0), Fraction(1))
    assert p.variables == ("x",)


def test_if_produces_cmp():
    p = parse_program("thread 1 { if x = 0 then { y <- 1; } }")
    body = p.threads[0].body
    assert isinstance(body, If)
    assert body.cmp == "="
    assert body.expr == Var("x")
    assert isinstance(body.body, Assign)


def test_malformed_expression():
    with pytest.raises(ParseError):
        parse_program("thread 1 { x <- ; }")


def test_duplicate_thread_id():
    with pytest.raises(DuplicateThreadId):
        parse_program("thread 1 { x <- 1; } thread 1 { y <- 1; }")


def test_thread_ids_must_be_dense():
    with pytest.raises(ParseError):
        parse_program("thread 1 { x <- 1; } thread 3 { y <- 1; }")


def test_scalar_desugars_to_interval():
    p = parse_program("thread 1 { x <- 3; }")
    assert p.threads[0].body.expr == Const(Fraction(3), Fraction(3))


def test_rational_and_decimal_literals():
    p = parse_program("var x = [1/2,3/4]; var y = [-1.5,inf]; thread 1 { x <- 0; }")
    init = dict(p.initial)
    assert init["x"] == (Fraction(1, 2), Fraction(3, 4))
    assert init["y"][0] == Fraction(-3, 2)
    assert init["y"][1] == float("inf")


def test_empty_interval_rejected():
    # [inf,inf] and [-inf,-inf] hold no real number either
    for lit in ("[2,1]", "[inf,inf]", "[-inf,-inf]"):
        for src in (f"thread 1 {{ x <- {lit}; }}",
                    f"var x = {lit}; thread 1 {{ x <- 1; }}"):
            with pytest.raises(ParseError, match="empty interval"):
                parse_program(src)


def test_precedence_and_associativity():
    p = parse_program("thread 1 { x <- 1 + 2 * 3 - 4; }")
    e = p.threads[0].body.expr
    # (1 + (2*3)) - 4
    assert isinstance(e, BinOp) and e.op == "-"
    assert isinstance(e.left, BinOp) and e.left.op == "+"
    assert isinstance(e.left.right, BinOp) and e.left.right.op == "*"


def test_roundtrip_identity():
    src = """
    var a = [0,2]; var b; mutex m; mutex n;
    thread 1 {
      a <- (a + 1) * [2,3];
      while a - 10 < 0 do { a <- a / 2; yield; }
      lock(m); b <- islocked(n); unlock(m);
    }
    thread 2 { if b != 0 then { b <- -b - 1/4; } }
    """
    nested = "thread 1 { a <- 1; { b <- 2; c <- 3; } d <- 4; }"
    empty = "thread 1 { } thread 2 { a <- 1; { } if a = 0 then { } }"
    for text in (src, nested, empty):
        p = parse_program(text)
        assert parse_program(pretty_program(p)) == p
        # and pretty is a fixpoint
        assert pretty_program(parse_program(pretty_program(p))) \
            == pretty_program(p)


def test_labels_unique_and_count_operators():
    src = "thread 1 { x <- 1 + 2 * 3; y <- -x / (x - 1); }"
    p = parse_program(src)
    locs = program_locations(p)
    n_ops = 0
    for t in p.threads:
        for e in stmt_exprs(t.body):
            n_ops += sum(1 for x in sub_exprs(e)
                         if isinstance(x, (BinOp, Neg)))
    assert len(locs) == n_ops
    assert len({l.label for l in locs}) == len(locs)


def test_labels_deterministic_left_to_right():
    p = parse_program("thread 1 { x <- (1 + 2) - (3 * 4); }")
    e = p.threads[0].body.expr
    # canonical order is node-before-subtree, depth-first, left-to-right
    labels = [x.loc.label for x in sub_exprs(e) if isinstance(x, BinOp)]
    assert labels == sorted(labels) == [1, 2, 3]


def test_sids_number_statements_with_the_block_rule_gaps():
    """A block of several statements takes one sid before each statement
    but its last, the first being its own; a block of one statement is
    that statement and an empty one is SKIP, a Guard with its own sid."""
    p = parse_program("thread 1 { a <- 1; { b <- 2; c <- 3; d <- 4; }"
                      " if a < 0 then { } }")
    body = p.threads[0].body
    assert [s.sid for s in sub_stmts(body)] == [1, 2, 4, 5, 7, 8, 9, 10]
    assert isinstance(body.body[2].body, Guard)


def test_collect_lock_sets_priority_example(corpus):
    p = corpus("priority_mutex")
    ls = collect_lock_sets(p)
    assert ls[1] == frozenset({"m"})
    assert ls[2] == frozenset()


def test_collect_lock_sets_dead_branch_is_syntactic():
    p = parse_program(
        "mutex m; thread 1 { if [1,1] = 0 then { lock(m); } }")
    assert collect_lock_sets(p)[1] == frozenset({"m"})


def test_collect_lock_sets_empty():
    p = parse_program("thread 1 { x <- 1; }")
    assert collect_lock_sets(p)[1] == frozenset()


def test_context_for_dekker(corpus):
    p = corpus("dekker")
    c1, c2 = context_for(p, 1), context_for(p, 2)
    assert "flag1" not in c1.local and "flag1" not in c2.local
    assert "flag2" not in c1.local and "flag2" not in c2.local
    assert c1.fresh == c2.fresh == frozenset()


def test_context_for_fresh_and_local():
    p = parse_program("var z; var w; thread 1 { w <- 1; } thread 2 { x <- w; }")
    c1, c2 = context_for(p, 1), context_for(p, 2)
    assert "z" in c1.fresh and "z" in c2.fresh
    assert c2.local == frozenset({"x"})
    assert "w" not in c1.local  # read by thread 2


def test_guard_never_parsed():
    src = "thread 1 { if x = 0 then { y <- 1; } while y > 0 do { y <- 0; } }"
    p = parse_program(src)
    # guards only appear as synthesized statements, never in the parsed AST
    assert not any(isinstance(s, Guard) for s in sub_stmts(p.threads[0].body))


def test_comments_and_blocks():
    p = parse_program("# header\nthread 1 { { x <- 1; y <- 2; } # tail\n }")
    assert isinstance(p.threads[0].body, Block)


@pytest.mark.parametrize("seed", range(30))
def test_roundtrip_random_programs(seed):
    p = random_program(random.Random(12_000 + seed))
    assert parse_program(pretty_program(p)) == p


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([GeneratorConfig(),
                        GeneratorConfig(max_threads=4, max_stmts=24,
                                        n_vars=12, n_mutexes=4,
                                        sync_prob=0.35, max_branching=4)]))
def test_roundtrip_property(seed, cfg):
    p = random_program(random.Random(seed), cfg)
    assert parse_program(pretty_program(p)) == p


@pytest.mark.parametrize("src", ["thread 1 { x <- \u00b2; }",
                                 "thread \u00b2 { x <- 1; }",
                                 "thread 1 { x <- \u0663; }",
                                 "thread 1 { x <- 1.\u00b2; }"])
def test_only_ascii_digits_are_numbers(src):
    with pytest.raises(ParseError, match="unexpected character"):
        parse_program(src)


@pytest.mark.parametrize("src, toks", [
    # a tab, \r, \x0b and a no-break space each take one column; only \n
    # starts a line
    ("x\t<-\r\n\x0b y\u00a0+ \u00e9_1;",
     [("ident", "x", 1, 1), ("punct", "<-", 1, 3), ("ident", "y", 2, 3),
      ("punct", "+", 2, 5), ("ident", "\u00e9_1", 2, 7), ("punct", ";", 2, 10),
      ("eof", "", 2, 11)]),
    # a digit that is not ASCII may go on a word, not start a number
    ("a\u00b2 <= 1.5", [("ident", "a\u00b2", 1, 1), ("punct", "<=", 1, 4),
                       ("num", "1.5", 1, 7), ("eof", "", 1, 10)]),
    ("x # end", [("ident", "x", 1, 1), ("eof", "", 1, 8)]),
])
def test_token_positions(src, toks):
    assert [(t.kind, t.text, t.line, t.col) for t in _tokenize(src)] == toks


@pytest.mark.parametrize("src, msg, line, col", [
    ("thread 1 {\n\tx <- \u00b2; }", "unexpected character '\u00b2'", 2, 7),
    ("thread 1 {\r\n x <- \u0663; }", "unexpected character '\u0663'",
     2, 7),
    ("thread 1 { x <- 1.; }", "unexpected character '.'", 1, 18),
    ("thread 1 { x <- 1; # end", "expected a statement", 1, 25),
    ("var x = [1,2]; var x;\nthread 1 { y <- x; }",
     "variable x declared twice", 1, 20),
    # thread ids: a duplicate is named at the end of its thread, ids that
    # are not 1..n at the start of the source
    ("thread 1 { x <- 1; }\nthread 1 { y <- 1; }",
     "duplicate thread id 1", 2, 20),
    ("thread 2 { x <- 1; }\nthread 3 { y <- 1; }",
     "thread ids must be exactly 1..2, got [2, 3]", 1, 1),
    ("thread 0 { x <- 1; }", "thread id must be positive", 1, 8),
    ("thread -1 { x <- 1; }", "expected 'num', found '-'", 1, 8),
    ("thread 1.5 { x <- 1; }", "thread id must be an integer", 1, 8),
    # literals: an empty interval at its `[`, a zero denominator at the 0
    ("thread 1 {\n  x <- [2, 1];\n}", "empty interval [2,1]", 2, 8),
    ("var x = [inf,inf]; thread 1 { }", "empty interval [inf,inf]", 1, 9),
    ("var x = [1/0,2]; thread 1 { }",
     "zero denominator in rational literal", 1, 12),
    ("thread 1 { x <- [0, 3/0]; }",
     "zero denominator in rational literal", 1, 23),
    # conditions compare against the literal 0
    ("thread 1 { if x < 1 then { } }", "comparisons are against 0", 1, 19),
    ("thread 1 { while x + 1 >= 0.0 do { } }",
     "comparisons are against 0", 1, 27),
    ("thread 1 { if x then { } }", "expected a comparison operator", 1, 17),
    # the first `{` past MAX_NESTING
    ("thread 1 " + "{ " * (MAX_NESTING + 2) + "}" * (MAX_NESTING + 2),
     f"blocks nested more than {MAX_NESTING} deep", 1,
     10 + 2 * (MAX_NESTING + 1)),
    ("thread 1 {\n" + "{\n" * (MAX_NESTING + 5) + "}" * (MAX_NESTING + 6),
     f"blocks nested more than {MAX_NESTING} deep", MAX_NESTING + 2, 1),
])
def test_parse_error_positions(src, msg, line, col):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert (e.value.msg, e.value.line, e.value.col) == (msg, line, col)
    assert isinstance(e.value, DuplicateThreadId) == msg.startswith(
        "duplicate")


def _operators_in_place(src: str) -> int:
    """Checks that every operator Location of src's program points at its
    operator in src (`-` for a negation), that no two share a position,
    and that positions follow the tree's infix order: a negation before
    its operand, a binary operator between its operands.  Returns the
    number of operators."""
    lines = src.split("\n")
    spans = []  # every operator's position
    for t in parse_program(src).threads:
        for e in stmt_exprs(t.body):
            for x in sub_exprs(e):
                if not isinstance(x, (BinOp, Neg)):
                    continue
                loc = x.loc
                assert lines[loc.line - 1][loc.col - 1] == \
                    ("-" if isinstance(x, Neg) else x.op), (loc, src)
                assert loc.op == ("-u" if isinstance(x, Neg) else x.op)
                pos = (loc.line, loc.col)
                subs = ([("", x.sub)] if isinstance(x, Neg)
                        else [("<", x.left), (">", x.right)])
                for side, sub in subs:
                    for y in sub_exprs(sub):
                        if isinstance(y, (BinOp, Neg)):
                            ypos = (y.loc.line, y.loc.col)
                            assert (ypos > pos if side != "<"
                                    else ypos < pos), (loc, y.loc, src)
                spans.append(pos)
    assert len(spans) == len(set(spans))
    return len(spans)


def test_operator_locations_point_at_their_operators(corpus_source):
    for name in ("dekker", "increment", "priority_flow", "priority_mutex",
                 "producer_consumer"):
        _operators_in_place(corpus_source(name))
    rng = random.Random(36_000)
    big = GeneratorConfig(max_threads=4, max_stmts=24, n_vars=12,
                          n_mutexes=4, sync_prob=0.35, max_branching=4)
    n = sum(_operators_in_place(pretty_program(random_program(
        rng, big if i % 2 else GeneratorConfig()))) for i in range(200))
    assert n > 1000
    # threads out of id order, comments, a sign and a p/q inside brackets
    # (not operators) next to a negation and divisions outside them
    src = ("# thread 2 comes first\n"
           "var x = [-1, 1/2];  # - / here are literal syntax\n"
           "thread 2 {\n"
           "  y <- -x * (x - 1/2);  # x - 1 / 2\n"
           "\tif - - y + 1 >= 0 then { z <- y / [-3/4, 3]; }\n"
           "}\n"
           "thread 1 { x <- x*-x-(-x); }  # x * (-x) - (-x)\n")
    assert _operators_in_place(src) == 12
    p = parse_program(src)
    assert [t.tid for t in p.threads] == [1, 2]
    # thread 1's operators are labelled first, in pre-order
    first = p.threads[0].body.expr
    assert [(x.loc.label, x.loc.col) for x in sub_exprs(first)
            if isinstance(x, (BinOp, Neg))] == [
        (1, 21), (2, 18), (3, 19), (4, 23)]


def test_parse_builds_each_operator_once(monkeypatch):
    """parse_program and the generator construct one BinOp, Neg and
    Location per operator of the program they return, each with its final
    label: nothing is built and then relabelled."""
    built = []

    def counting(cls):
        def __init__(self, *args, **kwargs):
            built.append(self)
            Record.__init__(self, *args, **kwargs)
        return __init__

    def check(make):
        built.clear()
        for cls in (BinOp, Neg, Location):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        p = make()
        monkeypatch.undo()
        ops = [x for t in p.threads for e in stmt_exprs(t.body)
               for x in sub_exprs(e) if isinstance(x, (BinOp, Neg))]
        assert len(ops) > 40
        nodes = ops + [x.loc for x in ops]
        assert len(built) == len(nodes)
        assert {id(x) for x in built} == {id(x) for x in nodes}

    cfg = GeneratorConfig(max_threads=4, max_stmts=96, n_vars=12,
                          n_mutexes=4, sync_prob=0.35, max_branching=4)
    q = random_program(random.Random(36_001), cfg)
    last = f"thread {len(q.threads) + 1} {{ x <- -(-(1 + 2) * 3); }}"
    check(lambda: parse_program(pretty_program(q) + last))
    check(lambda: random_program(random.Random(36_001), cfg))
