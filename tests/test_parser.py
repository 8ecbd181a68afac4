import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebox.parser import (
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
    Neg,
    Var,
    classify_vars,
    collect_lock_sets,
    pretty_program,
    sub_exprs,
    sub_stmts,
    stmt_exprs,
)
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


def test_classify_vars_dekker(corpus):
    p = corpus("dekker")
    fresh, local = classify_vars(p)
    assert "flag1" not in local[1] and "flag1" not in local[2]
    assert "flag2" not in local[1] and "flag2" not in local[2]
    assert fresh == frozenset()


def test_classify_vars_fresh_and_local():
    p = parse_program("var z; var w; thread 1 { w <- 1; } thread 2 { x <- w; }")
    fresh, local = classify_vars(p)
    assert "z" in fresh
    assert local[2] == frozenset({"x"})
    assert "w" not in local[1]  # read by thread 2


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
])
def test_parse_error_positions(src, msg, line, col):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert (e.value.msg, e.value.line, e.value.col) == (msg, line, col)
