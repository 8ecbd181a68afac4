"""Seeded random program generator for the differential test harnesses.

Programs are kept oracle-friendly: constants are small integers, loops are
bounded counter loops that fully unroll within the default path budget,
and branching statements are rationed so interleaving state spaces stay
desk-sized.  Divisions are biased toward divisors that sometimes contain
zero, so alarm sets are routinely non-empty.
"""

from __future__ import annotations

import random

from .syntax import (
    CMP_OPS,
    Assign,
    Block,
    Builder,
    Const,
    Expr,
    If,
    IsLocked,
    Lock,
    Program,
    Record,
    Unlock,
    Var,
    While,
    Yield,
)

CONST_LO, CONST_HI = -3, 3  # the range of constant endpoints


class GeneratorConfig(Record):
    max_threads: int = 3
    max_stmts: int = 12  # per thread
    wide_const_prob: float = 0.25
    div_prob: float = 0.3
    sync_prob: float = 0.25
    loop_prob: float = 0.15
    max_branching: int = 2  # if/while statements per thread
    n_vars: int = 4
    n_mutexes: int = 2


def random_const(rng: random.Random, cfg: GeneratorConfig) -> Const:
    a = rng.randint(CONST_LO, CONST_HI)
    if rng.random() < cfg.wide_const_prob:
        b = rng.randint(a, min(a + 2, CONST_HI))
        return Const(a, b)
    return Const(a, a)


def _divisor(rng: random.Random, names: list[str],
             cfg: GeneratorConfig) -> Expr:
    r = rng.random()
    if r < 0.5:
        return Var(rng.choice(names))
    if r < 0.8:
        return Const(*(rng.choice((-2, -1, 1, 2)),) * 2)
    if r < 0.95:
        lo = rng.choice((-1, 0))
        return Const(lo, lo + 1)
    return Const(0, 0)


def random_expr(rng: random.Random, names: list[str], cfg: GeneratorConfig,
                depth: int = 2) -> tuple | Expr:
    """A random expression tree of syntax.Builder."""
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Var(rng.choice(names))
        return random_const(rng, cfg)
    r = rng.random()
    if r < 0.12:
        return ("/", 0, 0, random_expr(rng, names, cfg, depth - 1),
                _divisor(rng, names, cfg)) \
            if rng.random() < cfg.div_prob else \
            Var(rng.choice(names))
    if r < 0.24:
        return ("-u", 0, 0, random_expr(rng, names, cfg, depth - 1))
    op = rng.choice(["+", "+", "-", "-", "*"])
    return (op, 0, 0, random_expr(rng, names, cfg, depth - 1),
            random_expr(rng, names, cfg, depth - 1))


def random_stmts(rng: random.Random, names: list[str],
                 mutexes: list[str], cfg: GeneratorConfig,
                 budget: int, branching: int, sync: bool) -> list[tuple]:
    """Random statement trees of syntax.Builder."""
    out: list[tuple] = []
    while budget > 0:
        r = rng.random()
        if branching > 0 and r < cfg.loop_prob and budget >= 3:
            v = rng.choice(names)
            bound = rng.randint(1, 3)
            inner = random_stmts(rng, names, mutexes, cfg,
                                 min(budget - 3, 2), 0, sync)
            step = (Assign, v, ("+", 0, 0, Var(v), Const(1, 1)))
            guard_expr = ("-", 0, 0, Var(v), Const(bound, bound))
            out.append((While, guard_expr, "<", (Block, [step, *inner])))
            budget -= 2 + len(inner) + 1
            branching -= 1
        elif branching > 0 and r < cfg.loop_prob + 0.2 and budget >= 2:
            inner = random_stmts(rng, names, mutexes, cfg,
                                 min(budget - 1, 3), branching - 1, sync)
            cmp = rng.choice(CMP_OPS)
            out.append((If, random_expr(rng, names, cfg, 1), cmp,
                        (Block, inner)))
            budget -= 1 + len(inner)
            branching -= 1
        elif sync and mutexes and r > 1 - cfg.sync_prob:
            kind = rng.randrange(4)
            m = rng.choice(mutexes)
            if kind == 0:
                out.append((Lock, m))
            elif kind == 1:
                out.append((Unlock, m))
            elif kind == 2:
                out.append((Yield,))
            else:
                out.append((IsLocked, rng.choice(names), m))
            budget -= 1
        else:
            v = rng.choice(names)
            out.append((Assign, v, random_expr(rng, names, cfg)))
            budget -= 1
    return out or [(Assign, names[0], random_const(rng, cfg))]


def random_program(rng: random.Random,
                   cfg: GeneratorConfig = GeneratorConfig(),
                   sync: bool = True) -> Program:
    n_threads = rng.randint(1, cfg.max_threads)
    n_vars = rng.randint(2, cfg.n_vars)
    names = [f"v{i}" for i in range(n_vars)]
    mutexes = [f"m{i}" for i in range(rng.randint(0, cfg.n_mutexes))] \
        if sync else []
    bodies = [(Block, random_stmts(rng, names, mutexes, cfg,
                                   rng.randint(1, cfg.max_stmts),
                                   cfg.max_branching, sync))
              for _ in range(n_threads)]
    variables = sorted(names + ["spare"])  # unused: fresh for the fuzzer
    return Builder().program(bodies, tuple(sorted(mutexes)),
                             tuple(variables), ())


def random_seq_program(rng: random.Random,
                       cfg: GeneratorConfig = GeneratorConfig(),
                       loop_free: bool = True) -> Program:
    """Single-thread program; with loop_free, only assigns/ifs/blocks."""
    local = cfg._replace(loop_prob=0.0) if loop_free else cfg
    n_vars = rng.randint(2, local.n_vars)
    names = [f"v{i}" for i in range(n_vars)]
    budget = rng.randint(1, local.max_stmts)
    body = (Block, random_stmts(rng, names, [], local, budget,
                                local.max_branching, False))
    return Builder().program([body], (), tuple(sorted(names)), ())


def sweep_program(seed: int) -> Program:
    """The program the soundness sweep checks at generator seed `seed`."""
    rng = random.Random(seed)
    return random_program(
        rng, GeneratorConfig(max_stmts=rng.choice((4, 6, 8, 12))))


def fuzz_program(seed: int) -> Program:
    """The program the weak-memory fuzz block transforms at seed `seed`."""
    rng = random.Random(seed)
    cfg = GeneratorConfig(max_stmts=rng.choice((4, 6, 8)))
    return random_program(rng, cfg, sync=rng.random() < 0.3)
