"""The record base shared by the AST, the program, and the configuration
and result records: construction, equality, hashing and immutability."""

import pytest

from racebox.config import AnalysisSettings, OracleBudget
from racebox.report import RunConfig
from racebox.sched import Race, analyze_program_C
from racebox.syntax import (
    SKIP,
    BinOp,
    Location,
    Lock,
    Neg,
    Program,
    Record,
    Unlock,
    Var,
    Yield,
    stmt_exprs,
    sub_exprs,
    sub_stmts,
)


def test_same_fields_different_class_unequal():
    assert Lock(3, "m") != Unlock(3, "m")
    assert Lock(3, "m") == Lock(3, "m")
    assert len({Lock(3, "m"), Unlock(3, "m")}) == 2


def test_location_compares_on_label_only():
    a, b = Location(7, 1, 2, "+"), Location(7, 9, 9, "/")
    assert a == b and hash(a) == hash(b) == hash((7,))
    assert a != Location(8, 1, 2, "+")


def _records(p: Program) -> list[Record]:
    out: list[Record] = [p, *p.threads, SKIP, AnalysisSettings(),
                         OracleBudget(), RunConfig(),
                         Race("ww", (1, 2), "x", ()), Yield(4),
                         Neg(Location(1, 1, 1, "-u"), Var("x"))]
    for t in p.threads:
        out += sub_stmts(t.body)
        for e in stmt_exprs(t.body):
            out += sub_exprs(e)
    return out + [x.loc for x in out if isinstance(x, (Neg, BinOp))]


def test_hash_is_the_compared_field_tuple(corpus):
    records = [r for name in ("dekker", "priority_mutex", "producer_consumer")
               for r in _records(corpus(name))]
    classes = set()
    for r in records:
        names = ("label",) if isinstance(r, Location) else r._fields
        assert hash(r) == hash(tuple(getattr(r, n) for n in names)), r
        classes.add(type(r).__name__)
    assert classes == {
        "Program", "Thread", "Assign", "If", "While", "Block", "Guard",
        "Lock", "Unlock", "Yield", "IsLocked", "Var", "Const", "Neg", "BinOp",
        "Location", "AnalysisSettings", "OracleBudget", "RunConfig", "Race"}


def test_records_are_immutable(corpus):
    p = corpus("dekker")
    for r in (p, Var("x"), Location(1, 1, 1, "+"), RunConfig(),
              analyze_program_C(p)):
        with pytest.raises(AttributeError):
            r.threads = ()
        with pytest.raises(AttributeError):
            del r.threads


def test_keyword_default_and_positional_construction():
    cfg = RunConfig(mode="interference", mono=False)
    assert (cfg.mode, cfg.mono, cfg.unroll) == ("interference", False, 3)
    assert cfg == RunConfig("interference", 3, mono=False)
    assert AnalysisSettings() == AnalysisSettings(
        *(AnalysisSettings._defaults[n] for n in AnalysisSettings._fields))
    assert OracleBudget().max_states == 1_000_000
    assert OracleBudget(max_states=5)._replace(max_states=7) == \
        OracleBudget(7)
    with pytest.raises(TypeError):
        OracleBudget(max_sates=5)
    with pytest.raises(TypeError):
        OracleBudget(1, 2, 3)
    with pytest.raises(TypeError):
        Lock(3)
    with pytest.raises(ValueError):  # RunConfig's own check still runs
        RunConfig(check_against="scheduled")
