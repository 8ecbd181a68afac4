"""The record base shared by the AST, the program, and the configuration
and result records: construction, equality, hashing and immutability."""

import importlib
import pkgutil
from typing import Callable

import pytest

import racebox
from racebox.config import AnalysisSettings, OracleBudget
from racebox.report import RunConfig
from racebox.sched import Race, analyze_program_C
from racebox.syntax import (
    COMPILE_AFTER,
    SKIP,
    BinOp,
    Const,
    Expr,
    Location,
    Lock,
    Neg,
    Program,
    Record,
    Stmt,
    Unlock,
    Var,
    Yield,
    _Op,
    _positional_init,
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


def _record_classes() -> list[type]:
    """Every Record subclass that a racebox module defines, the fieldless
    abstract bases Expr, Stmt and _Op too."""
    for m in pkgutil.iter_modules(racebox.__path__):
        importlib.import_module(f"racebox.{m.name}")
    out, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("racebox.") and sub not in out:
                out.append(sub)
    return out


def _compiled(cls: type) -> Callable:
    """Builds a cls record through the constructor cls compiles once it
    has built COMPILE_AFTER records, without installing it."""
    init = _positional_init(cls)

    def make(*args, **kwargs):
        r = cls.__new__(cls)
        init(r, *args, **kwargs)
        return r
    return make


def _refused(make, *args, **kwargs) -> str:
    with pytest.raises(TypeError) as e:
        make(*args, **kwargs)
    return str(e.value)


def test_every_record_constructor_keeps_the_generic_contract():
    classes = _record_classes()
    assert {"Program", "Location", "BinOp", "Block", "RunConfig",
            "SchedResult", "ExploreResult", "FuzzReport", "PathSet",
            "GeneratorConfig", "Expr", "Stmt", "_Op"} <= {
        c.__name__ for c in classes}
    for cls in classes:
        fields, defaults = cls._fields, cls._defaults
        # distinct increasing tuples: hashable, iterable and ordered, so
        # Const's check and the trees' hashing and equality accept them
        values = [defaults[n] if n in defaults else (i,)
                  for i, n in enumerate(fields)]
        generic = f"{cls.__name__} takes the fields {fields}"
        for make in (cls, _compiled(cls)):
            a = make(*values)
            b = make(**dict(zip(fields, values)))
            c = make(**{n: v for n, v in zip(fields, values)
                        if n not in defaults})
            for r in (a, b, c):
                assert type(r) is cls
                assert all(getattr(r, n) is v for n, v in zip(fields, values))
            assert a == b == c and hash(a) == hash(b) == hash(c), cls
            assert a == cls(*values)
            assert _refused(make, *values, None) == generic
            assert _refused(make, *values, no_such_field=1) == generic
            if fields and fields[-1] not in defaults:
                assert _refused(make, *values[:-1]) == generic


def test_constructors_run_post_init_by_position_and_by_name():
    for cls, args, kwargs in (
            (RunConfig, ("nonsense",), {"mode": "nonsense"}),
            (RunConfig, ("seq", 3, 2, (0,), True, (), 1, 0, "interference"),
             {"check_against": "interference"}),
            (Const, (2, 1), {"lo": 2, "hi": 1})):
        full = [*args, *(cls._defaults[n] for n in cls._fields[len(args):])]
        for make in (cls, _compiled(cls)):
            for call in (lambda: make(*args), lambda: make(**kwargs),
                         lambda: make(*full)):
                with pytest.raises(ValueError):
                    call()
    loc = Location(1, 1, 1, "+")
    tree = BinOp("+", loc, Var("x"), Var("y"))
    assert hash(_compiled(BinOp)("+", loc, Var("x"), Var("y"))) == hash(tree)


def test_a_class_compiles_its_constructor_after_many_records():
    class Probe(Record):
        a: int
        b: int = 2

    counting = Probe.__init__
    for i in range(COMPILE_AFTER - 1):
        Probe(i, i)
    assert Probe.__init__ is counting
    Probe(0, 0)
    assert Probe.__init__ is not counting
    assert Probe(1, 2) == Probe(a=1) and Probe(1, 3).b == 3

    class Tagged(Probe):  # built after Probe compiled its own
        tag: int

    assert Tagged(1, 2, 3).tag == 3 and Tagged(1, tag=4).tag == 4
    assert _refused(Probe, 1, 2, 3) == "Probe takes the fields ('a', 'b')"


def test_fieldless_bases_compare_as_records():
    """The abstract bases have no fields: two of a class are equal and
    hash alike, whether or not the class is a tree (_Op is one), and
    never equal a node of another class."""
    loc = Location(1, 1, 1, "-u")
    for cls in (Expr, Stmt, _Op):
        for make in (cls, _compiled(cls)):
            a, b = make(), make()
            assert a == b and hash(a) == hash(b) == hash(()), cls
            assert a != Neg(loc, Var("x")) and a != Var("x")
    assert _Op() != Expr() and len({_Op(), _Op(), Expr(), Stmt()}) == 3
