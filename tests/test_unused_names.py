"""Every function, class and method of src/racebox is named by a run, a
script or the benchmark, so no code in src exists for the tests alone."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# named only by tests, with the reason each stays
ALLOWED = {
    ("domains", "Interval.leq"): "the tests' order predicate on intervals",
}


def _boundaries() -> set[tuple[str, str]]:
    """The (module, function) pairs of perfbench/tracing.BOUNDARIES, which
    the tracer looks up by name."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "BOUNDARIES" for t in node.targets):
            return {(e.elts[0].value, e.elts[1].value)
                    for e in node.value.elts}
    raise AssertionError("perfbench/tracing.py has no BOUNDARIES")


def _names(tree: ast.AST) -> list[tuple[str, bool, frozenset[int]]]:
    """Each Name and Attribute of tree: its name, whether it is an
    attribute, and the ids of the definitions it lies in."""
    out = []
    todo = [(tree, frozenset())]
    while todo:
        node, inside = todo.pop()
        if isinstance(node, ast.Name):
            out.append((node.id, False, inside))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, True, inside))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {id(node)}
        todo += [(child, inside) for child in ast.iter_child_nodes(node)]
    return out


def test_every_src_definition_has_a_caller_outside_the_tests():
    """A module-level function or class must be named (as a Name or an
    Attribute), and a method as an Attribute, in src, scripts or
    perfbench outside its own definition, or be a BOUNDARIES entry.
    Dunders are exempt, and so is a method that overrides its base
    class's, such as an argparse hook, which the base calls."""
    defs = []  # (module, qualified name, name, node, is a method)
    names = []
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            tree = ast.parse(path.read_text())
            names += _names(tree)
            if path.parent != ROOT / "src" / "racebox":
                continue
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defs.append((path.stem, node.name, node.name, node,
                                 False))
                if isinstance(node, ast.ClassDef):
                    defs += [(path.stem, f"{node.name}.{m.name}", m.name, m,
                              True)
                             for m in node.body
                             if isinstance(m, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))]
    named: dict[str, list[tuple[bool, frozenset[int]]]] = {}
    for name, attr, inside in names:
        named.setdefault(name, []).append((attr, inside))
    boundaries = _boundaries()
    unused = []
    for mod, qual, name, node, method in defs:
        if (name.startswith("__") and name.endswith("__")
                or (mod, qual) in boundaries or (mod, qual) in ALLOWED):
            continue
        if any(id(node) not in inside and (attr or not method)
               for attr, inside in named.get(name, ())):
            continue
        if method:
            cls = getattr(importlib.import_module(f"racebox.{mod}"),
                          qual.split(".")[0])
            if any(hasattr(base, name) for base in cls.__mro__[1:]):
                continue
        unused.append(f"{mod}.{qual}")
    assert not unused
