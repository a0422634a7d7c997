"""No dead public API: every public module-level function or class of
`ptsskit`, and every public method, is referenced somewhere in the library
outside its own definition and `__init__.py`.  What no command and no library
module runs belongs in `tests/`, beside the oracles that use it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ptsskit"

ALLOWED = {
    # wrapped by the benchmark's tracer (perfbench/tracer.py), which times and
    # counts them; tests/test_bench_contract.py requires that they exist
    "bisim.lift_check",
    "bisim.rooted_branching_bisim",
    "bisim.distinguishing_challenge",
    "lp.max_flow",
    # the paper's named format definitions, checked one by one against the
    # reference checker by tests/test_format_oracle.py
    "format_check.build_nesting_graph",
    "format_check.detect_patience_rules",
    "format_check.is_w_nested_occurrence",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function or class and
    of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, line) of each name read and each attribute named."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            name, span = node.name, range(node.lineno, node.end_lineno + 1)
            used = any(
                ref == name and (other != module or line not in span)
                for other, found in refs.items() for ref, line in found
            )
            if not used and f"{module}.{qualified}" not in ALLOWED:
                dead.append(f"{module}.{qualified}")
    return dead


def test_every_public_name_has_a_library_caller():
    assert unreferenced() == []


def test_the_allowlist_names_only_public_definitions():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defined = {f"{m}.{q}" for m, tree in trees.items() for q, _ in _public_definitions(tree)}
    assert ALLOWED <= defined
