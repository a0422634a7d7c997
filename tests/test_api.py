"""No dead public API: every public module-level function or class of
`ptsskit`, and every public method, is referenced somewhere in the library
outside its own definition and `__init__.py`.  What no command and no library
module runs belongs in `tests/`, beside the oracles that use it.  And only
`cli` imports `json`: it alone renders answers."""

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


# public methods named like a NamedTuple field, whose calls the guard cannot
# tell from field reads: each with the library code that calls it
SHARED_WITH_FIELDS = {
    "parser._Cursor.col": "_Cursor.error and _Cursor.settle",
    "parser._Cursor.name": "_Cursor.term",
    "parser._Cursor.rule": "parser._rule_line",
}


def _fields(trees) -> set[str]:
    """The field names of every NamedTuple class of the library."""
    return {
        item.target.id
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def _references(tree: ast.Module, fields: set[str]):
    """(name, line, whether an attribute) of each name read and each attribute
    named, except a read of the argparse namespace `args` or of a field name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            if node.attr not in fields and getattr(node.value, "id", None) != "args":
                yield node.attr, node.lineno, True


def unreferenced() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    fields = _fields(trees.values())
    refs = {module: list(_references(tree, fields)) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            name, span = node.name, range(node.lineno, node.end_lineno + 1)
            method = "." in qualified  # called only as an attribute, never by a bare name
            used = any(
                ref == name and (attribute or not method) and (other != module or line not in span)
                for other, found in refs.items() for ref, line, attribute in found
            )
            if not used and f"{module}.{qualified}" not in ALLOWED | SHARED_WITH_FIELDS.keys():
                dead.append(f"{module}.{qualified}")
    return dead


def test_every_public_name_has_a_library_caller():
    assert unreferenced() == []


def test_the_allowlist_names_only_public_definitions():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defined = {f"{m}.{q}" for m, tree in trees.items() for q, _ in _public_definitions(tree)}
    assert ALLOWED | SHARED_WITH_FIELDS.keys() <= defined


def _imports(tree: ast.Module) -> set[str]:
    """The top-level packages a module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_only_the_cli_renders_answers():
    """Every answer is printed by `cli` from one payload, as JSON or as text
    lines derived from it, so no other module serialises one."""
    users = [p.stem for p in sorted(SRC.glob("*.py")) if "json" in _imports(ast.parse(p.read_text()))]
    assert users == ["cli"]
