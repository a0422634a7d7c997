"""No dead public API: every public module-level function or class of
`ptsskit`, and every public method, is referenced somewhere in the library
outside its own definition and `__init__.py`.  No one-valued parameter: a
parameter default is left out by one library call and overridden by another.
What no command and no library module runs belongs in `tests/`, beside the
oracles that use it; the allowlist may name only what the benchmark's tracer
wraps.  And only `cli` imports `json`: it alone renders answers."""

import ast
import importlib.util
import pathlib
import sys
from typing import Optional

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ptsskit"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"

ALLOWED = {
    # wrapped by the benchmark's tracer (perfbench/tracer.py), which times and
    # counts them; tests/test_bench_contract.py requires that they exist, and
    # nothing else may be allowed
    "bisim.lift_check",
    "bisim.rooted_branching_bisim",
    "bisim.distinguishing_challenge",
    "lp.max_flow",
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


def _owners(tree: ast.Module):
    """(node, the top-level class it is in, or None) of each node of `tree`."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            yield node, owner


def _references(tree: ast.Module, fields: set[str]):
    """(name, line, whether an attribute, class) of each name read and each
    attribute named, except a read of the argparse namespace `args` or of a
    field name; `class` is the class a `self.m` is read in, else None."""
    for node, owner in _owners(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False, None
        elif isinstance(node, ast.Attribute):
            base = getattr(node.value, "id", None)
            if node.attr not in fields and base != "args":
                yield node.attr, node.lineno, True, owner if base == "self" else None


def _library() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def unreferenced() -> list[str]:
    trees = _library()
    fields = _fields(trees.values())
    refs = {module: list(_references(tree, fields)) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            name, span = node.name, range(node.lineno, node.end_lineno + 1)
            owner = qualified.split(".")[0] if "." in qualified else None  # a method is called as an attribute
            used = any(
                ref == name and (attribute or not owner) and (cls is None or (other, cls) == (module, owner))
                and (other != module or line not in span)
                for other, found in refs.items() for ref, line, attribute, cls in found
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


def test_the_allowlist_names_only_traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # as dataclasses need
    spec.loader.exec_module(tracer)
    traced = {f"{span.split('.')[0]}.{func}" for span, func, _ in tracer.TARGETS}
    assert sorted(ALLOWED - traced) == []


# defaulted parameters that no library call both sets and leaves out, each with
# what leaves it out or why it stays
DEFAULTS_ALLOWED = {
    "cli.main.argv": "the console script calls main()",
    "parser.parse_term.expected": "the only way to read a term of a given sort; tests/test_parser_oracle.py "
                                  "cross-checks each sort",
    "errors.PtssError.__init__.message": "`raise _Stop` leaves it out",
    "terms._Record.__setattr__.value": "delattr leaves it out, as `__delattr__`",
    "terms._forget.remove": "binds a global early, as the weakref callback may run at exit",
}


def _defaulted(trees: dict[str, ast.Module]):
    """(module, class or None, function, parameter, its index among the
    positional ones or None) of each defaulted parameter of a module-level
    function or of a method of a top-level class."""
    for module, tree in trees.items():
        for node in tree.body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            for fn in node.body if owner else [node]:
                if isinstance(fn, ast.FunctionDef):
                    positional = fn.args.posonlyargs + fn.args.args
                    first = len(positional) - len(fn.args.defaults)
                    for i, arg in enumerate(positional[first:], first):
                        yield module, owner, fn, arg.arg, i
                    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                        if default is not None:
                            yield module, owner, fn, arg.arg, None


def _callees(trees: dict[str, ast.Module], call: ast.Call, owner: Optional[str]):
    """(module, class or None, function name, positional arguments the call
    leaves out in front) of each library definition `call` may run: a
    function by its name, a method by an attribute (`self.m` only in its own
    class) and a class's `__new__` or `__init__` by the class name.  A dunder
    named as an attribute runs a method of a builtin type or of `super()`."""
    f = call.func
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(f, ast.Name) and getattr(node, "name", None) == f.id:
                if isinstance(node, ast.FunctionDef):
                    yield module, None, node.name, 0
                elif isinstance(node, ast.ClassDef):
                    names = [fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)]
                    for name in ("__new__", "__init__"):
                        if name in names:
                            yield module, node.name, name, 1
                            break
            elif isinstance(f, ast.Attribute) and not f.attr.startswith("__"):
                base = getattr(f.value, "id", None)
                if base in trees and base == module and isinstance(node, ast.FunctionDef) and node.name == f.attr:
                    yield module, None, node.name, 0
                elif base not in trees and isinstance(node, ast.ClassDef) and (base != "self" or node.name == owner):
                    for fn in node.body:
                        if isinstance(fn, ast.FunctionDef) and fn.name == f.attr:
                            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                            yield module, node.name, fn.name, 0 if static else 1


def one_valued_defaults() -> list[str]:
    """Each defaulted parameter that no library call leaves out, or no
    library call sets, as `module.function.parameter` (with the class of a
    method).  A `*` argument may set every positional parameter from its
    place on, and `**` every one."""
    trees = _library()
    calls: dict[tuple, list[tuple[int, Optional[int], set[str]]]] = {}
    for tree in trees.values():
        for call, owner in _owners(tree):
            if isinstance(call, ast.Call):
                star = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), None)
                keywords = {k.arg for k in call.keywords}
                for *callee, skip in _callees(trees, call, owner):
                    calls.setdefault(tuple(callee), []).append(
                        (skip + len(call.args), None if star is None else skip + star, keywords))
    flagged = []
    for module, owner, fn, param, i in _defaulted(trees):
        sets = [param in keywords or None in keywords or i is not None and (i < given or star is not None and i >= star)
                for given, star, keywords in calls.get((module, owner, fn.name), [])]
        name = ".".join(filter(None, (module, owner, fn.name, param)))
        if not (any(sets) and not all(sets)) and name not in DEFAULTS_ALLOWED:
            flagged.append(name)
    return flagged


def test_every_default_is_both_used_and_overridden():
    assert one_valued_defaults() == []


def test_the_default_allowlist_names_only_defaulted_parameters():
    defined = {".".join(filter(None, (m, c, fn.name, p))) for m, c, fn, p, _ in _defaulted(_library())}
    assert DEFAULTS_ALLOWED.keys() <= defined


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
    users = [p.stem for p in sorted(SRC.glob("*.py")) if {"json", "_json"} & _imports(ast.parse(p.read_text()))]
    assert users == ["cli"]
