"""Layout guard: every module-level name in src/spincorr, and every method of
a module-level class there, has a caller outside the tests.

A name counts as used when some file in src/ or perfbench/ references it:
an `ast.Name` or `ast.Attribute` that reads it, or a string constant equal
to it (perfbench wraps functions by name through getattr). Re-exports do
not count: an import is not a use, and neither is an entry of `__all__`.
`check_*` functions are exempt, because `run_checks` dispatches them by
name, and so are dunder methods, which Python calls. Code that only the
tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spincorr"
CALLERS = (ROOT / "src", ROOT / "perfbench")


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, line, label) of the module-level functions, classes and assigned
    variables, and of the methods of each module-level class but its dunders.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.name
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item in methods:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name):
                    yield item.name, item.lineno, f"{node.name}.{item.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not _is_all(node):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, name.id


def references(tree):
    """Every name the tree reads, as a Name, an Attribute or a string constant."""
    skip = {id(c) for node in tree.body if _is_all(node) for c in ast.walk(node.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            yield node.value


def test_every_module_level_name_has_a_caller():
    used = set()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            used.update(references(ast.parse(path.read_text(), str(path))))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {label}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line, label in definitions(ast.parse(path.read_text(), str(path)))
        if name not in used and not name.startswith("check_")
    ]
    assert not unused, "module-level names and methods no file in src/ or perfbench/ uses:\n" + "\n".join(unused)
