"""Every top-level import in `src/maxsub` is used by its module, and every
top-level function and class, and every method of a top-level class, is
used somewhere.

No linter ships with the project, so this walks the syntax trees: a name
bound by a module-level `import` must appear as a name somewhere else in
the same module.  The package `__init__.py` is skipped, since its imports
are the public re-exports.  A function or class defined at the top level
of a module must be referenced (as a name, an attribute or an imported
name) somewhere in `src/maxsub` or `perfbench/`; its own definition and
the strings of `maxsub.__all__` do not count.  The same holds for the
methods and properties of top-level classes, except the dunder methods,
which Python calls itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "maxsub"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_top_level_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def _definitions(tree):
    """The top-level functions and classes of a module, and the methods of
    its classes other than the dunder methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, kinds[:2])
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__")))


def _dead_definitions(src, others):
    """(module, line, name) of each definition of `src` (see `_definitions`)
    whose name is referenced nowhere in `src` or the `others` trees."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for root in [src, *others] for path in sorted(root.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
    return sorted((path.name, node.lineno, node.name)
                  for path, tree in trees.items() if path.parent == src
                  for node in _definitions(tree) if node.name not in used)


def test_no_unreferenced_top_level_definitions():
    found = [f"{module}:{line}: {name}"
             for module, line, name in _dead_definitions(
                 SRC, [ROOT / "perfbench"])]
    assert not found, "unreferenced definitions:\n" + "\n".join(found)
