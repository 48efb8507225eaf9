"""Every top-level import in `src/maxsub` is used by its module.

No linter ships with the project, so this walks the syntax trees: a name
bound by a module-level `import` must appear as a name somewhere else in
the same module.  The package `__init__.py` is skipped, since its imports
are the public re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "maxsub"


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
