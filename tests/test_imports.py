"""Import hygiene of ``src/affinv``, checked with the standard library only.

Every name a module imports must be used in that module (the re-exports of
``__init__`` excepted), and every private ``_name`` defined in a module or
class must be referenced somewhere in ``src/``, so leftovers of a refactor
show up as failures.  The command-line module reaches the library through
public names only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "affinv"
MODULES = sorted(SRC.glob("*.py"))


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _used_names(tree) -> set:
    """Names read in a tree, in code and in string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "RatMatrix"
                used |= _used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_name_is_referenced():
    trees = _trees()
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    dead = []
    for name, tree in trees.items():
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                for d in defined:
                    if d.startswith("_") and not d.endswith("__") and d not in used:
                        dead.append(f"{name}: {d}")
    assert dead == []


def test_cli_imports_no_private_name():
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(_trees()["cli.py"])
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
