"""Import hygiene of ``src/affinv``, checked with the standard library only.

``__init__`` binds only ``__version__``, the exact modules load without
numpy, and the command-line module loads every module but loads numpy only
when a lemma or weak suite runs.  Every name a module imports must be used
in that module, and every private ``_name`` defined in a module or class
must be referenced somewhere in ``src/``, so leftovers of a refactor show
up as failures.  The command-line module and the suites reach the
library through public names only, and every public module-level function
or class is used in ``src/`` or named, with its reason, in
``UNUSED_PUBLIC``, which admits only names the benchmark's per-layer list
measures and the replay reader to come; likewise every public method,
property or classmethod of a class is read as an attribute in ``src/`` or
named in ``UNUSED_MEMBERS``.  In ``calculus`` and ``report`` only the functions in
``NUMPY_FUNCTIONS``, which evaluate or reduce batches of samples, import
numpy.  Every layer and ``module.function`` that the benchmark's
trace mode reports (the ``per_layer`` list of ``BENCHMARK.json``) exists.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "affinv"
MODULES = sorted(SRC.glob("*.py"))
EXACT_MODULES = ("exactmat", "krylov", "invariants", "fields", "sympoly")


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _used_names(tree) -> set:
    """Names read in a tree, in code and in string annotations.  Other
    strings are data: a JSON key such as "in_omega" is not a use of the
    function of that name."""
    quoted = {
        id(part)
        for node in ast.walk(tree)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if isinstance(annotation, ast.AST)
        for part in ast.walk(annotation)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and id(node) in quoted and isinstance(node.value, str):
            try:  # a quoted annotation such as "RatMatrix"
                used |= _used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _trees().items():
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


def _private_imports(module: str) -> list:
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(_trees()[module])
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_cli_imports_no_private_name():
    assert _private_imports("cli.py") == []


def test_report_imports_no_private_calculus_name():
    assert [name for name in _private_imports("report.py") if name.startswith("calculus.")] == []


# public names that no module in src/ uses, each with the reason it stays;
# references that only tests read live in tests/reference.py instead
UNUSED_PUBLIC = {
    "calculus.lie_derivative": "BENCHMARK.json per-layer name calculus.lie_derivative",
    "exactmat.commutator": "BENCHMARK.json per-layer name exactmat.commutator",
    "exactmat.inverse": (
        "BENCHMARK.json per-layer name exactmat.inverse; README: the exact inverse, "
        "checked against sympy"
    ),
    "exactmat.power": "BENCHMARK.json per-layer name exactmat.power",
    "krylov.in_omega": "BENCHMARK.json per-layer name krylov.in_omega; the exact D != 0 test",
    "fields.field_from_json": "JSON codec reader: round-trip tested; replay reader (ROADMAP 8)",
}


def test_every_public_name_is_used_or_listed():
    trees = _trees()
    # names read by each top-level statement; a definition's references to
    # itself (recursion, its own class in annotations) are no use
    reads = [
        (stmt, _used_names(stmt))
        for tree in trees.values()
        for stmt in tree.body
    ]
    unused = {
        f"{name[:-3]}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in used for stmt, used in reads if stmt is not node)
    }
    assert unused == set(UNUSED_PUBLIC)


def test_unused_public_names_are_pinned_by_the_benchmark():
    # a public name that src/ never calls stays only while a per-layer name
    # of BENCHMARK.json measures it, but for the replay reader to come; a
    # test-only reference belongs in tests/reference.py
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    pinned = {entry["name"].rpartition(".")[0] for entry in per_layer}
    assert set(UNUSED_PUBLIC) - {"fields.field_from_json"} <= pinned


# public class members that no module in src/ reads, each with the reason it stays
UNUSED_MEMBERS = {}


def _attribute_reads(tree) -> list:
    """Attribute names read in a tree, numpy's ``np.<name>`` excepted."""
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "np")
    ]


def test_every_public_member_is_read_or_listed():
    # by name: a read of .name on any object counts for every class's
    # member of that name; a member's reads inside its own body do not
    trees = _trees()
    reads = Counter(name for tree in trees.values() for name in _attribute_reads(tree))
    unused = {
        f"{name[:-3]}.{cls.name}.{node.name}"
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and reads[node.name] == _attribute_reads(node).count(node.name)
    }
    assert unused == set(UNUSED_MEMBERS)


def test_only_cli_imports_sympoly():
    # the symbolic layer is a leaf: no library module builds on it
    importers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(
            (module or "").split(".")[-1] == "sympoly"
            for module in [getattr(node, "module", None), *(a.name for a in node.names)]
        )
    }
    assert importers == {"cli.py"}


def test_init_binds_only_the_version():
    # one home per public name: the package docstring and ``__version__``
    docstring, *rest = _trees()["__init__.py"].body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    assert [type(stmt) for stmt in rest] == [ast.Assign]
    assert [target.id for target in rest[0].targets] == ["__version__"]


def _loaded_after(statement: str, stdin: str = "") -> set:
    """The modules a fresh interpreter holds after running ``statement`` on
    ``stdin``, read from the last line of its output."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print(); print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": path},
        input=stdin,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


def test_exact_modules_load_without_numpy():
    loaded = _loaded_after("import " + ", ".join(f"affinv.{m}" for m in EXACT_MODULES))
    assert {f"affinv.{m}" for m in EXACT_MODULES} <= loaded
    assert "numpy" not in loaded


def test_cli_loads_every_module():
    # the perfbench tracer wraps only functions of modules already loaded
    modules = {f"affinv.{path.stem}" for path in MODULES if path.stem != "__init__"}
    assert len(modules) == 8
    assert modules <= _loaded_after("import affinv.cli")


def _cli_loaded_after(argv: list, stdin: str, code: int) -> set:
    """The modules a fresh interpreter holds after ``affinv.cli.main(argv)``
    on ``stdin`` returned ``code``."""
    return _loaded_after(f"from affinv.cli import main; assert main({argv!r}) == {code}", stdin)


def test_exact_commands_leave_numpy_unloaded():
    # the command-line module loads calculus, but numpy waits for a float
    # suite; a float-suite config rejected before it runs loads none either
    for argv, stdin, code in [
        (["verify", "-"], '{"suite":"identity","n":3,"samples":2}', 0),
        (["analyze", "-"], '{"n":2,"entries":[["1","2"],["3","4"]]}', 0),
        (["sympoly", "--n", "2"], "", 0),
        (["verify", "-"], '{"suite":"lemma","fd":{"h":-1}}', 2),
    ]:
        loaded = _cli_loaded_after(argv, stdin, code)
        assert "affinv.calculus" in loaded and "numpy" not in loaded, argv


def test_float_suites_load_numpy():
    for stdin in ['{"suite":"lemma","n":2,"samples":1}', '{"suite":"weak","samples":1000}']:
        assert "numpy" in _cli_loaded_after(["verify", "-"], stdin, 0), stdin


# the functions of calculus and report that may import numpy: each one
# evaluates or reduces a batch of samples, while a point check runs on
# Python floats
NUMPY_FUNCTIONS = {
    "calculus._central_differences",  # only to write into the caller's arrays
    "calculus.lie_derivatives",
    "calculus.check_boundary_decay",
    "calculus.weak_lie_derivative",
    "report.run_weak_suite",
    "report.run_suite_from_config",
}


def _numpy_importers(node, name: str) -> set:
    """Qualified names of the functions under ``node`` that import numpy; an
    import outside any function counts for ``name``, the module or class."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found |= _numpy_importers(child, f"{name}.{child.name}")
        elif isinstance(child, ast.Import) and "numpy" in {a.name for a in child.names}:
            found.add(name)
        elif isinstance(child, ast.ImportFrom) and child.module == "numpy":
            found.add(name)
        else:
            found |= _numpy_importers(child, name)
    return found


def test_only_sample_batches_import_numpy():
    trees = _trees()
    found = set().union(*(_numpy_importers(trees[f"{m}.py"], m) for m in ("calculus", "report")))
    assert found == NUMPY_FUNCTIONS


def test_every_traced_name_is_a_public_module_function():
    # trace mode measures each layer's module and each module.function as a
    # public function defined at the top of that module, and exits with
    # "metrics not measured" when one is missing, so a refactor that drops
    # or renames one must fail here
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    listed = [entry["name"] for entry in per_layer]
    names = {name.rpartition(".")[0] for name in listed} - {"trace"}
    trees = _trees()
    defined = {
        f"{name[:-3]}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    layers = {name for name in names if "." not in name}
    assert layers == {name[:-3] for name in trees} - {"__init__"}
    functions = names - layers
    per_request = {
        name.removesuffix(".per_request") for name in listed if name.endswith(".per_request")
    }
    assert len(per_request) == 4 and per_request <= functions
    assert functions - defined == set()
