"""The package depends on numpy alone: importing it loads nothing else outside
the standard library. Its modules import no name they do not use, and define
no top-level function or class that nothing reads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tspkit
from perfbench.tracing import SPAN_FUNCTIONS, Tracer

# modules already loaded at interpreter start-up (a site hook may load third-party
# ones) are set aside, so only what ``import tspkit`` itself loads is checked
PROBE = """
import sys
before = set(sys.modules)
import tspkit
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_the_standard_library_and_numpy():
    src = str(Path(tspkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    loaded = set(out.split())
    assert {"numpy", "tspkit"} <= loaded
    # "__mp_main__" is the name multiprocessing gives the __main__ module on import
    allowed = sys.stdlib_module_names | {"numpy", "tspkit", "__mp_main__"}
    assert loaded - allowed == set()


def unused_imports(path: Path) -> list[str]:
    """Names a module binds by a top-level import and never reads; an import
    marked ``# noqa: F401`` is a deliberate re-export."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__ imports names to re-export them
    modules = sorted(p for p in (Path(tspkit.__file__).parent).glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := unused_imports(p))}
    assert unused == {}


def traced_names(tmp_path) -> set[tuple[str, str]]:
    """(module, top-level name) of each tspkit function or class the benchmark's
    tracer looks up: its span functions, and what it patches, read off an
    installed tracer."""
    names = {tuple(name.split(".")) for name in SPAN_FUNCTIONS}
    tracer = Tracer(tmp_path / "spool")
    tracer.install()
    try:
        for owner, _, original in tracer._restore:
            top = owner if isinstance(owner, type) else original  # a patched method's class
            names.add((top.__module__.removeprefix("tspkit."), top.__qualname__.split(".")[0]))
    finally:
        tracer.uninstall()
    return names


def test_every_top_level_function_and_class_has_a_reader(tmp_path):
    # read elsewhere in src/ (its own module included), re-exported by the
    # package, or looked up by the benchmark's tracer
    package = Path(tspkit.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = {alias.asname or alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    traced = traced_names(tmp_path)
    unread = sorted(
        f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read | exported and (module, node.name) not in traced)
    assert unread == []
