"""Every public top-level object of the package has a caller outside the
tests and outside `__init__.py`: code that only its own unit tests call is
deleted, not kept, and an export in `pamse.__all__` needs a reader too."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pamse").glob("*.py"))
CALLERS = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_object_has_a_caller():
    defined = {}  # name -> modules defining it at top level
    used = {}  # name -> (module, top-level owner) pairs that read it
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if path in PACKAGE and not owner.startswith("_"):
                    defined.setdefault(owner, set()).add(path)
            for name in _names(stmt):
                used.setdefault(name, set()).add((path, owner))
    orphans = sorted(
        f"{path.stem}.{name}" for name, paths in defined.items() for path in paths
        if not used.get(name, set()) - {(path, name)})
    assert orphans == []


def test_benchmark_span_hooks_resolve_and_restore():
    # perfbench/spans.py patches package attributes by name: each must
    # resolve, and restore() must put back the very objects it replaced
    loc = importlib.util.spec_from_file_location("perfbench_spans",
                                                 ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(loc)
    loc.loader.exec_module(spans)
    modules = {name: importlib.import_module(f"pamse.{name}") for name in (
        "exact", "exclusion", "fields", "harness", "irw", "lattice", "montecarlo",
        "variational")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = spans.Tracer()
    spans.install(tracer, modules)
    patched = list(tracer._undo)
    tracer.restore()
    assert patched
    for module, attr, original in patched:
        assert before[module.__name__.rsplit(".", 1)[1]][attr] is original
        assert getattr(module, attr) is original
