"""Every public top-level object of the package has a caller outside the
tests and outside `__init__.py`: code that only its own unit tests call is
deleted, not kept, and an export in `pamse.__all__` needs a reader too. The
same holds one level down, for the options and members of those objects,
and for the optional keys of the scenario configs."""

import ast
import importlib
import importlib.util
import json
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


def _defaulted(fn, is_method) -> list:
    """(position or None, name) of the parameters of fn that have defaults;
    position counts from the first argument a caller passes (after self or
    cls: the package has no static methods)."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if is_method else 0:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, dflt in zip(args.kwonlyargs, args.kw_defaults)
                  if dflt is not None]


def _bindings(call) -> tuple:
    """(positional count, keyword names) bound by a call; a * or ** argument
    may bind anything, so it counts as binding every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return float("inf"), None
    return len(call.args), {k.arg for k in call.keywords}


def test_every_option_and_member_has_a_caller():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}
    defs = []  # (module stem, name, node, is_method)
    for path, tree in trees.items():
        # cli.main's argv is argparse's entry point, which TestCli drives
        if path not in PACKAGE or path.name == "cli.py":
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                defs.append((path.stem, stmt.name, stmt, False))
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for node in stmt.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        defs.append((path.stem, node.name, node, True))
    calls = {}  # name -> bindings of the calls by that name
    reads = {}  # attribute name -> ids of the nodes reading it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(_bindings(node))
            if isinstance(node, ast.Dict):
                # {fn: {"key": value}} binds fn's keywords, as the acceptance
                # battery's FAST_OVERRIDES does for criteria run from a list
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Name) and isinstance(value, ast.Dict):
                        calls.setdefault(key.id, []).append(
                            (0, {k.value for k in value.keys if isinstance(k, ast.Constant)}))
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
    unbound = []
    for stem, name, fn, is_method in defs:
        if is_method and not reads.get(name, set()) - {id(n) for n in ast.walk(fn)}:
            unbound.append(f"{stem}.{name}")
        # a function reached only through a list (never called by name) has
        # no call to bind its options: each is unbound
        for pos, param in _defaulted(fn, is_method):
            if not any((pos is not None and pos < n) or kw is None or param in kw
                       for n, kw in calls.get(name, [])):
                unbound.append(f"{stem}.{name}({param})")
    assert sorted(unbound) == []


def test_every_scenario_option_is_set_by_its_shipped_config():
    # a runner parameter forwards a config key, so it binds the options it
    # passes on; a default that no shipped config overrides is one value in
    # use. n_workers is set by `pamse run --workers`
    harness = importlib.import_module("pamse.harness")
    unset = []
    for scenario in harness._RUNNERS:
        path = ROOT / "configs" / f"{scenario}.json"
        shipped = json.loads(path.read_text())["params"]
        for key, param in harness.scenario_parameters(scenario).items():
            if param.default is not param.empty and key != "n_workers" and key not in shipped:
                unset.append(f"{scenario}.{key}")
    assert sorted(unset) == []


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


def test_field_transforms_reach_the_benchmark_fft_hook(monkeypatch):
    # perfbench/spans.py sees the field transforms only by replacing
    # `fields.np` with a numpy whose `fft` namespace counts calls: a psi_field
    # that computes its FFTs any other way would leave that span silent
    import types

    import numpy as np

    fields = importlib.import_module("pamse.fields")
    lattice = importlib.import_module("pamse.lattice")
    counts = {}

    def counted(name):
        def fn(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return getattr(np.fft, name)(*args, **kwargs)
        return fn

    class CountingNumpy:
        fft = types.SimpleNamespace(**{name: counted(name) for name in dir(np.fft)
                                       if not name.startswith("_")})

        def __getattr__(self, attr):
            return getattr(np, attr)

    spec = fields.PsiSpec(kappa=2.0, T=1.0, torus=lattice.Torus(3, 5), rho=0.4)
    eta = np.arange(spec.torus.n_sites) % 2
    want = fields.psi_field(eta, spec)
    fields._chi_spectrum.cache_clear()
    monkeypatch.setattr(fields, "np", CountingNumpy())
    got = fields.psi_field(eta, spec)
    monkeypatch.undo()
    np.testing.assert_array_equal(got, want)
    # forward and inverse passes of the configuration and of chi
    assert counts.get("rfft", 0) == 2 and counts.get("irfft", 0) == 1
    assert counts.get("fft", 0) >= 1 and counts.get("ifft", 0) >= 1
