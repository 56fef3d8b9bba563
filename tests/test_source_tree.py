"""Rules on the package source itself."""

import ast
import importlib
import pathlib
import sys
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a runtime check written as
    # one vanishes; the package raises typed errors instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert list(SRC.rglob("*.py")), f"no package source under {SRC}"
    assert found == []


def test_no_private_names_imported_across_modules():
    # a module's _-prefixed names are its own; another module that needs
    # one should get a public name instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("bkmpc"):
                continue
            found += [
                f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


def test_lapack_eigen_calls_only_in_eig_module():
    # numerics/eig.py turns every LAPACK eigen failure into the typed
    # ConvergenceError; a direct call elsewhere would let LinAlgError escape
    lapack = {"eig", "eigvals", "inv"}
    home = pathlib.Path("bkmpc", "numerics", "eig.py")
    found, at_home = [], 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                names = {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and ast.unparse(node.func.value).endswith("linalg")
            ):
                names = {node.func.attr}
            else:
                continue
            if not names & lapack:
                continue
            if path.relative_to(SRC) == home:
                at_home += 1
            else:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert at_home == 3
    assert found == []


def test_bench_wrapped_names_exist(monkeypatch):
    # the traced bench wraps functions at the names their callers look
    # them up by; a deleted or renamed one would otherwise fail only when
    # the bench runs
    monkeypatch.syspath_prepend(str(BENCH))
    bench_modules = ("common", "spans", "layers", "pipeline")
    try:
        pipeline = importlib.import_module("pipeline")
        mods = SimpleNamespace(**{
            name.rsplit(".", 1)[-1]: importlib.import_module(name)
            for name in pipeline._MODULES
        })
        points = pipeline.instrument_points(mods, rec=None)
    finally:
        for name in bench_modules:
            sys.modules.pop(name, None)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in points
        if not hasattr(owner, attr)
    ]
    assert len(points) > 20
    assert missing == []
