"""Every module-level import in the package modules is used, and every
package function the benchmark's tracer wraps still exists."""

import ast
import importlib.util
from pathlib import Path

import pytest

import mixformer

MODULES = sorted(
    p for p in Path(mixformer.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {n: line for n, line in _bound_names(tree).items() if n not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_hooks_resolve():
    tracing = _load_tracing()
    missing = []
    for _, mod, attr, _ in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"mixformer.{mod}"), attr, None)):
            missing.append(f"{mod}.{attr}")
    for _, mod, cls, meth in tracing.METHODS:
        owner = getattr(importlib.import_module(f"mixformer.{mod}"), cls, None)
        if not callable(getattr(owner, meth, None)):
            missing.append(f"{mod}.{cls}.{meth}")
    assert not missing, f"perfbench/tracing.py wraps names the package lacks: {missing}"
