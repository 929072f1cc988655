"""Every module-level import in the package modules is used, the package
does not load scipy.stats, every package function the benchmark's tracer
wraps still exists, and files are written only through the atomic write
path."""

import ast
import importlib.util
import os
import subprocess
import sys
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


def test_package_does_not_load_scipy_stats():
    # scipy.stats alone costs about 1 s and 46 MB at import
    code = (
        "import sys\n"
        "import mixformer\n"
        "print('scipy.stats' in sys.modules)\n"
        "import mixformer.cli\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = str(Path(mixformer.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["False", "False"]


# (module, function) allowed to write a file in place: the atomic helper
# itself, and the training log that `train` appends to one row per step
WRITERS = {("features.py", "write_atomic"), ("cli.py", "cmd_train")}


def _opens_for_writing(call: ast.Call) -> bool:
    """open(path, mode) or <path>.open(mode) with a writing mode, or a
    write_text / write_bytes call.  A mode that is not a literal counts as
    writing."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else None
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode = call.args[0] if call.args else None
    else:
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return False
    literals = [
        n.value for n in ast.walk(mode)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    return not literals or any(set(m) & set("wax+") for m in literals)


def _writes(node: ast.AST, func: str | None = None) -> list[tuple[str | None, int]]:
    """(innermost enclosing function, line) of every writing call under node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _opens_for_writing(child):
            found.append((func, child.lineno))
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        found += _writes(child, child.name if is_def else func)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_files_are_written_atomically(path):
    writes = _writes(ast.parse(path.read_text()))
    stray = [(f, line) for f, line in writes if (path.name, f) not in WRITERS]
    assert not stray, f"{path.name}: write outside features.write_atomic at {stray}"


def test_write_check_sees_every_writer():
    found = {
        (p.name, f) for p in MODULES for f, _ in _writes(ast.parse(p.read_text()))
    }
    assert found == WRITERS


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
