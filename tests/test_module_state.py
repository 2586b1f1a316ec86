"""Guard: no process-global policy in ``src/repro``.

How a run executes (training workers, sign-store backend, replay
prefetch depth) is passed down explicitly — constructor arguments,
:class:`~repro.eval.config.ExperimentConfig` fields — so a caller can
see and vary it.  This walks every module's AST and fails on the two
shapes a process-wide default takes: a ``global`` statement (the one
allowed is telemetry's :func:`~repro.telemetry.core.set_telemetry`
slot) and a public ``set_default_*`` name.

It also holds the replay's three modules to their layering: the
cache (``unlearning/forest.py``) imports neither the loop
(``unlearning/engine.py``) nor the adapter (``unlearning/recovery.py``),
the loop keeps its state in objects rather than closures and reads no
private attribute of the unlearner, and the adapter imports at module
level only.  The replay's decode threads belong to its prefetcher
(``storage/prefetch.py``): neither the service nor the adapter builds a
thread pool of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ALLOWED_GLOBALS = {("telemetry/core.py", "set_telemetry")}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def test_only_the_telemetry_slot_uses_global():
    found = set()
    for name, tree in _modules():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, ast.Global) for node in ast.walk(func)):
                    found.add((name, func.name))
    assert found == ALLOWED_GLOBALS


def test_no_public_set_default_names():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined = node.id
            else:
                continue
            if defined.startswith("set_default_"):
                found.append(f"{name}:{node.lineno} {defined}")
    assert not found


def _module(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def _functions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]


def test_replay_loop_and_cache_have_no_nested_functions():
    nested = []
    for name in ("unlearning/engine.py", "unlearning/forest.py"):
        for func in _functions(_module(name)):
            nested += [
                f"{name}:{inner.lineno}"
                for inner in _functions(func)
                if inner is not func and not isinstance(inner, ast.Lambda)
            ]
    assert not nested


def test_replay_forest_imports_neither_engine_nor_adapter():
    imported = set()
    for node in ast.walk(_module("unlearning/forest.py")):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    forbidden = {"repro.unlearning.engine", "repro.unlearning.recovery"}
    assert not imported & forbidden


def test_replay_engine_reads_no_private_unlearner_attribute():
    reads = [
        f"unlearning/engine.py:{node.lineno} unlearner.{node.attr}"
        for node in ast.walk(_module("unlearning/engine.py"))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and isinstance(node.value, ast.Name)
        and node.value.id == "unlearner"
    ]
    assert not reads


def test_replay_adapter_imports_at_module_level_only():
    tree = _module("unlearning/recovery.py")
    inner = [
        f"unlearning/recovery.py:{node.lineno}"
        for func in _functions(tree)
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not inner


def test_service_and_adapter_build_no_thread_pool():
    built = [
        f"{name}:{node.lineno}"
        for name in ("unlearning/service.py", "unlearning/recovery.py")
        for node in ast.walk(_module(name))
        if isinstance(node, ast.Call)
        and (
            getattr(node.func, "id", None) == "ThreadPoolExecutor"
            or getattr(node.func, "attr", None) == "ThreadPoolExecutor"
        )
    ]
    assert not built
