"""Guard: no process-global policy in ``src/repro``.

How a run executes (training workers, sign-store backend, replay
prefetch depth) is passed down explicitly — constructor arguments,
:class:`~repro.eval.config.ExperimentConfig` fields — so a caller can
see and vary it.  This walks every module's AST and fails on the two
shapes a process-wide default takes: a ``global`` statement (the one
allowed is telemetry's :func:`~repro.telemetry.core.set_telemetry`
slot) and a public ``set_default_*`` name.
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
