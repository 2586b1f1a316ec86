"""The reachability census's allow-list stays true without running it.

``make reach`` (tools/reach.py) profiles every entry point; this test
only reads ``tools/reach_allow.txt`` and the source: every entry names
a ``def`` or ``class`` in ``src/repro`` and an existing test, and the
list stays at most 60 entries long.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_ENTRIES = 60


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REACH = load_reach()
ENTRIES = REACH.read_allow()


def test_allow_list_is_short():
    assert 0 < len(ENTRIES) <= MAX_ENTRIES


def test_every_entry_names_a_function_or_class_in_src():
    _, names = REACH.definitions()
    missing = [name for name, _ in ENTRIES if name not in names]
    assert not missing, missing
    assert len({name for name, _ in ENTRIES}) == len(ENTRIES), "duplicate entry"


def test_every_entry_names_an_existing_test():
    trees = {}
    missing = []
    for name, node_id in ENTRIES:
        path, *parts = node_id.split("::")
        if not path.startswith("tests/") or not parts or not (ROOT / path).is_file():
            missing.append((name, node_id))
            continue
        if path not in trees:
            trees[path] = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        scope = trees[path].body
        for part in parts:
            found = [
                n for n in scope
                if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part
            ]
            if not found:
                missing.append((name, node_id))
                break
            scope = found[0].body
    assert not missing, missing
