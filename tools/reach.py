#!/usr/bin/env python3
"""Reachability census: the ``src/repro`` functions no entry point runs.

    python3 tools/reach.py        # or: make reach

Runs each entry point -- ``python -m repro.eval all --scale smoke``
(writing its results), every ``examples/*.py``, and each ledger
workload alone (``bench/run.py --workload W --seconds 1.5``), untraced
and traced -- in its own subprocess under ``sys.setprofile``
and ``threading.setprofile``, and records every ``src/repro`` code
object that is called.  Every ``def`` under ``src/repro`` is listed
from the AST; a decorated function starts at its first decorator, as
its code object does.  Abstract stubs (a docstring, then only
``raise NotImplementedError``, ``pass`` or ``...``) are not counted.

Prints each unreached function that ``tools/reach_allow.txt`` does not
cover, with its line count, and exits 1 if there is one, if an
allow-list entry names no function or class in ``src/repro``, or if an
entry point fails.  An allow-list line is a dotted name (a class covers
its methods) followed by the test that calls it.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ALLOW = os.path.join(HERE, "reach_allow.txt")
WORKLOADS = ("solo_replay", "gdpr_ladder", "live_interleave", "archive_lifecycle")


def entry_points(out):
    yield ["-m", "repro.eval", "all", "--scale", "smoke", "--out", out]
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            yield [os.path.join(examples, name)]
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            yield [os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
                   "--seconds", "1.5", "--setups", "1", "--trace", trace]


def is_stub(node) -> bool:
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Constant) and stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def definitions():
    """``(functions, names)``: ``{(path, first line): (dotted name, lines)}``
    for every non-stub ``def`` in ``src/repro``, and the dotted names of
    every ``def`` and ``class`` there."""
    functions, names = {}, set()

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, prefix, path)
                continue
            name = f"{prefix}.{child.name}"
            names.add(name)
            if not isinstance(child, ast.ClassDef) and not is_stub(child):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                functions[(path, first)] = (name, child.end_lineno - first + 1)
            walk(child, name, path)

    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            with open(path, encoding="utf-8") as fh:
                walk(ast.parse(fh.read(), path), module.removesuffix(".__init__"), path)
    return functions, names


def read_allow():
    """``[(dotted name, test node id)]`` from the allow-list."""
    entries = []
    with open(ALLOW, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].split()
            if line:
                entries.append((line[0], line[1] if len(line) > 1 else ""))
    return entries


def trace(argv):
    """Child side: run one entry point under the profiler; write the
    ``src/repro`` code it called to ``$REACH_OUT`` at exit, after the
    interpreter has joined its non-daemon threads."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def dump():
        sys.setprofile(None)
        called = {(os.path.realpath(f), n) for f, n in list(seen)}
        with open(os.environ["REACH_OUT"], "w", encoding="utf-8") as fh:
            json.dump(sorted(c for c in called if c[0].startswith(SRC + os.sep)), fh)

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)
    if argv[0] == "-m":
        sys.argv = argv[1:]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = argv
        sys.path[0] = os.path.dirname(argv[0])
        runpy.run_path(argv[0], run_name="__main__")


def census() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    reached, status = set(), 0
    with tempfile.TemporaryDirectory() as tmp:
        env["REACH_OUT"] = out = os.path.join(tmp, "called.json")
        for argv in entry_points(os.path.join(tmp, "results")):
            done = subprocess.run([sys.executable, __file__, *argv], env=env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"entry point failed (exit {done.returncode}): {' '.join(argv)}\n"
                      f"{done.stderr[-2000:]}")
                status = 1
                continue
            with open(out, encoding="utf-8") as fh:
                reached.update(tuple(c) for c in json.load(fh))
    functions, names = definitions()
    allow = [name for name, _ in read_allow()]
    for name in allow:
        if name not in names:
            print(f"allow-list entry names nothing in src/repro: {name}")
            status = 1
    unreached = [(key, fn) for key, fn in sorted(functions.items()) if key not in reached]
    shown = [(key, fn) for key, fn in unreached
             if not any(fn[0] == a or fn[0].startswith(a + ".") for a in allow)]
    for (path, line), (name, size) in shown:
        print(f"{os.path.relpath(path, ROOT)}:{line}  {name}  ({size} lines)")
    print(f"reach: {len(functions) - len(unreached)} of {len(functions)} functions reached; "
          f"{len(unreached) - len(shown)} unreached allow-listed, {len(shown)} not")
    return 1 if shown else status


if __name__ == "__main__":
    if "REACH_OUT" in os.environ:
        trace(sys.argv[1:])
    else:
        sys.exit(census())
