"""Meta-tests: every public API item is documented and importable.

Deliverable (e) requires doc comments on every public item; this test
makes that an invariant rather than a hope.  "Public" means everything
listed in a package's ``__all__`` plus public methods of those classes.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.attacks",
    "repro.datasets",
    "repro.defenses",
    "repro.eval",
    "repro.faults",
    "repro.fl",
    "repro.iov",
    "repro.nn",
    "repro.serving",
    "repro.storage",
    "repro.telemetry",
    "repro.unlearning",
    "repro.unlearning.baselines",
    "repro.utils",
]


def public_items():
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        for name in getattr(module, "__all__", []):
            yield package_name, name, getattr(module, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_importable_with_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a module docstring"


@pytest.mark.parametrize(
    "package,name,obj",
    [(p, n, o) for p, n, o in public_items() if callable(o) or inspect.isclass(o)],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_public_item_documented(package, name, obj):
    if isinstance(obj, str) or not (callable(obj) or inspect.isclass(obj)):
        pytest.skip("not a callable/class")
    assert inspect.getdoc(obj), f"{package}.{name} lacks a docstring"


def test_public_class_methods_documented():
    undocumented = []
    for package, name, obj in public_items():
        if not inspect.isclass(obj):
            continue
        for method_name, method in inspect.getmembers(obj, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if not inspect.getdoc(method):
                undocumented.append(f"{package}.{name}.{method_name}")
    assert not undocumented, f"undocumented public methods: {undocumented}"


def test_all_lists_are_sorted_sets():
    """__all__ entries must be unique (sorted is a style choice we keep
    loose; uniqueness is a correctness requirement for star-imports)."""
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        entries = getattr(module, "__all__", [])
        assert len(entries) == len(set(entries)), f"{package_name}.__all__ has dupes"


def test_all_entries_exist():
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package_name}.__all__ lists missing {name}"
