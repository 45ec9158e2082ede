"""The host-clock benchmark's wrapped entry points exist in the library.

``perfbench/layers.py`` times each layer by wrapping a function where the
program looks it up (``ENTRY_POINTS``).  Renaming or moving one of those
targets only fails the traced pass of the benchmark, long after the
change; this test resolves every target against ``src`` instead: the
module imports, the attribute path exists, and the target is callable.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _entry_points() -> tuple:
    # layers.py imports its sibling ``spans`` as a top-level module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", PERFBENCH / "layers.py"
        )
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


def test_entry_point_table_is_not_empty():
    assert len(ENTRY_POINTS) > 20


@pytest.mark.parametrize(
    "module_name, path",
    sorted({(module_name, path) for module_name, path, *_ in ENTRY_POINTS}),
)
def test_entry_point_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no {part!r}"
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{path} is not callable"
