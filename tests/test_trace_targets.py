"""Every layer function the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` wraps ``decofree`` functions by name, so removing or
renaming one makes ``Tracer.install`` raise under ``--trace 1``.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _targets():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("spans").TARGETS
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}:{t[3]}")
def test_target_resolves(target):
    label, module, owner, attr, mode = target
    layer = importlib.import_module("decofree." + module)
    holder = getattr(layer, owner) if owner else layer
    assert callable(getattr(holder, attr, None)), f"{label}: decofree.{module} has no {attr}"
    assert mode in ("span", "count")
