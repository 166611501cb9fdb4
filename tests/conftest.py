import importlib.util
import os
import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def depolarizing():
    """Completely depolarizing qubit channel, Gamma(A) = Tr(A)/2 * 1."""
    from decofree.channels import KrausMap
    from decofree.operators import eye, sx, sy, sz

    return KrausMap([0.5 * eye(2), 0.5 * sx, 0.5 * sy, 0.5 * sz])


@pytest.fixture
def no_superoperator(monkeypatch):
    """Refuse every dense n^2 x n^2 build: `operators.superop_matrix` in every decofree
    module that looks it up, and `channels.choi_matrix`."""
    import decofree.channels

    def refuse(*args, **kwargs):
        raise AssertionError("an n^2 x n^2 superoperator was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("decofree.") and hasattr(module, "superop_matrix"):
            monkeypatch.setattr(module, "superop_matrix", refuse)
    monkeypatch.setattr(decofree.channels, "choi_matrix", refuse)


@pytest.fixture(scope="session")
def reach():
    """tools/reach.py of this checkout, the reach cases and their capped runner."""
    spec = importlib.util.spec_from_file_location("reach", os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "reach.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run_within_one_gib(reach):
    """Run Python source in a child interpreter whose address space is capped at 1 GiB:
    `reach.capped`, whose extra arguments become the child's sys.argv[1:]."""
    return reach.capped
