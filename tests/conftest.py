import os
import subprocess
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
def run_within_one_gib():
    """Run Python source in a child interpreter whose address space is capped at 1 GiB.

    Extra arguments become the child's sys.argv[1:]; BLAS runs on one thread
    and the package is imported from this checkout.
    """
    import decofree

    src = os.path.dirname(os.path.dirname(os.path.abspath(decofree.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    prelude = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"

    def run(code, *argv):
        return subprocess.run([sys.executable, "-c", prelude + code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    return run
