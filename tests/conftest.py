import threading

import numpy as np
import pytest

from decapbench import pdn
from decapbench.env import Evaluator

SHORT_GRID = pdn.make_freq_grid(21, 2.0e8, 2.0e10)


@pytest.fixture(scope="session")
def eval3():
    """3x3 chip-only evaluator with a short frequency grid."""
    return Evaluator(pdn.chip_only_config(3, 3, SHORT_GRID))


@pytest.fixture(scope="session")
def eval5():
    """5x5 chip-only evaluator with a short frequency grid."""
    return Evaluator(pdn.chip_only_config(5, 5, SHORT_GRID))


@pytest.fixture(scope="session")
def eval5_full():
    """5x5 chip-only evaluator with the default 201-point grid."""
    return Evaluator(pdn.chip_only_config(5, 5))


@pytest.fixture(scope="session")
def package_config():
    """4x4 chip (1.2 mm) on a 3x3 package (1.5 mm) at 7 frequencies: the
    16 chip cells fall into 9 package nodes (1 and 2 share one, as do 4
    and 8)."""
    spec = pdn.StackSpec(chip=pdn.GridSpec(4, 4, pdn.CHIP_CELL),
                         package=pdn.GridSpec(3, 3, pdn.PACKAGE_CELL))
    return pdn.SimConfig(spec, pdn.DecapModel(),
                         pdn.make_freq_grid(7, 2e8, 2e10))


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _run_with_timeout(fn, timeout_s=60):
    """fn's exception (or None) from a daemon thread, so that an endless
    loop fails the test instead of hanging the suite."""
    outcome = []

    def target():
        try:
            fn()
            outcome.append(None)
        except Exception as exc:  # handed back to the test
            outcome.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout_s)
    assert not worker.is_alive(), "call did not return"
    return outcome[0]


@pytest.fixture
def run_with_timeout():
    return _run_with_timeout
