import time

import pytest

from mixedspin import (Axis, ModelSpec, SweepRequest, build_model, diagonalize,
                       resolve_pairs, run_sweep)


def timed(fn, *args, **kwargs):
    start = time.monotonic()
    result = fn(*args, **kwargs)
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def decomp_nn():
    """Nearest-neighbor ring decompositions keyed by site count."""
    return {n: diagonalize(build_model(ModelSpec(n))) for n in range(2, 9)}


@pytest.fixture(scope="session")
def fig5_sweep():
    """Four-site coupling sweep at T = 0.008, 200 points on [0, 1]."""
    req = SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 200),
                       pairs=resolve_pairs(4), temperature=0.008)
    return timed(run_sweep, req)


@pytest.fixture(scope="session")
def fig9_sweep():
    """Six-site coupling sweep at T = 0.02, 200 points on [0, 1]."""
    req = SweepRequest(base=ModelSpec(6), axis1=Axis("j2", 0.0, 1.0, 200),
                       pairs=resolve_pairs(6), temperature=0.02)
    return timed(run_sweep, req)


@pytest.fixture(scope="session")
def fig10_sweep():
    """Eight-site coupling sweep at T = 0.02, 200 points on [0, 1]."""
    req = SweepRequest(base=ModelSpec(8), axis1=Axis("j2", 0.0, 1.0, 200),
                       pairs=resolve_pairs(8), temperature=0.02)
    return timed(run_sweep, req)


@pytest.fixture(scope="session")
def fig4_sweep():
    """Two-site field sweep at T = 0.05, 200 points on [0.02, 2.5]."""
    req = SweepRequest(base=ModelSpec(2), axis1=Axis("field_b", 0.02, 2.5, 200),
                       pairs=resolve_pairs(2), temperature=0.05)
    return timed(run_sweep, req)
