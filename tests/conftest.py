import os
from pathlib import Path

import pytest

import crnoma
from crnoma import SystemParams, db_to_linear, estimator


@pytest.fixture(scope="session", autouse=True)
def no_owner_left():
    """Stop the Monte Carlo shard owners at the end of the session; fail if any process is left."""
    yield
    estimator._stop_owners()
    import multiprocessing

    assert not multiprocessing.active_children(), multiprocessing.active_children()


@pytest.fixture
def params_10db() -> SystemParams:
    """p0 = p1 = 10 (10 dB), r0 = r1 = 1: the equal-power singular-branch config."""
    return SystemParams(p0=10.0, p1=10.0, r0_hat=1.0, r1_hat=1.0)


def make_params(p0_db: float, p1_db: float, r0: float, r1: float) -> SystemParams:
    return SystemParams(p0=db_to_linear(p0_db), p1=db_to_linear(p1_db), r0_hat=r0, r1_hat=r1)


def src_env(**overrides: str) -> dict:
    """os.environ for a child interpreter, with the imported crnoma's src/ first on PYTHONPATH.

    pytest puts src/ on sys.path, but a subprocess sees only the environment,
    so without this a checkout with no install cannot import crnoma there.
    """
    src = str(Path(crnoma.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)
