"""Shared fixtures for the test suite.

Small-but-nontrivial populations keep statistical assertions meaningful
while the suite stays fast.  Every fixture is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import Dataset, zipf_dataset
from repro.protocols import GRR, OLH, OUE

EPSILON = 0.5
SMALL_DOMAIN = 16
SMALL_USERS = 6_000


@pytest.fixture(autouse=True)
def _isolated_cell_cache(tmp_path, monkeypatch):
    """Point the default cell-cache directory at a per-test tmp dir.

    CLI invocations without ``--cache-dir`` fall back to
    ``$REPRO_CACHE_DIR``; without this, test runs would populate the
    user's real cache and later runs could serve rows cached by an older
    build of the code under test.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cell-cache"))


@pytest.fixture()
def pool_sizes(monkeypatch) -> list[int]:
    """The size of every process pool the engine builds during the test."""
    from repro.sim import engine

    built: list[int] = []
    real = engine.ProcessPoolExecutor

    def counting(*args, **kwargs):
        built.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", counting)
    return built


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def small_dataset() -> Dataset:
    return zipf_dataset(
        domain_size=SMALL_DOMAIN, num_users=SMALL_USERS, exponent=1.0, rng=7
    )


@pytest.fixture()
def grr() -> GRR:
    return GRR(epsilon=EPSILON, domain_size=SMALL_DOMAIN)


@pytest.fixture()
def oue() -> OUE:
    return OUE(epsilon=EPSILON, domain_size=SMALL_DOMAIN)


@pytest.fixture()
def olh() -> OLH:
    return OLH(epsilon=EPSILON, domain_size=SMALL_DOMAIN)


@pytest.fixture(params=["grr", "oue", "olh"])
def protocol(request, grr, oue, olh):
    """Parametrized fixture iterating over all three protocols."""
    return {"grr": grr, "oue": oue, "olh": olh}[request.param]
