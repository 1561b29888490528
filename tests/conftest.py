"""Shared fixtures.  The observable families are immutable, so each is
built once per session.

Every hypothesis property runs under one profile: no per-example
deadline, so a slow runner cannot fail a property as DeadlineExceeded or
Flaky, and no example database, so a run writes nothing to the checkout.
"""

import pytest
from hypothesis import settings

from ctxkit.observables import build_ks18, build_mermin_star, build_peres_mermin

settings.register_profile("ctxkit", deadline=None, database=None)
settings.load_profile("ctxkit")


@pytest.fixture(scope="session")
def ks18():
    return build_ks18()


@pytest.fixture(scope="session")
def ks18_rays(ks18):
    return ks18[0]


@pytest.fixture(scope="session")
def ks18_obs(ks18):
    return ks18[1]


@pytest.fixture(scope="session")
def pm_obs():
    return build_peres_mermin()


@pytest.fixture(scope="session")
def star3_obs():
    return build_mermin_star(3)


@pytest.fixture(scope="session")
def star5_obs():
    return build_mermin_star(5)
