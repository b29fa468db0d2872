import pytest

from intermit import Dmc


@pytest.fixture(scope="session")
def bsc01():
    return Dmc.bsc(0.1)
