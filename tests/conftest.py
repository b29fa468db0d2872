import os

import pytest

from intermit import Dmc


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RUN_PAPER_SCALE") == "1":
        return
    skip = pytest.mark.skip(
        reason="paper-scale run (about 26 s on 2 vCPUs); set RUN_PAPER_SCALE=1 to enable")
    for item in items:
        if "paper_scale" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def bsc01():
    return Dmc.bsc(0.1)
