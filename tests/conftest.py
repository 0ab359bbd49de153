"""Every test under tests/ turns warnings into errors, so an IntegrationWarning
or an overflow RuntimeWarning fails the test that raised it."""
import pathlib

import pytest

_HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
