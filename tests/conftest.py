"""Marks the end-to-end acceptance checks slow, without editing their file.

`pytest -m "not slow"` runs everything else as a quick loop; a plain
`pytest` still runs every test.
"""

import pytest

SLOW_FILES = ("test_acceptance.py",)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: end-to-end acceptance checks")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name in SLOW_FILES:
            item.add_marker(pytest.mark.slow)
