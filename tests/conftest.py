"""Fixtures shared by the whole suite."""

import pytest

from kreinosc import cli


@pytest.fixture(autouse=True)
def fresh_dark_operands():
    """Each test starts with no dark-scan operand closed, whatever ran before it.

    ``kreinosc dark`` keeps the lattices of its last few operands for the
    process (``cli.SECTOR_CACHE_SIZE``); a test that spies on closure
    through ``cli.main`` must see its operands closed afresh.
    """
    cli._closed_operand.cache_clear()
