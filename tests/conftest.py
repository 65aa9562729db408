"""Shared fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def small_peak():
    """Fail the test if it allocates 1 MiB or more at any one time: a
    refused oversized input must be refused before any large allocation."""
    tracemalloc.start()
    yield
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2**20, f"peak allocation {peak} bytes"
