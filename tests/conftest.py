"""Shared fixtures."""

import tracemalloc
from array import array

import pytest

import polyorbit.modular as modular


@pytest.fixture(autouse=True)
def fresh_prime_table(monkeypatch):
    """Start every test from the module's initial smallest-prime-factor
    table and its empty prime list, so that no test reads a table grown
    by another (or under another PRIME_BOUND_MAX)."""
    monkeypatch.setattr(modular, "_spf", array("H", (1, 1)))
    monkeypatch.setattr(modular, "_primes", array("I"))


@pytest.fixture
def small_peak():
    """Fail the test if it allocates 1 MiB or more at any one time: a
    refused oversized input must be refused before any large allocation."""
    tracemalloc.start()
    yield
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2**20, f"peak allocation {peak} bytes"
