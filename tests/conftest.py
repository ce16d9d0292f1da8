"""Fixtures shared by the test modules."""

import pytest

from wzdgraph import oracle


@pytest.fixture
def no_sweep(monkeypatch):
    """Make every Jacobi sweep fail the test: both schedule builders raise."""
    def unreachable(k):
        raise AssertionError(f"a Jacobi sweep of order {k} ran")

    monkeypatch.setattr(oracle, "_cached_jacobi_schedule", unreachable)
    monkeypatch.setattr(oracle, "_jacobi_schedule", unreachable)
