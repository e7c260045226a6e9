"""Shared fixtures."""

import pytest

from survsteiner import cycles


@pytest.fixture
def unreduced(monkeypatch):
    """The solvers without their series reduction: ``reduce_series``, as
    the solvers call it, swapped for the identity."""

    def identity(g, terminals, weights):
        return g, list(weights), tuple((e,) for e in g.edge_ids()), tuple(range(g.n))

    monkeypatch.setattr(cycles, "reduce_series", identity)
