import functools
import math
from unittest import mock

import pytest

from sil import grid_domain, make_box


@pytest.fixture
def interval():
    return make_box(0.0, 1.0, 1e-3)


@pytest.fixture
def square():
    return make_box((0.0, 0.0), (1.0, 1.0), 0.02)


@pytest.fixture(scope="session")  # it holds no state, so hypothesis tests can take it
def blocks_of():
    """``with blocks_of(size):`` runs every blocked loop on ``size`` rows: the row blocks,
    ``_block_sums``' splits and the Clarkson battery's stacks."""
    return functools.partial(mock.patch.object, grid_domain, "_BLOCK")


@pytest.fixture
def nan_on_call(monkeypatch):
    """``patch(module, name, k)`` makes ``module.name`` return NaN on its
    ``k``-th call (0-based) and returns the list of calls, one entry each."""
    def patch(module, name, k):
        original = getattr(module, name)
        calls = []

        def metric(*args, **kwargs):
            value = original(*args, **kwargs)
            calls.append(value)
            return math.nan if len(calls) - 1 == k else value

        monkeypatch.setattr(module, name, metric)
        return calls

    return patch


@pytest.fixture
def averaging_operator():
    """Factory of (T u)(y) = (u(y) + u(flip y)) / 2 on a mirror-symmetric domain.

    This is not a composition operator; it shows a defect the
    composition-only checks must catch.
    """
    from sil import Field

    def build(domain, axis=0):
        lo, hi = domain.index_bounds
        flipped = domain.cells.copy()
        flipped[:, axis] = lo[axis] + hi[axis] - domain.cells[:, axis]
        rows = domain.rows_of_indices(flipped)
        if (rows < 0).any():
            raise ValueError("domain is not symmetric about the requested axis")

        def op(u):
            if u.domain != domain:
                raise ValueError("field lives on a different domain")
            return Field(domain, 0.5 * (u.values + u.values[rows]))

        return op

    return build
