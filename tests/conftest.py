import math

import pytest


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
