"""Helpers shared by the test modules."""

import pytest


def _recorded_draws(params, spec, series, mixing):
    """The arguments of `params.draw_path`'s draws when each draw returns the
    next count of `series`, so that the chain runs along the series."""
    means, counts = [], iter(series)

    def draw(mean):
        means.append(mean)
        return next(counts)

    assert params.draw_path(spec, draw, mixing) == list(series)
    return means


@pytest.fixture
def recorded_draws():
    return _recorded_draws
