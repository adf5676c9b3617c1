"""Fixtures shared by the test modules."""
import gc

import pytest


@pytest.fixture
def count_builds(monkeypatch):
    """count_builds(memo) wraps the builder of the grid memo `memo` (its
    `__wrapped__`, which a miss calls) and returns the list to which each
    build from then on appends its argument values after the grid."""
    def install(memo):
        builds, build = [], memo.__wrapped__

        def counting(grid, *args):
            builds.append(args)
            return build(grid, *args)

        monkeypatch.setattr(memo, "__wrapped__", counting)
        return builds

    return install


@pytest.fixture
def refcounting_only():
    """The cycle collector off for the test, so that only reference
    counting frees what the test drops."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
