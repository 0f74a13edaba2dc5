"""Fixtures shared by the test modules."""

import pytest

from soc_auction import engine


@pytest.fixture(params=["c", "python"])
def backend(request, monkeypatch):
    """run_sequence folds in the C kernel, or in the Python heap fold `_fold`."""
    if request.param == "python":
        monkeypatch.setattr(engine, "_KERNEL", False)
    elif not engine._kernel():
        pytest.skip("the C fold kernel cannot be built here")
    return request.param
