import os
import time

import pytest

from ynkit.parallel import map_slices


def test_map_slices_keeps_order_and_raises_worker_errors():
    assert map_slices(lambda lo, hi: list(range(lo, hi)), 10, 3) == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]

    def failing(lo, hi):
        if lo:
            raise ValueError(f"slice from {lo}")
        return []

    with pytest.raises(ValueError, match="slice from 5"):
        map_slices(failing, 10, 2)


def test_map_slices_leaves_no_child_behind():
    def first_slice_fails(lo, hi):
        if lo == 0:
            raise KeyError("first slice")
        time.sleep(60)  # a child still running when the first slice fails

    with pytest.raises(KeyError):
        map_slices(first_slice_fails, 4, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
