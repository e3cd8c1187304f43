"""Run a function over contiguous slices of a range on every available CPU.

Slices run in forked children, which share the parent's loaded state
without pickling it; only each slice's result comes back, pickled through
a pipe, and results keep the order of their slices.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import BinaryIO, Callable, TypeVar

T = TypeVar("T")


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked(fn: Callable[..., T], *args) -> tuple[int, BinaryIO]:
    """Start fn(*args) in a forked child; return its pid and the pipe its
    pickled (ok, result or exception) comes back through."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # never return into the parent's code from the child
            os.close(read_fd)
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def map_slices(fn: Callable[[int, int], T], count: int, workers: int) -> list[T]:
    """[fn(lo, hi)] over `workers` contiguous slices of range(count), in order.

    Every slice but the first runs in a forked child while this process
    runs the first; a child's exception is raised here. With one worker,
    without fork, or while other threads run (a lock one of them holds
    would stay held in the child), fn(0, count) runs here alone.
    """
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(0, count)]
    bounds = [count * i // workers for i in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_forked(fn, lo, hi))
        results = [fn(bounds[0], bounds[1])]
        for _, pipe in children:
            ok, value = pickle.load(pipe)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # no-op on one that has exited
            os.waitpid(pid, 0)
