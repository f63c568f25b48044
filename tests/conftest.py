import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from scenario_eval import world_gen


@pytest.fixture(scope="session")
def default_world():
    """One full-size world at the default seed, shared across tests."""
    config = world_gen.ExperimentConfig()
    return world_gen.generate(config)


@contextmanager
def time_limit(seconds: int):
    """Fail the enclosed block with TimeoutError after ``seconds`` (a hang
    guard; main thread, Unix only)."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def use_cpus(monkeypatch, n: int):
    """Make the fork fan-out see ``n`` CPUs in this process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_processes():
    """Every forked worker has been reaped: no child, not even a zombie."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"child process left behind: pid {pid}, status {status}")


def final_size_fixed_point(r0: float, v: float, i0: float = 0.001) -> float:
    """Independent oracle for the classic (alpha = 1) relative final size.

    Solves s_inf = s0 * exp(-r0 * (r_inf - r_start)) with r_inf = 1 - s_inf,
    s0 = 1 - v, r_start = v - i0, by bisection, and returns (s0 - s_inf)/s0.
    """
    s0 = 1.0 - v
    r_start = v - i0

    def excess(s_inf):
        return s0 * np.exp(-r0 * (1.0 - s_inf - r_start)) - s_inf

    lo, hi = 1e-14, s0
    assert excess(lo) > 0 and excess(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    s_inf = 0.5 * (lo + hi)
    return (s0 - s_inf) / s0
