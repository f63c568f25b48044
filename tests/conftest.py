import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from scenario_eval import world_gen

# Tier-1 runs every property test on the same examples each time: the search
# is derandomized and keeps no example database, so a run cannot fail on an
# example that only an earlier run happened to draw. The ``search`` profile
# (pytest --hypothesis-profile=search) draws fresh random examples, ten times
# each test's tier-1 budget, and prints a blob that replays a failure.
settings.register_profile("tier1", derandomize=True, database=None)
TIER1_EXAMPLES = settings.get_profile("tier1").max_examples
settings.register_profile("search", database=None, print_blob=True,
                          max_examples=10 * TIER1_EXAMPLES)
settings.load_profile("tier1")


def examples(n: int) -> int:
    """A property test's example budget: ``n`` under the tier-1 profile,
    scaled as the loaded profile scales tier-1's default budget. A test's
    own ``max_examples`` overrides its profile's, so each test takes its
    budget from here."""
    return n * settings.default.max_examples // TIER1_EXAMPLES


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
