"""The fork fan-out helper: results in share order, errors, and reaping."""

import os
import signal
import time

import pytest

from scenario_eval import fanout
from scenario_eval.sir_core import SirParams, final_size
from scenario_eval.errors import WorkerError

from conftest import assert_no_child_processes, time_limit, use_cpus


def _forbidden_fork():
    raise AssertionError("forked on a serial path")


def test_results_come_back_in_share_order(monkeypatch):
    use_cpus(monkeypatch, 3)
    caller = os.getpid()
    out = fanout.fan_out(lambda k: (k, os.getpid() == caller), lambda p: list(range(p)))
    assert out == [(0, False), (1, False), (2, True)]
    assert_no_child_processes()


def test_worker_exception_is_raised_in_the_caller(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(k):
        if k == 0:
            raise KeyError(f"share {k}")
        return k

    with pytest.raises(KeyError, match="share 0"):
        fanout.fan_out(fn, lambda p: [0, 1])
    assert_no_child_processes()


def test_killed_worker_raises_a_package_error(monkeypatch):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def fn(k):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return k

    with time_limit(20), pytest.raises(WorkerError, match="killed by signal 9"):
        fanout.fan_out(fn, lambda p: [0, 1])
    assert_no_child_processes()


def test_callers_timeout_kills_and_reaps_the_workers(monkeypatch):
    # Every share hangs; the caller's share is cut by the hang guard, and
    # the workers, which hold no alarm of their own, are killed and reaped.
    use_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        with time_limit(1):
            fanout.fan_out(lambda k: time.sleep(60), lambda p: list(range(p)))
    assert time.monotonic() - start < 10
    assert_no_child_processes()


def test_single_share_does_not_fork(monkeypatch):
    # The serial fallbacks for one CPU, no os.fork and a threaded caller
    # are checked against the golden digests in test_golden.py.
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _forbidden_fork)
    assert fanout.fan_out(lambda k: k * 2, lambda p: [7]) == [14]
    assert final_size(SirParams(r0=2.5, alpha=1.0, v=0.3)) > 0


def test_fan_out_inside_a_worker_runs_serially(monkeypatch):
    # A worker's siblings already hold the other CPUs: a fan_out it calls
    # computes every share itself and forks nothing. Forks are counted per
    # process, so each share reports the forks its own process made.
    use_cpus(monkeypatch, 2)
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    caller = os.getpid()

    def outer(k):
        me = os.getpid()
        inner = fanout.fan_out(lambda i: os.getpid(), lambda p: list(range(p)))
        return me != caller, inner, forks.count(me)

    with time_limit(20):
        (in_worker, worker_inner, worker_forks), (in_caller, caller_inner, caller_forks) = \
            fanout.fan_out(outer, lambda p: [0, 1])
    assert (in_worker, in_caller) == (True, False)
    assert len(worker_inner) == 1 and worker_forks == 0
    assert len(caller_inner) == 2 and caller_forks == 2   # outer and inner fan-out
    assert_no_child_processes()
