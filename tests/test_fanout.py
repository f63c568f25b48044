"""The fork fan-out helpers: results in share or start order, errors, and
reaping."""

import os
import signal
import threading
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


def test_chain_returns_results_in_start_order(monkeypatch):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()
    with time_limit(20), fanout.Chain() as chain:
        for k in range(3):
            assert chain.start(lambda k: (k, os.getpid() != caller), k) is True
        assert chain.join() == [(0, True), (1, True), (2, True)]
        chain.start(lambda k: k, 3)   # a joined chain starts again
        assert chain.join() == [3]
    assert_no_child_processes()


def test_chain_raises_the_first_failure_in_start_order(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(k):
        if k > 0:
            raise KeyError(f"call {k}")
        return k

    with time_limit(20), fanout.Chain() as chain:
        for k in range(3):
            chain.start(fn, k)
        with pytest.raises(KeyError, match="call 1"):
            chain.join()
    assert_no_child_processes()


def test_chained_call_waits_for_its_predecessor(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 2)
    first_done = tmp_path / "first"

    def first(_):
        time.sleep(0.5)
        first_done.write_text("done")

    with time_limit(20), fanout.Chain() as chain:
        chain.start(first, None)
        chain.start(lambda _: first_done.exists(), None)
        assert chain.join() == [None, True]
    assert_no_child_processes()


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_chained_call_after_a_failure_does_nothing(monkeypatch, tmp_path, failure):
    use_cpus(monkeypatch, 2)

    def first(_):
        time.sleep(0.3)
        if failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise OSError("first call failed")

    def second(_):
        (tmp_path / "second").write_text("ran")

    expected = (OSError, "first call failed") if failure == "raises" else \
        (WorkerError, "killed by signal 9")
    with time_limit(20), fanout.Chain() as chain:
        chain.start(first, None)
        chain.start(second, None)
        with pytest.raises(expected[0], match=expected[1]):
            chain.join()
    assert not (tmp_path / "second").exists()
    assert_no_child_processes()


@pytest.mark.parametrize("failure", ["raises", "time_limit"])
def test_leaving_a_chain_kills_and_reaps_its_workers(monkeypatch, failure):
    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError if failure == "raises" else TimeoutError):
        with time_limit(1), fanout.Chain() as chain:
            chain.start(time.sleep, 60)
            chain.start(time.sleep, 60)
            if failure == "raises":
                raise RuntimeError("caller failed")
            chain.join()
    assert time.monotonic() - start < 10
    assert_no_child_processes()


@pytest.mark.parametrize("case", ["one_cpu", "no_fork", "live_thread"])
def test_chain_runs_serially_where_fan_out_does(monkeypatch, case):
    use_cpus(monkeypatch, 1 if case == "one_cpu" else 2)
    if case == "no_fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _forbidden_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    if case == "live_thread":
        thread.start()
    calls = []
    try:
        with fanout.Chain() as chain:
            for k in range(3):
                assert chain.start(lambda k: calls.append(k) or k * 2, k) is False
                assert calls == list(range(k + 1))   # ran before start returned
            assert chain.join() == [0, 2, 4]
    finally:
        release.set()
        if case == "live_thread":
            thread.join(10)
    assert not thread.is_alive()


def test_chain_inside_a_worker_runs_serially(monkeypatch):
    use_cpus(monkeypatch, 2)
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def outer(k):
        me = os.getpid()
        with fanout.Chain() as chain:
            chain.start(lambda i: os.getpid(), 0)
            chain.start(lambda i: os.getpid(), 1)
            pids = chain.join()
        return pids == [me, me], forks.count(me)

    with time_limit(20):
        (worker_serial, worker_forks), _ = fanout.fan_out(outer, lambda p: [0, 1])
    assert worker_serial and worker_forks == 0
    assert_no_child_processes()
