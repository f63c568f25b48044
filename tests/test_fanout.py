"""The fork fan-out helpers: results in share order, calls in start order,
errors, and reaping."""

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


def _counting_forks(monkeypatch):
    """The pids of the processes that called ``os.fork`` from now on."""
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


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
    forks = _counting_forks(monkeypatch)
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


def _logger(path):
    """A call that appends ``(k, ran in a worker)`` to ``path`` as a line."""
    caller = os.getpid()

    def log(k):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{k} {os.getpid() != caller}\n")

    return log


def test_background_runs_each_call_in_a_worker_in_start_order(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 2)
    forks, log = _counting_forks(monkeypatch), tmp_path / "log"
    with time_limit(20), fanout.Background() as background:
        for k in range(3):
            background.start(_logger(log), k)
        background.wait()
        assert log.read_text() == "0 True\n1 True\n2 True\n"
        background.start(_logger(log), 3)   # a waited-for Background starts again
        background.wait()
        background.wait()                   # nothing pending: returns at once
    assert log.read_text().splitlines()[-1] == "3 True"
    assert len(forks) == 4
    assert_no_child_processes()


def test_background_raises_a_failure_at_the_next_start_or_wait(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(k):
        if k > 0:
            raise KeyError(f"call {k}")

    with time_limit(20), fanout.Background() as background:
        background.start(fn, 0)
        background.start(fn, 1)
        with pytest.raises(KeyError, match="call 1"):
            background.start(fn, 2)
        background.wait()   # the raised failure is no longer pending
        background.start(fn, 3)
        with pytest.raises(KeyError, match="call 3"):
            background.wait()
    assert_no_child_processes()


def test_started_call_waits_for_its_predecessor(monkeypatch, tmp_path):
    use_cpus(monkeypatch, 2)
    first_done, seen = tmp_path / "first", tmp_path / "seen"

    def first(_):
        time.sleep(0.5)
        first_done.write_text("done")

    with time_limit(20), fanout.Background() as background:
        background.start(first, None)
        background.start(lambda _: seen.write_text(str(first_done.exists())), None)
        background.wait()
    assert seen.read_text() == "True"
    assert_no_child_processes()


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_call_after_a_failure_raises_it_and_never_forks(monkeypatch, tmp_path, failure):
    use_cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)

    def first(_):
        time.sleep(0.3)
        if failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise OSError("first call failed")

    def second(_):
        (tmp_path / "second").write_text("ran")

    expected = (OSError, "first call failed") if failure == "raises" else \
        (WorkerError, "killed by signal 9")
    with time_limit(20), fanout.Background() as background:
        background.start(first, None)
        with pytest.raises(expected[0], match=expected[1]):
            background.start(second, None)
    assert not (tmp_path / "second").exists()
    assert len(forks) == 1
    assert_no_child_processes()


@pytest.mark.parametrize("failure", ["raises", "time_limit"])
def test_leaving_a_background_block_kills_and_reaps_its_worker(monkeypatch, failure):
    # A caller that raises leaves one call pending; a hang guard cuts the
    # second start while it waits for the first call.
    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError if failure == "raises" else TimeoutError):
        with time_limit(1), fanout.Background() as background:
            background.start(time.sleep, 60)
            if failure == "raises":
                raise RuntimeError("caller failed")
            background.start(time.sleep, 60)
    assert time.monotonic() - start < 10
    assert_no_child_processes()


@pytest.mark.parametrize("case", ["one_cpu", "no_fork", "live_thread"])
def test_background_runs_serially_where_fan_out_does(monkeypatch, case):
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
        with fanout.Background() as background:
            for k in range(3):
                background.start(calls.append, k)
                assert calls == list(range(k + 1))   # ran before start returned
            background.wait()
            with pytest.raises(KeyError, match="serial call"):
                background.start(lambda k: {}[k], "serial call")
    finally:
        release.set()
        if case == "live_thread":
            thread.join(10)
    assert not thread.is_alive()


def test_background_inside_a_worker_runs_serially(monkeypatch):
    use_cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)

    def outer(k):
        me, pids = os.getpid(), []
        with fanout.Background() as background:
            background.start(lambda i: pids.append(os.getpid()), 0)
            background.start(lambda i: pids.append(os.getpid()), 1)
            background.wait()
        return pids == [me, me], forks.count(me)

    with time_limit(20):
        (worker_serial, worker_forks), _ = fanout.fan_out(outer, lambda p: [0, 1])
    assert worker_serial and worker_forks == 0
    assert_no_child_processes()
