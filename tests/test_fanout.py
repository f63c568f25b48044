"""The fork fan-out helpers: results in share order, a feed's messages in
the order sent, errors, and reaping."""

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


class _Sink:
    """A feed's sink: ``take`` appends each message, after ``before(message)``
    when given; ``close`` returns them with the taker's pid."""

    def __init__(self, start=(), before=None):
        self.taken, self.before = list(start), before

    def take(self, message):
        if self.before is not None:
            self.before(message)
        self.taken.append(message)

    def close(self):
        return self.taken, os.getpid()


def test_background_runs_each_call_in_a_worker_in_start_order(monkeypatch):
    # One worker takes every message in the order sent. It makes its sink
    # from the caller's memory, here a generator, which no pipe could carry.
    use_cpus(monkeypatch, 2)
    forks, caller = _counting_forks(monkeypatch), os.getpid()
    start = (k for k in ("a", "b"))
    with time_limit(20), fanout.Feed(lambda: _Sink(start)) as feed:
        for k in range(5):
            feed.send(k)
        taken, taker = feed.close()
    assert taken == ["a", "b", 0, 1, 2, 3, 4] and taker != caller
    assert list(start) == ["a", "b"]   # the caller's copy was never read
    assert len(forks) == 1
    assert_no_child_processes()


def _fail_at(k):
    def before(message):
        if message == k:
            raise KeyError(f"call {k}")
    return before


def test_background_raises_a_failure_at_the_next_start_or_wait(monkeypatch):
    # A failed take stops the worker. A send that finds it gone raises the
    # failure, never the broken pipe; a failure close finds pending is
    # raised by close.
    use_cpus(monkeypatch, 2)
    with time_limit(20), fanout.Feed(lambda: _Sink(before=_fail_at(1))) as feed:
        feed.send(0)
        feed.send(1)   # returns before the worker takes it
        with pytest.raises(KeyError, match="call 1"):
            while True:
                feed.send(2)
    with time_limit(20), fanout.Feed(lambda: _Sink(before=_fail_at(1))) as feed:
        feed.send(1)
        with pytest.raises(KeyError, match="call 1"):
            feed.close()
    assert_no_child_processes()


def test_started_call_waits_for_its_predecessor(monkeypatch, tmp_path):
    # The worker takes one message at a time, so the second finds the
    # first finished.
    use_cpus(monkeypatch, 2)
    first_done, seen = tmp_path / "first", tmp_path / "seen"

    def before(message):
        if message == "first":
            time.sleep(0.5)
            first_done.write_text("done")
        else:
            seen.write_text(str(first_done.exists()))

    with time_limit(20), fanout.Feed(lambda: _Sink(before=before)) as feed:
        feed.send("first")
        feed.send("second")
        feed.close()
    assert seen.read_text() == "True"
    assert_no_child_processes()


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_call_after_a_failure_raises_it_and_never_forks(monkeypatch, tmp_path, failure):
    # The first take fails. The next send, larger than the pipe, can only
    # end when the worker is gone, and raises its failure; the message
    # after the failed one is never taken, and no second worker is forked.
    use_cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)

    def before(message):
        if message == "first":
            time.sleep(0.3)
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError("first call failed")
        (tmp_path / "second").write_text("ran")

    expected = (OSError, "first call failed") if failure == "raises" else \
        (WorkerError, "killed by signal 9")
    with time_limit(20), fanout.Feed(lambda: _Sink(before=before)) as feed:
        feed.send("first")
        with pytest.raises(expected[0], match=expected[1]):
            feed.send("x" * (2 * fanout.PIPE_BYTES))
    assert not (tmp_path / "second").exists()
    assert len(forks) == 1
    assert_no_child_processes()


@pytest.mark.parametrize("failure", ["raises", "time_limit"])
def test_leaving_a_background_block_kills_and_reaps_its_worker(monkeypatch, failure):
    # The worker hangs on its first message. A caller that raises leaves it
    # running; a hang guard cuts close while it waits for the worker.
    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError if failure == "raises" else TimeoutError):
        with time_limit(1), fanout.Feed(lambda: _Sink(before=time.sleep)) as feed:
            feed.send(60)
            if failure == "raises":
                raise RuntimeError("caller failed")
            feed.close()
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
    try:
        sink = _Sink(before=_fail_at("serial call"))
        with fanout.Feed(lambda: sink) as feed:
            for k in range(3):
                feed.send(k)
                assert sink.taken == list(range(k + 1))   # taken before send returned
            assert feed.close() == ([0, 1, 2], os.getpid())
            with pytest.raises(KeyError, match="serial call"):
                feed.send("serial call")
    finally:
        release.set()
        if case == "live_thread":
            thread.join(10)
    assert not thread.is_alive()


def test_background_inside_a_worker_runs_serially(monkeypatch):
    use_cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)

    def outer(k):
        me = os.getpid()
        with fanout.Feed(_Sink) as feed:
            feed.send(0)
            feed.send(1)
            taken, taker = feed.close()
        return taken == [0, 1] and taker == me, forks.count(me)

    with time_limit(20):
        (worker_serial, worker_forks), _ = fanout.fan_out(outer, lambda p: [0, 1])
    assert worker_serial and worker_forks == 0
    assert_no_child_processes()
