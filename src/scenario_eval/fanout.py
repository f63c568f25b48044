"""Fan independent work out over this machine's CPUs with ``os.fork``.

``fan_out(fn, split)`` returns ``[fn(share) for share in split(p)]`` for the
``p`` processes it may use. It forks a worker for every share but the last,
which the calling process computes itself. A forked worker starts with a
copy of the caller's memory, so ``fn`` may be a closure over large arrays and
only its result travels: the worker pickles it, or the exception ``fn``
raised, into a pipe and ends with ``os._exit``. The caller always reaps every
worker, also when its own share raises; it kills them first in that case.
Workers are forked, not spawned: a spawned worker would start a fresh
interpreter, import the package and receive its inputs pickled, which costs
about as much as the shares it would run.

The shares run serially in the caller, with no fork, when ``p`` is 1 (one
CPU in this process's affinity mask, no ``os.fork`` or
``os.sched_getaffinity`` on this platform, more than one live thread,
since a fork copies only the calling thread, or a caller that is itself a
forked worker, whose siblings already hold the other CPUs) or
when ``split`` returns fewer than two shares. Callers split their work so
that results do not depend on how many shares it went into.

A ``Chain`` runs calls one after another in forked background workers while
the caller goes on: ``start(fn, arg)`` forks a worker for ``fn(arg)`` and
returns. The worker first waits on a pipe until the worker started before it
reports that its call returned; if that worker failed or was killed, it
returns an error without calling ``fn``. So no call acts before the one
started before it has succeeded, and none acts after it failed. ``join``
returns the results in start order, or raises the exception of the first
call that failed, after reaping every worker. Where ``fan_out`` would run
serially, ``start`` joins the calls before it and then calls ``fn(arg)``
itself.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

from .errors import WorkerError

_in_worker = False   # set only in a forked worker, which never returns to its caller


def _processes() -> int:
    """How many processes may run shares now; 1 means serially."""
    if _in_worker or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def fan_out(fn, split) -> list:
    """``[fn(share) for share in split(p)]``, the shares computed
    in parallel when there are at least two. ``p`` is the number of
    processes that may run them (1: serial), and ``split(p)`` returns at
    most ``p`` shares, each non-empty unless it is the only one."""
    shares = split(_processes())
    if len(shares) < 2:
        return [fn(share) for share in shares]
    workers = []
    try:
        for share in shares[:-1]:
            workers.append(_fork(fn, share))
        last = fn(shares[-1])
    except BaseException:
        _end(workers, kill=True)
        raise
    return _collect(workers) + [last]


_DONE = b"\x01"   # what a chained worker writes to its successor once its call returned


class Chain:
    """Calls run one after another in background workers, in start order.

    Use it as a context manager: leaving the block kills and reaps the
    workers not yet joined, so an exception in the caller leaves no child
    process behind."""

    def __init__(self):
        self._results = []   # results of the calls already run here or joined
        self._workers = []   # (pid, result pipe) of the calls forked since
        self._after = None   # read end of the last forked worker's _DONE pipe

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        workers, self._workers = self._workers, []
        _end(workers, kill=True)
        self._close_after()

    def start(self, fn, arg) -> bool:
        """Call ``fn(arg)`` once every call started before has returned:
        in a forked worker (True), or here after joining them (False)."""
        if _processes() == 1:
            self._results += self._join_workers()
            self._results.append(fn(arg))
            return False
        after = self._after
        done_read, done_write = os.pipe()

        def call(arg):
            if after is not None and os.read(after, 1) != _DONE:
                raise WorkerError("not run: the call started before it failed")
            result = fn(arg)
            os.write(done_write, _DONE)
            return result

        try:
            self._workers.append(_fork(call, arg))
        except BaseException:
            os.close(done_read)
            raise
        finally:
            os.close(done_write)
        self._close_after()
        self._after = done_read
        return True

    def join(self) -> list:
        """Wait for every call started; their results in start order."""
        results, self._results = self._results + self._join_workers(), []
        return results

    def _join_workers(self) -> list:
        workers, self._workers = self._workers, []
        try:
            return _collect(workers)
        finally:
            self._close_after()

    def _close_after(self):
        if self._after is not None:
            os.close(self._after)
            self._after = None


def _collect(workers) -> list:
    """The results of ``workers`` in order, each read from its pipe, or the
    exception of the first that failed; every worker is reaped, and killed
    first when the reading is cut short."""
    payloads = []
    try:
        for _, fd in workers:
            payloads.append(_read(fd))
    finally:
        statuses = _end(workers, kill=len(payloads) < len(workers))
    results = []
    for (pid, _), status, payload in zip(workers, statuses, payloads):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise WorkerError(f"worker process {pid} ended without its result ({how})")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results.append(value)
    return results


def _end(workers, kill: bool) -> list:
    """Close the result pipes of ``workers``, kill them when ``kill``, and
    reap them all; their wait statuses."""
    for pid, fd in workers:
        os.close(fd)
        if kill:
            os.kill(pid, signal.SIGKILL)
    return [os.waitpid(pid, 0)[1] for pid, _ in workers]


def _fork(fn, share) -> tuple[int, int]:
    """Start a worker computing ``fn(share)``; its pid and the pipe to read."""
    global _in_worker
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _in_worker = True
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(share))
            except BaseException as exc:    # the caller re-raises it
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _read(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)
