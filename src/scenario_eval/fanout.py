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

A ``Background`` runs one call at a time in a forked worker while the
caller goes on: ``start(fn, arg)`` first waits for the call started before
it, raising that call's failure, and then forks a worker for ``fn(arg)``
and returns. So no call acts before the one started before it has
succeeded, and none acts after it failed; calls in order cannot overlap,
so a call forked any earlier would only wait. ``wait`` waits for the pending
call and raises its failure. Where ``fan_out`` would run serially,
``start`` calls ``fn(arg)`` itself.
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


class Background:
    """At most one call at a time in a background worker, in start order.

    Use it as a context manager: leaving the block kills and reaps the
    pending worker, so an exception in the caller leaves no child process
    behind."""

    def __init__(self):
        self._pending = []   # (pid, result pipe) of the call not yet waited for

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pending, self._pending = self._pending, []
        _end(pending, kill=True)

    def start(self, fn, arg) -> None:
        """Wait for the call started before, then call ``fn(arg)``: in a
        forked worker, or here where ``fan_out`` would run serially."""
        self.wait()
        if _processes() == 1:
            fn(arg)
        else:
            self._pending = [_fork(fn, arg)]

    def wait(self) -> None:
        """Wait for the pending call; raise its failure."""
        pending, self._pending = self._pending, []
        _collect(pending)


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
