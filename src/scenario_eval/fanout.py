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

A ``Feed`` hands messages, in the order sent, to one sink in a forked
worker that runs beside the caller until the feed is closed. The worker
makes the sink itself, so the sink may start from large data and
generators in the caller's memory, which the caller then drops; only the
messages travel, pickled into a pipe. Where ``fan_out`` would run
serially, the caller makes the sink and calls it itself.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading

from .errors import WorkerError

# A feed's pipe holds this much, so its caller may run this far ahead of
# the worker before ``send`` blocks: on many_models strategy 1 hands over
# its 40 models in a burst while the writer is busy with the world's tables.
PIPE_BYTES = 1 << 20
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


class Feed:
    """Messages for one sink, taken in the order sent by a forked worker.

    The worker calls ``make()`` for the sink, ``sink.take(message)`` for
    each message sent and, at ``close``, ``sink.close()``, whose result it
    returns. It stops at its first failure, or if the pipe ends without
    ``close``; the next ``send``, or ``close``, raises that failure
    (``WorkerError`` if the worker died), never the broken pipe. Use it as
    a context manager: leaving the block kills and reaps a worker still
    running, so an exception in the caller leaves no child process behind."""

    def __init__(self, make):
        self._worker = []   # (pid, result pipe) of the worker not yet waited for
        if _processes() == 1:
            self._sink = make()
            return
        self._sink = None
        read_fd, write_fd = os.pipe()
        try:
            self._worker = [_fork(_serve, (make, read_fd, write_fd))]
        except BaseException:
            os.close(write_fd)
            raise
        finally:
            os.close(read_fd)
        import fcntl   # here, not at the top: it is Unix only, like os.fork
        with contextlib.suppress(AttributeError, OSError):   # Linux only; else 64 KiB
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        self._pipe = open(write_fd, "wb")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        worker, self._worker = self._worker, []
        _end(worker, kill=True)
        if self._sink is None:
            with contextlib.suppress(OSError):   # what a killed worker left unread
                self._pipe.close()

    def send(self, message) -> None:
        """Hand ``message`` to the sink's ``take``."""
        if self._sink is not None:
            self._sink.take(message)
        else:
            self._put(message)

    def close(self):
        """The sink's ``close()``, called once every message is taken."""
        if self._sink is not None:
            return self._sink.close()
        self._put(_Close)
        return self._result()

    def _put(self, message) -> None:
        try:
            pickle.dump(message, self._pipe, pickle.HIGHEST_PROTOCOL)
            self._pipe.flush()
        except BrokenPipeError:
            self._result()   # the worker stopped reading: this raises why
            raise

    def _result(self):
        """Close the pipe and wait for the worker: its result, or its
        failure raised."""
        worker, self._worker = self._worker, []
        with contextlib.suppress(BrokenPipeError):
            self._pipe.close()
        return _collect(worker)[0]


class _Close:
    """The message that ends a feed's pipe."""


def _serve(job):
    """A ``Feed``'s worker: make the sink, hand it each message up to
    ``_Close`` and return its ``close()``."""
    make, read_fd, write_fd = job
    os.close(write_fd)
    sink = make()
    with open(read_fd, "rb") as pipe:
        while (message := pickle.load(pipe)) is not _Close:
            sink.take(message)
    return sink.close()


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
