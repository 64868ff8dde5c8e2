"""Forked workers that compute the rows of a verify sweep in parallel.

start(row, rows) forks W workers, at most one per usable CPU. Worker w calls
row(i) for i = w, w + W, w + 2W, ... and writes each result down its own pipe
as soon as it has it; receive reads row i from worker i % W. Interleaving the
rows balances the triangle of oracle pairs between the workers, reading them
in order keeps the report in order, and a full pipe stops its worker, so the
parent never holds more than a few rows ahead.

A row is what the row kernel of cli.SweepReport returns for it: two byte
strings of codes, verdict codes and oracle codes. Any exception in a worker,
or a worker that ends before its rows do, is an InternalInvariantError in the
parent. Workers leave only through os._exit, so they never run the parent's
stack, buffers or atexit hooks.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import signal
import struct
import threading
from collections.abc import Callable
from typing import NamedTuple, NoReturn

from .errors import InternalInvariantError

Row = tuple[bytes, bytes]

# One message on a worker's pipe: a tag, then the byte lengths of its two
# fields, which follow in that order. Tag R carries a row's two code strings;
# tag E carries the message of the exception that stopped the worker in its
# first field, and nothing in its second.
_FRAME = struct.Struct("<cII")


class Worker(NamedTuple):
    pid: int
    pipe: io.BufferedReader


# The CPU quota of this process's cgroup, as a container on a cgroup v2 host
# sees it: "<quota> <period>" in microseconds, or "max <period>" for none.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cpus() -> int:
    """The CPUs this process may run on (os.sched_getaffinity, else os.cpu_count()),
    or fewer if its cgroup's CPU quota is lower."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    try:
        with open(_CPU_MAX) as limit:
            quota, period = limit.read().split()
        return min(cpus, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):  # no cgroup v2 quota file, or "max": no quota
        return cpus


def start(row: Callable[[int], Row], rows: int) -> list[Worker]:
    """Fork the workers for rows 0 .. rows - 1; row i goes to worker i % len(workers).

    Returns no workers, so that the caller runs the rows itself, with one
    usable CPU, without os.fork, with other threads alive (a fork copies
    only the calling thread) or if a fork fails.
    """
    cpus = _usable_cpus()
    if cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return []
    count = min(cpus, rows)
    workers: list[Worker] = []
    try:
        for w in range(count):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                inherited = [read_fd, *(other.pipe.fileno() for other in workers)]
                _serve(row, range(w, rows, count), write_fd, inherited)
            os.close(write_fd)
            workers.append(Worker(pid, open(read_fd, "rb")))
    except OSError:  # out of processes or descriptors: the caller runs the rows
        stop(workers)
        return []
    except BaseException:
        stop(workers)
        raise
    return workers


def _serve(row: Callable[[int], Row], rows: range, fd: int, inherited: list[int]) -> NoReturn:
    """A worker's whole life: send its rows down fd, or the exception that stops it, then leave."""
    status = 1
    try:
        for other in inherited:
            os.close(other)
        for i in rows:
            _send(fd, b"R", *row(i))
        status = 0
    except BaseException as exc:
        message = str(exc) if isinstance(exc, InternalInvariantError) else f"{type(exc).__name__}: {exc}"
        with contextlib.suppress(BaseException):
            _send(fd, b"E", message.encode(), b"")
    finally:
        os._exit(status)


def _send(fd: int, tag: bytes, first: bytes, second: bytes) -> None:
    view = memoryview(_FRAME.pack(tag, len(first), len(second)) + first + second)
    while view:
        view = view[os.write(fd, view) :]


def receive(worker: Worker) -> Row:
    """The worker's next row, as row(i) returned it in the worker."""
    head = worker.pipe.read(_FRAME.size)
    if len(head) == _FRAME.size:
        tag, first_size, second_size = _FRAME.unpack(head)
        body = worker.pipe.read(first_size + second_size)
        if len(body) == first_size + second_size:
            if tag == b"E":
                raise InternalInvariantError(body[:first_size].decode())
            return body[:first_size], body[first_size:]
    raise InternalInvariantError(f"sweep worker {worker.pid} ended before sending all its rows")


def stop(workers: list[Worker]) -> None:
    """Kill and reap the workers: after the last row, or when the sweep stops early."""
    for worker in workers:
        with contextlib.suppress(ProcessLookupError):
            os.kill(worker.pid, signal.SIGKILL)
        worker.pipe.close()
    for worker in workers:
        with contextlib.suppress(ChildProcessError):  # reaped already, as under SIGCHLD = SIG_IGN
            os.waitpid(worker.pid, 0)
