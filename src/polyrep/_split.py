"""One large run or judgments file read in two processes, for ``polyrep.ireval``.

:func:`split_blocks` forks only where ``os.fork`` exists, two CPUs are usable
and the process runs one thread, as Linux lists them in ``/proc/self/task``:
a fork beside other threads may deadlock the child, and CPython 3.12+ warns
of it.  The child runs the reader's loop over the lines from the first query
boundary past the middle of the file and sends its blocks back through a
pipe with ``marshal``, one query at a time; it never writes to stdout or
stderr, and it leaves by ``os._exit``, so it flushes nothing its parent had
buffered.  The parent runs the loop over the lines before the boundary, then
reads the child's blocks, and always reaps the child, killing it first if
the parent is unwinding.  The module stays out of ``polyrep.ireval``, so a
command whose files are all smaller never compiles it.
"""

from __future__ import annotations

import io
import marshal
import os
from collections.abc import Callable, Iterable


class _Span(io.RawIOBase):
    """Bytes ``start`` up to ``stop`` of the file open as ``fd``, read with ``os.pread``."""

    def __init__(self, fd: int, start: int, stop: int) -> None:
        self._fd, self._at, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: memoryview) -> int:
        data = os.pread(self._fd, min(len(buffer), self._stop - self._at), self._at)
        buffer[:len(data)] = data
        self._at += len(data)
        return len(data)


def _lines(fd: int, start: int, stop: int, encoding: str) -> io.TextIOWrapper:
    """The lines of a :class:`_Span`, decoded and split as :func:`~.textprep.reading` does."""
    return io.TextIOWrapper(io.BufferedReader(_Span(fd, start, stop)), encoding=encoding)


def _boundary(fd: int, size: int) -> int | None:
    """The first line start past the middle whose first field is not the last nonblank's.

    None if there is none, or if that field also starts a line in the file's first 64 KiB:
    a query's lines then resume past the middle, as in a run ordered by rank.
    """
    lines = io.BufferedReader(_Span(fd, size // 2, size))
    at, previous = size // 2 + len(lines.readline()), None  # the line the middle falls in
    for line in lines:
        first = line.split(None, 1)[:1]
        if first:
            if previous not in (None, first):
                head = os.pread(fd, min(at, 1 << 16), 0).splitlines()
                return None if first in (start.split(None, 1)[:1] for start in head) else at
            previous = first
        at += len(line)
    return None


def split_blocks(path: str, blocks_of: Callable[[Iterable[str]], dict]) -> dict | None:
    """``blocks_of`` the file at ``path`` in two parts, read by this process and a fork.

    None if no fork is made (see the module), the file has no query boundary past its
    middle, the child failed, or a query id is in both parts.  An error in this process's
    part is raised, after the child is reaped.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1):
        return None
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        boundary = _boundary(fd, size)
        if boundary is None:
            return None
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: never returns, flushes nothing the parent buffered
            try:
                os.close(read_end)
                with open(write_end, "wb") as pipe:
                    for item in blocks_of(_lines(fd, boundary, size, "utf-8")).items():
                        marshal.dump(item, pipe)
                os._exit(0)
            finally:
                os._exit(1)
        done = False
        try:
            os.close(write_end)
            with open(read_end, "rb") as pipe:
                blocks = blocks_of(_lines(fd, 0, boundary, "utf-8-sig"))
                while True:
                    try:
                        qid, block = marshal.load(pipe)
                    except EOFError:
                        break
                    if qid in blocks:  # its lines resume across the boundary
                        return None
                    blocks[qid] = block
            done = True
        finally:
            if not done:
                os.kill(pid, 9)  # SIGKILL
            _, status = os.waitpid(pid, 0)
        return blocks if status == 0 else None
    finally:
        os.close(fd)
