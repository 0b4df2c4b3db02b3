"""Start programs on request and report each one's own resource usage.

    python3 -I -S perfbench/spawn.py

``run.py`` starts this helper once and sends it one request per child on
stdin: a decimal length, a newline and a ``marshal``-encoded tuple
``(argv, cwd, env, stdout_path, stderr_path)``.  The helper starts the
child, waits for it and answers in the same framing with ``(exit_code,
wall_s, cpu_s, maxrss_kib)``; ``exit_code`` is 127 when the program could
not be started.  It exits when stdin closes.

On Linux, ``exec`` carries the peak resident size of the process that
starts a child into the child's ``ru_maxrss``.  Started by the benchmark
itself, every child would report at least the benchmark's own peak.  This
helper imports nothing beyond built-in modules, so its peak stays below
that of any Python child, and each child's ``ru_maxrss`` is its own.
"""

import marshal
import os
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _run(argv, cwd, env, stdout, stderr):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, _WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, _WRITE, 0o644),
    ]
    os.chdir(cwd)
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    except OSError:
        return 127, 0.0, 0.0, 0
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


def main():
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    while True:
        size = requests.readline()
        if not size:
            return
        reply = marshal.dumps(_run(*marshal.loads(requests.read(int(size)))))
        replies.write(b"%d\n" % len(reply) + reply)
        replies.flush()


if __name__ == "__main__":
    main()
