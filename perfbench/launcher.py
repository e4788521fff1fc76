"""Starts the cli workload's `k0` processes from a process that holds no
benchmark inputs.

A child's ru_maxrss counts the peak RSS of the process that spawned it: on
exec, the kernel records the peak of the memory the child had until then,
which after vfork or posix_spawn is the parent's.  Spawned by the worker,
which holds the inputs, every k0 call would read at least the worker's
peak.  worker.py starts this launcher before it loads its inputs, in the
directory the calls run in, and sends one JSON request per line:

    {"argv": [...], "env": {NAME: VALUE}, "stdout": FILE, "stderr": FILE}

Each is answered with one line:
"<ns> <exit code> <ru_maxrss in KiB> <reference ns>", where the reference
is the time of the calib.START_ARGV process, started just before the call.
Only os, sys, time, json and calib (math) are imported here, so that this
process stays smaller than any k0 process.
"""

import json
import os
import sys
import time

import calib

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
QUIET = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]


def reference_ns(env: dict) -> int:
    argv = [sys.executable, *calib.START_ARGV]
    t0 = time.perf_counter_ns()
    _, status = os.waitpid(os.posix_spawn(argv[0], argv, env, file_actions=QUIET), 0)
    dt = time.perf_counter_ns() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{argv} exited with status {status}")
    return dt


def main() -> int:
    # The host's speed varies per CPU, so the reference and the calls (which
    # inherit this) share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    base = dict(os.environ)
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], WRITE, 0o644),
        ]
        ref = reference_ns(base)
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(req["argv"][0], req["argv"], dict(base, **req["env"]), file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        dt = time.perf_counter_ns() - t0
        print(dt, os.waitstatus_to_exitcode(status), usage.ru_maxrss, ref, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
