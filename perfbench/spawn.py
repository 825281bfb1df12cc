"""Runs the benchmark's CLI children one at a time and reports their cost.

The benchmark process grows to tens of megabytes while it parses and
checks outputs.  Linux folds the high-water RSS of the address space a
child was spawned from into that child's ``ru_maxrss``, so children
spawned by the benchmark itself would all report at least its peak.
This helper stays small (stdlib only, output streamed to files), so the
``ru_maxrss`` that ``os.wait4`` returns for each child is the child's own.

Protocol, one JSON object per line: the request on stdin is
``{"argv": [...], "timeout": seconds, "out": path, "err": path}``; the
reply on stdout is ``{"code": int|null, "timed_out": bool,
"wall_ns": int, "maxrss_kb": int}``.  ``code`` is the exit status, or
minus the signal number.  A child still running at its deadline is
killed and reaped.  The helper exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time

CHUNK = 1 << 16


def run_child(argv, timeout, out_path, err_path):
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    sinks = {out_r: open(out_path, "wb"), err_r: open(err_path, "wb")}
    start = time.perf_counter_ns()
    deadline = time.monotonic() + timeout
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    pidfd = os.pidfd_open(pid)
    timed_out = False
    try:
        open_fds = list(sinks)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            # drain both pipes to end of file, then wait for the exit itself
            ready, _, _ = select.select(open_fds or [pidfd], [], [], left)
            if not open_fds:
                if ready:
                    break
                continue
            for fd in ready:
                data = os.read(fd, CHUNK)
                if data:
                    sinks[fd].write(data)
                else:
                    open_fds.remove(fd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall_ns = time.perf_counter_ns() - start
    finally:
        os.close(pidfd)
        for fd, sink in sinks.items():
            sink.close()
            os.close(fd)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "wall_ns": wall_ns,
        "maxrss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_child(req["argv"], req["timeout"], req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
