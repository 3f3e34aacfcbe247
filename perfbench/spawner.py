"""Start benchmark children from a small process and report their resource use.

    python perfbench/spawner.py

Reads one JSON request per line on stdin,
``{"argv": [...], "out": path, "err": path, "timeout": seconds}``, runs the
child with stdout and stderr sent to those files, and answers with one JSON
line ``{"code": int | null, "wall": s, "cpu": s, "maxrss_kb": int, "probe": [s, s]}``.
``code`` is null when the child was killed at its timeout. Resource use is
the child's own, read with ``os.wait4``. ``probe`` is the geometric mean of
``speed_probe()`` taken just before and just after the child. An empty
request ``{}`` is answered with ``{"probe": [s, s]}`` alone.

Children start from this process rather than from the benchmark because
Linux carries the forking process's resident set into the child's
``ru_maxrss``; the benchmark's heap (parsed reports, generated datasets)
would otherwise set a floor under every child's peak RSS. This module
imports nothing heavy for the same reason. It exits at end of input.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

PROBE_LOOP = 60_000
PROBE_REPEATS = 3


def _spin() -> None:
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i


def speed_probe() -> tuple[float, float]:
    """Wall and CPU time of a fixed pure-Python loop, run alone and then on every core.

    The loop runs once in this process alone, then once more here while one
    forked copy per further usable core runs it too. The invocations mix
    serial work with work for ``--workers nproc`` threads, so the wall time is
    the geometric mean of the two phases' (the second ends when the last copy
    is done). The CPU time is this process's own over both phases. Each is
    the median of a few repeats. The loop touches no file and no package
    code, so only the machine moves it. On a shared virtual machine both the
    speed of one core and the share of the other cores that the host grants
    drift by a third or more over minutes. The wall time follows both; the
    CPU time follows only the first.
    """
    width = len(os.sched_getaffinity(0))
    walls, cpus = [], []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        cpu = time.process_time()
        _spin()
        alone = time.perf_counter() - start
        start = time.perf_counter()
        pids = []
        for _ in range(width - 1):
            pid = os.fork()
            if pid == 0:
                _spin()
                os._exit(0)
            pids.append(pid)
        _spin()
        cpus.append(time.process_time() - cpu)
        for pid in pids:
            os.waitpid(pid, 0)
        walls.append((alone * (time.perf_counter() - start)) ** 0.5)
    mid = PROBE_REPEATS // 2
    return sorted(walls)[mid], sorted(cpus)[mid]


def run(argv: list[str], out: str, err: str, timeout: float) -> dict:
    before = speed_probe()
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out_fh, stderr=err_fh)
    pidfd = os.pidfd_open(proc.pid)
    try:
        killed = not select.select([pidfd], [], [], timeout)[0]
        if killed:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": None if killed else proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "probe": [(b * a) ** 0.5 for b, a in zip(before, speed_probe())],
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(**request) if request else {"probe": speed_probe()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
