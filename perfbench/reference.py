"""The speed of the machine right now, from a fixed reference process.

A shared host runs the same code faster or slower from one minute to the
next, by as much as the changes the benchmark must see.  The benchmark
therefore runs, between the commands, a fixed reference process: a fresh
interpreter that runs this file as a script and does ``REPEATS`` calls of
``reference_work``, a fixed piece of pure-Python work of the kinds the CLI
spends its time on.  A fresh process is used because its time follows the
host's slow and fast spells the way a command's does; the same work timed
inside the benchmark's own long-lived process does not.

The process times its own work and prints it; its interpreter start is left
out, because starting an interpreter runs at the same speed in the host's
fast and slow spells (see ``run.START_S``).  A CPU time divided by the work
time of the reference processes run just before and after it, and
multiplied by ``NOMINAL_S``, is in seconds at a fixed reference speed: it
moves with the code under test and much less with the load of the host.
Nothing here imports tensorforge, so a change to the package does not move
the reference.

Run as a script it does and times the work of one sample::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# CPU seconds of the work of one reference process at the reference speed
# (a 2-vCPU Xeon virtual machine, Python 3.11, in its fast spells)
NOMINAL_S = 0.14
REPEATS = 20
# wall seconds between two reference processes
INTERVAL_S = 1.0
# command seconds per extra reference sample on each side (see Speed.local)
REACH_S = 2.0


def reference_work():
    """Fixed work: Fraction elimination and a triple loop over a dict table."""
    n = 10
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    table = {(i, j): (i * j) % 5 for i in range(14) for j in range(14)}
    acc = 0
    for i in range(14):
        for j in range(14):
            for k in range(14):
                v = table[i, j] * table[j, k] - table[i, k]
                if v:
                    acc += v * v
    return rows[0][0], acc


def sample(env):
    """CPU seconds of the reference work in one reference process."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        out = proc.stdout.read()
        _, wait_status, _ = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        proc.stdout.close()
    status = proc.returncode = os.waitstatus_to_exitcode(wait_status)
    if status != 0:
        raise RuntimeError(f"the reference process exited with status {status}")
    return float(out)


class Speed:
    """Reference processes run along a stretch of the benchmark.

    ``tick()`` runs one when INTERVAL_S of wall time have passed since the
    last one, so the samples cover the stretch evenly whatever the length of
    its commands, and returns the index of the last sample.  The host
    switches between a fast and a slow speed, and stays in each for seconds,
    so a command is best put at the reference speed with the samples just
    before and just after it: ``local(mark, seconds)``, where ``mark`` is what
    ``tick()`` returned before the command, once a later sample exists.
    ``factor()`` does the same for a whole stretch with the mean of all
    samples.
    """

    def __init__(self, env):
        self.env = env
        self.samples = []
        self.last = None

    def take(self):
        self.samples.append(sample(self.env))
        self.last = time.perf_counter()

    def tick(self):
        if self.last is None or time.perf_counter() - self.last >= INTERVAL_S:
            self.take()
        return len(self.samples) - 1

    def local(self, mark, seconds):
        """The factor for a command that took ``seconds`` after ``mark``.

        A short command gets the one sample before it and the one after; a
        long one spans several fast and slow spells, and gets one more
        sample on each side for every REACH_S of its length.
        """
        reach = 1 + int(seconds // REACH_S)
        window = self.samples[max(0, mark + 1 - reach) : mark + 1 + reach]
        return NOMINAL_S / statistics.fmean(window)

    def factor(self):
        return NOMINAL_S / statistics.fmean(self.samples)


if __name__ == "__main__":
    start = time.process_time()
    for _ in range(REPEATS):
        reference_work()
    print(time.process_time() - start)
