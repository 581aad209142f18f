"""Machine-speed samples: a small fixed chunk of pure-Python work, timed
every few milliseconds while the benchmark runs.

On a shared host the speed of a vCPU changes by tens of percent within
seconds and drifts over minutes, so raw seconds from two runs of the same
code can differ by more than any useful regression bound.  The sampler
times a reference chunk (which does not use latlab) from a SIGALRM handler
every ``INTERVAL_S`` seconds of wall time, in the benchmark's main thread
and in each pool worker, so each sample measures the vCPU that process is
running on at that moment.
The chunk mixes the kinds of work latlab does: mod-p row elimination on
lists of small ints, fraction-free elimination on big ints and a recursive
bounded enumeration of integer vectors.  The chunk's CPU time is the
sample: CPU time leaves out the time the process waited for a vCPU, so a
sample does not depend on how the process shares the vCPUs with its own
pool workers.

A time "at reference speed" is a measured time with the handlers' own time
taken out, times ``CHUNK_REF_S`` over the mean chunk CPU time sampled
during it: the seconds the same work would take on a vCPU that runs the
chunk in CHUNK_REF_S.  The constant is a round figure near the chunk's
time on a 2-vCPU x86-64 VM with Python 3.11.7 (3.5-4.6 ms there); it only
sets the scale.

Usage:  python3 perfbench/calibrate.py [N]   prints N chunk CPU times (default 20).
"""

from __future__ import annotations

import bisect
import glob
import json
import os
import random
import shutil
import signal
import sys
import time

CHUNK_REF_S = 0.004
INTERVAL_S = 0.05
MIN_SAMPLES = 3

_P = 2_147_483_647
_rng = random.Random(20140115)
_MODP = [[_rng.randrange(_P) for _ in range(18)] for _ in range(18)]
_BIG = [[_rng.randrange(-10**6, 10**6) for _ in range(10)] for _ in range(10)]
_GRAM = ((2, 1, 0, 1), (1, 2, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3))


def _rank_mod_p(rows) -> int:
    A = [list(r) for r in rows]
    r = 0
    for c in range(len(A[0])):
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], _P - 2, _P)
        Ar = [a * inv % _P for a in A[r]]
        A[r] = Ar
        for i in range(r + 1, len(A)):
            q = A[i][c]
            if q:
                A[i] = [(a - q * b) % _P for a, b in zip(A[i], Ar)]
        r += 1
    return r


def _bareiss_det(rows) -> int:
    A = [list(r) for r in rows]
    n, prev, sign = len(A), 1, 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        for i in range(c + 1, n):
            A[i] = [(A[c][c] * a - A[i][c] * b) // prev for a, b in zip(A[i], A[c])]
        prev = A[c][c]
    return sign * A[-1][-1]


def _count_short(gram, bound: int) -> int:
    n = len(gram)
    v = [0] * n

    def rec(k: int) -> int:
        if k == n:
            norm = sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
            return 1 if norm <= bound else 0
        total = 0
        for x in range(-2, 3):
            v[k] = x
            total += rec(k + 1)
        return total

    return rec(0)


def chunk() -> int:
    """One reference chunk; the result is returned so no step is skipped."""
    return _rank_mod_p(_MODP) + _bareiss_det(_BIG) % 97 + _count_short(_GRAM, 6)


class Sampler:
    """Times a chunk every INTERVAL_S seconds between ``start`` and ``stop``,
    in the main process and in every process forked while it runs (the pool
    workers).  A worker has no way back but a file, so it appends its
    samples to ``spool_dir``, and ``stop`` merges them in.

    After ``stop``, ``samples`` holds (start, wall, CPU, pid) per sample in
    time order; start is perf_counter, which is CLOCK_MONOTONIC on Linux and
    so comparable across processes.
    """

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.samples: list[tuple[float, float, float, int]] = []
        self.pid = os.getpid()
        self.active = False
        self._spool = None  # this worker's spool file; None in the main process
        self._old = None
        self._starts: list[float] = []
        os.register_at_fork(after_in_child=self._enter_worker)

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        chunk()
        sample = (t0, time.perf_counter() - t0, time.process_time() - c0, os.getpid())
        if self._spool is None:
            self.samples.append(sample)
        else:
            with open(self._spool, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(sample) + "\n")

    def _enter_worker(self) -> None:
        # interval timers are not inherited across fork; the handler is
        if self.active:
            self._spool = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        os.makedirs(self.spool_dir, exist_ok=True)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.active = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        self.active = False
        for path in glob.glob(os.path.join(self.spool_dir, "*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.samples.extend(tuple(json.loads(line)) for line in fh)
        shutil.rmtree(self.spool_dir, ignore_errors=True)
        self.samples.sort()
        self._starts = [sample[0] for sample in self.samples]

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self._starts, t0), bisect.bisect_right(self._starts, t1)

    def handler_time(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, CPU) seconds the handlers added within [t0, t1].  Wall is
        the main process's handler time plus the mean over the workers that
        sampled, since the workers run side by side; CPU is every handler's."""
        lo, hi = self._range(t0, t1)
        wall = {}
        for _, seconds, _, pid in self.samples[lo:hi]:
            wall[pid] = wall.get(pid, 0.0) + seconds
        main = wall.pop(self.pid, 0.0)
        return (main + (sum(wall.values()) / len(wall) if wall else 0.0),
                sum(cpu for _, _, cpu, _ in self.samples[lo:hi]))

    def chunk_cpu(self, t0: float, t1: float) -> float:
        """Mean chunk CPU time sampled in [t0, t1], widened to the
        MIN_SAMPLES samples nearest the interval when it holds fewer."""
        lo, hi = self._range(t0, t1)
        starts = self._starts
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(starts)):
            if lo > 0 and (hi == len(starts) or t0 - starts[lo - 1] <= starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        return sum(cpu for _, _, cpu, _ in self.samples[lo:hi]) / (hi - lo)


if __name__ == "__main__":
    for _ in range(int(sys.argv[1]) if len(sys.argv) > 1 else 20):
        c0 = time.process_time()
        chunk()
        print(f"{time.process_time() - c0:.5f}")
