"""A fixed piece of work that measures how fast the host runs right now.

The benchmark shares a few CPUs of a busy host whose speed drifts by up to
about 2x, in stretches of seconds to minutes.  While a timed pass runs an
operation, ``Sampler`` probes the host's speed before it, every
``INTERVAL_S`` seconds during it (from a ``SIGALRM`` handler) and after it.
The operation's time, less the time spent probing, divided by the mean
slowdown of those probes is its time at the reference speed.  The probes
are the benchmark's own code and never call ``lcn``, so a change to ``lcn``
moves the corrected time exactly as it moves the raw one.

The kernels mimic the kinds of work the workloads do: interpreter bytecode,
sparse dict polynomials with big-integer coefficients, ``Fraction``
arithmetic, and small numpy solves.  The cyclic garbage collector is off
while they run, so a large heap left by the program does not slow them.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from fractions import Fraction

import numpy as np

# Seconds between probes while an operation runs; each probe takes about
# 1/25 of that at the reference speed.
INTERVAL_S = 0.2
# Rounds of the kernels in the probes before and after an operation.
EDGE_ROUNDS = 3


def _bytecode():
    s = 0
    for i in range(40_000):
        s += i * i % 7
    return s


_A = {(i, j, k): (7 * i + 3 * j + k + 1) ** 9 for i in range(4) for j in range(4) for k in range(4)}
_B = {(i, j, k): (i + 2 * j + 3 * k + 1) ** 11 for i in range(5) for j in range(5) for k in range(4)}


def _sparse_product():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return len(out)


def _fractions():
    s = Fraction(0)
    for i in range(1, 550):
        s += Fraction(i % 13 + 1, i % 17 + 2) * Fraction(3, i % 5 + 1)
    return s


_M = np.random.default_rng(0).standard_normal((6, 6)) + 6 * np.eye(6)
_V = np.ones(6)


def _small_solves():
    v = _V
    for _ in range(380):
        v = _V + 1e-3 * np.linalg.solve(_M, v)
    return float(v[0])


# (kernel, its median time in seconds on the 2-CPU guest described in
# README.md, measured over many calls)
KERNELS = (
    (_bytecode, 0.0031),
    (_sparse_product, 0.0022),
    (_fractions, 0.0027),
    (_small_solves, 0.0030),
)


def probe(rounds: int = 1) -> float:
    """How many times slower than the reference the host runs now.

    The geometric mean over the kernels of measured ÷ reference time, each
    kernel run ``rounds`` times.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        logs = 0.0
        for kernel, nominal in KERNELS:
            start = time.perf_counter()
            for _ in range(rounds):
                kernel()
            logs += math.log((time.perf_counter() - start) / (nominal * rounds))
    finally:
        if was_enabled:
            gc.enable()
    return math.exp(logs / len(KERNELS))


class Sampler:
    """Times one call while probing the host around and during it."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self._samples = []
        self._inside_s = 0.0
        self._armed = False

    def _on_alarm(self, signum, frame):
        if not self._armed:
            return
        self._armed = False  # an alarm during the probe is skipped, not nested
        start = time.perf_counter()
        self._samples.append(probe())
        self._inside_s += time.perf_counter() - start
        self._armed = True

    def run(self, fn):
        """Call ``fn()``; return its result, seconds and mean host slowdown.

        The seconds exclude the probes that ran during the call.  If ``fn``
        raises, the timer is disarmed and the exception propagates.
        """
        self._samples = [probe(EDGE_ROUNDS)]
        self._inside_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
            seconds = time.perf_counter() - start - self._inside_s
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(probe(EDGE_ROUNDS))
        return result, seconds, sum(self._samples) / len(self._samples)
