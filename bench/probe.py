"""Host-speed probe: scales measured times to a reference host speed.

On a shared virtual machine the same pass can take 10-25% longer from one
minute to the next because of other tenants, for wall and CPU time alike.
Much of that drift is common to all pure-Python work, so a fixed unit of
such work timed alongside the benchmark measures it.  A SIGALRM timer runs
one unit every PROBE_INTERVAL_S, inside long cases too, so the samples
cover a pass evenly in time; their time is left out of the case times.  A
time t taken while the median unit took u is reported as
t * (REF_UNIT_S / u) ** ELASTICITY: seconds on a host where the unit takes
REF_UNIT_S.

The unit is a frozen copy of the shape of derham's hot loops (a normally
ordered Weyl product over exact rationals, then the max-by-key rescan of
division), not a call into derham: a change to the library must not move
the probe.  It tracked the drift better than plain Fraction arithmetic or
a memory-bound scan.  The unit still reacts more than derham does: when
the host sped the unit up 1.75x, `bernstein-sato` ran only 1.3x faster,
and full scaling (ELASTICITY = 1) then left a 25-28% run-to-run spread
where the unscaled one was 20%.  Over two batches of ten runs of both
workloads, ELASTICITY = 0.5 kept every solve-time spread within 4-10%.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

# Median unit time on a 2-vCPU Xeon VM with CPython 3.11; fixed so that
# reported times stay comparable between commits and hosts.
REF_UNIT_S = 0.0035
ELASTICITY = 0.5
PROBE_INTERVAL_S = 0.1
_REPEATS = 2

_P = {(i % 3, (i * 2) % 3, i % 2, (i + 1) % 3): Fraction(i - 4, i % 3 + 1)
      for i in range(9)}
_Q = {((i + 1) % 3, i % 2, (i * 2) % 3, i % 3): Fraction(2 * i + 1, i % 4 + 1)
      for i in range(9)}


def _weyl_product(p, q, n=2):
    out = {}
    for ep, cp in p.items():
        a, b = ep[:n], ep[n:]
        for eq, cq in q.items():
            c, d = eq[:n], eq[n:]
            partial = [((), (), 1)]
            for i in range(n):
                top = min(b[i], c[i])
                cons = [(k, comb(b[i], k) * comb(c[i], k) * factorial(k))
                        for k in range(top + 1)]
                partial = [(al + (a[i] + c[i] - k,), be + (b[i] + d[i] - k,), m * mult)
                           for al, be, m in partial for k, mult in cons]
            coeff = cp * cq
            for al, be, m in partial:
                key = al + be
                s = out.get(key, Fraction(0)) + coeff * m
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def _order_key(e):
    return (sum(e), e[::-1])


def probe_unit():
    for _ in range(_REPEATS):
        work = _weyl_product(_P, _Q)
        while work:
            del work[max(work, key=_order_key)]


class SpeedProbe:
    def __init__(self):
        self.samples = []     # unit times, in the order taken
        self.spent = 0.0      # time spent in the probe, to leave out

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        probe_unit()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, lo: int, hi: int) -> float:
        """Factor for times taken while samples[lo:hi] were taken."""
        return (REF_UNIT_S / statistics.median(self.samples[lo:hi])) ** ELASTICITY
