"""Host-speed probe: fixed stdlib kernels timed while a round runs.

The host this benchmark was written on lends its vCPUs' speed to other
tenants: the same round takes up to 1.5x longer from one minute to the
next, on both vCPUs at once, and no run length that fits the benchmark's
time budget averages that out (ten 40 s runs of `chain` spread 0.21 of
their median, quartile distance over median).  So each untraced round
runs under a Probe: a timer signal every PERIOD_S interrupts onsk and
times one of four small kernels, in turn.  The kernels use only the
standard library, never onsk, so a change to onsk cannot move them; they
mimic the kinds of work onsk does, because a kernel of one kind alone
slowed by other amounts than the rounds did:

* fraction_sums: sums of rationals whose size grows, as the series
  oracle's `Fraction` arithmetic;
* gaussian_products: sparse products of matrices of Gaussian rationals
  kept in lowest terms with gcd, as `Scalar` and `Operator` products;
* word_rewrites: rewriting of letter words with dict accumulation, as
  q-boson normal ordering;
* small_fractions: arithmetic on small `Fraction`s.

slowdown() is the mean over kernels of the kernel's mean time in the
round divided by its REFERENCE_S, so a round's time divided by it is the
time the round would take at the reference speed.  Over 53 rounds of the
three workloads at one seed, one after another, the round times spread
0.18-0.25 and ranged 1.5x; divided by the slowdown they spread 0.03
(chain), 0.06 (spectrum) and 0.07 (series).  Log round time against log
slowdown had correlation 0.98-0.99 and slope 0.96 (chain), 0.81
(spectrum), 0.75 (series): the kernels slow somewhat more than spectrum
and series do, so on those the division over-corrects by about a fifth
to a quarter of the slowdown.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from fractions import Fraction

PERIOD_S = 0.025


def fraction_sums() -> None:
    for _ in range(5):
        s = Fraction(0)
        for i in range(1, 60):
            s += Fraction(i, 7 * i + 3)


class _Gauss:
    """(a + b i) / d in lowest terms, d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int) -> None:
        g = math.gcd(math.gcd(a, b), d)
        if d < 0:
            g = -g
        self.a, self.b, self.d = a // g, b // g, d // g

    def __mul__(self, o):
        return _Gauss(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    def __add__(self, o):
        return _Gauss(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)


def gaussian_products() -> None:
    n = 12
    m = {(i, (i * 5 + 1) % n): _Gauss(i + 1, i - 3, 2 * i + 5) for i in range(n)}
    m.update({(i, (i * 7 + 2) % n): _Gauss(3 - i, 1, i + 2) for i in range(n)})
    p = dict(m)
    for _ in range(4):
        rows = {}
        for (i, k), x in p.items():
            rows.setdefault(k, []).append((i, x))
        q = {}
        for (k, j), y in m.items():
            for i, x in rows.get(k, ()):
                v = x * y
                q[(i, j)] = q[(i, j)] + v if (i, j) in q else v
        # reduce the entries so that every product does the same work
        p = {key: _Gauss(v.a % 10007, v.b % 10007, v.d % 10007 or 1) for key, v in q.items()}


def word_rewrites() -> None:
    for _ in range(40):
        words = {("m", "p") * 3: 1}
        for _ in range(6):
            out = {}
            for w, c in words.items():
                for i in range(len(w) - 1):
                    if w[i] == "m" and w[i + 1] == "p":
                        swapped = w[:i] + ("p", "m") + w[i + 2:]
                        out[swapped] = out.get(swapped, 0) + c * 3
                        contracted = w[:i] + w[i + 2:]
                        out[contracted] = out.get(contracted, 0) + c
                        break
                else:
                    out[w] = out.get(w, 0) + c
            words = out


def small_fractions() -> None:
    x = Fraction(3, 7)
    for i in range(1, 150):
        x = x * Fraction(i % 13 + 1, i % 11 + 2) + Fraction(1, i % 5 + 1)
        if x.denominator > 10**6:
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1)


KERNELS = (fraction_sums, gaussian_products, word_rewrites, small_fractions)
# Median time of one call of each kernel, interrupting rounds of all three
# workloads, on the reference host: 2-vCPU Intel Xeon VM, CPython 3.11.7.
REFERENCE_S = (0.000894, 0.001108, 0.000756, 0.000829)


class Probe:
    """Context manager: times KERNELS in turn, every PERIOD_S of wall time."""

    def __init__(self) -> None:
        self.samples = [[] for _ in KERNELS]      # (wall, cpu) seconds per call
        self._calls = 0

    def _tick(self, signum, frame) -> None:
        i = self._calls % len(KERNELS)
        self._calls += 1
        # a collection here would free onsk's garbage on the probe's clock
        enabled = gc.isenabled()
        gc.disable()
        w0, c0 = time.perf_counter(), time.process_time()
        KERNELS[i]()
        self.samples[i].append((time.perf_counter() - w0, time.process_time() - c0))
        if enabled:
            gc.enable()

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> tuple:
        """(wall, cpu) seconds spent in the kernels so far."""
        return (sum(w for s in self.samples for w, _ in s),
                sum(c for s in self.samples for _, c in s))

    def slowdown(self, clock: int) -> float:
        """Mean over kernels of mean time / reference time; clock 0 wall, 1 cpu."""
        ratios = [sum(x[clock] for x in s) / len(s) / ref
                  for s, ref in zip(self.samples, REFERENCE_S) if s]
        if len(ratios) < len(KERNELS):
            raise RuntimeError("round too short for the speed probe")
        return sum(ratios) / len(ratios)
