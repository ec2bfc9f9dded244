"""Host-speed calibration: a fixed kernel timed next to the program's work.

The benchmark's host is a share of a machine whose speed swings by up to
~2x, in stretches of a fraction of a second to minutes, and a swing slows
everything running on it alike: the library's passes and this kernel
stretch together.  Timing this kernel right before and after each
stretch of measured work, and scaling the work's time by
``REF_S / kernel time``, turns a host-speed swing into a constant.  The
result is in *reference seconds*: the time the work would take on a host
where one kernel run takes ``REF_S``.

The kernel imitates the library's mix without touching it, so a change
to the library moves the work's time and not the kernel's: short numpy
recurrences over a few hundred points (the Bessel tables), argparse
parsing (the CLI), float formatting into CSV rows (the emitters) and
scalar ``math`` loops (the closed forms and root solves).

Do not change the kernel or ``REF_S``: either rescales every time metric
and breaks the comparison with results measured before the change.
"""

from __future__ import annotations

import argparse
import io
import math
import time

import numpy as np

REF_S = 0.05   # the kernel's time on the host the reference was set on


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="calibrate", add_help=False)
    for name in ("alpha", "beta", "gamma", "delta", "eps", "zeta"):
        ap.add_argument(f"--{name}", type=float, default=1.0)
    ap.add_argument("--mode", choices=("a", "b", "c"), default="a")
    ap.add_argument("--out")
    return ap


def kernel() -> float:
    """One fixed run of the calibration work; returns a checksum."""
    acc = 0.0
    x = np.linspace(0.25, 12.0, 150)
    for _ in range(12):
        lo, hi = np.zeros_like(x), np.full_like(x, 1e-30)
        for l in range(90):
            lo, hi = hi, (2 * l + 1) / x * hi - lo
            if np.any(np.abs(hi) > 1e250):
                lo, hi = lo / 1e250, hi / 1e250
        acc += float(hi[0] / abs(hi[0]))
    argv = ["--alpha", "2.5", "--gamma", "1e4", "--mode", "b", "--out", "f.csv"]
    for _ in range(40):
        acc += _parser().parse_args(argv).gamma
    sink = io.StringIO()
    for i in range(5400):
        v = 0.01 * i + 1.0
        sink.write(",".join(f"{v * k:.10g}" for k in (1.0, 1.5, math.pi)) + "\n")
    acc += len(sink.getvalue())
    for i in range(32000):
        v = 1.0 + 1e-4 * i
        acc += math.exp(-v) * math.log(v) + math.sqrt(v) ** 1.5
    return acc


def sample() -> tuple[float, float]:
    """Wall and process CPU seconds of one kernel run."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Speed:
    """Kernel samples taken between stretches of measured work.

    ``between()`` takes ``per_gap`` samples and returns the factors that
    turn the stretch since the previous gap into reference seconds: one for
    wall time and one for CPU time, each ``REF_S`` over the mean of the
    samples in the gaps on either side of the stretch.
    """

    def __init__(self, per_gap: int = 1, warmup: int = 3) -> None:
        self.per_gap = per_gap
        for _ in range(warmup):
            sample()
        self.last = self._gap()
        self.factors: list[float] = []

    def _gap(self) -> tuple[float, float]:
        samples = [sample() for _ in range(self.per_gap)]
        return (sum(w for w, _ in samples) / len(samples),
                sum(c for _, c in samples) / len(samples))

    def restart(self) -> None:
        """Forget the last gap, after a stretch that is not measured."""
        self.last = self._gap()

    def between(self) -> tuple[float, float]:
        now = self._gap()
        wall = 2.0 * REF_S / (self.last[0] + now[0])
        cpu = 2.0 * REF_S / (self.last[1] + now[1])
        self.last = now
        self.factors.append(wall)
        return wall, cpu
