"""Turn a commutator-decay time series into a spectral-gap estimate.

The pipeline is: spike removal, central-difference derivative, detection of
the longest derivative plateau (a median band, deterministic and auditable),
then a least-squares line through the plateau whose negated slope is the gap.
Every trace goes through the same detection: the raw derivative inside a
band of ``WINDOW_REL_TOL``, whatever scheme produced it.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

QUALITY_CLEAN = "clean"
QUALITY_NOISY = "noisy"
QUALITY_NO_WINDOW = "no-linear-window"
QUALITY_POLYNOMIAL = "polynomial-suspect"

MIN_WINDOW_POINTS = 20  # derivative samples in the shortest linear window
WINDOW_REL_TOL = 5e-3  # half-width of the window's derivative band, relative
SPIKE_DEPTH = 10.0  # a spike sits this far below the median of the
SPIKE_HALFWIDTH = 5  # samples this close to it


@dataclass
class GapTrace:
    """Samples (tau, C = ln|<i[H,O]>|) of one run; the run's inputs are
    recorded in the CLI summary's ``cfg_*`` fields.

    tau is strictly increasing and C finite; dropped samples simply do not
    appear, which shows up as irregular tau spacing (a trace gap).
    """

    taus: np.ndarray
    cs: np.ndarray

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.cs = np.asarray(self.cs, dtype=float)
        if self.taus.shape != self.cs.shape or self.taus.ndim != 1:
            raise ValueError("taus and cs must be equal-length vectors")
        if self.taus.size >= 2 and np.any(np.diff(self.taus) <= 0):
            raise ValueError("tau must be strictly increasing")
        if self.cs.size and not np.all(np.isfinite(self.cs)):
            raise ValueError("retained samples must be finite")

    def __len__(self) -> int:
        return self.taus.size


def record_trace(
    state,
    advance: Callable,
    measure: Callable,
    dtau: float,
    tau_max: float,
) -> GapTrace:
    """Evolve ``state`` and sample C(tau) = ln|measure(state)| into a trace.

    Step k >= 1 is ``state = advance(state)`` and reaches tau = k * dtau;
    every step is measured, step 0 included.  Zero and non-finite values
    are skipped (a trace gap).  Stops at tau_max or once C has dropped by
    ln(1e-14) below its first sample.
    """
    taus, cs = [], []
    c_start = None
    for step in range(int(round(tau_max / dtau)) + 1):
        if step > 0:
            state = advance(state)
        val = measure(state)
        if np.isfinite(val) and val != 0.0:
            c = float(np.log(abs(val)))
            taus.append(step * dtau)
            cs.append(c)
            if c_start is None:
                c_start = c
            elif c - c_start < np.log(1e-14):
                break
    return GapTrace(np.array(taus), np.array(cs))


@dataclass
class GapEstimate:
    """Fitted gap with window and diagnostics."""

    gap: float
    intercept: float
    window: tuple[float, float] | None
    derivative_std: float
    quality: str
    error_bar: float = float("nan")
    derivative_fluctuation: float = float("nan")


def drop_spikes(trace: GapTrace) -> GapTrace:
    """Remove samples far below their local median.

    A sign change of the underlying amplitude sends C through -inf; such
    samples sit ``SPIKE_DEPTH`` or more below the median of the samples
    within ``SPIKE_HALFWIDTH`` of them and are treated as trace gaps.
    """
    n = len(trace)
    if n < 3:
        return trace
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        lo, hi = max(0, i - SPIKE_HALFWIDTH), min(n, i + SPIKE_HALFWIDTH + 1)
        if trace.cs[i] < np.median(trace.cs[lo:hi]) - SPIKE_DEPTH:
            keep[i] = False
    if np.all(keep):
        return trace
    return GapTrace(trace.taus[keep], trace.cs[keep])


def numerical_derivative(trace: GapTrace) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of C(tau); endpoints one-sided.

    Derivative samples adjacent to a trace gap (spacing well above the
    median) are skipped rather than bridged.
    """
    n = len(trace)
    if n < 2:
        raise ValueError("need at least two samples for a derivative")
    t, c = trace.taus, trace.cs
    steps = np.diff(t)
    regular = steps <= 1.5 * np.median(steps)
    taus_d, vals = [], []
    for i in range(n):
        if 0 < i < n - 1 and regular[i - 1] and regular[i]:
            d = (c[i + 1] - c[i - 1]) / (t[i + 1] - t[i - 1])
        elif i == 0 and regular[0]:
            d = (c[1] - c[0]) / (t[1] - t[0])
        elif i == n - 1 and regular[n - 2]:
            d = (c[n - 1] - c[n - 2]) / (t[n - 1] - t[n - 2])
        else:
            continue
        taus_d.append(t[i])
        vals.append(d)
    return np.array(taus_d), np.array(vals)


class _RunningMedian:
    """Sorted-insert container with O(1) median/min/max reads."""

    def __init__(self):
        self._sorted: list[float] = []

    def add(self, x: float) -> None:
        bisect.insort(self._sorted, x)

    @property
    def median(self) -> float:
        s = self._sorted
        m = len(s)
        return s[m // 2] if m % 2 else 0.5 * (s[m // 2 - 1] + s[m // 2])

    def within_band(self) -> bool:
        med = self.median
        band = WINDOW_REL_TOL * abs(med)
        return (self._sorted[-1] - med) <= band and (med - self._sorted[0]) <= band


def detect_linear_window(
    deriv: np.ndarray,
) -> tuple[tuple[int, int] | None, str]:
    """Longest contiguous run, of at least ``MIN_WINDOW_POINTS`` samples,
    where every derivative sample stays within ``WINDOW_REL_TOL * |median
    of the run|`` of the run's median.

    The first 10% of samples are discarded as transient.  Runs are grown
    greedily from each start; growth stops at the first sample that breaks
    the band (deterministic and auditable rather than globally maximal).
    Returns (index window [i0, i1), quality flag).
    """
    n = len(deriv)
    start = n // 10
    best: tuple[int, int] | None = None
    i = start
    while i < n:
        if best is not None and n - i <= best[1] - best[0]:
            break
        run = _RunningMedian()
        j = i
        while j < n:
            run.add(float(deriv[j]))
            if not run.within_band():
                break
            j += 1
        length = j - i
        if length >= MIN_WINDOW_POINTS and (best is None or length > best[1] - best[0]):
            best = (i, j)
        i += 1

    if best is not None:
        flag = QUALITY_CLEAN
        if _monotone_drop(deriv[best[0]:best[1]]) > 0.2:
            flag = QUALITY_POLYNOMIAL
        return best, flag
    tail = deriv[start:]
    if tail.size >= MIN_WINDOW_POINTS and _monotone_drop(tail) > 0.2:
        return None, QUALITY_POLYNOMIAL
    return None, QUALITY_NO_WINDOW


def _monotone_drop(deriv: np.ndarray) -> float:
    """Fractional decrease of |d| across the run if the decrease is
    monotone (within 1% per-step wiggle) and never plateaus; else 0."""
    mag = np.abs(deriv)
    if mag.size < 2 or mag[0] == 0.0:
        return 0.0
    steps = np.diff(mag)
    if np.any(steps > 0.01 * mag[:-1]):
        return 0.0
    return float((mag[0] - mag[-1]) / mag[0])


def estimate_gap(
    trace: GapTrace,
    window: tuple[float, float] | None = None,
) -> GapEstimate:
    """Spikes -> derivative -> window -> least-squares line through the
    linear window of C(tau); gap = -slope.

    An explicit ``window`` = (tau_lo, tau_hi) skips the detection: the
    line goes through the samples with tau_lo <= tau <= tau_hi.  Without
    one the window is detected on the raw derivative inside
    ``WINDOW_REL_TOL``, the same for every trace.  The error bar is
    max(std of the in-window derivative, gap difference between the two
    window halves), catching residual curvature the standard deviation
    misses.  derivative_fluctuation is the std of the in-window derivative
    after removing its linear trend: slow curvature drops out and what
    remains is genuine step-to-step scatter.  Quality is ``clean`` when
    that scatter is below 1e-3 of the gap, ``noisy`` otherwise, with the
    detection flags passed through when no usable window exists.
    """
    clean = drop_spikes(trace)
    taus_d, deriv = numerical_derivative(clean)
    if window is None:
        idx, flag = detect_linear_window(deriv)
        if idx is None:
            return GapEstimate(
                gap=float("nan"), intercept=float("nan"), window=None,
                derivative_std=float("nan"), quality=flag,
            )
        lo, hi = taus_d[idx[0]], taus_d[idx[1] - 1]
    else:
        lo, hi = window
        flag = QUALITY_CLEAN
    sel = (clean.taus >= lo) & (clean.taus <= hi)
    t, c = clean.taus[sel], clean.cs[sel]
    if t.size < 2:
        return GapEstimate(
            gap=float("nan"), intercept=float("nan"), window=(lo, hi),
            derivative_std=float("nan"), quality=QUALITY_NO_WINDOW,
        )
    slope, intercept = np.polyfit(t, c, 1)
    dsel = (taus_d >= lo) & (taus_d <= hi)
    if np.any(dsel):
        dwin, twin = deriv[dsel], taus_d[dsel]
        dstd = float(np.std(dwin))
        if twin.size >= 3:
            trend = np.polyval(np.polyfit(twin, dwin, 1), twin)
            fluct = float(np.std(dwin - trend))
        else:
            fluct = dstd
    else:
        dstd = fluct = float("nan")
    gap = -float(slope)

    half = t.size // 2
    if half >= 2 and t.size - half >= 2:
        s1 = np.polyfit(t[:half], c[:half], 1)[0]
        s2 = np.polyfit(t[half:], c[half:], 1)[0]
        err = max(dstd, abs(s1 - s2))
    else:
        err = dstd
    quality = flag
    if quality == QUALITY_CLEAN and not (fluct <= 1e-3 * abs(gap)):
        quality = QUALITY_NOISY
    return GapEstimate(
        gap=gap, intercept=float(intercept), window=(float(lo), float(hi)),
        derivative_std=dstd, quality=quality, error_bar=float(err),
        derivative_fluctuation=fluct,
    )
