"""Turn a commutator-decay time series into a spectral-gap estimate.

The pipeline is: spike removal, central-difference derivative, detection of
the longest derivative plateau (a median band, deterministic and auditable),
then a least-squares line through the plateau whose negated slope is the gap.
Every trace goes through the same detection: the raw derivative inside a
band of ``WINDOW_REL_TOL``, whatever scheme produced it.  The plateau is
the first longest greedy run, grown from each start until a sample breaks
the band; the one shortcut is a jump over the samples that lie in the band
at every length.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def planned_steps(dtau: float, tau_max: float) -> int:
    """Steps of a run: the largest k with k * dtau <= tau_max, where a
    quotient within 1e-9 below an integer counts as that integer."""
    return math.floor(tau_max / dtau + 1e-9)


def record_trace(
    state,
    advance: Callable,
    measure: Callable,
    dtau: float,
    tau_max: float,
) -> GapTrace:
    """Evolve ``state`` and sample C(tau) = ln|measure(state)| into a trace.

    Step k >= 1 is ``state = advance(state)`` and reaches tau = k * dtau,
    for k up to ``planned_steps(dtau, tau_max)``; every step is measured,
    step 0 included.  Zero and non-finite values are skipped (a trace
    gap).  The run stops early in two cases:

    - C has dropped by ln(1e-14) below its first sample (underflow);
    - the fit is final: no later sample can change what ``estimate_gap``
      reads off the samples so far.  That holds once the prefix's own
      detection finds a window that (i) has at least ``SPIKE_HALFWIDTH + 1``
      samples after it, so every spike decision and central difference in
      it is fixed, and whose run closed on such a fixed sample, and (ii)
      cannot be replaced: no greedy run that may still grow could outgrow
      it even if every step left before tau_max joined it.  Only the
      transient cut (the first tenth of the derivative samples) moves with
      the trace's length, and with it, rarely, the window's start.
    """
    steps = planned_steps(dtau, tau_max)
    fit_is_final = _StopRule()
    taus, cs = [], []
    c_start = None
    for step in range(steps + 1):
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
        if fit_is_final(taus, cs, steps - step):
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
    h = SPIKE_HALFWIDTH
    med = np.empty(n)
    if n > 2 * h:  # the samples whose neighbourhood is whole
        med[h:n - h] = np.median(sliding_window_view(trace.cs, 2 * h + 1), axis=1)
    for i in [*range(min(h, n)), *range(max(h, n - h), n)]:
        med[i] = np.median(trace.cs[max(0, i - h):i + h + 1])
    keep = ~(trace.cs < med - SPIKE_DEPTH)
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
    d = np.empty(n)
    d[1:-1] = (c[2:] - c[:-2]) / (t[2:] - t[:-2])
    d[0] = (c[1] - c[0]) / (t[1] - t[0])
    d[-1] = (c[-1] - c[-2]) / (t[-1] - t[-2])
    keep = np.empty(n, dtype=bool)
    keep[1:-1] = regular[:-1] & regular[1:]
    keep[0], keep[-1] = regular[0], regular[-1]
    return t[keep], d[keep]


class _RunningMedian:
    """Sorted-insert container with O(1) median/min/max reads."""

    def __init__(self, values=()):
        self._sorted: list[float] = sorted(values)

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


# Samples of one sign whose largest magnitude is within 1 + WINDOW_REL_TOL
# of their smallest lie inside the band of any median they can have, so a
# run jumps over them; the 1e-9 keeps that safe from rounding.
_RATIO_FITS = 1.0 / (1.0 + WINDOW_REL_TOL * (1.0 - 1e-9))


def _grow(values: list[float], i: int, stop: int) -> tuple[int, _RunningMedian]:
    """The greedy run from sample ``i`` over the samples before ``stop``:
    (end, run), where end is the first sample that breaks the band
    (``stop`` if none does) and run holds the run's samples."""
    x = np.asarray(values[i:stop])
    # magnitudes in the first sample's sign: one of another sign is <= 0
    mag = x if x[0] >= 0 else -x
    fits = np.minimum.accumulate(mag) >= _RATIO_FITS * np.maximum.accumulate(mag)
    k = int(np.argmin(fits))
    j = stop if fits[k] else i + k
    run = _RunningMedian(values[i:j])
    while j < stop:
        run.add(values[j])
        if not run.within_band():
            break
        j += 1
    return j, run


def _need(best: tuple[int, int] | None) -> int:
    """Length a run needs to become the window."""
    return MIN_WINDOW_POINTS if best is None else best[1] - best[0] + 1


def _best_run(values: list[float], first: int, last: int, stop: int) -> tuple[int, int] | None:
    """The first longest greedy run, of at least ``MIN_WINDOW_POINTS``
    samples, from the starts first..last - 1 over the samples before
    ``stop``."""
    best = None
    for i in range(first, last):
        need = _need(best)
        if stop - i < need:
            break
        j, _ = _grow(values, i, stop)
        if j - i >= need:
            best = (i, j)
    return best


def detect_linear_window(
    deriv: np.ndarray,
) -> tuple[tuple[int, int] | None, str]:
    """Longest contiguous run, of at least ``MIN_WINDOW_POINTS`` samples,
    where every derivative sample stays within ``WINDOW_REL_TOL * |median
    of the run|`` of the run's median.

    The first 10% of samples are discarded as transient.  Runs are grown
    greedily from each start; growth stops at the first sample that breaks
    the band (deterministic and auditable rather than globally maximal).
    Each run first jumps over the samples from its start that share one
    sign and keep their magnitudes within 1 + ``WINDOW_REL_TOL`` of each
    other, which lie in the band at every length; the result is that of
    growing every run sample by sample.
    Returns (index window [i0, i1), quality flag).
    """
    n = len(deriv)
    start = n // 10
    best = _best_run(deriv.tolist(), start, n, n)

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


class _StopRule:
    """Whether later samples can still change the fit of a growing trace
    (``record_trace`` states the rule).

    As samples arrive it keeps what no later sample changes: the spike
    decisions with ``SPIKE_HALFWIDTH`` samples after them and the
    derivative samples with ``SPIKE_HALFWIDTH + 1``.  Over those it runs
    ``detect_linear_window``'s greedy runs lazily: every start before
    ``open`` is known to close on a fixed sample, and the run from ``open``
    may still grow.  Each start's run is grown once, with the jump that
    ``detect_linear_window`` states; when the moving transient cut passes
    the window's start, the closed runs from the starts it keeps are grown
    again.  A stop is confirmed against
    ``drop_spikes`` and ``numerical_derivative`` on the prefix.  They can
    disagree while a spike is not yet decided (the cut counts every
    undecided sample) or when trace gaps move the spacing median; the next
    confirm then waits for twice as many new samples as the last.
    """

    def __init__(self):
        self.keep: list[bool] = []  # fixed spike decisions
        self.next_sample = 0        # next sample whose derivative becomes fixed
        self.last_kept = None       # the last kept sample before it
        self.spacing = _RunningMedian()  # tau spacings of the trace so far
        self.spaced = 1             # samples whose spacing before them is in it
        self.deriv: list[float] = []  # the fixed derivative samples
        self.sample_of: list[int] = []  # trace index of each
        self.best: tuple[int, int] | None = None
        self.open = 0
        self.run: _RunningMedian | None = None
        self.cut = 0
        self.confirm_at = 0  # trace length before which no confirm runs
        self.wait = SPIKE_HALFWIDTH + 1

    def __call__(self, taus: list, cs: list, steps_left: int) -> bool:
        n = len(taus)
        h = SPIKE_HALFWIDTH
        # A window holds fewer than the n - h - 1 fixed derivative samples,
        # and the run from ``open`` reaches back over at least h + 1
        # samples, so no stop can come before n >= steps_left + 2h + 2;
        # until then the samples wait.
        if n < steps_left + 2 * h + 2:
            return False
        while self.spaced < n:
            self.spacing.add(taus[self.spaced] - taus[self.spaced - 1])
            self.spaced += 1
        while len(self.keep) + h < n:
            q = len(self.keep)
            med = _RunningMedian(cs[max(0, q - h):q + h + 1]).median
            self.keep.append(not cs[q] < med - SPIKE_DEPTH)
        while self.next_sample + h + 1 < n:
            self._fix_derivative(taus, cs)
        f = len(self.sample_of)
        if f == 0:
            return False
        # the unfixed samples are taken to give derivative samples too
        self.cut = (f + n - 1 - self.sample_of[-1]) // 10
        if self.best is not None and self.best[0] < self.cut:
            # the closed runs from the starts the cut keeps
            self.best = _best_run(self.deriv, self.cut, self.open, f)
        if self.open < self.cut:
            self.open, self.run = self.cut, None
        while True:
            if self.best is not None:
                first = self.sample_of[self.open] if self.open < f else self.sample_of[-1] + 1
                if n - first + steps_left <= self.best[1] - self.best[0]:
                    return n >= self.confirm_at and self._confirm(taus, cs)
            if self.run is not None or self.open >= f:
                return False
            j, run = _grow(self.deriv, self.open, f)
            if j == f:
                self.run = run
            else:
                self._close(j)

    def _fix_derivative(self, taus, cs) -> None:
        """The derivative at sample r, as ``numerical_derivative`` takes
        it, with the spacing median of the trace so far."""
        r = self.next_sample
        self.next_sample += 1
        if not self.keep[r]:
            return
        prev, self.last_kept = self.last_kept, r
        # a dropped sample r + 1 leaves a trace gap after r
        if not self.keep[r + 1]:
            return
        limit = 1.5 * self.spacing.median
        if taus[r + 1] - taus[r] > limit:
            return
        if prev is None:
            d = (cs[r + 1] - cs[r]) / (taus[r + 1] - taus[r])
        elif taus[r] - taus[prev] <= limit:
            d = (cs[r + 1] - cs[prev]) / (taus[r + 1] - taus[prev])
        else:
            return
        self.deriv.append(d)
        self.sample_of.append(r)
        if self.run is not None:
            self.run.add(d)
            if not self.run.within_band():
                self._close(len(self.sample_of) - 1)

    def _close(self, end: int) -> None:
        """The run from ``open`` broke at fixed sample ``end``."""
        if end - self.open >= _need(self.best):
            self.best = (self.open, end)
        self.open += 1
        self.run = None

    def _confirm(self, taus, cs) -> bool:
        taus_d, deriv = numerical_derivative(drop_spikes(GapTrace(taus, cs)))
        f = len(self.sample_of)
        if (len(deriv) // 10 == self.cut
                and np.array_equal(deriv[:f], self.deriv)
                and np.array_equal(taus_d[:f], [taus[r] for r in self.sample_of])):
            return True
        self.confirm_at = len(taus) + self.wait
        self.wait *= 2
        return False


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
