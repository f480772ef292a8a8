import numpy as np
import pytest

from specgap import estimator
from specgap.estimator import (
    MIN_WINDOW_POINTS,
    QUALITY_CLEAN,
    QUALITY_NO_WINDOW,
    QUALITY_POLYNOMIAL,
    SPIKE_DEPTH,
    SPIKE_HALFWIDTH,
    WINDOW_REL_TOL,
    GapTrace,
    detect_linear_window,
    drop_spikes,
    estimate_gap,
    numerical_derivative,
    planned_steps,
    record_trace,
)
from specgap.oracle import spectral_decompose, commutator_expectation_exact


def line_trace(slope=-2.0, intercept=3.0, dtau=0.1, tau_max=10.0):
    t = np.arange(0.0, tau_max, dtau)
    return GapTrace(t, intercept + slope * t)


def greedy_window(deriv):
    """The window of ``detect_linear_window``, growing every run from every
    start sample by sample."""
    n = len(deriv)
    best = None
    for i in range(n // 10, n):
        j = i
        while j < n:
            run = np.sort(deriv[i:j + 1])
            m = run.size
            med = run[m // 2] if m % 2 else 0.5 * (run[m // 2 - 1] + run[m // 2])
            band = WINDOW_REL_TOL * abs(med)
            if not (run[-1] - med <= band and med - run[0] <= band):
                break
            j += 1
        if j - i >= MIN_WINDOW_POINTS and (best is None or j - i > best[1] - best[0]):
            best = (i, j)
    return best


def plateaus(rng, n=160):
    """Derivative samples: a few plateaus with steps between them and
    scatter around the band's width."""
    deriv = np.empty(n)
    edges = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
    for lo, hi in zip(np.r_[0, edges], np.r_[edges, n]):
        deriv[lo:hi] = -rng.uniform(0.5, 1.5)
    scale = rng.choice([1e-4, 2e-3, 4e-3])
    return deriv * (1.0 + scale * rng.normal(size=n))


class TestDerivative:
    def test_exact_line(self):
        td, d = numerical_derivative(line_trace())
        assert np.max(np.abs(d + 2.0)) < 1e-12
        assert td.size == 100

    def test_two_exponential_envelope(self):
        # C = -tau + e^{-3 tau}: the derivative approaches -1 from below
        # with deviation bounded by the local exponential envelope
        t = np.arange(0.0, 8.0, 0.1)
        tr = GapTrace(t, -t + np.exp(-3.0 * t))
        td, d = numerical_derivative(tr)
        inner = (td > 0.5) & (td < 7.5)
        envelope = 3.0 * np.exp(-3.0 * td[inner]) * np.exp(1.5 * 0.1)
        assert np.all(np.abs(d[inner] + 1.0) <= envelope + 1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            numerical_derivative(GapTrace(np.array([0.0]), np.array([1.0])))

    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_matches_sample_by_sample_differences(self, n):
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.choice([0.1, 0.1, 0.1, 0.3], size=n))
        c = -t + 0.01 * rng.normal(size=n)
        regular = np.diff(t) <= 1.5 * np.median(np.diff(t))
        taus, vals = [], []
        for i in range(n):
            if 0 < i < n - 1 and regular[i - 1] and regular[i]:
                vals.append((c[i + 1] - c[i - 1]) / (t[i + 1] - t[i - 1]))
            elif i == 0 and regular[0]:
                vals.append((c[1] - c[0]) / (t[1] - t[0]))
            elif i == n - 1 and regular[n - 2]:
                vals.append((c[n - 1] - c[n - 2]) / (t[n - 1] - t[n - 2]))
            else:
                continue
            taus.append(t[i])
        td, d = numerical_derivative(GapTrace(t, c))
        assert np.array_equal(td, taus) and np.array_equal(d, vals)

    def test_gap_in_trace_skipped(self):
        t = np.concatenate([np.arange(0, 3, 0.1), np.arange(5, 8, 0.1)])
        tr = GapTrace(t, -2.0 * t)
        td, d = numerical_derivative(tr)
        # no derivative sample bridges the hole between tau=2.9 and tau=5
        assert not np.any((td > 2.85) & (td < 5.05))


class TestWindowDetection:
    def test_pure_line_full_range_minus_transient(self):
        td, d = numerical_derivative(line_trace())
        idx, flag = detect_linear_window(d)
        assert flag == QUALITY_CLEAN
        assert idx[0] == td.size // 10
        assert idx[1] == td.size

    def test_two_exponential_excludes_early_region(self):
        t = np.arange(0.0, 12.0, 0.05)
        tr = GapTrace(t, -t + np.exp(-3.0 * t))
        td, d = numerical_derivative(tr)
        idx, flag = detect_linear_window(d)
        assert flag == QUALITY_CLEAN
        assert td[idx[0]] > 1.0
        med = np.median(d[idx[0]:idx[1]])
        assert abs(med + 1.0) < 1e-3

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sample_by_sample_growth(self, seed):
        deriv = plateaus(np.random.default_rng(seed))
        idx, _ = detect_linear_window(deriv)
        assert idx == greedy_window(deriv)

    def test_power_law_flagged(self):
        t = np.arange(0.5, 20.0, 0.05)
        tr = GapTrace(t, -5.0 * np.log(t))
        e = estimate_gap(tr)
        assert e.quality == QUALITY_POLYNOMIAL
        assert e.window is None

    def test_short_noise_has_no_window(self):
        rng = np.random.default_rng(0)
        t = np.arange(0.0, 3.0, 0.1)
        tr = GapTrace(t, rng.normal(size=t.size))
        e = estimate_gap(tr)
        assert e.quality in (QUALITY_NO_WINDOW, QUALITY_POLYNOMIAL)
        assert np.isnan(e.gap)


class TestFit:
    def test_exact_line_recovers_parameters(self):
        e = estimate_gap(line_trace(slope=-2.0, intercept=3.0))
        assert e.gap == pytest.approx(2.0, abs=1e-12)
        assert e.intercept == pytest.approx(3.0, abs=1e-12)
        assert e.quality == QUALITY_CLEAN

    def test_oracle_trace_cross_module(self):
        rng = np.random.default_rng(123)
        evals = np.concatenate([[0.0, 1.0, 1.05], 1.05 + np.cumsum(rng.uniform(0.3, 0.7, 6))])
        q = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))[0]
        h = q @ np.diag(evals) @ q.conj().T
        d = spectral_decompose(h)
        b = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        obs = (b + b.conj().T) / 2
        phi0 = rng.normal(size=9) + 1j * rng.normal(size=9)
        gamma = evals[2] - evals[1]
        taus = np.linspace(10.0 / gamma, 20.0 / gamma, 400)
        cs = [
            np.log(abs(commutator_expectation_exact(d, obs, phi0, t)))
            for t in taus
        ]
        e = estimate_gap(GapTrace(taus, np.array(cs)))
        assert abs(e.gap - d.gap()) < 1e-6 * d.gap()

    def test_shift_invariance(self):
        t = np.arange(0.0, 10.0, 0.1)
        c = 1.0 - 1.3 * t + 1e-5 * np.sin(3 * t)
        g1 = estimate_gap(GapTrace(t, c))
        g2 = estimate_gap(GapTrace(t, c + 11.0))
        assert g1.gap == pytest.approx(g2.gap, abs=1e-12)
        assert g2.intercept - g1.intercept == pytest.approx(11.0, abs=1e-9)

    def test_amplitude_scale_invariance(self):
        # scaling the underlying amplitude shifts C by a constant only
        t = np.arange(0.0, 10.0, 0.1)
        amp = np.exp(2.0 - 0.8 * t)
        g1 = estimate_gap(GapTrace(t, np.log(amp)))
        g2 = estimate_gap(GapTrace(t, np.log(7.3 * amp)))
        assert g1.gap == pytest.approx(g2.gap, abs=1e-12)

    def test_subsampling_stability(self):
        t = np.arange(0.0, 12.0, 0.05)
        c = 0.3 - 1.1 * t + np.exp(-4.0 * t)
        g1 = estimate_gap(GapTrace(t, c))
        g2 = estimate_gap(GapTrace(t[::2], c[::2]))
        assert abs(g1.gap - g2.gap) < 2 * WINDOW_REL_TOL * g1.gap

    def test_spike_treated_as_gap(self):
        t = np.arange(0.0, 10.0, 0.1)
        c = 3.0 - 2.0 * t
        c[40] -= 50.0  # amplitude sign change dips C far below the trend
        cleaned = drop_spikes(GapTrace(t, c))
        assert len(cleaned) == t.size - 1
        e = estimate_gap(GapTrace(t, c))
        assert e.gap == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 6, 10, 11, 12, 40])
    def test_spikes_against_each_samples_median(self, n):
        rng = np.random.default_rng(n)
        t = 0.1 * np.arange(n)
        c = -t + 0.01 * rng.normal(size=n)
        c[rng.choice(n, size=max(1, n // 8), replace=False)] -= 30.0
        keep = [
            not c[i] < np.median(c[max(0, i - SPIKE_HALFWIDTH):i + SPIKE_HALFWIDTH + 1])
            - SPIKE_DEPTH
            for i in range(n)
        ]
        cleaned = drop_spikes(GapTrace(t, c))
        assert np.array_equal(cleaned.taus, t[keep])
        assert np.array_equal(cleaned.cs, c[keep])

    def test_explicit_window(self):
        e = estimate_gap(line_trace(), window=(2.0, 5.0))
        assert e.window == (2.0, 5.0)
        assert e.gap == pytest.approx(2.0, abs=1e-12)

    def test_noisy_samples_give_no_window(self):
        rng = np.random.default_rng(1)
        t = np.arange(0.0, 30.0, 0.2)
        c = 0.5 - 1.07 * t + 0.01 * rng.normal(size=t.size)
        est = estimate_gap(GapTrace(t, c))
        assert est.window is None
        assert est.quality == QUALITY_NO_WINDOW


class TestTraceValidation:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            GapTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_finite_required(self):
        with pytest.raises(ValueError):
            GapTrace(np.array([0.0, 1.0]), np.array([0.0, -np.inf]))


class TestRecordTrace:
    """The measure-and-stop loop every evolution driver runs through; the
    state here is the step count and measure a synthetic amplitude."""

    @staticmethod
    def run(measure, dtau=0.1, tau_max=1.0):
        advanced, measured = [], []

        def advance(st):
            advanced.append(st + 1)
            return st + 1

        def probe(st):
            measured.append(st)
            return measure(st)

        trace = record_trace(0, advance, probe, dtau, tau_max)
        return trace, advanced, measured

    def test_every_step_measured(self):
        trace, advanced, measured = self.run(lambda st: np.exp(-0.5 * st))
        assert advanced == list(range(1, 11))
        assert measured == list(range(11))
        assert np.array_equal(trace.taus, [0.1 * k for k in range(11)])
        assert np.array_equal(trace.cs, [-0.5 * k for k in range(11)])

    def test_zero_and_nonfinite_values_skipped(self):
        bad = {2: 0.0, 3: np.nan, 4: np.inf, 5: -np.inf}
        trace, advanced, _ = self.run(
            lambda st: bad.get(st, -np.exp(-st)), dtau=1.0, tau_max=8.0
        )
        assert advanced == list(range(1, 9))
        assert np.array_equal(trace.taus, [0.0, 1.0, 6.0, 7.0, 8.0])
        # negative amplitudes enter through their magnitude
        assert np.array_equal(trace.cs, [-0.0, -1.0, -6.0, -7.0, -8.0])

    def test_underflow_stop(self):
        # C = -tau drops below its first sample by ln(1e-14) ~ -32.24 at tau 33
        trace, advanced, _ = self.run(
            lambda st: np.exp(-float(st)), dtau=1.0, tau_max=100.0
        )
        assert trace.taus[-1] == 33.0
        assert advanced[-1] == 33
        assert len(trace) == 34

    def test_underflow_measured_from_first_kept_sample(self):
        # the zero at step 0 is skipped, so the drop counts from tau = 1
        trace, _, _ = self.run(
            lambda st: 0.0 if st == 0 else np.exp(-float(st)),
            dtau=1.0, tau_max=100.0,
        )
        assert trace.taus[0] == 1.0
        assert trace.taus[-1] == 34.0

    def test_last_step_within_tau_max(self):
        # 3.5 / 1.0 rounded half to even would plan a step to tau = 4
        trace, advanced, _ = self.run(
            lambda st: np.exp(-float(st)), dtau=1.0, tau_max=3.5
        )
        assert advanced == [1, 2, 3]
        assert trace.taus[-1] == 3.0

    @pytest.mark.parametrize("dtau, tau_max, steps", [
        (1.0, 3.5, 3), (0.3, 1.0, 3), (0.2, 0.6, 3), (0.05, 2.3, 46),
        (0.05, 9.0, 180), (0.2, 32.0, 160), (0.05, 25.0, 500),
        (0.02, 32.0, 1600),
    ])
    def test_planned_steps(self, dtau, tau_max, steps):
        assert planned_steps(dtau, tau_max) == steps

    @staticmethod
    def replay(c_of_tau, dtau, tau_max):
        """The recorded trace of C(tau), and the trace of every planned step;
        a C of -inf is a skipped sample (a trace gap) in both."""
        def measure(step):
            return np.exp(c_of_tau(step * dtau))

        trace = record_trace(0, lambda st: st + 1, measure, dtau, tau_max)
        kept = [k for k in range(planned_steps(dtau, tau_max) + 1) if measure(k) != 0.0]
        full = GapTrace(dtau * np.array(kept), [np.log(abs(measure(k))) for k in kept])
        assert np.array_equal(trace.taus, full.taus[:len(trace)])
        assert np.array_equal(trace.cs, full.cs[:len(trace)])
        return trace, full

    @staticmethod
    def bend(at):
        """Slope -0.5 after a transient that outlasts the transient cut,
        bending away from tau = ``at``; C(0) = 8, so the underflow floor
        lies below every C reached."""
        return lambda t: -0.5 * t + 8.0 * np.exp(-2.0 * t) - 0.05 * max(t - at, 0.0) ** 2

    def test_stops_once_the_window_cannot_change(self, monkeypatch):
        # the benchmark reads its fit time from the one estimate_gap call
        # after the run, so the stop rule must not call it
        def unexpected(*args, **kwargs):
            raise AssertionError("estimate_gap called while recording")

        monkeypatch.setattr(estimator, "estimate_gap", unexpected)
        trace, full = self.replay(self.bend(16.0), dtau=0.1, tau_max=30.0)
        monkeypatch.undo()
        assert len(trace) < 0.7 * len(full)
        assert trace.cs[-1] - trace.cs[0] > np.log(1e-14)
        est = estimate_gap(trace)
        assert est.window[1] == pytest.approx(16.0)
        assert est == estimate_gap(full)

    def test_short_early_plateau_does_not_stop_the_run(self):
        # slope -0.5 on [2, 5], then a longer plateau at -0.55 that bends at 22
        trace, full = self.replay(
            lambda t: (-0.5 * t + 2.0 * np.exp(-4.0 * t) - 0.05 * max(t - 5.0, 0.0)
                       - 0.05 * max(t - 22.0, 0.0) ** 2),
            dtau=0.1, tau_max=30.0,
        )
        # what a stop a few samples after the first plateau would read
        early = estimate_gap(GapTrace(full.taus[:80], full.cs[:80]))
        assert early.quality == QUALITY_CLEAN
        assert early.window[1] < 5.0 and early.gap == pytest.approx(0.5, abs=1e-3)
        assert len(trace) < len(full)
        est = estimate_gap(trace)
        assert est.window[0] > 5.0 and est.gap == pytest.approx(0.55, abs=1e-6)
        assert est == estimate_gap(full)

    @pytest.mark.parametrize("at, tau_max", [
        (16.0, 30.0), (20.0, 24.0), (20.0, 21.0), (24.0, 25.0),
    ])
    def test_stop_waits_for_samples_after_the_window(self, at, tau_max):
        trace, full = self.replay(self.bend(at), dtau=0.1, tau_max=tau_max)
        assert len(trace) < len(full)
        est = estimate_gap(trace)
        assert np.sum(trace.taus > est.window[1]) >= SPIKE_HALFWIDTH + 1
        assert est == estimate_gap(full)

    def test_stopped_fit_is_the_full_fit(self):
        # C integrated from plateau derivatives, with spikes and one trace
        # gap: wherever the full trace's transient cut lies before its
        # window, the stopped trace reads the same fit, field for field
        dtau, n = 0.05, 160
        checked = stopped = 0  # traces compared, and those that stopped early
        for seed in range(24):
            rng = np.random.default_rng(seed)
            cs = np.r_[0.0, np.cumsum(plateaus(rng, n) * dtau)]
            cs[rng.choice(np.arange(1, n + 1), size=3, replace=False)] -= 1.5 * SPIKE_DEPTH
            cs[rng.integers(1, n + 1)] = -np.inf
            trace, full = self.replay(lambda t: cs[round(t / dtau)], dtau, n * dtau)
            assert len(full) == n and len(drop_spikes(full)) < n
            deriv = numerical_derivative(drop_spikes(full))[1]
            idx, _ = detect_linear_window(deriv)
            if idx is not None and idx[0] > len(deriv) // 10:
                checked += 1
                stopped += len(trace) < len(full)
                assert estimate_gap(trace) == estimate_gap(full), seed
        assert checked >= 12 and stopped >= 6, (checked, stopped)

    def test_open_plateau_runs_to_tau_max(self):
        trace, full = self.replay(self.bend(40.0), dtau=0.1, tau_max=30.0)
        assert len(trace) == len(full)
