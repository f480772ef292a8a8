import numpy as np
import pytest
from numpy.testing import assert_allclose

from specgap import oracle
from specgap.models import PAULI_X, PAULI_Y, PAULI_Z
from specgap.oracle import (
    OverlapKind,
    UnderflowError,
    classify_overlap,
    commutator_expectation_exact,
    commutator_log_magnitude,
    evolve_exact,
    spectral_decompose,
    theorem1_slope_check,
)


def open_chain_tfim(n, J, g):
    """Dense open-boundary transverse-field Ising chain."""
    dim = 2**n
    h = np.zeros((dim, dim))
    for i in range(n):
        ops = [np.eye(2)] * n
        ops[i] = -g * PAULI_X
        m = ops[0]
        for o in ops[1:]:
            m = np.kron(m, o)
        h = h + m
    for i in range(n - 1):
        ops = [np.eye(2)] * n
        ops[i] = PAULI_Z
        ops[i + 1] = PAULI_Z
        m = ops[0]
        for o in ops[1:]:
            m = np.kron(m, o)
        h = h - J * m
    return h


def sum_local(op, n):
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        ops = [np.eye(2)] * n
        ops[i] = op
        m = ops[0]
        for o in ops[1:]:
            m = np.kron(m, o)
        out = out + m
    return out


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


class TestSpectralDecompose:
    def test_sigma_z(self):
        d = spectral_decompose(PAULI_Z)
        assert_allclose(d.energies, [-1.0, 1.0])
        assert_allclose(d.projectors[0], np.diag([0.0, 1.0]), atol=1e-14)
        assert_allclose(d.projectors[1], np.diag([1.0, 0.0]), atol=1e-14)

    def test_identity_fully_degenerate(self):
        d = spectral_decompose(np.eye(5))
        assert d.n_levels == 1
        assert_allclose(d.projectors[0], np.eye(5), atol=1e-14)

    def test_tfim_chain_invariants(self):
        h = open_chain_tfim(3, 1.0, 0.5)
        d = spectral_decompose(h)
        defects = d.defects(h)
        assert defects["orthogonality"] < 1e-10
        assert defects["completeness"] < 1e-10
        assert defects["eigen"] < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_DIM_CAP", 4)
        with pytest.raises(ValueError, match="cap"):
            spectral_decompose(np.eye(8))


class TestEvolveExact:
    def test_tau_zero_normalizes(self):
        d = spectral_decompose(PAULI_Z)
        psi = evolve_exact(d, np.array([3.0, 4.0]), 0.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        assert_allclose(np.abs(psi), [0.6, 0.8])

    def test_eigenvector_invariant(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 6)
        w, v = np.linalg.eigh(h)
        d = spectral_decompose(h)
        # moderate tau: beyond e^{-tau(E_k-E_0)} ~ 1e-16 the parasitic
        # float components of the "exact" eigenvector take over
        for tau in (0.0, 1.0, 3.0):
            psi = evolve_exact(d, v[:, 2], tau)
            overlap = abs(np.vdot(psi, v[:, 2]))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_projection_limit(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 8)
        d = spectral_decompose(h)
        phi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        tau = 50.0 / d.gap()
        psi = evolve_exact(d, phi0, tau)
        p0 = d.projectors[0] @ phi0
        p0 /= np.linalg.norm(p0)
        assert abs(np.vdot(psi, p0)) > 1.0 - 1e-8

    def test_underflow_reported(self):
        d = spectral_decompose(np.diag([0.0, 1.0, 2.0]))
        phi0 = np.array([0.0, 0.0, 1.0])  # orthogonal to the ground level
        with pytest.raises(UnderflowError):
            evolve_exact(d, phi0, 1e6)


class TestCommutatorExpectation:
    def test_identity_observable_vanishes(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 6)
        d = spectral_decompose(h)
        phi0 = rng.normal(size=6)
        for tau in (0.0, 1.0, 5.0):
            val = commutator_expectation_exact(d, np.eye(6), phi0, tau)
            assert abs(val) < 1e-12

    def test_hamiltonian_as_observable_vanishes(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 6)
        d = spectral_decompose(h)
        phi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        val = commutator_expectation_exact(d, h, phi0, 2.0)
        assert abs(val) < 1e-10

    def test_matches_direct_sandwich(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 10)
        obs = random_hermitian(rng, 10)
        phi0 = rng.normal(size=10) + 1j * rng.normal(size=10)
        d = spectral_decompose(h)
        for tau in (1.0, 2.0, 3.0):
            psi = evolve_exact(d, phi0, tau)
            direct = np.vdot(psi, (h @ obs - obs @ h) @ psi)
            stable = commutator_expectation_exact(d, obs, phi0, tau)
            assert abs(direct - stable) < 1e-10

    def test_log_magnitude_matches_linear_domain(self):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 8)
        obs = random_hermitian(rng, 8)
        phi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        d = spectral_decompose(h)
        for tau in (0.5, 2.0, 8.0):
            lin = np.log(abs(commutator_expectation_exact(d, obs, phi0, tau)))
            logd = commutator_log_magnitude(d, obs, phi0, tau)
            assert abs(lin - logd) < 1e-10
        # and it keeps going long after the linear value underflows
        big = commutator_log_magnitude(d, obs, phi0, 1000.0)
        assert np.isfinite(big)

    def test_anti_hermiticity(self):
        # <[H,O]> equals minus its own conjugate: real part negligible
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 8)
        obs = random_hermitian(rng, 8)
        phi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        d = spectral_decompose(h)
        val = commutator_expectation_exact(d, obs, phi0, 1.5)
        assert abs(val.real) < 1e-12 * abs(val)


class TestClassifyOverlap:
    def test_all_real_is_neither(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        h = (a + a.T) / 2
        b = rng.normal(size=(6, 6))
        obs = (b + b.T) / 2
        phi0 = rng.normal(size=6)
        cls = classify_overlap(spectral_decompose(h), obs, phi0)
        assert cls.kind is OverlapKind.NEITHER

    def test_tfim_sigma_y_first_gap(self):
        h = open_chain_tfim(6, 0.2, 1.0)
        obs = sum_local(PAULI_Y, 6)
        rng = np.random.default_rng(8)
        phi0 = rng.normal(size=64)
        cls = classify_overlap(spectral_decompose(h), obs, phi0)
        assert cls.kind is OverlapKind.FIRST_GAP

    def test_constructed_second_gap_witness(self):
        h = np.diag([0.0, 1.0, 2.0])
        obs = np.array(
            [[0.0, 1.0, 1.0j], [1.0, 0.0, 0.0], [-1.0j, 0.0, 0.0]]
        )
        phi0 = np.ones(3) / np.sqrt(3.0)
        cls = classify_overlap(spectral_decompose(h), obs, phi0)
        assert cls.kind is OverlapKind.SECOND_GAP

    def test_too_few_levels(self):
        with pytest.raises(ValueError, match="levels"):
            classify_overlap(spectral_decompose(np.eye(3)), PAULI_Y, np.ones(3))


class TestSlopeCheck:
    def test_two_level_exact(self):
        h = np.diag([0.0, 1.3])
        obs = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
        phi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        d = spectral_decompose(h)
        # no interlevel subleading channel exists; the only correction is
        # the normalization tail at rate 2(E1-E0), dead in a late window
        slope = theorem1_slope_check(d, obs, phi0, np.linspace(10.0, 20.0, 30))
        assert slope == pytest.approx(-1.3, abs=1e-9)

    def test_second_gap_witness_slope(self):
        h = np.diag([0.0, 1.0, 2.0])
        obs = np.array(
            [[0.0, 1.0, 1.0j], [1.0, 0.0, 0.0], [-1.0j, 0.0, 0.0]]
        )
        phi0 = np.ones(3) / np.sqrt(3.0)
        d = spectral_decompose(h)
        slope = theorem1_slope_check(d, obs, phi0)
        assert slope == pytest.approx(-2.0, rel=1e-6)

    def test_random_ensemble_sample(self):
        # condensed version of the acceptance ensemble (10 seeds)
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            d, obs, phi0 = make_ensemble_instance(rng)
            slope = theorem1_slope_check(d, obs, phi0)
            assert abs(slope + d.gap()) < 1e-6 * d.gap()

    def test_neither_classification_rejected(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5))
        h = (a + a.T) / 2
        obs = (a @ a.T + a.T @ a) / 2
        with pytest.raises(ValueError, match="neither"):
            theorem1_slope_check(spectral_decompose(h), obs, rng.normal(size=5))

    def test_derivative_converges_at_subleading_rate(self):
        # first-gap instance: ln|<[H,O]>| slope error shrinks like
        # e^{-tau (E2 - E1)}; compare the defect at tau and 2 tau
        rng = np.random.default_rng(10)
        d, obs, phi0 = make_ensemble_instance(rng, gamma_frac=0.5)
        gap = d.gap()
        gamma = float(d.energies[2] - d.energies[1])

        def local_slope(tau, h=1e-4):
            lo = np.log(abs(commutator_expectation_exact(d, obs, phi0, tau - h)))
            hi = np.log(abs(commutator_expectation_exact(d, obs, phi0, tau + h)))
            return (hi - lo) / (2 * h)

        t1 = 6.0 / gamma
        err1 = abs(local_slope(t1) + gap)
        err2 = abs(local_slope(2 * t1) + gap)
        assert err2 < err1 * np.exp(-0.8 * gamma * t1)


def make_ensemble_instance(rng, gamma_frac=None):
    """Seeded random instance with a controlled low-energy structure.

    E1 - E0 near 1, E2 - E1 a small fraction of it (the window rule ties
    tau to that separation), higher levels well spaced, Haar-like basis,
    dense complex observable with a robustly nonreal ground-to-first
    witness element.
    """
    dim = int(rng.integers(8, 13))
    delta = rng.uniform(0.9, 1.1)
    frac = gamma_frac if gamma_frac is not None else rng.uniform(0.015, 0.03)
    gamma = delta * frac
    evals = np.concatenate(
        [[0.0, delta, delta + gamma],
         delta + gamma + np.cumsum(rng.uniform(0.3, 0.7, dim - 3))]
    )
    q = np.linalg.qr(
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )[0]
    h = q @ np.diag(evals) @ q.conj().T
    d = spectral_decompose(h)
    scale = 0.0
    while True:
        obs = random_hermitian(rng, dim)
        phi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        cls = classify_overlap(d, obs, phi0)
        scale = np.linalg.norm(obs, 2) / dim
        if (
            cls.kind is OverlapKind.FIRST_GAP
            and abs(cls.m01.imag) > 0.3 * scale
        ):
            return d, obs, phi0
