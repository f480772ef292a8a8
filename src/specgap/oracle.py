"""Exact dense reference for the commutator-decay gap relation.

Spectral decomposition into level projectors, norm-preserving imaginary-time
propagation, commutator expectations evaluated through the spectral double
sum (numerically stable at large tau, where a direct sandwich would lose the
signal to cancellation), overlap-condition classification, and the fitted
slope check.  This module is the ground-truth generator for every derived
expectation in the test suite; it is deliberately dense-matrix only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import add_work

# largest matrix ``spectral_decompose`` accepts
ORACLE_DIM_CAP = 4096
# relative tolerance of the Hermiticity check, on the largest entry (or 1)
HERMITIAN_TOL = 1e-12
# eigenvalues closer than this fraction of the spectral range share a level
DEGENERACY_REL_TOL = 1e-10
# a witness element is nonzero when its imaginary part exceeds this
# fraction of the observable's spectral norm
IMAG_REL_TOL = 1e-10
# samples of the default slope-check tau grid
TAU_GRID_POINTS = 50


class UnderflowError(ArithmeticError):
    """All retained amplitudes underflowed during imaginary-time propagation."""


@dataclass
class SpectralDecomposition:
    """Distinct energy levels and their orthogonal projectors."""

    energies: np.ndarray          # strictly increasing level values
    projectors: list[np.ndarray]  # Hermitian, mutually orthogonal, sum = 1
    dimension: int

    @property
    def n_levels(self) -> int:
        return self.energies.size

    def gap(self) -> float:
        """First gap E1 - E0."""
        return float(self.energies[1] - self.energies[0])

    def defects(self, h: np.ndarray | None = None) -> dict[str, float]:
        """Max deviations from orthogonality, completeness, eigen-relation."""
        dim = self.dimension
        ortho = 0.0
        for i, p in enumerate(self.projectors):
            for j, q in enumerate(self.projectors):
                ref = p if i == j else np.zeros_like(p)
                ortho = max(ortho, float(np.max(np.abs(p @ q - ref))))
        complete = float(np.max(np.abs(sum(self.projectors) - np.eye(dim))))
        out = {"orthogonality": ortho, "completeness": complete}
        if h is not None:
            eig = max(
                float(np.max(np.abs(h @ p - e * p)))
                for e, p in zip(self.energies, self.projectors)
            )
            out["eigen"] = eig
        return out


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.conj().T))) > HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return h


def spectral_decompose(h: np.ndarray) -> SpectralDecomposition:
    """Eigenvalues clustered into levels, with one projector per level.

    Eigenvalues closer than ``DEGENERACY_REL_TOL`` times the spectral range
    belong to one level and share a projector.  A matrix larger than
    ``ORACLE_DIM_CAP`` is rejected.
    """
    h = _check_hermitian(h)
    n = h.shape[0]
    if n > ORACLE_DIM_CAP:
        raise ValueError(f"dimension {n} exceeds oracle cap {ORACLE_DIM_CAP}")
    w, v = np.linalg.eigh(h)
    add_work(9.0 * n**3)
    degeneracy_tol = DEGENERACY_REL_TOL * float(w[-1] - w[0])
    energies = []
    projectors = []
    start = 0
    for i in range(1, n + 1):
        if i == n or w[i] - w[i - 1] > degeneracy_tol:
            block = v[:, start:i]
            energies.append(float(np.mean(w[start:i])))
            projectors.append(block @ block.conj().T)
            start = i
    return SpectralDecomposition(np.array(energies), projectors, n)


def evolve_exact(
    d: SpectralDecomposition, phi0: np.ndarray, tau: float
) -> np.ndarray:
    """exp(-tau H)|phi0>, renormalized to unit norm.

    The factor exp(+tau E0) is pulled out before summing so the amplitudes
    stay representable; the normalized result is unchanged by that shift.
    """
    phi0 = np.asarray(phi0, dtype=complex)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if np.linalg.norm(phi0) == 0.0:
        raise ValueError("phi0 must be nonzero")
    shifts = d.energies - d.energies[0]
    psi = np.zeros_like(phi0)
    for shift, p in zip(shifts, d.projectors):
        w = np.exp(-tau * shift)
        if w == 0.0:
            continue
        psi = psi + w * (p @ phi0)
    nrm = np.linalg.norm(psi)
    if not nrm > 0.0:
        raise UnderflowError(
            f"all retained amplitudes underflowed at tau = {tau:g}"
        )
    return psi / nrm


def _level_amplitudes(
    d: SpectralDecomposition, phi0: np.ndarray
) -> list[np.ndarray]:
    phi0 = np.asarray(phi0, dtype=complex)
    return [p @ phi0 for p in d.projectors]


def commutator_expectation_exact(
    d: SpectralDecomposition,
    O: np.ndarray,
    phi0: np.ndarray,
    tau: float,
) -> complex:
    """<phi(tau)|[H, O]|phi(tau)> for the normalized evolved state.

    Evaluated through the spectral double sum
        sum_{l,k} e^{-tau(E_l + E_k - 2 E_0)} (E_l - E_k) <phi0|P_l O P_k|phi0>
    divided by sum_l e^{-2 tau (E_l - E_0)} <phi0|P_l|phi0>, which is free of
    the catastrophic cancellation a direct HO - OH sandwich suffers once the
    commutator amplitude drops below machine precision relative to |H||O|.
    """
    O = np.asarray(O)
    amps = _level_amplitudes(d, phi0)
    shifts = d.energies - d.energies[0]
    weights = np.exp(-tau * shifts)
    den = sum(
        float(w * w) * float(np.real(np.vdot(a, a)))
        for w, a in zip(weights, amps)
    )
    if not den > 0.0:
        raise UnderflowError(f"normalization underflowed at tau = {tau:g}")
    oa = [O @ a for a in amps]
    num = 0.0 + 0.0j
    n = d.n_levels
    for l in range(n):
        if weights[l] == 0.0:
            continue
        for k in range(n):
            if k == l or weights[k] == 0.0:
                continue
            m_lk = complex(np.vdot(amps[l], oa[k]))
            num += weights[l] * weights[k] * (d.energies[l] - d.energies[k]) * m_lk
    add_work(float(n * n) * d.dimension**2)
    return num / den


def commutator_log_magnitude(
    d: SpectralDecomposition,
    O: np.ndarray,
    phi0: np.ndarray,
    tau: float,
) -> float:
    """ln|<phi(tau)|[H, O]|phi(tau)>| evaluated in the log domain.

    The leading pair exponent is pulled out of the double sum before
    exponentiating, so the result stays finite at any tau where the true
    magnitude is nonzero -- far past the point where the linear-domain
    value underflows double precision.
    """
    O = np.asarray(O)
    amps = _level_amplitudes(d, phi0)
    shifts = d.energies - d.energies[0]
    den = 0.0
    for shift, a in zip(shifts, amps):
        den += float(np.exp(-2.0 * tau * shift)) * float(np.real(np.vdot(a, a)))
    if not den > 0.0:
        raise UnderflowError(f"normalization underflowed at tau = {tau:g}")
    oa = [O @ a for a in amps]
    n = d.n_levels
    if n < 2:
        raise ValueError("need at least two levels")
    base = shifts[0] + shifts[1]  # smallest possible pair exponent
    bracket = 0.0 + 0.0j
    for l in range(n):
        for k in range(n):
            if k == l:
                continue
            w = np.exp(-tau * (shifts[l] + shifts[k] - base))
            if w == 0.0:
                continue
            m_lk = complex(np.vdot(amps[l], oa[k]))
            bracket += w * (d.energies[l] - d.energies[k]) * m_lk
    add_work(float(n * n) * d.dimension**2)
    mag = abs(bracket)
    if mag == 0.0:
        raise UnderflowError(f"commutator amplitude underflowed at tau = {tau:g}")
    return float(-base * tau + np.log(mag) - np.log(den))


class OverlapKind(Enum):
    FIRST_GAP = "first-gap"
    SECOND_GAP = "second-gap"
    NEITHER = "neither"


@dataclass
class OverlapClass:
    """Which gap the observable exposes, with the witness matrix elements."""

    kind: OverlapKind
    m01: complex
    m02: complex | None


def classify_overlap(
    d: SpectralDecomposition,
    O: np.ndarray,
    phi0: np.ndarray,
) -> OverlapClass:
    """First-gap / second-gap / neither, by the imaginary parts of the
    ground-to-excited witness elements <phi0|P0 O P1|phi0> and ... P2 ..."""
    if d.n_levels < 2:
        raise ValueError("classification needs at least 2 levels")
    O = np.asarray(O)
    imag_tol = IMAG_REL_TOL * float(np.linalg.norm(O, 2))
    amps = _level_amplitudes(d, phi0)
    oa = [O @ a for a in amps]
    m01 = complex(np.vdot(amps[0], oa[1]))
    m02 = complex(np.vdot(amps[0], oa[2])) if d.n_levels >= 3 else None
    if abs(m01.imag) > imag_tol:
        return OverlapClass(OverlapKind.FIRST_GAP, m01, m02)
    if m02 is not None and abs(m02.imag) > imag_tol:
        return OverlapClass(OverlapKind.SECOND_GAP, m01, m02)
    return OverlapClass(OverlapKind.NEITHER, m01, m02)


def default_tau_grid(d: SpectralDecomposition) -> np.ndarray:
    """tau in [10, 20] / (E2 - E1): the subleading factor is <= e^-10 there."""
    if d.n_levels < 3:
        raise ValueError("default window needs at least 3 levels")
    sep = float(d.energies[2] - d.energies[1])
    return np.linspace(10.0 / sep, 20.0 / sep, TAU_GRID_POINTS)


def theorem1_slope_check(
    d: SpectralDecomposition,
    O: np.ndarray,
    phi0: np.ndarray,
    tau_grid: np.ndarray | None = None,
) -> float:
    """Least-squares slope of ln|<[H,O]>(tau)| over the grid.

    The classification must be first-gap or second-gap; the fitted slope
    then approaches -(E1 - E0) or -(E2 - E0) respectively.
    """
    cls = classify_overlap(d, O, phi0)
    if cls.kind is OverlapKind.NEITHER:
        raise ValueError("observable satisfies neither overlap condition")
    if tau_grid is None:
        tau_grid = default_tau_grid(d)
    tau_grid = np.asarray(tau_grid, dtype=float)
    vals = np.empty_like(tau_grid)
    for i, tau in enumerate(tau_grid):
        vals[i] = commutator_log_magnitude(d, O, phi0, tau)
    slope = np.polyfit(tau_grid, vals, 1)[0]
    return float(slope)
