"""Infinite MPS in bond-weight (Vidal) form with imaginary-time TEBD.

Two-site unit cell: site tensors G[0], G[1] with axes (left, phys, right),
bond weights lam[0] (right of site 0) and lam[1] (right of site 1).  The
state reads ... lam[1] G[0] lam[0] G[1] lam[1] ...  Expectation values use
the canonical closure, which is exact in 1D.  Imaginary-time gates break
that form.

A 1D run carries the canonical cell (``IMpsCell``): the two-site block
``lam1 A lam1``, A = G0 lam0 G1, with bond 0 inside it not cut.  A step
applies its first half gate to the cell and makes its one bond-0 cut
(``split_cell``), makes the plain bond-1 update (``tebd_step``), and
``recanonicalize`` applies the last half gate to the blocked cell and
restores the canonical form in one shot from the dominant fixed points of
the two-site transfer maps (Orus & Vidal, PRB 78, 155117 (2008)).  Its
result is the next cell, and that cell is what the step measures: it is
canonical up to the fixed points' error, with no cut after them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .estimator import GapTrace, planned_steps, record_trace
from .models import Model, OperatorTerms, bond_hamiltonian, split_hamiltonian
from .tensor import (SVD_CUT, add_work, einsum2, pinv_weights, psd_factor,
                     truncated_svd, warn_below_floor, warn_imaginary)


@dataclass
class IMpsState:
    """Vidal-form infinite MPS with a two-site unit cell."""

    gammas: list[np.ndarray]
    lams: list[np.ndarray]

    @property
    def local_dim(self) -> int:
        return self.gammas[0].shape[1]


@dataclass
class IMpsCell:
    """Two-site block ``theta = lam1 G0 lam0 G1 lam1`` of a canonical iMPS,
    axes (left, phys 0, phys 1, right), with bond 0 not cut, and its outer
    weights ``lam`` (bond 1).

    With ``A`` the block with ``lam`` divided out on both ends, ``lam A``
    is a left and ``A lam`` a right isometry, up to one common scale that
    neither the bond-0 cut (unit-norm weights) nor the measurement
    (normalized by the norm) sees.
    """

    theta: np.ndarray
    lam: np.ndarray

    @property
    def local_dim(self) -> int:
        return self.theta.shape[1]


def random_product_imps(local_dim: int, seed: int) -> IMpsState:
    """Bond-dimension-1 state of two independent random real unit vectors."""
    rng = np.random.default_rng(seed)
    gammas = []
    for _ in range(2):
        v = rng.normal(size=local_dim)
        v /= np.linalg.norm(v)
        gammas.append(v.reshape(1, local_dim, 1))
    return IMpsState(gammas, [np.ones(1), np.ones(1)])


def identity_gate(local_dim: int) -> np.ndarray:
    """The two-site identity as a gate (out_i, out_j, in_i, in_j)."""
    return np.eye(local_dim * local_dim).reshape((local_dim,) * 4)


def _block(state: IMpsState, b: int) -> np.ndarray:
    """The two sites across bond ``b`` with the other bond's weights on
    both open ends: ``lam G_b lam_b G_(1-b) lam``."""
    lam_env = state.lams[1 - b]  # both outer bonds are the other weight
    t1 = state.gammas[b] * lam_env[:, None, None] * state.lams[b][None, None, :]
    t2 = state.gammas[1 - b] * lam_env[None, None, :]
    return einsum2("apb,bqc->apqc", t1, t2)


def to_cell(state: IMpsState) -> IMpsCell:
    """The cell of a Vidal-form state: its block across bond 0."""
    return IMpsCell(_block(state, 0), state.lams[1])


def _gate_and_cut(theta, gate, inv_env, D_max, rel_tol, bond):
    """Apply ``gate`` to a two-site block, cut the middle bond to ``D_max``
    and divide the outer weights back out with ``inv_env``."""
    theta = einsum2("xypq,apqc->axyc", np.asarray(gate), theta)
    dl, d, _, dr = theta.shape
    u, lam_new, vh, discarded = truncated_svd(
        theta.reshape(dl * d, d * dr), D_max, rel_tol
    )
    warn_below_floor(lam_new, bond)
    left = u.reshape(dl, d, -1) * inv_env[:, None, None]
    right = vh.reshape(-1, d, dr) * inv_env[None, None, :]
    return left, lam_new, right, discarded


def tebd_step(
    state: IMpsState,
    bond_gate: np.ndarray,
    which_bond: int,
    D_max: int,
    rel_tol: float = SVD_CUT,
) -> tuple[IMpsState, float]:
    """Apply a two-site gate across one bond and re-truncate.

    gate axes: (out_i, out_j, in_i, in_j).  Neighboring bond weights are
    absorbed before the gate and divided out (with a pseudo-inverse floor)
    afterwards; the new bond weights are renormalized to unit norm.
    """
    b = which_bond
    gi, lam_new, gj, discarded = _gate_and_cut(
        _block(state, b), bond_gate, pinv_weights(state.lams[1 - b]),
        D_max, rel_tol, b,
    )
    gammas = list(state.gammas)
    lams = list(state.lams)
    gammas[b], gammas[1 - b] = gi, gj
    lams[b] = lam_new
    return IMpsState(gammas, lams), discarded


def split_cell(
    cell: IMpsCell,
    gate: np.ndarray,
    D_max: int,
    rel_tol: float = SVD_CUT,
) -> tuple[IMpsState, float]:
    """Apply ``gate`` across bond 0 of the cell and cut bond 0 to ``D_max``.

    ``tebd_step`` on bond 0, made on the block itself: the same gate axes,
    cut and return value.  The outer weights are divided out exactly; the
    cell's weights are the kept values of a cut, all above its floor.
    With the identity gate this is the Vidal form of the cell.
    """
    g0, lam0, g1, discarded = _gate_and_cut(
        cell.theta, gate, 1.0 / cell.lam, D_max, rel_tol, 0)
    return IMpsState([g0, g1], [lam0, cell.lam]), discarded


def expectation_terms_imps(cell: IMpsCell, terms: OperatorTerms) -> float:
    """Per-unit-cell expectation of translation-invariant local terms.

    Supports of up to three contiguous sites, each term summed over the two
    inequivalent base sites of the unit cell.  Two cells make the block
    ``lam1 A lam1 A lam1`` of sites (0, 1, 0', 1'), closed with identities
    on both open bonds (the canonical closure, exact in 1D).  The reduced
    density matrices of its windows (0, 1, 0') and (1, 0', 1') are built
    once, transposed; a k-site term at base site b reads window b traced
    down to its first k sites, as the dot product of that transpose with
    the term's matrix, so no term copies a window.
    """
    d = cell.local_dim
    for term in terms.terms:
        offsets = [s[0] for s in term.sites]
        if offsets != list(range(len(offsets))) or len(offsets) > 3:
            raise ValueError(
                f"unsupported term support {term.sites}: need <= 3 contiguous sites"
            )
    r = cell.lam.size
    half = (cell.theta / cell.lam).reshape(r, d * d, r)  # lam1 A
    two = einsum2("apb,bqc->apqc", half, cell.theta.reshape(r, d * d, r))
    norm = float(np.real(np.vdot(two, two)))  # <psi|psi> of the two cells
    two = two.reshape(r, d, d, d, d, r)
    windows = []
    for perm in ((1, 2, 3, 0, 4, 5), (2, 3, 4, 0, 1, 5)):
        # rows: the window's three sites; columns: the traced rest
        rows = np.ascontiguousarray(two.transpose(perm)).reshape(d**3, -1)
        windows.append(einsum2("qy,py->qp", rows.conj(), rows))
    total = 0.0
    imag_max = 0.0
    for term in terms.terms:
        k = len(term.sites)
        flat = term.matrix.ravel()
        for rho_t in windows:
            shaped = rho_t.reshape(d**k, d ** (3 - k), d**k, d ** (3 - k))
            val = complex(np.trace(shaped, axis1=1, axis2=3).ravel() @ flat) / norm
            imag_max = max(imag_max, abs(val.imag))
            total += val.real
    warn_imaginary(imag_max, total)
    return total


def canonical_defect(state: IMpsState) -> float:
    """Max deviation of the bond-weighted isometry conditions from identity."""
    worst = 0.0
    for i in (0, 1):
        g = state.gammas[i]
        lam_l = state.lams[1 - i]
        lam_r = state.lams[i]
        t = g * lam_l[:, None, None]
        left = einsum2("asb,asc->bc", np.conj(t), t)
        t = g * lam_r[None, None, :]
        right = einsum2("asb,csb->ac", t, np.conj(t))
        worst = max(
            worst,
            float(np.max(np.abs(left - np.eye(left.shape[0])))),
            float(np.max(np.abs(right - np.eye(right.shape[0])))),
        )
    return worst


# cap on the power iterations of the transfer-map fixed points
FIXED_POINT_MAX_ITER = 2000
# iterations without a new smallest step after which the loop is taken
# to have stalled at the iterate's rounding floor
FIXED_POINT_STALL = 20
# error bound on each transfer-map fixed point of ``recanonicalize``
CANONICAL_TOL = 1e-8


def _fixed_points(apply, dim: int, tol: float) -> np.ndarray:
    """Dominant eigenmatrices of a stack of two completely positive maps.

    ``apply`` maps a (2, dim, dim) stack to the stack of both maps' images.
    Power iteration from the identity, the exact fixed point of a
    canonical state; each iterate is scaled to trace ``dim``.  One TEBD
    step does not leave the fixed points near the identity: on the
    J = 0.8, g = 1, D = 32 chain (dtau 0.05), from step 50 on, each lies
    0.24-0.33 from the identity in its largest entry difference, the
    first iteration moves it by 0.15-0.22, and the steps then shrink by
    about 0.6 per iteration (0.4-0.64), for 18-41 iterations, 34 on
    average.  The loop stops once an iteration moves no entry of either
    map by more than ``tol / 100``: the steps shrink geometrically, so
    the remaining error stays below ``tol`` for any contraction ratio up
    to 0.99.  A step that has stopped shrinking, with no new smallest
    step in ``FIXED_POINT_STALL`` iterations, is taken to sit at the
    iterate's rounding floor: the loop ends there, as it does at the
    cap, with a warning, and returns the last iterates.
    """
    v = np.stack([np.eye(dim), np.eye(dim)])
    smallest, since = math.inf, 0
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        w = apply(v)
        w = w * (dim / np.real(np.trace(w, axis1=1, axis2=2)))[:, None, None]
        step = float(np.max(np.abs(w - v)))
        v = w
        if step <= 1e-2 * tol:
            return v
        if step < smallest:
            smallest, since = step, 0
        else:
            since += 1
            if since >= FIXED_POINT_STALL:
                break
    warnings.warn(
        f"canonical fixed point unconverged after {iterations} "
        f"iterations (last step {step:.1e})",
        RuntimeWarning,
        stacklevel=3,
    )
    return v


def recanonicalize(
    state: IMpsState,
    gate: np.ndarray,
    tol: float = CANONICAL_TOL,
) -> IMpsCell:
    """Apply ``gate`` across bond 0, then restore the canonical form in one
    shot (Orus & Vidal, PRB 78, 155117) and return the cell.

    The cell is blocked into ``A = gate (G0 lam0 G1)``.  The dominant right
    and left fixed points of the two-site transfer maps at bond 1 are
    factored as ``X X^dag`` and ``Y^dag Y``; one SVD of ``Y lam1 X`` gives
    the new ``lam1`` and the gauge maps, and the result is ``lam1 A' lam1``
    in that gauge.  Bond 0 stays uncut inside it: the next step's
    ``split_cell`` cuts it after its first half gate, and ``split_cell``
    with the identity gate gives the Vidal form.  To re-gauge a state
    alone, pass the identity gate.  ``tol`` bounds the error of each fixed
    point (see ``_fixed_points``).
    """
    g0, g1 = state.gammas
    lam0, lam1 = state.lams
    d = state.local_dim
    dl = lam1.size
    a = einsum2("apb,bqc->apqc", g0 * lam0[None, None, :], g1)
    a = einsum2("xypq,apqc->axyc", np.asarray(gate), a).reshape(dl, d * d, dl)

    # right map V -> sum_s (A_s lam1) V (A_s lam1)^dag; the left map
    # V -> sum_s c_s^dag V c_s of c = lam1 A is the right map of the
    # conjugate-transposed cell c~[b, s, a] = conj(c[a, s, b])
    cells = np.stack([a * lam1[None, None, :],
                      np.conj(a * lam1[:, None, None]).transpose(2, 1, 0)])
    rows = cells.reshape(2, dl * d * d, dl)
    adj = np.ascontiguousarray(np.conj(cells.reshape(2, dl, -1)).transpose(0, 2, 1))
    work = 2 * 2.0 * dl**3 * d * d

    def maps(v):
        add_work(work)
        return np.matmul(np.matmul(rows, v).reshape(2, dl, -1), adj)

    v_right, v_left = _fixed_points(maps, dl, tol)
    x, x_inv = psd_factor(v_right)  # V_R = x^dag x
    y, y_inv = psd_factor(v_left)  # V_L = y^dag y
    u, lam1, wh, _ = truncated_svd((y * lam1[None, :]) @ x.conj().T, dl)
    r = lam1.size
    a = einsum2("xa,asb->xsb", wh @ x_inv.conj().T, a)
    a = einsum2("xsb,by->xsy", a, y_inv @ u)
    theta = a * lam1[:, None, None] * lam1[None, None, :]
    return IMpsCell(theta.reshape(r, d, d, r), lam1)


def pair_degeneracy_defect(lam: np.ndarray) -> float:
    """Max gap within consecutive pairs of a descending weight spectrum.

    Zero (to tolerance) when every value appears with even multiplicity.
    """
    lam = np.sort(np.asarray(lam))[::-1]
    n = lam.size - lam.size % 2
    pairs = lam[:n].reshape(-1, 2)
    defect = float(np.max(pairs[:, 0] - pairs[:, 1])) if n else 0.0
    if lam.size % 2:
        defect = max(defect, float(lam[-1]))
    return defect


@dataclass
class EvolutionSchedule:
    """Imaginary-time discretization and bookkeeping knobs."""

    dtau: float
    tau_max: float
    scheme: str = "gates"
    D_max: int = 8
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.dtau) or self.dtau <= 0:
            raise ValueError("dtau must be positive and finite")
        if not np.isfinite(self.tau_max):
            raise ValueError("tau_max must be finite")
        if self.tau_max < self.dtau:
            raise ValueError("tau_max must be at least dtau")
        if self.D_max < 1:
            raise ValueError("D_max must be >= 1")
        if self.scheme not in ("gates", "mpo"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def bond_gate(h_bond: np.ndarray, dtau: float) -> np.ndarray:
    """exp(-dtau h) as a (d, d, d, d) tensor (out_i, out_j, in_i, in_j)."""
    d = int(round(np.sqrt(h_bond.shape[0])))
    add_work(30.0 * h_bond.shape[0] ** 3)
    return expm(-dtau * h_bond).reshape(d, d, d, d)


def _setup_1d(
    model: Model,
    schedule: EvolutionSchedule,
    D_max: int,
    seed: int,
):
    """Initial cell and the ``advance(cell)`` sweep of a 1D run.

    One sweep is second-order Trotter: bond 0 at dtau/2, bond 1 at dtau,
    bond 0 at dtau/2.  Imaginary-time gates are not unitary, so a plain
    bond update leaves the state off the canonical form by O(dtau).  The
    run carries the canonical cell (``IMpsCell``), and the initial product
    state enters as one.  ``split_cell`` applies the first half gate to
    the cell and makes the step's one bond-0 cut, ``tebd_step`` makes the
    bond-1 update, and ``recanonicalize`` applies the last half gate and
    restores the canonical form.  The cell it returns is measured uncut,
    so the closure (and with it every measurement) is exact up to the
    fixed points' error.
    """
    if model.dimension != 1:
        raise ValueError("a 1D evolution needs a one-dimensional model")
    site, (bond,) = split_hamiltonian(model.hamiltonian, 1)
    h = bond_hamiltonian(site, bond, 2 * model.dimension)
    g_half = bond_gate(h, schedule.dtau / 2.0)
    g_full = bond_gate(h, schedule.dtau)

    def advance(cell: IMpsCell) -> IMpsCell:
        state, _ = split_cell(cell, g_half, D_max, SVD_CUT)
        state, _ = tebd_step(state, g_full, 1, D_max, SVD_CUT)
        return recanonicalize(state, g_half)

    return to_cell(random_product_imps(model.hamiltonian.local_dim, seed)), advance


def run_evolution_1d(
    model: Model,
    schedule: EvolutionSchedule,
    D_max: int,
    seed: int | None = None,
) -> GapTrace:
    """Second-order Trotter TEBD recording C(tau) = ln|<i[H,O]>| per cell
    (see ``record_trace`` for sampling and the stop rules)."""
    if seed is None:
        seed = schedule.seed
    comm = model.commutator()
    cell, advance = _setup_1d(model, schedule, D_max, seed)
    return record_trace(
        cell, advance, lambda c: expectation_terms_imps(c, comm),
        schedule.dtau, schedule.tau_max,
    )


def final_state_1d(
    model: Model,
    schedule: EvolutionSchedule,
    D_max: int,
    seed: int | None = None,
) -> IMpsState:
    """The evolved state at tau_max in Vidal form (for spectrum and
    convergence checks): the last cell split with the identity gate and
    the run's bond-0 cut."""
    if seed is None:
        seed = schedule.seed
    cell, advance = _setup_1d(model, schedule, D_max, seed)
    for _ in range(planned_steps(schedule.dtau, schedule.tau_max)):
        cell = advance(cell)
    state, _ = split_cell(cell, identity_gate(cell.local_dim), D_max, SVD_CUT)
    return state
