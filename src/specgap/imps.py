"""Infinite MPS in bond-weight (Vidal) form with imaginary-time TEBD.

Two-site unit cell: site tensors G[0], G[1] with axes (left, phys, right),
bond weights lam[0] (right of site 0) and lam[1] (right of site 1).  The
state reads ... lam[1] G[0] lam[0] G[1] lam[1] ...  Expectation values use
the canonical closure, which is exact in 1D.  Imaginary-time gates break
that form.  A step makes two plain bond updates (``tebd_step``), then
``recanonicalize`` applies the last half gate to the two-site block,
restores the canonical form in one shot from the dominant fixed points of
the two-site transfer maps (Orus & Vidal, PRB 78, 155117 (2008)), and
makes the bond-0 cut in the canonical split.
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


def random_product_imps(local_dim: int, seed: int) -> IMpsState:
    """Bond-dimension-1 state of two independent random real unit vectors."""
    rng = np.random.default_rng(seed)
    gammas = []
    for _ in range(2):
        v = rng.normal(size=local_dim)
        v /= np.linalg.norm(v)
        gammas.append(v.reshape(1, local_dim, 1))
    return IMpsState(gammas, [np.ones(1), np.ones(1)])


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
    gi, gj = state.gammas[b], state.gammas[1 - b]
    lam_mid = state.lams[b]
    lam_env = state.lams[1 - b]  # both outer bonds are the other weight
    d = state.local_dim

    t1 = gi * lam_env[:, None, None] * lam_mid[None, None, :]
    t2 = gj * lam_env[None, None, :]
    theta = einsum2("apb,bqc->apqc", t1, t2)
    theta = einsum2("xypq,apqc->axyc", np.asarray(bond_gate), theta)
    dl, _, _, dr = theta.shape
    u, lam_new, vh, discarded = truncated_svd(
        theta.reshape(dl * d, d * dr), D_max, rel_tol
    )
    warn_below_floor(lam_new, b)
    inv = pinv_weights(lam_env)
    gi_new = u.reshape(dl, d, -1) * inv[:, None, None]
    gj_new = vh.reshape(-1, d, dr) * inv[None, None, :]

    gammas = list(state.gammas)
    lams = list(state.lams)
    gammas[b], gammas[1 - b] = gi_new, gj_new
    lams[b] = lam_new
    return IMpsState(gammas, lams), discarded


def _theta(state: IMpsState, base: int, n_sites: int) -> np.ndarray:
    """Unit-cell segment with full bond weights on both open ends."""
    lam_left = state.lams[1 - base]
    cur = state.gammas[base] * lam_left[:, None, None]
    letters = "pqr"
    for m in range(1, n_sites):
        lam = state.lams[(base + m - 1) % 2]
        cur = cur * lam.reshape((1,) * (cur.ndim - 1) + (-1,))
        nxt = state.gammas[(base + m) % 2]
        sub = f"a{letters[:m]}b,b{letters[m]}c->a{letters[: m + 1]}c"
        cur = einsum2(sub, cur, nxt)
    lam_right = state.lams[(base + n_sites - 1) % 2]
    cur = cur * lam_right.reshape((1,) * (cur.ndim - 1) + (-1,))
    return cur


_SANDWICH = {
    1: "px,axb->apb",
    2: "pqxy,axyb->apqb",
    3: "pqrxyz,axyzb->apqrb",
}


def expectation_terms_imps(state: IMpsState, terms: OperatorTerms) -> float:
    """Per-unit-cell expectation of translation-invariant local terms.

    Contiguous supports of up to three sites are evaluated in canonical
    closure (exact in 1D); each term is summed over the two inequivalent
    base sites of the unit cell.
    """
    d = state.local_dim
    total = 0.0
    imag_max = 0.0
    for term in terms.terms:
        offsets = [s[0] for s in term.sites]
        k = len(offsets)
        if offsets != list(range(k)) or k > 3:
            raise ValueError(
                f"unsupported term support {term.sites}: need <= 3 contiguous sites"
            )
        mat = term.matrix.reshape((d,) * (2 * k))
        for base in (0, 1):
            th = _theta(state, base, k)
            applied = einsum2(_SANDWICH[k], mat, th)
            num = complex(np.vdot(th, applied))
            den = float(np.real(np.vdot(th, th)))
            val = num / den
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
    D_max: int,
    tol: float = CANONICAL_TOL,
) -> IMpsState:
    """Apply ``gate`` across bond 0, then restore the Vidal form in one
    shot (Orus & Vidal, PRB 78, 155117) and cut bond 0 to ``D_max``.

    The cell is blocked into ``A = gate (G0 lam0 G1)``.  The dominant right
    and left fixed points of the two-site transfer maps at bond 1 are
    factored as ``X X^dag`` and ``Y^dag Y``; one SVD of ``Y lam1 X`` gives
    the new ``lam1`` and the gauge maps, and one SVD of ``lam1 A' lam1``,
    already in the canonical gauge, splits the cell back into ``G0, lam0,
    G1`` and makes the bond-0 cut (``D_max`` and ``SVD_CUT``, as in
    ``tebd_step``).  To re-gauge a state alone, pass the identity gate.
    ``tol`` bounds the error of each fixed point (see ``_fixed_points``).
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

    theta = (a * lam1[:, None, None] * lam1[None, None, :]).reshape(r * d, d * r)
    u, lam0, vh, _ = truncated_svd(theta, D_max)
    warn_below_floor(lam0, 0)
    inv = 1.0 / lam1
    g0 = u.reshape(r, d, -1) * inv[:, None, None]
    g1 = vh.reshape(-1, d, r) * inv[None, None, :]
    return IMpsState([g0, g1], [lam0, lam1])


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
    """Initial product state and the ``advance(state)`` sweep of a 1D run.

    One sweep is second-order Trotter: bond 0 at dtau/2, bond 1 at dtau,
    bond 0 at dtau/2.  Imaginary-time gates are not unitary, so a plain
    bond update leaves the state off the canonical form by O(dtau).  The
    first two gates are ``tebd_step`` updates; ``recanonicalize`` applies
    the last half gate, restores the canonical form and cuts bond 0 in its
    canonical split, so the closure (and with it every measurement) is
    exact up to that cut's discarded weight.
    """
    if model.dimension != 1:
        raise ValueError("a 1D evolution needs a one-dimensional model")
    site, (bond,) = split_hamiltonian(model.hamiltonian, 1)
    h = bond_hamiltonian(site, bond, 2 * model.dimension)
    g_half = bond_gate(h, schedule.dtau / 2.0)
    g_full = bond_gate(h, schedule.dtau)

    def advance(state: IMpsState) -> IMpsState:
        state, _ = tebd_step(state, g_half, 0, D_max, SVD_CUT)
        state, _ = tebd_step(state, g_full, 1, D_max, SVD_CUT)
        return recanonicalize(state, g_half, D_max)

    return random_product_imps(model.hamiltonian.local_dim, seed), advance


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
    state, advance = _setup_1d(model, schedule, D_max, seed)
    return record_trace(
        state, advance, lambda st: expectation_terms_imps(st, comm),
        schedule.dtau, schedule.tau_max,
    )


def final_state_1d(
    model: Model,
    schedule: EvolutionSchedule,
    D_max: int,
    seed: int | None = None,
) -> IMpsState:
    """The evolved state at tau_max (for spectrum/convergence checks)."""
    if seed is None:
        seed = schedule.seed
    state, advance = _setup_1d(model, schedule, D_max, seed)
    for _ in range(planned_steps(schedule.dtau, schedule.tau_max)):
        state = advance(state)
    return state
