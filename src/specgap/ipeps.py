"""Infinite PEPS simple update on square and cubic lattices.

Site tensors carry one physical and z = 2d virtual legs in the fixed order
(p, +x, -x, +y, -y[, +z, -z]); diagonal bond weights live on every
inequivalent bond.  The state describes itself: the lattice dimension d is
read off the tensor rank, and the unit cell is the number of site tensors,
one (uniform) or two (checkerboard).  Site s links along every axis to
site (s + 1) mod n, so each cell has one bond per (axis, site) pair.  Two
evolution schemes are provided:

* gates -- the plain simple update (Jiang, Weng & Xiang, PRL 101, 090603
  (2008)): Trotterized two-site gates on the two-site checkerboard cell,
  truncated bond-locally (cost O(D^(z+1)) via a QR reduction).  Its bond
  weights are the environment (Tindall & Fishman, SciPost Phys. 15, 222
  (2023)), so it runs no gauge fix;
* mpo   -- one uniform propagator tensor per axis on the one-site cell,
  with the enlarged bonds brought to the superorthogonal gauge and cut
  back to D there (Ran et al., PRB 86, 134429 (2012)).  Each cut follows
  one gauge pass that solves the enlarged bonds' messages only as far as
  the cut needs to choose its directions; the gauge sets no physical
  value, so one gauge fix per step polishes only the measured state.

Expectation values close every dangling bond with its weights (mean-field
environment); in the superorthogonal gauge that closure is the bond-local
reduced operator diag(lambda^2).

The gauge fix spends its time on bond environments, contractions of a site
tensor over every leg but one, each other leg closed with the
weight-dressed message coming in from its neighbor.  One pass computes
them all, planned once per state: it lays each site tensor out once per
axis a, in the order (p, +a, -a, then the later axes' legs cyclically).
Closing the leading virtual leg of one layout with a matrix is one product
stacked over the physical index, whose result has that leg last: closing
the next axis's layout leg by leg ends in axis a's own layout, with no
operand copied.  There, each end of the axis closes its partner leg and
pairs its own, the second or third axis, in products whose blocks are
contiguous.  The closures of the other axes are shared by both ends.  A
bond's two environments share its dimension and weights, so they are
kept, normalized and dressed as one (2, D, D) stack, + end first.  The
layout copies and the products' buffers are carved from one grow-only
workspace per dtype, which every plan takes over, so the passes on the
enlarged bonds fault in no fresh pages once it has grown; only the latest
plan is live, and sweeping an earlier one raises.

Run from identity messages, whose dressed form is diag(lambda^2), and
reading only its input (a Jacobi pass), the pass gives the weight-squared
environments; the per-site rescale and the residual are read from them,
after planning.  With Gauss-Seidel updates it is the sweep of the message
solve (belief propagation), started from those environments on the same
plan; the solve trace-normalizes its messages, so the rescale does not
change them.  That sweep converges linearly, so near the fixed point its
iterates are Anderson-mixed (Walker & Ni, SIAM J. Numer. Anal. 49, 1715
(2011)) over the last ``MESSAGE_ANDERSON_DEPTH`` sweeps; a mix that is not
a usable set of messages falls back to the plain sweep.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimator import GapTrace, record_trace
from .imps import EvolutionSchedule, bond_gate
from .models import Model, OperatorTerms, bond_hamiltonian, split_hamiltonian
from .tensor import (add_work, einsum2, pinv_weights, psd_factor, qr_counted,
                     truncated_svd, warn_below_floor, warn_imaginary)
from .wii import Mpo, build_wii, hamiltonian_line_mpo

_LEG_LETTERS = "abcdefgh"  # virtual-leg subscript pool (z <= 6)


@dataclass(frozen=True)
class BondRef:
    """One inequivalent bond: key ``(axis, i_site)`` into the weight table
    plus its endpoints.

    ``i`` is always the +axis side, ``j`` the -axis side.
    """

    key: object
    axis: int
    i_site: int
    i_leg: int
    j_site: int
    j_leg: int


@dataclass
class IPepsState:
    """Weighted-bond (Vidal-like) infinite PEPS; the cell is its
    ``n_sites`` site tensors."""

    tensors: list[np.ndarray]
    lams: dict

    @property
    def dimension(self) -> int:
        return (self.tensors[0].ndim - 1) // 2

    @property
    def local_dim(self) -> int:
        return self.tensors[0].shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    def copy(self) -> "IPepsState":
        return IPepsState(
            [t.copy() for t in self.tensors],
            {k: v.copy() for k, v in self.lams.items()},
        )

    def max_bond(self) -> int:
        return max(v.size for v in self.lams.values())


def leg_index(axis: int, sign: int) -> int:
    """Position of the (axis, sign) virtual leg; sign 0 = +, 1 = -."""
    return 1 + 2 * axis + sign


def bond_list(state: IPepsState) -> tuple[BondRef, ...]:
    """The cell's bonds in bond order: by axis, then by site."""
    return _bonds(state.n_sites, state.dimension)


@functools.lru_cache(maxsize=None)
def _bonds(n: int, dimension: int) -> tuple[BondRef, ...]:
    return tuple(
        BondRef((a, s), a, s, leg_index(a, 0), (s + 1) % n, leg_index(a, 1))
        for a in range(dimension)
        for s in range(n)
    )


@functools.lru_cache(maxsize=None)
def _leg_keys(n_sites: int, ndim: int, site: int) -> tuple[tuple[int, int], ...]:
    """Weight-table keys of the virtual legs 1 .. ndim - 1 of ``site``."""
    return tuple(
        (axis, (site - sign) % n_sites)
        for axis, sign in (divmod(leg - 1, 2) for leg in range(1, ndim))
    )


def lam_key(state: IPepsState, site: int, leg: int) -> tuple[int, int]:
    """Weight-table key for the bond attached to (site, leg)."""
    return _leg_keys(state.n_sites, state.tensors[site].ndim, site)[leg - 1]


def random_product_ipeps(dimension: int, n_sites: int, seed: int) -> IPepsState:
    """Bond-dimension-1 product state of random real unit vectors on a cell
    of ``n_sites`` sites."""
    rng = np.random.default_rng(seed)
    local_dim = 2  # spin-1/2 lattice models; generalize when needed
    tensors = []
    for _ in range(n_sites):
        v = rng.normal(size=local_dim)
        v /= np.linalg.norm(v)
        tensors.append(v.reshape((local_dim,) + (1,) * (2 * dimension)))
    state = IPepsState(tensors, {})
    for b in bond_list(state):
        state.lams[b.key] = np.ones(1)
    return state


def _site_weights(state: IPepsState, site: int) -> dict[int, np.ndarray]:
    """Bond weights of every virtual leg of ``site``, in leg order."""
    keys = _leg_keys(state.n_sites, state.tensors[site].ndim, site)
    return {leg: state.lams[key] for leg, key in enumerate(keys, 1)}


def _scaled_tensor(
    state: IPepsState, site: int, skip_leg: int | None = None
) -> np.ndarray:
    """Site tensor with the full bond weight absorbed on every leg
    except ``skip_leg``."""
    t = state.tensors[site]
    for leg, w in _site_weights(state, site).items():
        if leg != skip_leg:
            shape = [1] * t.ndim
            shape[leg] = w.size
            t = t * w.reshape(shape)
    return t


def _apply_on_leg(t: np.ndarray, leg: int, g: np.ndarray) -> np.ndarray:
    """Contract the old leg index with the first index of g, which takes
    the leg's place: g.T times every (outer, leg, inner) block of t.  The
    result is C-contiguous."""
    add_work(float(t.size) * g.shape[1])
    shape = t.shape
    new_shape = shape[:leg] + (g.shape[1],) + shape[leg + 1:]
    if leg == t.ndim - 1:
        return np.matmul(t.reshape(-1, shape[leg]), g).reshape(new_shape)
    outer = math.prod(shape[:leg])
    return np.matmul(g.T, t.reshape(outer, shape[leg], -1)).reshape(new_shape)


@functools.lru_cache(maxsize=None)
def _axis_orders(ndim: int) -> tuple[tuple[int, ...], ...]:
    """Per axis a, the axis order (p, +a, -a, then the legs of the axes
    after a, cyclically) in which the bond pass reads a site tensor of
    ``ndim`` axes.  Axis 0's order is the tensor's own."""
    z = ndim - 1
    return tuple((0,) + tuple(1 + (2 * a + k) % z for k in range(z))
                 for a in range(z // 2))


class _Workspace:
    """Grow-only flat buffers, one per dtype, that every ``_plan_pass``
    carves anew; ``generation`` counts the plans, so only the latest plan
    is live."""

    def __init__(self) -> None:
        self.buffers: dict[np.dtype, np.ndarray] = {}
        self.generation = 0

    def reserve(self, dtype: np.dtype, size: int) -> np.ndarray:
        """A new generation, and a flat buffer of at least ``size``
        entries of ``dtype``, grown only when it is too small."""
        self.generation += 1
        buf = self.buffers.get(dtype)
        if buf is None or buf.size < size:
            buf = self.buffers[dtype] = np.empty(size, dtype)
        return buf


_WORKSPACE = _Workspace()


class _BondPass(NamedTuple):
    """One pass over a state's bonds, planned once (``_plan_pass``): every
    product of ``_sweep`` as a view of fixed arrays, so a pass makes one
    matmul per product.  Per axis, ``chains`` close the other axes' legs
    from the next axis's layout, each leading leg in turn, reading the
    incoming message of (bond, side); ``ends`` list the axis's bonds with
    their dimension and the products of their + and - ends.

    The layout copies and buffers are views of the shared workspace, so a
    plan is live until the next ``_plan_pass``: ``generation`` stamps it,
    and sweeping a stale plan raises."""

    lams: list[np.ndarray]
    dressing: list[np.ndarray]
    chains: list[list[tuple]]
    ends: list[list[tuple]]
    madds: float
    dtype: np.dtype
    generation: int


def _plan_pass(st: IPepsState) -> _BondPass:
    """Lay out every site tensor of ``st`` once per axis and plan the
    pass's products on that layout.  Per site: the tensor in each axis's
    order, the bra likewise, and two buffers.  A layout that is the
    tensor in C order is the tensor itself, and a real bra is its ket;
    the other layouts and the buffers are carved from the workspace of the
    state's dtype, which this plan takes over from the previous one, so a
    plan no larger than an earlier one faults in no fresh pages.  Per
    (axis, site), the chain writes the buffers alternately, so the shared
    tensor lands in the second one in the axis's own layout (p, +a, -a,
    rest); per end, the partner-leg closure goes into the first buffer,
    and the pair reads it."""
    bonds = bond_list(st)
    n_axes = st.dimension
    p = st.local_dim
    orders = _axis_orders(st.tensors[0].ndim)
    dtype = np.result_type(*st.tensors)
    # every bond end as (bond index, side), side 0 the + end
    side = {}
    for bi, b in enumerate(bonds):
        side[(b.i_site, b.i_leg)] = (bi, 0)
        side[(b.j_site, b.j_leg)] = (bi, 1)
    # room for every layout and two buffers per site
    space = _WORKSPACE.reserve(dtype, (n_axes + 2) * sum(t.size for t in st.tensors))
    used = 0

    def carve(size):
        nonlocal used
        used += size
        return space[used - size:used]

    def laid_out(v):
        """``v`` in C order: itself, or its copy in the workspace."""
        if v.flags.c_contiguous:
            return v
        out = carve(v.size).reshape(v.shape)
        np.copyto(out, v)
        return out

    chains = [[] for _ in range(n_axes)]
    site_ends = [[None] * st.n_sites for _ in range(n_axes)]
    madds = 0.0
    for s, t in enumerate(st.tensors):
        kets = [laid_out(t.transpose(order)) for order in orders]
        bufs = (carve(t.size), carve(t.size))
        for a in range(n_axes):
            x = kets[(a + 1) % n_axes]
            legs = orders[(a + 1) % n_axes][1:-2]
            for step, leg in enumerate(legs):
                # the leading leg, read transposed: (p, rest, leg) blocks
                xt = x.reshape(p, x.shape[1], -1).transpose(0, 2, 1)
                y = bufs[step % 2].reshape(xt.shape)
                chains[a].append((xt, side[(s, leg)], y))
                x = y.reshape(x.shape[:1] + x.shape[2:] + x.shape[1:2])
            bra = kets[a].conj()
            n_p, n_m = x.shape[1], x.shape[2]
            # the + end closes the -a leg in blocks stacked over (p, +a)
            # and pairs +a in blocks stacked over p; the - end the other
            # way round
            site_ends[a][s] = (
                (x.reshape(p * n_p, n_m, -1), bufs[0].reshape(p * n_p, n_m, -1),
                 side[(s, leg_index(a, 1))], bra.reshape(p, n_p, -1),
                 bufs[0].reshape(p, n_p, -1).transpose(0, 2, 1)),
                (x.reshape(p, n_p, -1), bufs[0].reshape(p, n_p, -1),
                 side[(s, leg_index(a, 0))], bra.reshape(p * n_p, n_m, -1),
                 bufs[0].reshape(p * n_p, n_m, -1).transpose(0, 2, 1)),
            )
            madds += t.size * (sum(t.shape[leg] for leg in legs) + 2 * (n_p + n_m))
    lams = [st.lams[b.key] for b in bonds]
    ends = [[] for _ in range(n_axes)]
    for bi, b in enumerate(bonds):
        ends[b.axis].append((bi, lams[bi].size, (
            site_ends[b.axis][b.i_site][0], site_ends[b.axis][b.j_site][1])))
    return _BondPass(lams, [np.outer(w, w) for w in lams], chains, ends,
                     madds, dtype, _WORKSPACE.generation)


def _sweep(plan: _BondPass, dressed: list[np.ndarray], update: bool
           ) -> list[np.ndarray]:
    """One pass over the bonds, axis by axis in bond order, that closes
    every leg but the open one with its incoming message in ``dressed``
    (per bond, a (2, D, D) stack, + end first); returns each bond's stack
    of outgoing environments, in bond order.

    With ``update`` (a Gauss-Seidel sweep), each bond's stack is
    hermitized and trace-normalized, and its swapped, weight-dressed form
    replaces the bond's entry of ``dressed`` before later bonds read it; a
    stack with a trace <= 0 raises RuntimeError.  Without (a Jacobi
    pass), ``dressed`` is only read and the stacks are returned raw.  The
    two ends of one bond read no message the other writes.  A plan made
    before the latest ``_plan_pass`` raises RuntimeError: its buffers now
    belong to that plan.
    """
    if plan.generation != _WORKSPACE.generation:
        raise RuntimeError("stale bond pass: a later plan reuses its buffers")
    add_work(plan.madds)
    out = []
    for chains, ends in zip(plan.chains, plan.ends):
        for xt, (bi, k), y in chains:
            np.matmul(xt, dressed[bi][k], out=y)
        for bi, n, pair in ends:
            fresh = np.empty((2, n, n), plan.dtype)
            for k, (ket_in, ket, (ci, ck), bra, ket_t) in enumerate(pair):
                np.matmul(dressed[ci][ck].T, ket_in, out=ket)
                np.add.reduce(np.matmul(bra, ket_t), axis=0, out=fresh[k])
            if update:
                fresh = _usable_messages(fresh)
                if fresh is None:
                    raise RuntimeError("bond environment collapsed to zero")
                dressed[bi] = fresh[::-1] * plan.dressing[bi]
            out.append(fresh)
    return out


def _grams(plan: _BondPass) -> list[np.ndarray]:
    """Mean-field bond environments N[b,b'] of every bond end, every other
    leg closed with its squared weight: the pass run from identity
    messages, whose dressed form is diag(lam^2), as a Jacobi pass.  Per
    bond a raw (2, D, D) stack, + end first."""
    return _sweep(plan, [np.stack([np.diag(w * w)] * 2) for w in plan.lams], False)


def _residual(plan: _BondPass, grams: list[np.ndarray]) -> float:
    """max over bonds of |rho_+ - diag(lam^2)|_F + |rho_- - diag(lam^2)|_F
    with rho the weight-dressed bond environments; NaN when one is not
    finite."""
    res = []
    for lam, g in zip(plan.lams, grams):
        target = np.diag(lam**2)
        rho = lam[:, None] * g * lam[None, :]
        res.append(sum(float(np.linalg.norm(r - target)) for r in rho))
    return float(np.max(res))


def superorthogonality_residual(state: IPepsState) -> float:
    plan = _plan_pass(state)
    return _residual(plan, _grams(plan))


def _rescale_sites(state: IPepsState, grams: list[np.ndarray]) -> None:
    """Fix the per-site scale so the bond environments approach identity
    (gauge rotations leave exactly this one scalar per site undetermined).
    Updates the tensors and the environment stacks in place."""
    bonds = bond_list(state)
    ratios = [[] for _ in state.tensors]
    for b, g in zip(bonds, grams):
        tr = g.trace(axis1=1, axis2=2).real / g.shape[1]
        ratios[b.i_site].append(tr[0])
        ratios[b.j_site].append(tr[1])
    c = np.array([np.mean(r) for r in ratios])
    if not np.all(np.isfinite(c)):
        raise RuntimeError("bond environment not finite")
    if np.any(c <= 0.0):
        raise RuntimeError("site tensor collapsed to zero norm")
    for site, c_site in enumerate(c):
        state.tensors[site] = state.tensors[site] / np.sqrt(c_site)
    for b, g in zip(bonds, grams):
        g /= np.array([c[b.i_site], c[b.j_site]])[:, None, None]


@dataclass
class SuperorthResult:
    """``iterations`` counts gauge-fix passes, ``sweeps`` the message
    sweeps summed over all of them."""

    residual: float
    iterations: int
    converged: bool
    sweeps: int


# cap on the Gauss-Seidel sweeps of one message fixed point
MESSAGE_MAX_SWEEPS = 500
# sweeps whose iterate/image pairs enter one Anderson mix
MESSAGE_ANDERSON_DEPTH = 5
# mixing starts once a plain sweep moves no entry by more than this;
# farther out, the mix can converge onto an unstable fixed point of the
# sweep, one that plain sweeps move away from, and the gauge and the
# fitted gap would follow it.  It is also the message tolerance of the
# gauge pass before an axis propagator's cut: that gauge only chooses the
# directions the cut drops, and its solve stops before any mix
MESSAGE_ANDERSON_START = 1e-3
# passes of one gauge fix: the gauge at the message fixed point, then one
# polish.  The mpo step's gauge fix of the state it measures stops at
# SO_TOL, nearly always after one pass when the step cut its bonds; a
# step that cut nothing, whose bonds only grew, needs the second
SO_MAX_PASSES = 2
# residual at which a gauge fix stops, and the message fixed point's tolerance
SO_TOL = 1e-10
# a gauge fix that ends above this residual warns; below it lies the
# numerical floor that the weight spread of enlarged bonds sets
SO_WARN_RESIDUAL = 1e-6


def _anderson_mix(fs: list[np.ndarray], gs: list[np.ndarray]) -> np.ndarray:
    """Type-II Anderson iterate from the recent residuals ``fs`` and sweep
    images ``gs`` (oldest first): g_k - dG gamma, where gamma minimizes
    |f_k - dF gamma| over the differences of consecutive pairs."""
    df = np.diff(np.array(fs), axis=0).T
    gamma = np.linalg.lstsq(df, fs[-1], rcond=None)[0]
    return gs[-1] - np.diff(np.array(gs), axis=0).T @ gamma


def _usable_messages(m: np.ndarray) -> np.ndarray | None:
    """The stack ``m`` of one bond's two messages, each hermitized and
    trace-normalized, or None when a trace is not positive."""
    h = m + m.conj().transpose(0, 2, 1)
    tr = h.trace(axis1=1, axis2=2).real
    if tr[0] <= 0.0 or tr[1] <= 0.0:
        return None
    h *= (m.shape[1] / tr)[:, None, None]
    return h


def _message_fixed_point(
    plan: _BondPass, tol: float, start: list[np.ndarray]
) -> tuple[list[np.ndarray], int]:
    """Outgoing bond environments solved self-consistently on the pass
    ``plan``, per bond a (2, D, D) stack in bond order, + end first, and
    the number of sweeps it took.

    The environment of leg l seen from site i is taken with every other
    leg of i closed by the weight-dressed message coming in from its own
    neighbor.  Each sweep is the pass with Gauss-Seidel updates
    (``_sweep``).  The solve starts from the stacks ``start``, hermitized
    and trace-normalized here; a start with a trace <= 0 raises
    RuntimeError, and so does a sweep whose output is not finite.  The
    weight-squared environments (``_grams``) are one Jacobi pass from
    identity messages; at the gauge fixed point the solution is the
    identity again.  Messages are trace-normalized, so a per-site scalar
    applied to the state after ``plan`` was made does not change them.

    Once a sweep changed no entry by more than ``MESSAGE_ANDERSON_START``,
    the next sweep starts from the Anderson mix of the last
    ``MESSAGE_ANDERSON_DEPTH`` sweeps, hermitized and trace-normalized;
    before that, it starts from the plain sweep's output.  A mix that is
    not finite or has a message of trace <= 0 clears the history, and the
    plain sweep's output is taken instead.  The stop rule reads the plain
    sweep: it ends once no entry moved by more than ``tol``, and that
    sweep's output is returned.  Hitting ``MESSAGE_MAX_SWEEPS`` warns and
    returns the last sweep's output.
    """
    sizes = [w.size for w in plan.lams]
    splits = np.cumsum([2 * n * n for n in sizes])[:-1]

    def dress(msgs):
        """Incoming messages of every bond's two ends, + end first: each
        stack of outgoing ones swapped and weight-dressed."""
        return [m[::-1] * w for m, w in zip(msgs, plan.dressing)]

    def stack(msgs):
        return np.concatenate([m.ravel() for m in msgs])

    def usable(stacks):
        """Hermitized, trace-normalized messages, or None when one is not
        usable."""
        msgs = []
        for m in stacks:
            msgs.append(_usable_messages(m))
            if msgs[-1] is None:
                return None
        return msgs

    def unstack(v):
        """``usable`` of the messages in a stacked vector, or None when it
        is not finite."""
        if not np.all(np.isfinite(v)):
            return None
        return usable(m.reshape(2, n, n) for n, m in zip(sizes, np.split(v, splits)))

    x = usable(start)
    if x is None:
        raise RuntimeError("bond environment collapsed to zero")
    dx = dress(x)
    fs: list[np.ndarray] = []
    gs: list[np.ndarray] = []
    for sweeps in range(1, MESSAGE_MAX_SWEEPS + 1):
        out = _sweep(plan, dx, True)
        g = stack(out)
        f = g - stack(x)
        # NaN propagates through the max, so this also reads a NaN
        delta = float(np.abs(f).max())
        if not math.isfinite(delta):
            raise RuntimeError("bond environment not finite")
        if delta <= tol:
            break
        fs.append(f)
        gs.append(g)
        del fs[:-MESSAGE_ANDERSON_DEPTH - 1], gs[:-MESSAGE_ANDERSON_DEPTH - 1]
        x = out
        if len(fs) > 1 and delta <= MESSAGE_ANDERSON_START:
            mixed = unstack(_anderson_mix(fs, gs))
            if mixed is None:
                fs, gs = fs[-1:], gs[-1:]
            else:
                x, dx = mixed, dress(mixed)
    else:
        warnings.warn(
            f"message fixed point unconverged after {MESSAGE_MAX_SWEEPS} sweeps "
            f"(last change {delta:.1e})",
            RuntimeWarning,
            stacklevel=3,
        )
    return out, sweeps


def _planned_grams(state: IPepsState):
    """The pass of ``state`` and its bond environments after the per-site
    rescale (done in place, after planning)."""
    plan = _plan_pass(state)
    grams = _grams(plan)
    _rescale_sites(state, grams)
    return plan, grams


def _rotate_bonds(st: IPepsState, msgs: list[np.ndarray]) -> None:
    """Rotate every bond of ``st`` in place so that both of its
    environments in ``msgs`` become the identity; the inserted maps and
    the new weights multiply back to the old weights."""
    for b, (n_i, n_j) in zip(bond_list(st), msgs):
        lam = st.lams[b.key]
        x, x_inv = psd_factor(n_i)
        y, y_inv = psd_factor(n_j)
        u, st.lams[b.key], vh, _ = truncated_svd(
            (x * lam[None, :]) @ y.T, lam.size
        )
        g_i = x_inv @ u
        g_j = y_inv @ vh.T
        st.tensors[b.i_site] = _apply_on_leg(st.tensors[b.i_site], b.i_leg, g_i)
        st.tensors[b.j_site] = _apply_on_leg(st.tensors[b.j_site], b.j_leg, g_j)


def superorthogonalize(
    state: IPepsState,
    so_tol: float = SO_TOL,
    max_iter: int = SO_MAX_PASSES,
) -> tuple[IPepsState, SuperorthResult]:
    """Gauge fixing toward the superorthogonal form in at most ``max_iter``
    passes.

    The bond pass is planned once per state: on entry and after every
    pass.  It gives the weight-squared environments, which set the
    per-site scale (applied to the state after planning) and the
    residual; each gauge-fix pass then solves the bond environments
    self-consistently on the same plan (message iteration, started from
    those environments, to ``so_tol``) and rotates every bond so both of
    its environments become the identity; the inserted maps and the new
    weights multiply back to the old weights, so the state itself never
    changes.  Stops at residual ``so_tol`` or after ``max_iter`` passes.
    The residual, the ``converged`` flag and the stall warning describe
    the returned state; a residual that is not finite reads unconverged
    and warns.
    """
    st = state.copy()
    plan, grams = _planned_grams(st)
    residual = _residual(plan, grams)
    iterations = 0
    sweeps = 0
    while iterations < max_iter and not residual <= so_tol:
        msgs, n_sweeps = _message_fixed_point(plan, so_tol, grams)
        sweeps += n_sweeps
        _rotate_bonds(st, msgs)
        iterations += 1
        plan, grams = _planned_grams(st)
        residual = _residual(plan, grams)
    converged = residual <= so_tol
    if not residual <= SO_WARN_RESIDUAL:
        warnings.warn(
            f"superorthogonalization stalled at residual {residual:.2e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return st, SuperorthResult(residual, iterations, converged, sweeps)


def truncate_bonds(state: IPepsState, D_max: int) -> tuple[IPepsState, float]:
    """Cut every bond to its leading D_max weights (superorthogonal gauge
    makes this the bond-locally optimal cut); weights renormalized.  The
    result shares the arrays of ``state`` that the cut keeps."""
    tensors, lams = list(state.tensors), dict(state.lams)
    worst = 0.0
    for b in bond_list(state):
        lam = lams[b.key]
        if lam.size <= D_max:
            continue
        total = float(np.dot(lam, lam))
        worst = max(worst, float(np.dot(lam[D_max:], lam[D_max:])) / total)
        lams[b.key] = lam[:D_max] / np.linalg.norm(lam[:D_max])
        sel = np.arange(D_max)
        tensors[b.i_site] = np.take(tensors[b.i_site], sel, axis=b.i_leg)
        tensors[b.j_site] = np.take(tensors[b.j_site], sel, axis=b.j_leg)
    return IPepsState(tensors, lams), worst


def apply_axis_mpo(
    state: IPepsState,
    mpo: Mpo,
    axis: int,
    D_max: int,
) -> tuple[IPepsState, float]:
    """Contract one axis propagator into the site tensor and re-truncate;
    returns the new state and the cut's discarded weight.

    The propagator's virtual channels merge into the two bonds along the
    axis (D -> D * Dw, old bond index slower).  When a bond is then wider
    than ``D_max``, one gauge pass on the enlarged bonds solves their
    messages by plain sweeps to ``MESSAGE_ANDERSON_START`` (that gauge
    only chooses the directions the cut drops), and ``truncate_bonds``
    cuts every bond to ``D_max``.  The returned state is not polished:
    the next cut solves its own messages, and the evolution polishes the
    state it measures.
    """
    if state.n_sites != 1:
        raise ValueError("axis propagators act on the one-site unit cell")
    dlat = state.dimension
    t = state.tensors[0]
    w = mpo.tensor
    dw = mpo.virtual_dim
    legs = _LEG_LETTERS[: 2 * dlat]
    # product axes: (l, r, p, legs...);  l rides the -axis bond, r the +axis bond
    sub = f"lrpq,q{legs}->lrp{legs}"
    perm = [2]
    new_shape = [t.shape[0]]
    for b in range(dlat):
        plus, minus = 3 + 2 * b, 4 + 2 * b
        if b == axis:
            perm += [plus, 1, minus, 0]
            new_shape += [t.shape[1 + 2 * b] * dw, t.shape[2 + 2 * b] * dw]
        else:
            perm += [plus, minus]
            new_shape += [t.shape[1 + 2 * b], t.shape[2 + 2 * b]]
    lam = state.lams[(axis, 0)]
    # no name holds the product or the merged tensor, so each is freed once
    # the next replaces it; a dead enlarged array held over the gauge pass
    # and the cut made the allocator return pages and fault them in again.
    # The other weights are shared with ``state``: no step writes into a
    # state's arrays, it rebinds its list and dict entries.
    st = IPepsState(
        [np.transpose(einsum2(sub, w, t), perm).reshape(new_shape)],
        {**state.lams, (axis, 0): np.kron(lam, np.ones(dw)) / np.sqrt(dw)},
    )
    if st.max_bond() <= D_max:
        return st, 0.0
    plan, grams = _planned_grams(st)
    msgs, _ = _message_fixed_point(plan, MESSAGE_ANDERSON_START, grams)
    _rotate_bonds(st, msgs)
    return truncate_bonds(st, D_max)


class _GateSide(NamedTuple):
    """How one site of a gate update is read and written: the axis order
    of its QR matrix (the other legs, then the bond leg and the physical
    index, in the order ``last``), the inverse order, and per virtual leg
    the shape that broadcasts a weight vector along it in that layout."""

    order: tuple[int, ...]
    inverse: tuple[int, ...]
    weight_shapes: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=None)
def _gate_side(ndim: int, last: tuple[int, ...]) -> _GateSide:
    order = tuple(ax for ax in range(ndim) if ax not in last) + last
    inverse = tuple(order.index(ax) for ax in range(ndim))
    shapes = tuple(tuple(-1 if ax == inverse[leg] else 1 for ax in range(ndim))
                   for leg in range(ndim))
    return _GateSide(order, inverse, shapes)


def simple_update_bond(
    state: IPepsState,
    gate: np.ndarray,
    bond: BondRef,
    D_max: int,
) -> tuple[IPepsState, float]:
    """Two-site gate on one checkerboard bond with bond-local truncation.

    Environment weights are absorbed into both tensors, the pair is QR
    reduced (cost O(D^(z+1))), the gate applied, the bond split by SVD and
    cut to D_max, and the environment weights divided back out with a
    floored pseudo-inverse.  gate axes: (out_i, out_j, in_i, in_j).
    Returns a new state that shares the untouched tensors and weights with
    ``state``, which is left as it was.

    Each site is copied once into its QR layout, where the weights are
    absorbed in place, leg by leg; the updated tensor is copied once back
    to C order, where the inverse weights are divided out in place.  An
    elementwise product does not depend on the layout it runs in.
    """
    if state.n_sites != 2:
        raise ValueError("gate updates act on the two-site checkerboard cell")
    d = state.local_dim
    ndim = state.tensors[0].ndim
    lams = state.lams
    lam_b = lams[bond.key]
    side_i = _gate_side(ndim, (bond.i_leg, 0))
    side_j = _gate_side(ndim, (bond.j_leg, 0))
    keys_i = _leg_keys(2, ndim, bond.i_site)
    keys_j = _leg_keys(2, ndim, bond.j_site)

    # the environment weights in leg order; the bond weight rides the +
    # side once, last
    m_i = np.ascontiguousarray(state.tensors[bond.i_site].transpose(side_i.order))
    for leg, key in enumerate(keys_i, 1):
        if leg != bond.i_leg:
            np.multiply(m_i, lams[key].reshape(side_i.weight_shapes[leg]), out=m_i)
    np.multiply(m_i, lam_b.reshape(side_i.weight_shapes[bond.i_leg]), out=m_i)
    m_j = np.ascontiguousarray(state.tensors[bond.j_site].transpose(side_j.order))
    for leg, key in enumerate(keys_j, 1):
        if leg != bond.j_leg:
            np.multiply(m_j, lams[key].reshape(side_j.weight_shapes[leg]), out=m_j)
    rest_i, rest_j = m_i.shape[:-2], m_j.shape[:-2]
    q_i, r_i = qr_counted(m_i.reshape(-1, lam_b.size * d))
    q_j, r_j = qr_counted(m_j.reshape(-1, lam_b.size * d))
    k_i, k_j = r_i.shape[0], r_j.shape[0]

    theta = einsum2(
        "ibp,jbq->ipjq",
        r_i.reshape(k_i, lam_b.size, d),
        r_j.reshape(k_j, lam_b.size, d),
    )
    theta = einsum2("xypq,ipjq->ixjy", np.asarray(gate), theta)
    u, lam_new, vh, discarded = truncated_svd(
        theta.reshape(k_i * d, k_j * d), D_max
    )
    rank = lam_new.size

    add_work(float(q_i.size) * d * rank + float(q_j.size) * d * rank)
    red_i = (q_i @ u.reshape(k_i, d * rank)).reshape(rest_i + (d, rank))
    red_j = (q_j @ np.transpose(
        vh.reshape(rank, k_j, d), (1, 0, 2)
    ).reshape(k_j, -1)).reshape(rest_j + (rank, d))

    # divide the environment weights back out, each bond's inverse taken
    # once (every other bond of the cell touches both sites), in the
    # tensor's own axis order
    inv = {key: pinv_weights(w) for key, w in lams.items() if key != bond.key}
    shapes = _gate_side(ndim, ()).weight_shapes
    tensors = list(state.tensors)
    for site, red, side, keys, skip in (
            (bond.i_site, red_i, _gate_side(ndim, (0, bond.i_leg)), keys_i, bond.i_leg),
            (bond.j_site, red_j, side_j, keys_j, bond.j_leg)):
        t = np.ascontiguousarray(red.transpose(side.inverse))
        for leg, key in enumerate(keys, 1):
            if leg != skip:
                np.multiply(t, inv[key].reshape(shapes[leg]), out=t)
        tensors[site] = t
    warn_below_floor(lam_new, bond.key)
    return IPepsState(tensors, {**lams, bond.key: lam_new}), discarded


# ---------------------------------------------------------------------------
# expectation values (mean-field environment closure)


def _pair_transfer(t: np.ndarray, leg: int) -> np.ndarray:
    """P[ket_p, bra_p, ket_b, bra_b] of the weight-scaled site tensor t,
    with every other leg closed ket-bra."""
    z = t.ndim - 1
    letters = _LEG_LETTERS[:z]
    li = leg - 1
    ket = "p" + letters
    bra = "q" + letters[:li] + "B" + letters[li + 1:]
    sub = f"{ket},{bra}->pq{letters[li]}B"
    return einsum2(sub, t, np.conj(t))


def expectation_terms_peps(state: IPepsState, terms: OperatorTerms) -> float:
    """Per-unit-cell expectation with the mean-field environment.

    Supported supports: a single site, or a nearest-neighbor pair along a
    positive axis.  Dangling bonds carry their full weight in each layer;
    the interior bond weight of a pair rides the + side once per layer.
    """
    d = state.local_dim
    total = 0.0
    imag_max = 0.0
    # every site with all its weights, shared by the single-site terms and
    # the + side of every pair
    scaled = [_scaled_tensor(state, site) for site in range(state.n_sites)]
    for term in terms.terms:
        if len(term.sites) == 1:
            for t in scaled:
                applied = np.tensordot(term.matrix, t, axes=([1], [0]))
                add_work(float(t.size) * d)
                num = complex(np.vdot(t, applied))
                den = float(np.real(np.vdot(t, t)))
                total += num.real / den
                imag_max = max(imag_max, abs(num.imag) / den)
            continue
        if len(term.sites) != 2:
            raise ValueError(
                f"unsupported support {term.sites}: need single site or "
                "nearest-neighbor pair"
            )
        offset = tuple(np.subtract(term.sites[1], term.sites[0]))
        axes_hit = [a for a, o in enumerate(offset) if o != 0]
        if len(axes_hit) != 1 or offset[axes_hit[0]] != 1:
            raise ValueError(f"unsupported pair offset {offset}")
        axis = axes_hit[0]
        op = term.matrix.reshape(d, d, d, d)  # (bra_i, bra_j, ket_i, ket_j)
        for b in bond_list(state):
            if b.axis != axis:
                continue
            p_i = _pair_transfer(scaled[b.i_site], b.i_leg)
            p_j = _pair_transfer(_scaled_tensor(state, b.j_site, skip_leg=b.j_leg),
                                 b.j_leg)
            combined = einsum2("kKaA,lLaA->kKlL", p_i, p_j)
            num = complex(einsum2("KLkl,kKlL->", op, combined))
            den = float(np.real(np.einsum("kkll->", combined)))
            total += num.real / den
            imag_max = max(imag_max, abs(num.imag) / den)
    warn_imaginary(imag_max, total)
    return total


def scramble_gauge(state: IPepsState, seed: int) -> IPepsState:
    """Insert random invertible maps (and compensating weights) on every
    bond without changing the state; breaks the canonical gauge."""
    rng = np.random.default_rng(seed)
    st = state.copy()
    for b in bond_list(st):
        lam = st.lams[b.key]
        n = lam.size
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        lam_new = np.sort(rng.uniform(0.5, 1.5, size=n))[::-1]
        lam_new /= np.linalg.norm(lam_new)
        a = (np.sqrt(lam)[:, None] * q) / np.sqrt(lam_new)[None, :]
        st.tensors[b.i_site] = _apply_on_leg(st.tensors[b.i_site], b.i_leg, a)
        st.tensors[b.j_site] = _apply_on_leg(st.tensors[b.j_site], b.j_leg, a)
        st.lams[b.key] = lam_new
    return st


# ---------------------------------------------------------------------------
# evolution driver


def run_evolution_peps(
    model: Model,
    schedule: EvolutionSchedule,
    D_max: int,
) -> GapTrace:
    """Imaginary-time simple update recording C(tau) = ln|<i[H,O]>| per cell.

    gates scheme: the plain simple update, second-order Trotter over the
    checkerboard bond classes (forward then reverse half steps); its bond
    weights are the environment, and no gauge fix runs.  mpo scheme: one
    axis propagator after another on the one-site cell, each cut in a
    rough superorthogonal gauge, then one gauge fix that polishes the
    state each step measures.
    """
    dlat = model.dimension
    if dlat < 2:
        raise ValueError("run_evolution_peps needs a 2D or 3D model")
    comm = model.commutator()
    site_h, bond_h = split_hamiltonian(model.hamiltonian, dlat)
    dtau = schedule.dtau

    if schedule.scheme == "mpo":
        state = random_product_ipeps(dlat, 1, schedule.seed)
        mpos = [
            build_wii(hamiltonian_line_mpo(bond_h[a], site_h, 1.0 / dlat), dtau, a)
            for a in range(dlat)
        ]

        def advance(st):
            for a in range(dlat):
                st, _ = apply_axis_mpo(st, mpos[a], a, D_max)
            return superorthogonalize(st, SO_TOL, SO_MAX_PASSES)[0]

    else:
        state = random_product_ipeps(dlat, 2, schedule.seed)
        half_gates = [
            bond_gate(bond_hamiltonian(site_h, bond_h[a], 2 * dlat), dtau / 2.0)
            for a in range(dlat)
        ]
        order = bond_list(state)

        def advance(st):
            for b in order + order[::-1]:
                st, _ = simple_update_bond(st, half_gates[b.axis], b, D_max)
            return st

    return record_trace(
        state, advance, lambda st: expectation_terms_peps(st, comm),
        dtau, schedule.tau_max,
    )
