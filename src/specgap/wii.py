"""Uniform MPO approximation of exp(-dtau H_line) for one lattice axis.

The Hamiltonian of a single line is brought into the standard upper
triangular operator-valued block form

        [ 1  C  D ]
    W = [ 0  0  B ]      H_N = (W_1 W_2 ... W_N)[first row, last column]
        [ 0  0  1 ]

with D the on-site part and B/C the two factors of the nearest-neighbor
bond term, one channel per operator-Schmidt term.  The propagator tensor
is then built by exponentiating the blocks in a two-hard-core-boson
extension of the local space; its N-site contraction matches
exp(-dtau H_line) with per-site error of order dtau^2, and it is exact
when the bond term vanishes.
The virtual dimension of the propagator is 1 + (number of bond channels):
the triangular completion flow of the Hamiltonian MPO merges into the
vacuum channel, so a nearest-neighbor line with one channel gives a 2x2
virtual space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .tensor import SVD_CUT, add_work, choose_rank, einsum2, svd_fixed


@dataclass
class MpoBlocks:
    """Blocks (B, C, D) of a nearest-neighbor Hamiltonian-line MPO; B and C
    hold the same number of channels."""

    B: np.ndarray  # (r, d, d)
    C: np.ndarray  # (r, d, d)
    D: np.ndarray  # (d, d), on-site part

    @property
    def channels(self) -> int:
        return self.B.shape[0]

    @property
    def local_dim(self) -> int:
        return self.D.shape[0]


@dataclass
class Mpo:
    """Uniform propagator tensor W[left, right, p_out, p_in] for one axis."""

    tensor: np.ndarray
    axis: int = 0

    @property
    def virtual_dim(self) -> int:
        return self.tensor.shape[0]


def hamiltonian_line_mpo(
    bond_term: np.ndarray,
    field_term: np.ndarray,
    field_fraction: float,
) -> MpoBlocks:
    """Block decomposition of H_line = sum_i f*field_i + sum_i bond_{i,i+1}.

    The bond term (a d^2 x d^2 matrix on two neighboring sites) is split
    into a sum of single-site operator products by its operator-Schmidt
    decomposition; channels with negligible weight are dropped, so a zero
    bond term yields zero channels and the propagator becomes a product of
    single-site exponentials.
    """
    if not 0.0 < field_fraction <= 1.0:
        raise ValueError("field_fraction must be in (0, 1]")
    field_term = np.asarray(field_term)
    d = field_term.shape[0]
    bond = np.asarray(bond_term).reshape(d, d, d, d)
    # group (row_i, col_i) x (row_j, col_j) and Schmidt-decompose
    mat = bond.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    u, s, vh = svd_fixed(mat)
    r, _ = choose_rank(s, s.size, SVD_CUT)
    sq = np.sqrt(s[:r])
    C = np.stack(
        [(sq[a] * u[:, a]).reshape(d, d) for a in range(r)]
    ) if r else np.zeros((0, d, d), dtype=mat.dtype)
    B = np.stack(
        [(sq[a] * vh[a]).reshape(d, d) for a in range(r)]
    ) if r else np.zeros((0, d, d), dtype=mat.dtype)
    return MpoBlocks(B=B, C=C, D=field_fraction * field_term)


def build_wii(blocks: MpoBlocks, dtau: float, axis: int = 0) -> Mpo:
    """Propagator tensor approximating exp(-dtau H_line).

    The bond factors are spread as sqrt(dtau) per side (with the sign of
    the step carried by the B side), and each virtual transition element
    is read off from a matrix exponential in the local space extended by
    two hard-core bosons that cap the single-excursion structure.
    """
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    t = -dtau
    tc = np.sqrt(abs(t))
    tb = t / tc
    B, C, D = blocks.B, blocks.C, blocks.D
    d = blocks.local_dim
    n = blocks.channels
    dtype = np.result_type(B, C, D, float)
    w = np.zeros((1 + n, 1 + n, d, d), dtype=dtype)

    id2 = np.eye(2)
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    id4 = np.kron(id2, id2)
    br = np.kron(lower, id2)   # raises the row boson
    bc = np.kron(id2, lower)   # raises the column boson

    def corner(h: np.ndarray) -> np.ndarray:
        # exponentiate on (boson_r x boson_c x physical), project onto the
        # boson vacuum on the right and read the four occupations on the left
        add_work(30.0 * (4 * d) ** 3)
        full = expm(h).reshape(2, 2, d, 2, 2, d)
        return full[:, :, :, 0, 0, :]

    if n:
        for r in range(n):
            for c in range(n):
                h = (
                    np.kron(br, tb * B[r])
                    + np.kron(bc, tc * C[c])
                    + t * np.kron(id4, D)
                )
                g = corner(h)
                w[1 + r, 1 + c] = g[1, 1]
                if c == 0:
                    w[1 + r, 0] = g[1, 0]
                if r == 0:
                    w[0, 1 + c] = g[0, 1]
                    if c == 0:
                        w[0, 0] = g[0, 0]
    else:
        add_work(30.0 * d**3)
        w = expm(t * D).reshape(1, 1, d, d).astype(dtype)

    if not np.all(np.isfinite(w)):
        raise ArithmeticError("non-finite entries in propagator tensor")
    return Mpo(tensor=w, axis=axis)


def line_hamiltonian_dense(blocks: MpoBlocks, n_sites: int) -> np.ndarray:
    """H_line on an open chain of n_sites, contracted from the blocks."""
    d = blocks.local_dim
    r = blocks.channels
    dw = r + 2
    wmat = np.zeros((dw, dw, d, d), dtype=complex)
    wmat[0, 0] = np.eye(d)
    wmat[dw - 1, dw - 1] = np.eye(d)
    wmat[0, dw - 1] = blocks.D
    for a in range(r):
        wmat[0, 1 + a] = blocks.C[a]
        wmat[1 + a, dw - 1] = blocks.B[a]
    return _contract_channel_chain(wmat, n_sites, 0, dw - 1)


def mpo_to_dense(mpo: Mpo, n_sites: int) -> np.ndarray:
    """The operator the uniform tensor represents on an open n-site chain."""
    return _contract_channel_chain(mpo.tensor, n_sites, 0, 0)


def _contract_channel_chain(
    w: np.ndarray, n_sites: int, left: int, right: int
) -> np.ndarray:
    d = w.shape[2]
    # running[c, (rows...), (cols...)] after k sites
    running = w[left]  # (chan, d, d)
    for _ in range(n_sites - 1):
        dim = running.shape[1]
        running = einsum2("cab,cexy->eaxby", running, w)
        running = running.reshape(w.shape[1], dim * d, dim * d)
    return running[right]
