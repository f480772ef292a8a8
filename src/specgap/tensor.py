"""Counted dense kernels on plain ndarrays: pairwise einsum, the
deterministic factorizations (SVD, QR, eigh, PSD square root), and the two
steps every bond update shares: the cut ``truncated_svd`` (singular values
above ``SVD_CUT`` of the largest, unit-norm weights) and the floored
inverse ``pinv_weights`` (zero at or below ``PINV_FLOOR``) that divides
environment weights back out.

Everything here is a pure function of its inputs; values can be shared
freely across threads.  Scalars are real or complex double precision --
numpy keeps real inputs real, which is the fast path the spin models use.

The module also keeps a global multiply-add counter.  Every contraction
and factorization routed through this module adds its (naive) operation
count, which is what the cost-scaling checks measure.
"""

from __future__ import annotations

import warnings

import numpy as np

# relative singular-value floor of every bond cut (drops float noise)
SVD_CUT = 1e-14
# environment weights at or below this have a zero floored inverse
PINV_FLOOR = 1e-12

# ---------------------------------------------------------------------------
# operation accounting

_WORK = {"madds": 0.0}


def reset_work() -> None:
    """Zero the global multiply-add counter."""
    _WORK["madds"] = 0.0


def work_count() -> float:
    """Accumulated multiply-add count since the last reset."""
    return _WORK["madds"]


def add_work(n: float) -> None:
    _WORK["madds"] += float(n)


def einsum2(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """einsum wrapper that accounts the naive multiply-add count.

    Meant for pairwise contractions (all evolution kernels use pairwise
    steps); the count is the product of the dimensions of all distinct
    index letters in the expression.
    """
    spec = subscripts.partition("->")[0]
    dims: dict[str, int] = {}
    for part, op in zip(spec.split(","), operands):
        for ch, n in zip(part.strip(), op.shape):
            dims[ch] = n
    total = 1.0
    for n in dims.values():
        total *= n
    add_work(total)
    # the planned summation order follows the operands' memory layout, so
    # equal values in another layout could round differently
    operands = [np.ascontiguousarray(op) for op in operands]
    return np.einsum(subscripts, *operands, optimize=True)


# ---------------------------------------------------------------------------
# deterministic factorizations


def svd_fixed(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD with a deterministic sign convention.

    The largest-magnitude entry of each left singular vector is made
    real-positive (ties resolved by first occurrence), so reruns produce
    bit-identical factors and golden traces are reproducible.
    """
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    m, n = mat.shape
    add_work(14.0 * m * n * min(m, n))
    if u.shape[1]:
        piv = np.argmax(np.abs(u), axis=0)
        lead = u[piv, np.arange(u.shape[1])]
        mag = np.abs(lead)
        phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
        u = u * np.conj(phase)[None, :]
        vh = vh * phase[:, None]
    return u, s, vh


def eigh_counted(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh with operation accounting."""
    n = mat.shape[0]
    add_work(9.0 * n**3)
    return np.linalg.eigh(mat)


def qr_counted(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with operation accounting."""
    m, n = mat.shape
    add_work(2.0 * m * n * min(m, n))
    return np.linalg.qr(mat)


def psd_factor(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X with X^dag X = N for Hermitian PSD N, and a pseudo-inverse of X.

    Built from the eigendecomposition with eigenvalues clipped at a
    relative floor, so nearly-null directions are projected out rather
    than amplified.
    """
    n = 0.5 * (n + n.conj().T)
    w, v = eigh_counted(n)
    w = np.clip(w, 0.0, None)
    floor = (w[-1] if w.size else 0.0) * 1e-28
    sq = np.sqrt(w)
    inv = np.where(w > floor, 1.0 / np.where(w > floor, sq, 1.0), 0.0)
    x = sq[:, None] * v.conj().T
    x_inv = v * inv[None, :]
    return x, x_inv


def choose_rank(s: np.ndarray, max_rank: int, rel_tol: float) -> tuple[int, float]:
    """Kept rank and discarded weight for a descending singular spectrum.

    rank = min(max_rank, numerical rank, count of values > rel_tol * s_max).
    Exactly ``max_rank`` values are kept in index order when the cut falls
    inside a degenerate group (reproducibility over optimality).
    discarded = sum of squared dropped values / sum of all squared values.
    """
    if s.size == 0 or s[0] <= 0.0:
        return 0, 1.0
    thresh = rel_tol * s[0] if rel_tol > 0 else 0.0
    rank = int(min(max_rank, np.count_nonzero(s > thresh), np.count_nonzero(s > 0)))
    total = float(np.dot(s, s))
    dropped = float(np.dot(s[rank:], s[rank:]))
    return rank, dropped / total


def truncated_svd(
    mat: np.ndarray, max_rank: int, rel_tol: float = SVD_CUT
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The bond cut: ``svd_fixed`` of ``mat`` truncated by ``choose_rank``.

    Returns the kept left vectors, the kept singular values normalized to
    unit norm (the new bond weights), the kept right vectors and the
    discarded weight.  A rank-0 cut (a zero matrix) raises RuntimeError.
    """
    u, s, vh = svd_fixed(mat)
    rank, discarded = choose_rank(s, max_rank, rel_tol)
    if rank == 0:
        raise RuntimeError("bond cut to rank 0 (degenerate state)")
    return u[:, :rank], s[:rank] / np.linalg.norm(s[:rank]), vh[:rank], discarded


def pinv_weights(lam: np.ndarray) -> np.ndarray:
    """1 / lam, with zero where lam <= PINV_FLOOR."""
    keep = lam > PINV_FLOOR
    return np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)


def warn_below_floor(lam: np.ndarray, bond) -> None:
    """Warn when new bond weights fall below PINV_FLOOR, where the next
    update's inverse zeroes them."""
    if np.any(lam < PINV_FLOOR):
        warnings.warn(f"bond weight below pinv floor after truncation on bond "
                      f"{bond}", RuntimeWarning, stacklevel=3)


def warn_imaginary(imag_max: float, total: float) -> None:
    """Warn when the largest imaginary part met while summing an
    expectation value exceeds 1e-10 of its magnitude (floored at 1); the
    warning names the code that asked for the expectation value."""
    if imag_max > 1e-10 * max(1.0, abs(total)):
        warnings.warn(f"imaginary part {imag_max:.2e} in expectation value",
                      RuntimeWarning, stacklevel=3)
