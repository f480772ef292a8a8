"""Counted dense kernels on plain ndarrays: pairwise einsum, the
deterministic factorizations (SVD, QR, eigh, PSD square root), and the two
steps every bond update shares: the cut ``truncated_svd`` (singular values
above ``SVD_CUT`` of the largest, unit-norm weights) and the floored
inverse ``pinv_weights`` (zero at or below ``PINV_FLOOR``) that divides
environment weights back out.

``einsum2`` is the only contraction entry point: a pairwise contraction
in a fixed order with no path search, which always counts its work.  A
subscript string is parsed once, cached by the string, into a plan: the
axes each operand sums over, and one output permutation.  A call then
makes both operands C-contiguous, permutes and reshapes them into two
matrices, multiplies them with one ``np.dot`` and permutes the result, as
``np.tensordot`` does.  The matrices handed to BLAS are functions of the
operands' values alone, so equal values in any memory layout give the same
bits.

The factorizations (``svd_fixed``, ``qr_counted`` and ``psd_factor``'s
eigendecomposition) call LAPACK directly through scipy, with the routines
and workspaces of the ``np.linalg`` functions they replace, looked up once
per dtype and shape.  On the 3 x 3 to 16 x 16 matrices the bond updates
factor, ``np.linalg``'s Python wrappers cost about as much as LAPACK.

Everything here is a pure function of its inputs; values can be shared
freely across threads.  Scalars are real or complex double precision --
numpy keeps real inputs real, which is the fast path the spin models use.

The module also keeps a global multiply-add counter.  Every contraction
and factorization routed through this module adds its (naive) operation
count, which is what the cost-scaling checks measure.
"""

from __future__ import annotations

import functools
import math
import string
import warnings
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

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


class _PairPlan(NamedTuple):
    """Fixed order of one pairwise contraction: each operand's axes
    permuted so the summed ones meet (last in the first operand, first in
    the second, in the first operand's letter order), and the permutation
    that takes (free axes of the first, free axes of the second) to the
    output."""

    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    n_summed: int
    perm_out: tuple[int, ...]


@functools.lru_cache(maxsize=None)
def _pair_plan(subscripts: str) -> _PairPlan:
    """Parse ``"ab,bc->ac"``-style subscripts once into a ``_PairPlan``.

    Raises ValueError for anything a single matrix product cannot do:
    other than two operands, no explicit output, a letter repeated within
    one term, a letter in both operands and the output (a batch index), a
    letter summed within one operand, or an output letter that neither
    operand has.
    """
    spec, arrow, out = subscripts.partition("->")
    terms = spec.split(",")
    if len(terms) != 2 or not arrow:
        raise ValueError(f"{subscripts!r}: need two operands and an explicit output")
    a, b = terms
    for term in (a, b, out):
        if not all(ch in string.ascii_letters for ch in term):
            raise ValueError(f"{subscripts!r}: subscripts must be letters")
        if len(set(term)) != len(term):
            raise ValueError(f"{subscripts!r}: letter repeated in {term!r}")
    summed = [ch for ch in a if ch in b]
    free = [ch for ch in a + b if ch not in summed]
    for ch in out:
        if ch in summed:
            raise ValueError(f"{subscripts!r}: batch index {ch!r}")
        if ch not in free:
            raise ValueError(f"{subscripts!r}: output letter {ch!r} in no operand")
    if len(out) != len(free):
        raise ValueError(f"{subscripts!r}: letter summed within one operand")
    return _PairPlan(
        perm_a=tuple(a.index(ch) for ch in a if ch not in summed)
        + tuple(a.index(ch) for ch in summed),
        perm_b=tuple(b.index(ch) for ch in summed)
        + tuple(b.index(ch) for ch in b if ch not in summed),
        n_summed=len(summed),
        perm_out=tuple(free.index(ch) for ch in out),
    )


def einsum2(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """Pairwise contraction in a fixed order, with accounting.

    The subscripts name two operands and an explicit output, with no batch
    index (``_pair_plan`` lists what raises ValueError); their parse is
    cached by the string.  Each operand is made C-contiguous, permuted so
    its summed axes meet, and reshaped to a matrix; one ``np.dot``
    multiplies the two (the arithmetic of ``np.tensordot``) and one
    transpose orders the output.  No path is searched, and the matrices
    handed to BLAS depend only on the operands' values, so their memory
    layout cannot change the bits.  One exception: when both matrices are
    views of one buffer, one the other's transpose (a real Gram product
    ``"qy,py->qp"`` of one array with itself), numpy computes a symmetric
    rank-k update, whose bits can differ from those of the same product
    with a copy.  The count is the product of the dimensions of all
    distinct index letters.
    """
    if len(operands) != 2:
        raise ValueError(f"einsum2 takes two operands, got {len(operands)}")
    a, b = operands
    plan = _pair_plan(subscripts)
    at = np.ascontiguousarray(a).transpose(plan.perm_a)
    bt = np.ascontiguousarray(b).transpose(plan.perm_b)
    n_free = at.ndim - plan.n_summed
    if at.shape[n_free:] != bt.shape[: plan.n_summed]:
        raise ValueError(f"{subscripts!r}: summed dimensions {at.shape[n_free:]} "
                         f"and {bt.shape[: plan.n_summed]} differ")
    k = math.prod(at.shape[n_free:])
    out = np.dot(at.reshape(math.prod(at.shape[:n_free]), k),
                 bt.reshape(k, math.prod(bt.shape[plan.n_summed:])))
    out = out.reshape(at.shape[:n_free] + bt.shape[plan.n_summed:])
    add_work(float(out.size) * k)
    return out.transpose(plan.perm_out)


# ---------------------------------------------------------------------------
# deterministic factorizations


class _SvdPlan(NamedTuple):
    """LAPACK ``gesdd`` of one matrix shape and dtype, with the optimal
    workspace."""

    gesdd: object
    lwork: int


@functools.lru_cache(maxsize=None)
def _svd_plan(dtype: np.dtype, m: int, n: int) -> _SvdPlan:
    """``gesdd`` for the thin SVD of an m x n matrix of ``dtype``, looked
    up once, with the workspace LAPACK asks for, as ``np.linalg.svd``
    uses."""
    proto = np.zeros((m, n), dtype)
    gesdd, gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), (proto,))
    lwork = int(np.real(gesdd_lwork(m, n, compute_uv=1, full_matrices=0)[0]))
    return _SvdPlan(gesdd, max(1, lwork))


def svd_fixed(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD with a deterministic sign convention.

    The largest-magnitude entry of each left singular vector is made
    real-positive (ties resolved by first occurrence), so reruns produce
    bit-identical factors and golden traces are reproducible.  The LAPACK
    call of ``np.linalg.svd`` (``gesdd``, its workspace), made directly
    through scipy's LAPACK; where that build computes as numpy's does, the
    factors carry the same bits, and they come back C-ordered, as numpy's
    do.  A LAPACK error code raises ``np.linalg.LinAlgError``.
    """
    m, n = mat.shape
    add_work(14.0 * m * n * min(m, n))
    if not mat.size:  # LAPACK rejects an empty matrix; numpy returns empty factors
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        return u, s, vh
    plan = _svd_plan(mat.dtype, m, n)
    u, s, vh, info = plan.gesdd(mat, compute_uv=1, full_matrices=0, lwork=plan.lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"SVD did not converge (LAPACK info {info})")
    lead = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    if np.iscomplexobj(u):
        mag = np.abs(lead)
        phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    else:
        phase = np.where(lead < 0, -1.0, 1.0)
    return (np.multiply(u, phase.conj(), order="C"), s,
            np.multiply(vh, phase[:, None], order="C"))


class _QrPlan(NamedTuple):
    """LAPACK routines of a reduced QR of one matrix shape and dtype, with
    the optimal workspace of each, and the mask of the entries below R's
    diagonal."""

    geqrf: object
    lwork_f: int
    orgqr: object
    lwork_q: int
    below: np.ndarray


@functools.lru_cache(maxsize=None)
def _qr_plan(dtype: np.dtype, m: int, n: int) -> _QrPlan:
    """``geqrf`` and ``orgqr`` (``ungqr`` for complex) for an m x n matrix
    of ``dtype``, looked up once.  The workspaces are the ones LAPACK asks
    for, as in ``np.linalg.qr``: a smaller one changes the blocking, and
    with it the bits."""
    proto = np.zeros((m, n), dtype)
    geqrf, orgqr = get_lapack_funcs(("geqrf", "orgqr"), (proto,))
    k = min(m, n)
    lwork_f = int(np.real(geqrf(proto, -1)[2][0]))
    lwork_q = int(np.real(orgqr(proto[:, :k], np.zeros(k, dtype), -1)[1][0]))
    return _QrPlan(geqrf, max(1, n, lwork_f), orgqr, max(1, k, lwork_q),
                   np.tri(k, n, -1, dtype=bool))


def qr_counted(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with operation accounting.

    The LAPACK calls of ``np.linalg.qr``, with its workspaces, without its
    Python wrapper, made through scipy's LAPACK; where that build computes
    as numpy's does, Q (in Fortran order) and R carry the same bits.  A
    LAPACK error code raises ``np.linalg.LinAlgError``.
    """
    m, n = mat.shape
    add_work(2.0 * m * n * min(m, n))
    plan = _qr_plan(mat.dtype, m, n)
    k = min(m, n)
    qr, tau, _, info = plan.geqrf(mat, plan.lwork_f)
    if info == 0:
        q, _, info = plan.orgqr(qr[:, :k], tau, plan.lwork_q)
    if info != 0:
        raise np.linalg.LinAlgError(f"QR factorization failed (LAPACK info {info})")
    return q, np.where(plan.below, 0.0, qr[:k])


class _EighPlan(NamedTuple):
    """LAPACK ``syevd`` (``heevd`` for complex) of one order and dtype,
    with the optimal workspaces."""

    evd: object
    lwork: dict


@functools.lru_cache(maxsize=None)
def _eigh_plan(dtype: np.dtype, n: int) -> _EighPlan:
    """``syevd``/``heevd`` for an n x n Hermitian matrix of ``dtype``,
    lower triangle, looked up once, with the workspaces LAPACK asks for,
    as ``np.linalg.eigh`` uses."""
    proto = np.zeros((n, n), dtype)
    name = "heevd" if np.iscomplexobj(proto) else "syevd"
    evd, evd_lwork = get_lapack_funcs((name, name + "_lwork"), (proto,))
    sizes = evd_lwork(n, compute_v=1, lower=1)[:-1]
    keys = ("lwork", "liwork", "lrwork")[: len(sizes)]
    return _EighPlan(evd, {k: max(1, int(np.real(v))) for k, v in zip(keys, sizes)})


def psd_factor(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X with X^dag X = N for Hermitian PSD N, and a pseudo-inverse of X.

    Built from the eigendecomposition with eigenvalues clipped at a
    relative floor, so nearly-null directions are projected out rather
    than amplified.  The eigendecomposition is the LAPACK call of
    ``np.linalg.eigh`` (``syevd``/``heevd`` on the lower triangle, its
    workspaces), made directly through scipy's LAPACK, with the same bits
    where that build computes as numpy's does.  A LAPACK error code raises
    ``np.linalg.LinAlgError``.
    """
    n = 0.5 * (n + n.conj().T)
    add_work(9.0 * n.shape[0] ** 3)
    plan = _eigh_plan(n.dtype, n.shape[0])
    w, v, info = plan.evd(n, compute_v=1, lower=1, **plan.lwork)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"eigendecomposition did not converge (LAPACK info {info})")
    w = np.maximum(w, 0.0)
    floor = (w[-1] if w.size else 0.0) * 1e-28
    sq = np.sqrt(w)
    keep = w > floor
    inv = np.where(keep, 1.0 / np.where(keep, sq, 1.0), 0.0)
    # the layouts np.linalg.eigh's C-ordered v gave these products
    x = np.multiply(sq[:, None], v.conj().T, order="F")
    x_inv = np.multiply(v, inv[None, :], order="C")
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
    rank = min(max_rank, int(np.count_nonzero(s > thresh)))
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
