import numpy as np
import pytest

from specgap import imps, ipeps, models, wii
from specgap.tensor import (choose_rank, einsum2, psd_factor, qr_counted,
                            reset_work, svd_fixed, truncated_svd, work_count)

# every subscript string the package passes to einsum2, by call site
EINSUM2_SUBSCRIPTS = [
    # imps: the two-site block of tebd_step and recanonicalize, and the
    # two cells expectation_terms_imps measures
    "apb,bqc->apqc",
    # imps: expectation_terms_imps, the reduced density matrix of a window
    "qy,py->qp",
    # imps: the gate of tebd_step and split_cell
    "xypq,apqc->axyc",
    # imps: canonical_defect
    "asb,asc->bc",
    "asb,csb->ac",
    # imps: recanonicalize gauge maps
    "xa,asb->xsb",
    "xsb,by->xsy",
    # ipeps: apply_axis_mpo at d = 2, 3
    "lrpq,qabcd->lrpabcd",
    "lrpq,qabcdef->lrpabcdef",
    # ipeps: simple_update_bond
    "ibp,jbq->ipjq",
    "xypq,ipjq->ixjy",
    # ipeps: _pair_transfer, every leg at d = 2
    "pabcd,qBbcd->pqaB",
    "pabcd,qaBcd->pqbB",
    "pabcd,qabBd->pqcB",
    "pabcd,qabcB->pqdB",
    # ipeps: _pair_transfer, every leg at d = 3
    "pabcdef,qBbcdef->pqaB",
    "pabcdef,qaBcdef->pqbB",
    "pabcdef,qabBdef->pqcB",
    "pabcdef,qabcBef->pqdB",
    "pabcdef,qabcdBf->pqeB",
    "pabcdef,qabcdeB->pqfB",
    # ipeps: expectation_terms_peps pair closure and its scalar
    "kKaA,lLaA->kKlL",
    "KLkl,kKlL->",
    # wii: _contract_channel_chain
    "cab,cexy->eaxby",
]
# einsum2 cases beyond the call sites: an operator on one to three middle
# axes, and a three-tensor chain
EINSUM2_CASES = EINSUM2_SUBSCRIPTS + [
    "px,axb->apb",
    "pqxy,axyb->apqb",
    "pqrxyz,axyzb->apqrb",
    "apqb,brc->apqrc",
]


class TestSvdTruncate:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        _, s, _, disc = truncated_svd(np.outer(u, np.conj(v)), 4, rel_tol=1e-12)
        assert s.size == 1
        assert disc == pytest.approx(0.0, abs=1e-24)

    def test_identity_half_rank(self):
        _, s, _, disc = truncated_svd(np.eye(4), 2, 0.0)
        assert s.size == 2
        assert disc == pytest.approx(0.5, abs=1e-14)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(6, 6))
        u, s, vh, _ = truncated_svd(mat, 6, 0.0)
        rec = u @ np.diag(s) @ vh * np.linalg.norm(mat)
        assert np.linalg.norm(rec - mat) < 1e-12

    def test_multi_index_split_reconstruction(self):
        # split (a, c | b, d) of a four-index tensor, as the bond updates do
        rng = np.random.default_rng(9)
        t = rng.normal(size=(2, 3, 4, 2))
        mat = np.transpose(t, (0, 2, 1, 3)).reshape(2 * 4, 3 * 2)
        u, s, vh, _ = truncated_svd(mat, 64, 0.0)
        rec = np.einsum(
            "acx,x,xbd->abcd", u.reshape(2, 4, -1), s, vh.reshape(-1, 3, 2)
        ) * np.linalg.norm(t)
        assert np.max(np.abs(rec - t)) < 1e-10 * np.max(np.abs(t))

    def test_truncation_optimality(self):
        # best rank-2 Frobenius error from an eigen-decomposition oracle
        rng = np.random.default_rng(11)
        for _ in range(5):
            mat = rng.normal(size=(4, 4))
            u, s, vh, disc = truncated_svd(mat, 2, 0.0)
            w = np.linalg.eigvalsh(mat.T @ mat)  # squared singular values
            best = np.sum(np.sort(w)[:2])
            got = disc * np.sum(w)
            assert abs(got - best) < 1e-10
            kept = np.sqrt(np.sum(w) - got)  # norm of the kept values
            err = np.linalg.norm(mat - kept * u @ np.diag(s) @ vh) ** 2
            assert abs(err - best) < 1e-10

    def test_all_zero_reports_rank_zero(self):
        _, s, _ = svd_fixed(np.zeros((3, 3)))
        assert choose_rank(s, 2, 0.0) == (0, 1.0)
        assert choose_rank(np.zeros(0), 2, 0.0) == (0, 1.0)

    def test_weights_unit_norm(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(6, 5))
        _, s, _, _ = truncated_svd(mat, 3, 1e-14)
        full = np.linalg.svd(mat, compute_uv=False)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(s - full[:3] / np.linalg.norm(full[:3]))) < 1e-14

    def test_rank_zero_raises(self):
        with pytest.raises(RuntimeError, match="rank 0"):
            truncated_svd(np.zeros((3, 3)), 2, 1e-14)

    def test_degenerate_boundary_keeps_exactly_max_rank(self):
        _, s, _, disc = truncated_svd(np.eye(4), 3, 0.0)
        assert s.size == 3
        assert disc == pytest.approx(0.25, abs=1e-14)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(5, 5))
        u1, s1, v1 = svd_fixed(mat)
        u2, s2, v2 = svd_fixed(mat.copy())
        assert np.array_equal(u1, u2)
        assert np.array_equal(v1, v2)
        # largest-magnitude entry of each left singular vector is positive
        piv = np.argmax(np.abs(u1), axis=0)
        lead = u1[piv, np.arange(u1.shape[1])]
        assert np.all(np.real(lead) > 0)
        # the sign fix leaves the factorization exact
        assert np.linalg.norm(u1 @ np.diag(s1) @ v1 - mat) < 1e-12


def _operands(subscripts, dtype, seed=0):
    """Random operands for ``subscripts``, each letter its own dimension."""
    rng = np.random.default_rng(seed)
    terms = subscripts.partition("->")[0].split(",")
    letters = sorted(set("".join(terms)))
    dims = {ch: 2 + i % 3 for i, ch in enumerate(letters)}
    ops = []
    for term in terms:
        shape = tuple(dims[ch] for ch in term)
        op = rng.normal(size=shape)
        if dtype is complex:
            op = op + 1j * rng.normal(size=shape)
        ops.append(op)
    return dims, ops


def _tensordot_reference(subscripts, a, b):
    """np.tensordot over the shared letters (in the first operand's
    order), then the output permutation."""
    spec, _, out = subscripts.partition("->")
    sa, sb = spec.split(",")
    summed = [ch for ch in sa if ch in sb]
    free = [ch for ch in sa + sb if ch not in summed]
    res = np.tensordot(a, b, axes=([sa.index(ch) for ch in summed],
                                   [sb.index(ch) for ch in summed]))
    return res.transpose([free.index(ch) for ch in out])


class TestEinsum2:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("subscripts", EINSUM2_CASES)
    def test_matches_einsum_and_counts(self, subscripts, dtype):
        dims, (a, b) = _operands(subscripts, dtype)
        reset_work()
        got = einsum2(subscripts, a, b)
        assert work_count() == float(np.prod(list(dims.values())))
        ref = np.einsum(subscripts, a, b)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14 * scale
        # the fixed order is tensordot's, bit for bit
        assert np.array_equal(got, _tensordot_reference(subscripts, a, b))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("subscripts", EINSUM2_CASES)
    def test_bits_independent_of_layout(self, subscripts, dtype):
        _, (a, b) = _operands(subscripts, dtype, seed=1)
        ref = einsum2(subscripts, a, b)
        for view in (np.asfortranarray, lambda x: np.ascontiguousarray(x.T).T):
            va, vb = view(a), view(b)
            assert np.array_equal(va, a) and np.array_equal(vb, b)
            if a.ndim > 1:
                assert not va.flags.c_contiguous
            assert np.array_equal(einsum2(subscripts, va, vb), ref)
            assert np.array_equal(einsum2(subscripts, va, b), ref)
            assert np.array_equal(einsum2(subscripts, a, vb), ref)

    @pytest.mark.parametrize("subscripts", [
        "ab,bc,cd->ad",  # three operands
        "ab->ba",  # one operand
        "ab,bc",  # no explicit output
        "aab,bc->ac",  # letter repeated within one operand
        "ab,bc->acc",  # letter repeated in the output
        "ab,bc->abc",  # batch index: in both operands and the output
        "ab,bc->acd",  # output letter in no operand
        "ab,bc->c",  # letter summed within one operand
        "a...,b->ab",  # not a letter
    ])
    def test_rejects_what_one_product_cannot_do(self, subscripts):
        ops = [np.ones((2, 2))] * (subscripts.count(",") + 1)
        with pytest.raises(ValueError):
            einsum2(subscripts, *ops)

    def test_rejects_operand_count_and_shapes(self):
        a = np.ones((2, 3))
        with pytest.raises(ValueError):
            einsum2("ab,bc->ac", a)
        with pytest.raises(ValueError):
            einsum2("ab,bc->ac", a, a, a)
        with pytest.raises(ValueError):
            einsum2("ab,bc->ac", a, np.ones((2, 3)))  # summed dims differ
        with pytest.raises(ValueError):
            einsum2("ab,bc->ac", a, np.ones((3, 2, 2)))  # rank differs

    def test_list_covers_every_call_site(self, monkeypatch):
        # short runs through every path that calls einsum2 pass exactly
        # the strings the tests above check
        seen = set()
        for mod in (imps, ipeps, wii):
            orig = mod.einsum2

            def record(subscripts, *ops, _orig=orig):
                seen.add(subscripts)
                return _orig(subscripts, *ops)

            monkeypatch.setattr(mod, "einsum2", record)
        for model in (models.tfim_chain_model(0.8, 1.0), models.haldane_model()):
            sched = imps.EvolutionSchedule(dtau=0.1, tau_max=0.2, D_max=4, seed=1)
            imps.run_evolution_1d(model, sched, 4)
            imps.canonical_defect(imps.final_state_1d(model, sched, 4))
        for dim, scheme in ((2, "gates"), (2, "mpo"), (3, "mpo")):
            sched = imps.EvolutionSchedule(
                dtau=0.1, tau_max=0.2, scheme=scheme, D_max=2, seed=1)
            ipeps.run_evolution_peps(models.tfim_model(dim, 0.2, 1.0), sched, 2)
        blocks = wii.hamiltonian_line_mpo(
            -np.kron(models.PAULI_Z, models.PAULI_Z), -models.PAULI_X, 0.5)
        wii.line_hamiltonian_dense(blocks, 3)
        wii.mpo_to_dense(wii.build_wii(blocks, 0.1), 3)
        assert seen == set(EINSUM2_SUBSCRIPTS)


class TestQrCounted:
    # tall, square and wide; the 200 x 200 case is wide enough for the
    # blocked factorization, whose blocking depends on the workspace
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", [(64, 8), (8, 8), (8, 64), (200, 200)],
                             ids=["tall", "square", "wide", "blocked"])
    def test_same_bits_as_numpy_and_counts(self, shape, dtype):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=shape)
        if dtype is complex:
            mat = mat + 1j * rng.normal(size=shape)
        reset_work()
        q, r = qr_counted(mat)
        m, n = shape
        assert work_count() == 2.0 * m * n * min(m, n)
        q_ref, r_ref = np.linalg.qr(mat)
        for got, ref in ((q, q_ref), (r, r_ref)):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.ascontiguousarray(got).tobytes() == ref.tobytes()


def _svd_reference(mat):
    """``np.linalg.svd`` with the sign convention of ``svd_fixed``: the
    largest-magnitude entry of each left vector made real-positive."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return u * np.conj(phase)[None, :], s, vh * phase[:, None]


def _psd_reference(n):
    """``psd_factor``'s factors built from ``np.linalg.eigh``."""
    n = 0.5 * (n + n.conj().T)
    w, v = np.linalg.eigh(n)
    w = np.clip(w, 0.0, None)
    floor = w[-1] * 1e-28
    sq = np.sqrt(w)
    inv = np.where(w > floor, 1.0 / np.where(w > floor, sq, 1.0), 0.0)
    return sq[:, None] * v.conj().T, v * inv[None, :]


# the factorization shapes the workloads use: the 3D gauge fix (3, 6),
# the gate cut (16), the chain at D = 32 (64 x 64, 64 x 32), and a complex
# case
LAPACK_CASES = pytest.mark.parametrize(
    "shape,dtype",
    [((3, 3), float), ((6, 6), float), ((16, 16), float), ((64, 64), float),
     ((64, 32), float), ((5, 5), complex)],
    ids=["3", "6", "16", "64", "64x32", "complex-5"],
)


class TestLapackDirect:
    """The factorizations call LAPACK directly; they must give the bits
    of the ``np.linalg`` calls they replace, in the same memory order."""

    @LAPACK_CASES
    def test_svd_fixed_same_bits_as_numpy(self, shape, dtype):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=shape)
        if dtype is complex:
            mat = mat + 1j * rng.normal(size=shape)
        reset_work()
        got = svd_fixed(mat)
        m, n = shape
        assert work_count() == 14.0 * m * n * min(m, n)
        for g, ref in zip(got, _svd_reference(mat)):
            assert g.dtype == ref.dtype and g.flags.c_contiguous == ref.flags.c_contiguous
            assert np.array_equal(g, ref)

    def test_svd_fixed_empty_matrix(self):
        u, s, vh = svd_fixed(np.zeros((0, 3)))
        assert u.shape == (0, 0) and s.shape == (0,) and vh.shape == (0, 3)

    @LAPACK_CASES
    def test_psd_factor_same_bits_as_numpy(self, shape, dtype):
        rng = np.random.default_rng(6)
        a = rng.normal(size=shape)
        if dtype is complex:
            a = a + 1j * rng.normal(size=shape)
        # a PSD matrix with a null direction, so the floor is exercised
        n = a.conj().T @ a if shape[0] >= shape[1] else a @ a.conj().T
        n[:, 0] = n[0, :] = 0.0
        reset_work()
        got = psd_factor(n)
        assert work_count() == 9.0 * n.shape[0] ** 3
        for g, ref in zip(got, _psd_reference(n)):
            assert g.dtype == ref.dtype
            assert g.flags.c_contiguous == ref.flags.c_contiguous
            assert g.flags.f_contiguous == ref.flags.f_contiguous
            assert np.array_equal(g, ref)
