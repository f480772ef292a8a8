import numpy as np
import pytest

from specgap.tensor import choose_rank, svd_fixed, truncated_svd


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
