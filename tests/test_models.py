import numpy as np
import pytest
from numpy.testing import assert_allclose

from specgap.models import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SPIN1_Z,
    SPIN1_X,
    SPIN1_Y,
    LocalTerm,
    OperatorTerms,
    bond_hamiltonian,
    commutator_terms,
    embed_on_sites,
    haldane,
    haldane_gap_operator,
    haldane_model,
    split_hamiltonian,
    terms_to_dense,
    tfim,
    tfim_chain_model,
    tfim_gap_operator,
    tfim_model,
)


class TestTfim:
    def test_term_structure(self):
        for d in (1, 2, 3):
            ham = tfim(d, 0.7, 1.3)
            sites = [t for t in ham.terms if len(t.sites) == 1]
            bonds = [t for t in ham.terms if len(t.sites) == 2]
            assert len(sites) == 1 and len(bonds) == d
            assert sites[0].sites == ((0,) * d,)
            assert_allclose(sites[0].matrix, -1.3 * PAULI_X)
            # one bond from the origin along each positive axis, in axis order
            assert [b.sites for b in bonds] == [
                ((0,) * d, tuple(np.eye(d, dtype=int)[a])) for a in range(d)
            ]
            for b in bonds:
                assert_allclose(b.matrix, -0.7 * np.kron(PAULI_Z, PAULI_Z))

    def test_three_dimensional_has_three_bonds(self):
        ham = tfim(3, 1.0, 0.5)
        assert sum(len(t.sites) == 2 for t in ham.terms) == 3

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            tfim(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            tfim(2, 0.0, 0.0)

    @pytest.mark.parametrize("field, J, g", [
        ("J", float("nan"), 1.0), ("J", float("inf"), 1.0),
        ("g", 0.2, float("inf")), ("g", 0.2, float("nan")),
    ])
    def test_non_finite_coupling_rejected(self, field, J, g):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            tfim(2, J, g)

    def test_single_flip_energy_3d_ferro(self):
        # brute-force broken-bond count on a periodic 3x3x3 cluster:
        # flipping one spin in the aligned classical state costs 2 z J
        J = 1.0

        def energy(spins):
            e = 0.0
            for x in range(3):
                for y in range(3):
                    for z in range(3):
                        s = spins[x, y, z]
                        e -= J * s * spins[(x + 1) % 3, y, z]
                        e -= J * s * spins[x, (y + 1) % 3, z]
                        e -= J * s * spins[x, y, (z + 1) % 3]
            return e

        up = np.ones((3, 3, 3))
        flipped = up.copy()
        flipped[1, 1, 1] = -1.0
        assert energy(flipped) - energy(up) == pytest.approx(12.0, abs=1e-12)

    def test_gap_operator(self):
        op = tfim_gap_operator(2)
        assert_allclose(op.terms[0].matrix, np.array([[0.0, -1.0j], [1.0j, 0.0]]))
        op.check_hermitian(0.0)
        assert np.max(np.abs(op.terms[0].matrix.real)) == 0.0


class TestHaldane:
    def test_bond_spectrum(self):
        ham = haldane()
        w = np.linalg.eigvalsh(ham.terms[0].matrix)
        assert_allclose(w[:1], [-2.0], atol=1e-12)
        assert_allclose(w[1:4], [-1.0] * 3, atol=1e-12)
        assert_allclose(w[4:], [1.0] * 5, atol=1e-12)

    def test_bond_traceless(self):
        ham = haldane()
        assert abs(np.trace(ham.terms[0].matrix)) < 1e-12

    def test_total_sz_commutes(self):
        m = haldane_model()
        h = terms_to_dense(m.hamiltonian, (3,))
        sz_tot = terms_to_dense(
            OperatorTerms([LocalTerm(((0,),), SPIN1_Z)], 3), (3,)
        )
        assert np.max(np.abs(h @ sz_tot - sz_tot @ h)) < 1e-12

    def test_gap_operator_imaginary_hermitian(self):
        op = haldane_gap_operator()
        op.check_hermitian(1e-12)
        assert np.max(np.abs(op.terms[0].matrix.real)) < 1e-15


class TestCommutatorTerms:
    def test_single_site_pauli_algebra(self):
        H = OperatorTerms([LocalTerm(((0,),), PAULI_X)], 2)
        O = OperatorTerms([LocalTerm(((0,),), PAULI_Y)], 2)
        out = commutator_terms(H, O)
        # i[X, Y] = i * 2i Z = -2 Z
        assert len(out.terms) == 1
        assert_allclose(out.terms[0].matrix, -2.0 * PAULI_Z, atol=1e-14)

    def test_tfim_closed_form(self):
        J, g = 0.7, 1.3
        m = tfim_model(2, J, g)
        out = m.commutator()
        site = [t for t in out.terms if len(t.sites) == 1]
        bonds = [t for t in out.terms if len(t.sites) == 2]
        assert_allclose(site[0].matrix, 2 * g * PAULI_Z, atol=1e-13)
        expected = -2 * J * (
            np.kron(PAULI_X, PAULI_Z) + np.kron(PAULI_Z, PAULI_X)
        )
        for b in bonds:
            assert_allclose(b.matrix, expected, atol=1e-13)

    def test_disjoint_supports_dropped(self):
        H = OperatorTerms([LocalTerm(((0,), (1,)), np.kron(PAULI_Z, PAULI_Z))], 2)
        O = OperatorTerms([LocalTerm(((0,),), PAULI_Z)], 2)
        out = commutator_terms(H, O)  # [zz, z] = 0 everywhere
        assert out.terms == []

    @pytest.mark.parametrize(
        "model,shape",
        [
            (tfim_model(2, 0.7, 1.3), (2, 2)),
            (tfim_model(3, 0.4, 1.0), (2, 2, 2)),
            (tfim_chain_model(0.3, 1.0), (4,)),
            (haldane_model(), (3,)),
        ],
        ids=["tfim2d", "tfim3d", "tfim1d", "haldane"],
    )
    def test_dense_equivalence_on_cluster(self, model, shape):
        h = terms_to_dense(model.hamiltonian, shape)
        o = terms_to_dense(model.gap_operator, shape)
        c = terms_to_dense(model.commutator(), shape)
        ref = 1j * (h @ o - o @ h)
        assert np.max(np.abs(c - ref)) < 1e-12

    def test_terms_hermitian_and_real(self):
        for model in (tfim_model(2, 0.5, 1.0), haldane_model()):
            comm = model.commutator()
            comm.check_hermitian(1e-12)
            for t in comm.terms:
                assert not np.iscomplexobj(t.matrix)

    def test_local_dim_mismatch(self):
        H = OperatorTerms([LocalTerm(((0,),), PAULI_X)], 2)
        O = OperatorTerms([LocalTerm(((0,),), SPIN1_Z)], 3)
        with pytest.raises(ValueError):
            commutator_terms(H, O)


class TestBondHamiltonian:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_tfim_matches_explicit(self, dim):
        J, g = 0.7, 1.3
        site, bonds = split_hamiltonian(tfim_model(dim, J, g).hamiltonian, dim)
        assert len(bonds) == dim
        assert np.isrealobj(site) and all(np.isrealobj(b) for b in bonds)
        zz = -J * np.kron(PAULI_Z, PAULI_Z)
        x = -g * PAULI_X
        explicit = zz + (np.kron(x, np.eye(2)) + np.kron(np.eye(2), x)) / (2 * dim)
        for b in bonds:
            assert np.array_equal(b, zz)
            assert np.max(np.abs(bond_hamiltonian(site, b, 2 * dim) - explicit)) < 1e-15

    def test_haldane_matches_explicit(self):
        site, (bond,) = split_hamiltonian(haldane_model().hamiltonian, 1)
        assert np.array_equal(site, np.zeros((3, 3)))
        explicit = (
            np.kron(SPIN1_X, SPIN1_X)
            + np.kron(SPIN1_Y, SPIN1_Y)
            + np.kron(SPIN1_Z, SPIN1_Z)
        )
        assert np.max(np.abs(bond_hamiltonian(site, bond, 2) - explicit)) < 1e-15

    def test_longer_range_rejected(self):
        nnn = OperatorTerms([LocalTerm(((0,), (2,)), np.eye(4))], 2)
        with pytest.raises(ValueError, match="non-nearest-neighbor"):
            split_hamiltonian(nnn, 1)
        three = OperatorTerms([LocalTerm(((0,), (1,), (2,)), np.eye(8))], 2)
        with pytest.raises(ValueError, match="1- and 2-site"):
            split_hamiltonian(three, 1)


class TestEmbedding:
    def test_order_respected(self):
        m = np.kron(PAULI_X, PAULI_Y)
        out = embed_on_sites(m, [(1,), (0,)], [(0,), (1,)], 2)
        assert_allclose(out, np.kron(PAULI_Y, PAULI_X))

    def test_wraparound_rejected(self):
        t = OperatorTerms([LocalTerm(((0,), (1,), (2,)), np.eye(27))], 3)
        with pytest.raises(ValueError, match="wraps"):
            terms_to_dense(t, (2,))
