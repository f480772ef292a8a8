import warnings

import numpy as np
import pytest

from specgap import imps
from specgap.estimator import estimate_gap
from specgap.imps import (
    EvolutionSchedule,
    IMpsState,
    canonical_defect,
    bond_gate,
    expectation_terms_imps,
    final_state_1d,
    pair_degeneracy_defect,
    random_product_imps,
    recanonicalize,
    run_evolution_1d,
    tebd_step,
)
from specgap.models import (
    LocalTerm,
    OperatorTerms,
    PAULI_X,
    PAULI_Z,
    SPIN1_X,
    SPIN1_Y,
    SPIN1_Z,
    bond_hamiltonian,
    haldane_model,
    split_hamiltonian,
    tfim_chain_model,
)
from specgap.tensor import PINV_FLOOR, work_count


def chain_bond_hamiltonian(model):
    site, (bond,) = split_hamiltonian(model.hamiltonian, 1)
    return bond_hamiltonian(site, bond, 2)


def regauge(state, tol=imps.CANONICAL_TOL):
    """``recanonicalize`` with the identity gate, keeping bond 0's rank."""
    d = state.local_dim
    ident = np.eye(d * d).reshape(d, d, d, d)
    return recanonicalize(state, ident, state.lams[0].size, tol)


def positive_product_state(local_dim, seed):
    """Product state whose vectors have positive leading entries, so the
    deterministic SVD sign gauge leaves them untouched."""
    state = random_product_imps(local_dim, seed)
    for i in (0, 1):
        g = state.gammas[i]
        state.gammas[i] = np.abs(g)
    return state


def aklt_state():
    """The valence-bond D=2 spin-1 state in bond-weight form.

    With the canonical tensors and flat weights the state satisfies both
    isometry conditions exactly.
    """
    up = np.array([[0.0, 1.0], [0.0, 0.0]])  # raising on the D=2 space
    b = np.stack([
        np.sqrt(2.0 / 3.0) * up,
        -np.sqrt(1.0 / 3.0) * np.diag([1.0, -1.0]),
        -np.sqrt(2.0 / 3.0) * up.T,
    ])  # (phys, left, right), right-normalized
    gam = np.transpose(b, (1, 0, 2)) * np.sqrt(2.0)
    lam = np.ones(2) / np.sqrt(2.0)
    return IMpsState([gam.copy(), gam.copy()], [lam.copy(), lam.copy()])


class TestStateConstruction:
    def test_random_product_properties(self):
        st = random_product_imps(2, 9)
        assert [lam.size for lam in st.lams] == [1, 1]
        for g in st.gammas:
            assert np.linalg.norm(g) == pytest.approx(1.0)
        again = random_product_imps(2, 9)
        for a, b in zip(st.gammas, again.gammas):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_product_imps(2, 1)
        b = random_product_imps(2, 2)
        assert not np.allclose(a.gammas[0], b.gammas[0])


class TestTebdStep:
    def test_identity_gate_invariance(self):
        st = positive_product_state(2, 3)
        ident = np.eye(4).reshape(2, 2, 2, 2)
        out, disc = tebd_step(st, ident, 0, D_max=4)
        assert disc == pytest.approx(0.0, abs=1e-28)
        for a, b in zip(out.gammas, st.gammas):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_semigroup_property(self):
        # two successive gates == one combined gate at full rank
        m = tfim_chain_model(0.4, 1.0)
        h = chain_bond_hamiltonian(m)
        st = random_product_imps(2, 5)
        for _ in range(4):  # build up a well-conditioned D=4 state
            st, _ = tebd_step(st, bond_gate(h, 0.3), 0, 8)
            st, _ = tebd_step(st, bond_gate(h, 0.3), 1, 8)
        st = regauge(st, tol=1e-10)

        one, _ = tebd_step(st, bond_gate(h, 0.7), 0, 64)
        two, _ = tebd_step(st, bond_gate(h, 0.3), 0, 64)
        two, _ = tebd_step(two, bond_gate(h, 0.4), 0, 64)
        lam_a, lam_b = one.lams[0], two.lams[0]
        n = min(lam_a.size, lam_b.size)
        assert np.max(np.abs(lam_a[:n] - lam_b[:n])) < 1e-10
        oz = OperatorTerms([LocalTerm(((0,),), PAULI_Z)], 2)
        assert expectation_terms_imps(one, oz) == pytest.approx(
            expectation_terms_imps(two, oz), abs=1e-10
        )

    def test_rank_zero_is_fatal(self):
        st = random_product_imps(2, 1)
        zero_gate = np.zeros((2, 2, 2, 2))
        with pytest.raises((RuntimeError, ValueError)):
            tebd_step(st, zero_gate, 0, 4)

    def test_field_only_converges_to_x_polarized(self):
        m = tfim_chain_model(0.0, 1.0)
        st = final_state_1d(m, EvolutionSchedule(dtau=0.05, tau_max=10.0, D_max=4), 4, seed=2)
        ox = OperatorTerms([LocalTerm(((0,),), PAULI_X)], 2)
        assert expectation_terms_imps(st, ox) / 2.0 == pytest.approx(1.0, abs=1e-6)


class TestExpectation:
    def test_identity_counts_cell_sites(self):
        st = random_product_imps(2, 4)
        ident = OperatorTerms([LocalTerm(((0,),), np.eye(2))], 2)
        assert expectation_terms_imps(st, ident) == pytest.approx(2.0, abs=1e-12)

    def test_up_up_product(self):
        up = np.array([1.0, 0.0]).reshape(1, 2, 1)
        st = IMpsState([up.copy(), up.copy()], [np.ones(1), np.ones(1)])
        oz = OperatorTerms([LocalTerm(((0,),), PAULI_Z)], 2)
        assert expectation_terms_imps(st, oz) == pytest.approx(2.0, abs=1e-14)

    def test_aklt_bond_energy_vs_density_matrix(self):
        st = aklt_state()
        assert canonical_defect(st) < 1e-12
        heis = OperatorTerms(
            [LocalTerm(((0,), (1,)),
                       np.kron(SPIN1_X, SPIN1_X).real
                       + np.kron(SPIN1_Y, SPIN1_Y).real
                       + np.kron(SPIN1_Z, SPIN1_Z))],
            3,
        )
        got = expectation_terms_imps(st, heis) / 2.0  # per bond

        # independent evaluation through the explicit two-site reduced
        # density matrix of the same state
        lam, g = st.lams[0], st.gammas[0]
        theta = np.einsum("a,apb,b,bqc,c->apqc", lam, g, lam, g, lam)
        theta = theta.reshape(2, 9, 2)
        rho = np.einsum("apb,aqb->pq", theta, theta.conj())
        rho /= np.trace(rho)
        ref = float(np.real(np.trace(rho @ heis.terms[0].matrix)))
        assert got == pytest.approx(ref, abs=1e-12)
        # the valence-bond state's nearest-neighbor correlation
        assert got == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_three_site_support_on_product_state(self):
        st = positive_product_state(2, 8)
        v0 = st.gammas[0].reshape(2)
        v1 = st.gammas[1].reshape(2)
        op3 = np.kron(np.kron(PAULI_Z, PAULI_X), PAULI_Z)
        terms = OperatorTerms([LocalTerm(((0,), (1,), (2,)), op3)], 2)
        got = expectation_terms_imps(st, terms)
        za = v0 @ PAULI_Z @ v0
        xa = v0 @ PAULI_X @ v0
        zb = v1 @ PAULI_Z @ v1
        xb = v1 @ PAULI_X @ v1
        ref = za * xb * za + zb * xa * zb
        assert got == pytest.approx(ref, abs=1e-12)

    def test_unsupported_spans_rejected(self):
        st = random_product_imps(2, 1)
        four = OperatorTerms([LocalTerm(((0,), (1,), (2,), (3,)), np.eye(16))], 2)
        with pytest.raises(ValueError):
            expectation_terms_imps(st, four)
        skip = OperatorTerms([LocalTerm(((0,), (2,)), np.eye(4))], 2)
        with pytest.raises(ValueError):
            expectation_terms_imps(st, skip)


@pytest.fixture(scope="module")
def half_swept_chain():
    """The J=0.8, g=1, D=32 chain at tau=3, then the two bond updates of a
    Trotter sweep that precede its ``recanonicalize``."""
    m = tfim_chain_model(0.8, 1.0)
    st = final_state_1d(m, EvolutionSchedule(dtau=0.05, tau_max=3.0, D_max=32), 32, seed=2)
    h = chain_bond_hamiltonian(m)
    st, _ = tebd_step(st, bond_gate(h, 0.025), 0, 32)
    st, _ = tebd_step(st, bond_gate(h, 0.05), 1, 32)
    return st


@pytest.fixture(scope="module")
def swept_chain(half_swept_chain):
    """``half_swept_chain`` after the sweep's last bond-0 update as a plain
    bond update, without re-canonicalizing."""
    h = chain_bond_hamiltonian(tfim_chain_model(0.8, 1.0))
    st, _ = tebd_step(half_swept_chain, bond_gate(h, 0.025), 0, 32)
    return st


def one_sided_cell(side, local_dim=3, D=6, seed=0):
    """A random cell whose block ``G0 lam0 G1`` is, with the outer weights,
    a right (``side="right"``) or left isometry: that transfer map's fixed
    point is the identity, the other's is generic."""
    rng = np.random.default_rng(seed)
    lams = [np.sort(rng.uniform(0.2, 1.0, D))[::-1] for _ in range(2)]
    lams = [lam / np.linalg.norm(lam) for lam in lams]
    isos = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.normal(size=(local_dim * D, D)))
        if side == "right":  # sum_sb R[a,s,b] R[c,s,b] = delta_ac
            isos.append(q.T.reshape(D, local_dim, D))
        else:  # sum_as L[a,s,b] L[a,s,c] = delta_bc
            isos.append(q.reshape(D, local_dim, D))
    if side == "right":  # G0 lam0 G1 lam1 = R0 R1
        gammas = [isos[i] / lams[i][None, None, :] for i in (0, 1)]
    else:  # lam1 G0 lam0 G1 = L0 L1
        gammas = [isos[i] / lams[1 - i][:, None, None] for i in (0, 1)]
    return IMpsState(gammas, lams)


class TestCanonicalForm:
    def test_recanonicalize_reaches_gauge(self):
        m = haldane_model()
        h = chain_bond_hamiltonian(m)
        st = random_product_imps(3, 5)
        for _ in range(5):
            st, _ = tebd_step(st, bond_gate(h, 0.05), 0, 8)
            st, _ = tebd_step(st, bond_gate(h, 0.05), 1, 8)
        assert canonical_defect(st) > 1e-3  # plain updates drift
        fixed = regauge(st, tol=1e-9)
        assert canonical_defect(fixed) <= 1e-9

    def test_recanonicalize_idempotent_drift_bound(self):
        # after a sweep (which ends canonical), re-canonicalizing again
        # moves the bond weights by less than the gauge tolerance
        m = tfim_chain_model(0.3, 1.0)
        sch = EvolutionSchedule(dtau=0.05, tau_max=2.0, D_max=8)
        st = final_state_1d(m, sch, 8, seed=3)
        again = regauge(st, tol=1e-8)
        for b in (0, 1):
            assert np.max(np.abs(again.lams[b] - st.lams[b])) < 1e-8

    def test_one_call_reaches_gauge_where_sweeps_stall(self, swept_chain):
        # bond weights down to ~1e-14 make this gauge badly conditioned
        assert canonical_defect(swept_chain) > 1e-3
        assert canonical_defect(regauge(swept_chain)) <= 1e-6

    def test_second_call_moves_nothing_and_repeats(self, swept_chain):
        fixed = regauge(swept_chain)
        again = regauge(fixed)
        twice = regauge(fixed)
        for b in (0, 1):
            assert again.lams[b].shape == fixed.lams[b].shape
            assert np.max(np.abs(again.lams[b] - fixed.lams[b])) < 1e-12
            assert np.array_equal(again.lams[b], twice.lams[b])
            assert np.array_equal(again.gammas[b], twice.gammas[b])

    def test_fixed_point_matvecs_counted(self, swept_chain, monkeypatch):
        # one stacked iteration applies both transfer maps
        per_call = []
        solve = imps._fixed_points

        def counting(apply, dim, tol):
            def counted(v):
                start = work_count()
                out = apply(v)
                per_call.append(work_count() - start)
                return out
            return solve(counted, dim, tol)

        monkeypatch.setattr(imps, "_fixed_points", counting)
        start = work_count()
        regauge(swept_chain)
        total = work_count() - start
        dl, d = swept_chain.lams[1].size, swept_chain.local_dim
        assert len(per_call) >= 2
        assert set(per_call) == {2 * 2.0 * dl**3 * d * d}
        assert total > sum(per_call)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_both_fixed_points_meet_the_bound(self, side, monkeypatch):
        # one map starts at its fixed point, so a loop that stopped on the
        # first converged map would return the other after one iteration
        seen = []
        solve = imps._fixed_points

        def recorded(apply, dim, tol):
            out = solve(apply, dim, tol)
            seen.append((apply, dim, tol, out))
            return out

        monkeypatch.setattr(imps, "_fixed_points", recorded)
        st = one_sided_cell(side)
        fixed = regauge(st)
        (apply, dim, tol, v), = seen
        w = apply(v)
        w = w * (dim / np.real(np.trace(w, axis1=1, axis2=2)))[:, None, None]
        steps = np.max(np.abs(w - v), axis=(1, 2))
        assert np.all(steps <= 1e-2 * tol), steps
        exact = 0 if side == "right" else 1
        assert np.max(np.abs(v[exact] - np.eye(dim))) < 1e-12
        assert np.max(np.abs(v[1 - exact] - np.eye(dim))) > 1e-2
        assert canonical_defect(fixed) <= 1e-9

    def test_unconverged_fixed_point_warns(self, swept_chain, monkeypatch):
        monkeypatch.setattr(imps, "FIXED_POINT_MAX_ITER", 1)
        with pytest.warns(RuntimeWarning, match="canonical fixed point unconverged"):
            regauge(swept_chain)

    def test_stalled_fixed_point_stops_and_warns(self):
        # a map whose step stays at 1e-9 to 2e-9, above the 1e-10 bound
        # for tol 1e-8: the loop ends FIXED_POINT_STALL iterations after
        # its smallest step, the first, not at the cap
        calls = []

        def stalled(v):
            calls.append(None)
            kick = 1e-9 if len(calls) % 2 else -1e-9
            return np.stack([np.eye(3) + kick * np.ones((3, 3))] * 2)

        with pytest.warns(RuntimeWarning, match="canonical fixed point unconverged"):
            v = imps._fixed_points(stalled, 3, 1e-8)
        assert len(calls) == imps.FIXED_POINT_STALL + 1
        assert np.max(np.abs(v - np.eye(3))) < 1e-8

    @pytest.mark.parametrize("seed", [1, 5])
    def test_fused_half_gate_matches_a_bond_update(self, seed):
        # one sweep from a product state: every weight sits far above the
        # cut, and at D_max = 64 neither path truncates
        m = haldane_model()
        h = chain_bond_hamiltonian(m)
        st = random_product_imps(3, seed)
        st, _ = tebd_step(st, bond_gate(h, 0.2), 0, 64)
        st, _ = tebd_step(st, bond_gate(h, 0.4), 1, 64)
        g_half = bond_gate(h, 0.2)
        fused = recanonicalize(st, g_half, 64)
        plain, disc = tebd_step(st, g_half, 0, 64)
        plain = regauge(plain)
        assert disc == 0.0
        for b in (0, 1):
            assert fused.lams[b].size == plain.lams[b].size < 64
            assert np.max(np.abs(fused.lams[b] - plain.lams[b])) < 1e-10
        comm = m.commutator()
        assert expectation_terms_imps(fused, comm) == pytest.approx(
            expectation_terms_imps(plain, comm), abs=1e-10)
        assert canonical_defect(fused) <= 1e-6

    def test_fused_cut_warns_below_pinv_floor(self, half_swept_chain):
        # the next bond-1 update divides by the new bond-0 weights
        h = chain_bond_hamiltonian(tfim_chain_model(0.8, 1.0))
        with pytest.warns(RuntimeWarning, match="bond weight below pinv floor"):
            fused = recanonicalize(half_swept_chain, bond_gate(h, 0.025), 32)
        assert fused.lams[0].min() < PINV_FLOOR

    def test_d32_chain_run_converges_silently(self):
        m = tfim_chain_model(0.8, 1.0)
        sch = EvolutionSchedule(dtau=0.05, tau_max=25.0, D_max=32, seed=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tr = run_evolution_1d(m, sch, D_max=32, seed=2)
        assert not [w for w in caught if "canonical fixed point" in str(w.message)]
        assert estimate_gap(tr).gap == pytest.approx(0.4, rel=1e-2)

    def test_pair_defect_metric(self):
        assert pair_degeneracy_defect(np.array([0.6, 0.6, 0.38, 0.38])) < 1e-15
        assert pair_degeneracy_defect(np.array([0.7, 0.5, 0.4, 0.3])) > 0.1


class TestSchedule:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            EvolutionSchedule(dtau=0.2, tau_max=0.4, seed=-1)

    @pytest.mark.parametrize("field, dtau, tau_max", [
        ("dtau", float("nan"), 0.4), ("dtau", float("inf"), 0.4),
        ("tau_max", 0.2, float("inf")), ("tau_max", 0.2, float("nan")),
    ])
    def test_non_finite_rejected(self, field, dtau, tau_max):
        with pytest.raises(ValueError, match=field):
            EvolutionSchedule(dtau=dtau, tau_max=tau_max)


class TestRunEvolution:
    def test_determinism(self):
        m = tfim_chain_model(0.3, 1.0)
        sch = EvolutionSchedule(dtau=0.1, tau_max=2.0, D_max=4, seed=6)
        t1 = run_evolution_1d(m, sch, D_max=4, seed=6)
        t2 = run_evolution_1d(m, sch, D_max=4, seed=6)
        assert np.array_equal(t1.taus, t2.taus)
        assert np.array_equal(t1.cs, t2.cs)

    def test_underflow_stop(self):
        m = tfim_chain_model(0.0, 1.0)
        sch = EvolutionSchedule(dtau=0.1, tau_max=100.0, D_max=2, seed=1)
        tr = run_evolution_1d(m, sch, D_max=2, seed=1)
        assert tr.taus[-1] < 25.0  # stopped long before tau_max
        assert tr.cs[-1] - tr.cs[0] >= np.log(1e-14) + np.log(1e-3)

    def test_j_zero_gap_exact(self):
        m = tfim_chain_model(0.0, 1.0)
        sch = EvolutionSchedule(dtau=0.05, tau_max=9.0, D_max=2, seed=3)
        tr = run_evolution_1d(m, sch, D_max=2, seed=3)
        e = estimate_gap(tr, window=(6.0, 8.0))
        assert e.gap == pytest.approx(2.0, abs=1e-8)

    def test_wrong_dimension_rejected(self):
        from specgap.models import tfim_model

        with pytest.raises(ValueError):
            run_evolution_1d(
                tfim_model(2, 0.2, 1.0),
                EvolutionSchedule(dtau=0.1, tau_max=1.0, D_max=2),
                D_max=2,
            )
