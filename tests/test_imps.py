import warnings

import numpy as np
import pytest

from specgap import imps, tensor
from specgap.estimator import estimate_gap, planned_steps
from specgap.imps import (
    EvolutionSchedule,
    IMpsState,
    canonical_defect,
    bond_gate,
    expectation_terms_imps,
    final_state_1d,
    identity_gate,
    pair_degeneracy_defect,
    random_product_imps,
    recanonicalize,
    run_evolution_1d,
    split_cell,
    tebd_step,
    to_cell,
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
    """``recanonicalize`` with the identity gate, its cell split back into
    Vidal form keeping bond 0's rank."""
    ident = identity_gate(state.local_dim)
    out, _ = split_cell(recanonicalize(state, ident, tol), ident, state.lams[0].size)
    return out


def evolved_cell(model, schedule, D_max, seed):
    """The cell a 1D run carries at ``schedule.tau_max``."""
    cell, advance = imps._setup_1d(model, schedule, D_max, seed)
    for _ in range(planned_steps(schedule.dtau, schedule.tau_max)):
        cell = advance(cell)
    return cell


def split_expectation(state, terms):
    """Per-cell expectation of ``terms`` on a Vidal-form state, one window
    per term and base site, each normalized by its own norm: the split-state
    evaluation, written out with ``np.einsum``."""
    d = state.local_dim
    total = 0.0
    for term in terms.terms:
        k = len(term.sites)
        for base in (0, 1):
            cur = state.gammas[base] * state.lams[1 - base][:, None, None]
            for m in range(1, k):
                cur = np.tensordot(cur * state.lams[(base + m - 1) % 2],
                                   state.gammas[(base + m) % 2], axes=1)
            cur = cur * state.lams[(base + k - 1) % 2]
            vec = cur.reshape(cur.shape[0], d**k, cur.shape[-1])
            num = np.einsum("apb,pq,aqb->", vec.conj(), term.matrix, vec)
            total += float(np.real(num / np.vdot(vec, vec)))
    return total


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
        assert expectation_terms_imps(to_cell(one), oz) == pytest.approx(
            expectation_terms_imps(to_cell(two), oz), abs=1e-10
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
        assert expectation_terms_imps(to_cell(st), ox) / 2.0 == pytest.approx(1.0, abs=1e-6)


class TestExpectation:
    def test_identity_counts_cell_sites(self):
        st = to_cell(random_product_imps(2, 4))
        ident = OperatorTerms([LocalTerm(((0,),), np.eye(2))], 2)
        assert expectation_terms_imps(st, ident) == pytest.approx(2.0, abs=1e-12)

    def test_up_up_product(self):
        up = np.array([1.0, 0.0]).reshape(1, 2, 1)
        st = to_cell(IMpsState([up.copy(), up.copy()], [np.ones(1), np.ones(1)]))
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
        got = expectation_terms_imps(to_cell(st), heis) / 2.0  # per bond

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
        got = expectation_terms_imps(to_cell(st), terms)
        za = v0 @ PAULI_Z @ v0
        xa = v0 @ PAULI_X @ v0
        zb = v1 @ PAULI_Z @ v1
        xb = v1 @ PAULI_X @ v1
        ref = za * xb * za + zb * xa * zb
        assert got == pytest.approx(ref, abs=1e-12)

    def test_unsupported_spans_rejected(self):
        st = to_cell(random_product_imps(2, 1))
        four = OperatorTerms([LocalTerm(((0,), (1,), (2,), (3,)), np.eye(16))], 2)
        with pytest.raises(ValueError):
            expectation_terms_imps(st, four)
        skip = OperatorTerms([LocalTerm(((0,), (2,)), np.eye(4))], 2)
        with pytest.raises(ValueError):
            expectation_terms_imps(st, skip)


@pytest.fixture(scope="module")
def half_swept_chain():
    """The cell of the J=0.8, g=1, D=32 chain at tau=3, then the two bond
    updates of a Trotter sweep that precede its ``recanonicalize``: the
    half gate with the bond-0 cut, and the bond-1 update."""
    m = tfim_chain_model(0.8, 1.0)
    cell = evolved_cell(m, EvolutionSchedule(dtau=0.05, tau_max=3.0, D_max=32), 32, 2)
    h = chain_bond_hamiltonian(m)
    st, _ = split_cell(cell, bond_gate(h, 0.025), 32)
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
        cell = recanonicalize(st, g_half)
        fused, _ = split_cell(cell, identity_gate(3), 64)
        plain, disc = tebd_step(st, g_half, 0, 64)
        plain = regauge(plain)
        assert disc == 0.0
        for b in (0, 1):
            assert fused.lams[b].size == plain.lams[b].size < 64
            assert np.max(np.abs(fused.lams[b] - plain.lams[b])) < 1e-10
        comm = m.commutator()
        assert expectation_terms_imps(cell, comm) == pytest.approx(
            expectation_terms_imps(to_cell(plain), comm), abs=1e-10)
        assert canonical_defect(fused) <= 1e-6

    def test_fused_cut_warns_below_pinv_floor(self, half_swept_chain):
        # the next step's bond-0 cut of the fused cell; the bond-1 update
        # after it divides by the new bond-0 weights
        g_half = bond_gate(chain_bond_hamiltonian(tfim_chain_model(0.8, 1.0)), 0.025)
        cell = recanonicalize(half_swept_chain, g_half)
        with pytest.warns(RuntimeWarning, match="bond weight below pinv floor"):
            fused, _ = split_cell(cell, g_half, 32)
        assert fused.lams[0].min() < PINV_FLOOR

    def test_measured_cells_are_canonical(self, monkeypatch):
        # every cell a run measures, split without truncation, meets the
        # isometry conditions up to the fixed points' error: no cut follows
        # the gauge fix.  Checked on the steps after tau = 10.  The split
        # divides by the outer weights; in the first 130 or so saturated
        # steps their smallest values sit at 1e-13 to 1e-11, and the
        # division lifts the split's rounding to 1e-6 to 1e-4, while the
        # cell's own isometries stay within 1.1e-6.
        cells = []
        measure = imps.expectation_terms_imps

        def recorded(cell, terms):
            cells.append(cell)
            return measure(cell, terms)

        monkeypatch.setattr(imps, "expectation_terms_imps", recorded)
        m = tfim_chain_model(0.8, 1.0)
        run_evolution_1d(m, EvolutionSchedule(dtau=0.05, tau_max=13.0, D_max=32), 32, seed=2)
        late = cells[200:]
        assert len(late) >= 60 and all(c.lam.size == 32 for c in late)
        for cell in late:
            state, disc = split_cell(cell, identity_gate(2), 2 * 32, 0.0)
            assert disc == 0.0
            assert canonical_defect(state) <= 1e-6

    def test_saturated_step_makes_three_svds(self, monkeypatch):
        # the bond-0 cut, the bond-1 cut and the gauge SVD: the cell is
        # carried to the next step uncut, not split and rebuilt
        m = tfim_chain_model(0.8, 1.0)
        sch = EvolutionSchedule(dtau=0.05, tau_max=4.0, D_max=32)
        cell = evolved_cell(m, sch, 32, 2)
        _, advance = imps._setup_1d(m, sch, 32, 2)
        assert cell.lam.size == 32
        shapes = []
        svd = tensor.svd_fixed

        def counted(mat):
            shapes.append(mat.shape)
            return svd(mat)

        monkeypatch.setattr(tensor, "svd_fixed", counted)
        assert advance(cell).lam.size == 32
        assert shapes == [(64, 64), (64, 64), (32, 32)]

    @pytest.mark.parametrize("model", [tfim_chain_model(0.8, 1.0), haldane_model()],
                             ids=["tfim", "haldane"])
    def test_cell_step_matches_split_step(self, model):
        # one sweep from a product state with no cut truncating: the
        # carried cell and the split-state step (three bond updates, then
        # a re-gauge) give the same weights and commutator; Haldane's
        # three-site terms at base site 1 cross the cell boundary
        d = model.hamiltonian.local_dim
        sch = EvolutionSchedule(dtau=0.2, tau_max=0.2, D_max=64, seed=5)
        cell, advance = imps._setup_1d(model, sch, 64, 5)
        cell = advance(cell)
        new, disc = split_cell(cell, identity_gate(d), 64)
        assert disc < 1e-24  # rounding-level values only

        h = chain_bond_hamiltonian(model)
        st = random_product_imps(d, 5)
        for bond, dtau in ((0, 0.1), (1, 0.2), (0, 0.1)):
            st, disc = tebd_step(st, bond_gate(h, dtau), bond, 64)
            assert disc < 1e-24
        old = regauge(st)
        for b in (0, 1):
            assert new.lams[b].size == old.lams[b].size < 64
            assert np.max(np.abs(new.lams[b] - old.lams[b])) < 1e-10
        comm = model.commutator()
        assert max(len(t.sites) for t in comm.terms) == (3 if d == 3 else 2)
        assert expectation_terms_imps(cell, comm) == pytest.approx(
            split_expectation(old, comm), abs=1e-10)

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
