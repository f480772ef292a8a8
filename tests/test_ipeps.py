import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm

from specgap import ipeps
from specgap.estimator import estimate_gap, planned_steps
from specgap.imps import EvolutionSchedule, bond_gate
from specgap.ipeps import (
    apply_axis_mpo,
    bond_list,
    expectation_terms_peps,
    lam_key,
    leg_index,
    random_product_ipeps,
    run_evolution_peps,
    scramble_gauge,
    simple_update_bond,
    superorthogonality_residual,
    superorthogonalize,
)
from specgap.models import (
    LocalTerm,
    OperatorTerms,
    PAULI_X,
    PAULI_Z,
    bond_hamiltonian,
    split_hamiltonian,
    terms_to_dense,
    tfim_model,
)
from specgap.tensor import work_count
from specgap.wii import Mpo, build_wii, hamiltonian_line_mpo

OX = OperatorTerms([LocalTerm(((0, 0),), PAULI_X)], 2)
OZ = OperatorTerms([LocalTerm(((0, 0),), PAULI_Z)], 2)
OZZ = OperatorTerms(
    [LocalTerm(((0, 0), (1, 0)), np.kron(PAULI_Z, PAULI_Z))], 2
)


def plus_state(dimension, n_sites):
    st = random_product_ipeps(dimension, n_sites, 0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for i in range(st.n_sites):
        st.tensors[i] = plus.reshape(st.tensors[i].shape)
    return st


def random_d2_state(seed):
    """Generic D=2 single-site state with benign weights."""
    rng = np.random.default_rng(seed)
    st = random_product_ipeps(2, 1, seed)
    st.tensors[0] = rng.normal(size=(2, 2, 2, 2, 2))
    for k in st.lams:
        lam = np.sort(rng.uniform(0.4, 1.0, 2))[::-1]
        st.lams[k] = lam / np.linalg.norm(lam)
    return st


def random_array(rng, shape, dtype):
    out = rng.normal(size=shape)
    return out + 1j * rng.normal(size=shape) if dtype is complex else out


def kernel_state(shape, seed, dtype):
    """Single-site state holding a random tensor of ``shape`` and random
    positive weights on every bond."""
    rng = np.random.default_rng(seed)
    st = random_product_ipeps((len(shape) - 1) // 2, 1, seed)
    st.tensors[0] = random_array(rng, shape, dtype)
    for a, site in st.lams:
        st.lams[(a, site)] = rng.uniform(0.2, 1.0, shape[1 + 2 * a])
    return st


def brute_dressed_gram(t, leg, closures):
    """einsum reference: every leg but ``leg`` closed ket-bra by its
    closure (old ket index first), physical index summed, hermitized."""
    lower = "pabcdefgh"[: t.ndim]
    bra = lower[:leg] + "X" + lower[leg + 1:]
    ket = "".join(
        "Y" if i == leg else (c.upper() if i in closures else c)
        for i, c in enumerate(lower)
    )
    subs = [bra, ket] + [lower[l].upper() + lower[l] for l in closures]
    n = np.einsum(",".join(subs) + "->XY", np.conj(t), t, *closures.values())
    return 0.5 * (n + n.conj().T)


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def checkerboard_state(D, seed):
    """Two-site 2D state holding random D^4 tensors and random positive
    weights on every bond."""
    rng = np.random.default_rng(seed)
    st = random_product_ipeps(2, 2, seed)
    st.tensors = [rng.normal(size=(2,) + (D,) * 4) for _ in range(2)]
    for k in st.lams:
        st.lams[k] = rng.uniform(0.2, 1.0, D)
    return st


def identity_messages(st):
    """The identity environment on both ends of every bond, as one
    (2, D, D) stack per bond, in bond order."""
    return [np.stack([np.eye(st.lams[b.key].size)] * 2) for b in bond_list(st)]


def dressed_gram(t, leg, closures):
    """Bond environment of ``leg`` of ``t`` with each other leg closed by
    its ket-bra matrix (the package's per-leg closure), paired with the
    bra over every other axis, hermitized."""
    ket = t
    for l, c in closures.items():
        ket = ipeps._apply_on_leg(ket, l, c)
    rest = [list(range(1, t.ndim))] * 2
    n = np.tensordot(np.moveaxis(t, leg, 0).conj(), np.moveaxis(ket, leg, 0), rest)
    return 0.5 * (n + n.conj().T)


def plain_messages(st, tol, max_sweeps=2000):
    """Reference message fixed point: plain Gauss-Seidel sweeps over the
    bond ends in bond order from identity messages, each end closed leg by
    leg with ``dressed_gram``.  Returns the messages, as one (2, D, D)
    stack per bond in bond order, and the sweep count, which is
    ``max_sweeps`` if the largest change never fell to ``tol``."""
    opposite = {}
    for b in bond_list(st):
        opposite[(b.i_site, b.i_leg)] = (b.j_site, b.j_leg)
        opposite[(b.j_site, b.j_leg)] = (b.i_site, b.i_leg)
    out = {end: np.eye(st.lams[lam_key(st, *end)].size) for end in opposite}
    for sweeps in range(1, max_sweeps + 1):
        delta = 0.0
        for site, leg in out:
            closures = {}
            for l in range(1, st.tensors[site].ndim):
                if l != leg:
                    w = st.lams[lam_key(st, site, l)]
                    closures[l] = w[:, None] * out[opposite[(site, l)]] * w[None, :]
            fresh = dressed_gram(st.tensors[site], leg, closures)
            fresh = fresh * (fresh.shape[0] / np.real(np.trace(fresh)))
            delta = max(delta, float(np.max(np.abs(fresh - out[(site, leg)]))))
            out[(site, leg)] = fresh
        if delta <= tol:
            break
    return [np.stack((out[(b.i_site, b.i_leg)], out[(b.j_site, b.j_leg)]))
            for b in bond_list(st)], sweeps


def per_end(st, stacks):
    """Per bond end (site, leg), its entry of the per-bond stacks."""
    return {end: m[k] for b, m in zip(bond_list(st), stacks)
            for k, end in enumerate(((b.i_site, b.i_leg), (b.j_site, b.j_leg)))}


def max_diff(got, ref):
    """Largest entry-wise difference of two lists of per-bond stacks."""
    assert [g.shape for g in got] == [r.shape for r in ref]
    return max(float(np.max(np.abs(g - r))) for g, r in zip(got, ref))


def shared_sweep_madds(st):
    """Multiply-adds of one sweep with per-axis shared closures: per site
    and axis, the off-axis closures once, then for each of the two ends the
    partner closure and the leg pair."""
    total = 0
    for axis in range(st.dimension):
        plus, minus = leg_index(axis, 0), leg_index(axis, 1)
        for t in st.tensors:
            off = sum(t.shape[l] for l in range(1, t.ndim) if (l - 1) // 2 != axis)
            total += t.size * off + 2 * t.size * (t.shape[plus] + t.shape[minus])
    return total


# a 2D tensor with one enlarged axis, a 3D tensor, a complex 2D tensor;
# only the complex case tells a closure from its transpose, which the
# hermitization hides for real input
KERNEL_CASES = pytest.mark.parametrize(
    "shape,dtype",
    [((2, 6, 6, 4, 4), float), ((2, 3, 3, 2, 2, 2, 2), float),
     ((2, 3, 3, 5, 5), complex)],
    ids=["2d-enlarged", "3d", "complex"],
)


# a 2D single-site state with an MPO-enlarged axis, a 3D single-site
# state, a 2D checkerboard state, a complex 2D state
MESSAGE_STATES = pytest.mark.parametrize(
    "make",
    [lambda: kernel_state((2, 6, 6, 4, 4), 0, float),
     lambda: kernel_state((2, 3, 3, 2, 2, 2, 2), 0, float),
     lambda: checkerboard_state(3, 1),
     lambda: kernel_state((2, 3, 3, 5, 5), 0, complex)],
    ids=["2d-enlarged", "3d", "checkerboard", "complex"],
)


class TestLegKernels:
    """Bond-environment kernels against brute-force einsum on every
    virtual leg, with their multiply-add counts."""

    @KERNEL_CASES
    def test_apply_on_leg(self, shape, dtype):
        t = kernel_state(shape, 3, dtype).tensors[0]
        rng = np.random.default_rng(4)
        lower = "pabcdefgh"[: t.ndim]
        for leg in range(1, t.ndim):
            g = random_array(rng, (t.shape[leg], t.shape[leg] + 1), dtype)
            before = work_count()
            got = ipeps._apply_on_leg(t, leg, g)
            assert work_count() - before == t.size * g.shape[1]
            out = lower[:leg] + "Z" + lower[leg + 1:]
            ref = np.einsum(f"{lower},{lower[leg]}Z->{out}", t, g)
            assert got.flags.c_contiguous
            assert rel_err(got, ref) <= 1e-12

    @KERNEL_CASES
    def test_dressed_gram(self, shape, dtype):
        st = kernel_state(shape, 5, dtype)
        t = st.tensors[0]
        rng = np.random.default_rng(6)
        for leg in range(1, t.ndim):
            closures = {
                l: random_array(rng, (t.shape[l],) * 2, dtype)
                for l in range(1, t.ndim) if l != leg
            }
            before = work_count()
            got = dressed_gram(t, leg, closures)
            n_sum = sum(t.shape[l] for l in closures)
            assert work_count() - before == t.size * n_sum
            assert rel_err(got, brute_dressed_gram(t, leg, closures)) <= 1e-12

    @MESSAGE_STATES
    def test_all_grams_match_per_leg_gram(self, make):
        # the weight-squared environments: one Jacobi pass from identity
        # messages, counted as one sweep
        st = make()
        plan = ipeps._plan_pass(st)
        before = work_count()
        got = ipeps._grams(plan)
        assert work_count() - before == shared_sweep_madds(st)
        assert len(got) == len(bond_list(st))
        for (site, leg), n in per_end(st, got).items():
            t = st.tensors[site]
            # the weight-squared closure of every other leg
            closures = {
                l: np.diag(st.lams[lam_key(st, site, l)] ** 2)
                for l in range(1, t.ndim) if l != leg
            }
            ref = brute_dressed_gram(t, leg, closures)
            assert rel_err(n, ref) <= 1e-12


def solve(st, tol, start):
    """The message fixed point of ``st`` on a pass planned for it."""
    return ipeps._message_fixed_point(ipeps._plan_pass(st), tol, start)


def grams(st):
    """The weight-squared environments of ``st``, per bond a stack."""
    return ipeps._grams(ipeps._plan_pass(st))


class TestMessageFixedPoint:
    """The Anderson-mixed message fixed point against plain Gauss-Seidel."""

    @MESSAGE_STATES
    def test_matches_plain_gauss_seidel(self, make):
        st = make()
        got, sweeps = solve(st, 1e-12, identity_messages(st))
        ref, plain = plain_messages(st, tol=1e-12)
        assert plain < 2000
        assert max_diff(got, ref) <= 1e-8
        assert 1 < sweeps < ipeps.MESSAGE_MAX_SWEEPS

    @MESSAGE_STATES
    def test_first_two_sweeps_are_plain(self, make, monkeypatch):
        # mixing starts from the third sweep at the earliest; the first two are
        # plain Gauss-Seidel sweeps, so the shared closures must not change them
        st = make()
        monkeypatch.setattr(ipeps, "MESSAGE_MAX_SWEEPS", 2)
        with pytest.warns(RuntimeWarning, match="message fixed point unconverged"):
            got, _ = solve(st, 1e-12, identity_messages(st))
        ref, _ = plain_messages(st, tol=1e-12, max_sweeps=2)
        for g, r in zip(got, ref):
            assert rel_err(g, r) <= 1e-12

    @pytest.mark.parametrize("scale", [np.nan, -1.0], ids=["nan", "negative-trace"])
    def test_unusable_mix_falls_back_to_plain(self, scale, monkeypatch):
        # every mix rejected: the iteration is plain Gauss-Seidel throughout
        st = kernel_state((2, 3, 3, 2, 2, 2, 2), 0, float)
        monkeypatch.setattr(ipeps, "_anderson_mix", lambda fs, gs: scale * gs[-1])
        got, sweeps = solve(st, 1e-12, identity_messages(st))
        ref, plain = plain_messages(st, tol=1e-12)
        assert sweeps == plain
        for g, r in zip(got, ref):
            assert rel_err(g, r) <= 1e-12

    def test_stays_on_the_plain_fixed_point(self, monkeypatch):
        # the gauge pass before the third axis's cut at the second step of
        # a 3D J=0.15 run from seed 753: plain sweeps first drift away
        # from an unstable fixed point and then take 125 sweeps to settle
        # elsewhere; mixing from the first sweeps converged onto the
        # unstable one, whose gauge led the run to a gap of 0.599 instead
        # of 0.838
        m = tfim_model(3, 0.15, 1.0)
        # the enlarged states that the gauge fix before each cut plans on;
        # the first step cuts nothing, the second cuts on every axis
        inputs = []
        inner = ipeps._plan_pass

        def keep_input(st):
            if st.max_bond() > 3:
                inputs.append(st.copy())
            return inner(st)

        monkeypatch.setattr(ipeps, "_plan_pass", keep_input)
        advance = mpo_advance(m, 0.2, 3)
        st = random_product_ipeps(3, 1, 753)
        for _ in range(2):
            st = advance(st)
        assert len(inputs) == 3
        st = inputs[2]
        got, sweeps = solve(st, 1e-12, identity_messages(st))
        ref, plain = plain_messages(st, tol=1e-12)
        assert sweeps < plain < 2000
        assert max_diff(got, ref) <= 1e-8
        # the gauge fix's own start, the weight-squared environments, too
        got, _ = solve(st, 1e-12, grams(st))
        assert max_diff(got, ref) <= 1e-8

    @MESSAGE_STATES
    def test_start_from_grams_reaches_same_messages(self, make):
        # the gauge fix starts each solve from the weight-squared bond
        # environments; the fixed point must be the one identity reaches
        st = make()
        ref, _ = solve(st, 1e-12, identity_messages(st))
        got, sweeps = solve(st, 1e-12, grams(st))
        assert max_diff(got, ref) <= 1e-8
        assert 1 < sweeps < ipeps.MESSAGE_MAX_SWEEPS

    def test_fewer_sweeps_than_plain(self):
        st = kernel_state((2, 3, 3, 2, 2, 2, 2), 0, float)
        _, sweeps = solve(st, 1e-12, identity_messages(st))
        _, plain = plain_messages(st, tol=1e-12)
        assert sweeps < plain

    @pytest.mark.parametrize("scale", [0.0, -1.0], ids=["zero-trace", "negative-trace"])
    @pytest.mark.parametrize(
        "make",
        [lambda: kernel_state((2, 3, 3, 2, 2, 2, 2), 0, float),
         lambda: checkerboard_state(3, 1)],
        ids=["one-site", "checkerboard"])
    def test_unusable_start_raises(self, make, scale):
        # a start message with trace <= 0 cannot be normalized; the solve
        # reports it as the sweep does, not as a failure of its own code
        st = make()
        start = grams(st)
        # the - end of the first bond
        start[0] = start[0] * np.array([1.0, scale])[:, None, None]
        with pytest.raises(RuntimeError, match="bond environment collapsed to zero"):
            solve(st, 1e-10, start)

    @KERNEL_CASES
    def test_uniform_state_same_on_both_cells(self, shape, dtype):
        # a one-site state written on the two-site cell, with both sites
        # and both bonds of each axis equal, has the one-site messages on
        # every end, though the two cells sweep their ends in other orders
        one = kernel_state(shape, 0, dtype)
        two = ipeps.IPepsState(
            [one.tensors[0], one.tensors[0].copy()],
            {(a, s): one.lams[(a, 0)] for a in range(one.dimension) for s in (0, 1)})
        ref, _ = solve(one, 1e-12, identity_messages(one))
        got, _ = solve(two, 1e-12, identity_messages(two))
        assert len(got) == 2 * len(ref)
        for b, m in zip(bond_list(two), got):
            assert np.max(np.abs(m - ref[b.axis])) <= 1e-8

    @MESSAGE_STATES
    def test_one_sweep_madds(self, make, monkeypatch):
        st = make()
        monkeypatch.setattr(ipeps, "MESSAGE_MAX_SWEEPS", 1)
        before = work_count()
        with pytest.warns(RuntimeWarning, match="message fixed point unconverged"):
            _, sweeps = solve(st, 1e-12, identity_messages(st))
        assert sweeps == 1
        assert work_count() - before == shared_sweep_madds(st)


def written_buffers(plan):
    """The arrays a plan's products write: each chain step's output, and
    per bond end its partner-leg closure and the pair's view of it."""
    out = [y for chains in plan.chains for _, _, y in chains]
    for ends in plan.ends:
        for _, _, pair in ends:
            for _, ket, _, _, ket_t in pair:
                out += [ket, ket_t]
    return out


class TestPlanWorkspace:
    """Every plan carves its layout copies and buffers from one grow-only
    workspace per dtype; only the latest plan is live."""

    def test_successive_plans_share_their_buffers(self):
        # the enlarged 2D state of the headline run: 256 KB per layout
        st = kernel_state((2, 16, 16, 8, 8), 0, float)
        t = st.tensors[0]
        ipeps._plan_pass(st)  # warm-up: the workspace grows to this state
        space = ipeps._WORKSPACE.buffers[np.dtype(float)]
        first = ipeps._plan_pass(st)
        tracemalloc.start()
        try:
            second = ipeps._plan_pass(st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # nothing the size of a layout or a buffer is allocated
        assert peak < t.nbytes
        assert ipeps._WORKSPACE.buffers[np.dtype(float)] is space
        pairs = list(zip(written_buffers(first), written_buffers(second)))
        assert pairs
        for a, b in pairs:
            assert np.shares_memory(a, b) and np.shares_memory(b, space)
        # axis 0 closes from axis 1's layout, a copy in the workspace;
        # axis 1 from axis 0's, which is the tensor itself
        (x0, _, _), (x1, _, _) = second.chains[0][0], second.chains[1][0]
        assert np.shares_memory(x0, space) and not np.shares_memory(x0, t)
        assert np.shares_memory(x1, t)

    def test_stale_plan_raises(self):
        st = kernel_state((2, 6, 6, 4, 4), 0, float)
        stale = ipeps._plan_pass(st)
        live = ipeps._plan_pass(st)
        with pytest.raises(RuntimeError, match="stale bond pass"):
            ipeps._grams(stale)
        with pytest.raises(RuntimeError, match="stale bond pass"):
            ipeps._message_fixed_point(stale, 1e-12, identity_messages(st))
        assert len(ipeps._grams(live)) == len(bond_list(st))

    def test_gauge_fix_ignores_earlier_plans(self, monkeypatch):
        # one state's gauge fix from a fresh workspace, then from one that
        # a larger, enlarged plan has grown and written
        monkeypatch.setattr(ipeps, "_WORKSPACE", ipeps._Workspace())
        st = scramble_gauge(kernel_state((2, 4, 4, 3, 3), 3, float), 5)
        before, info_before = superorthogonalize(st)
        ipeps._grams(ipeps._plan_pass(kernel_state((2, 12, 12, 6, 6), 4, float)))
        after, info_after = superorthogonalize(st)
        assert ipeps._WORKSPACE.buffers[np.dtype(float)].size > 2 * 3 * 4 * 4 * 3 * 3
        for a, b in zip(before.tensors, after.tensors):
            assert a.tobytes() == b.tobytes()
        for key in before.lams:
            assert before.lams[key].tobytes() == after.lams[key].tobytes()
        assert info_before == info_after

    def test_complex_plan_reads_no_real_buffer(self, monkeypatch):
        shape = (2, 3, 3, 5, 5)
        monkeypatch.setattr(ipeps, "_WORKSPACE", ipeps._Workspace())
        cplx = kernel_state(shape, 0, complex)
        alone = ipeps._grams(ipeps._plan_pass(cplx))
        ipeps._grams(ipeps._plan_pass(kernel_state(shape, 1, float)))
        real_space = ipeps._WORKSPACE.buffers[np.dtype(float)]
        plan = ipeps._plan_pass(cplx)
        reads = [xt for chains in plan.chains for xt, _, _ in chains]
        for ends in plan.ends:
            for _, _, pair in ends:
                for ket_in, _, _, bra, _ in pair:
                    reads += [ket_in, bra]
        for a in reads + written_buffers(plan):
            assert a.dtype == complex
            assert not np.shares_memory(a, real_space)
        for a, b in zip(alone, ipeps._grams(plan)):
            assert a.tobytes() == b.tobytes()


def assert_bond_table(st):
    """One bond per (axis, site), keyed so; its two ends cover every
    virtual leg once, and ``lam_key`` of either end names the bond."""
    bonds = bond_list(st)
    keys = [(a, s) for a in range(st.dimension) for s in range(st.n_sites)]
    assert [b.key for b in bonds] == keys == list(st.lams)
    ends = [e for b in bonds for e in ((b.i_site, b.i_leg), (b.j_site, b.j_leg))]
    assert sorted(ends) == [(s, leg) for s in range(st.n_sites)
                            for leg in range(1, 2 * st.dimension + 1)]
    for b in bonds:
        assert b.key == (b.axis, b.i_site)
        assert lam_key(st, b.i_site, b.i_leg) == b.key
        assert lam_key(st, b.j_site, b.j_leg) == b.key


class TestStateConstruction:
    def test_random_product(self):
        st = random_product_ipeps(2, 1, 5)
        assert st.n_sites == 1
        assert all(np.array_equal(v, np.ones(1)) for v in st.lams.values())
        assert np.linalg.norm(st.tensors[0]) == pytest.approx(1.0)
        again = random_product_ipeps(2, 1, 5)
        assert np.array_equal(st.tensors[0], again.tensors[0])

    def test_checkerboard_has_z_bonds(self):
        for dim in (2, 3):
            st = random_product_ipeps(dim, 2, 1)
            assert st.n_sites == 2 and st.dimension == dim
            assert len(bond_list(st)) == 2 * dim
            assert_bond_table(st)

    def test_single_cell_has_d_bonds(self):
        for dim in (2, 3):
            st = random_product_ipeps(dim, 1, 1)
            assert st.n_sites == 1 and st.dimension == dim
            assert len(bond_list(st)) == dim
            assert_bond_table(st)


class TestSimpleUpdate:
    def test_identity_gate_idempotent(self):
        st = random_product_ipeps(2, 2, 4)
        for i in range(2):
            st.tensors[i] = np.abs(st.tensors[i])
        ident = np.eye(4).reshape(2, 2, 2, 2)
        bond = bond_list(st)[0]
        one, disc = simple_update_bond(st, ident, bond, 4)
        assert disc == pytest.approx(0.0, abs=1e-28)
        assert one.max_bond() == 1
        for a, b in zip(one.tensors, st.tensors):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_gate_on_product_pair_matches_dense_schmidt(self):
        st = random_product_ipeps(2, 2, 4)
        h = -np.kron(PAULI_Z, PAULI_Z) - 0.25 * (
            np.kron(PAULI_X, np.eye(2)) + np.kron(np.eye(2), PAULI_X)
        )
        gate = expm(-0.3 * h).reshape(2, 2, 2, 2)
        bond = bond_list(st)[0]
        out, _ = simple_update_bond(st, gate, bond, 4)
        v = st.tensors[0].reshape(2)
        w = st.tensors[1].reshape(2)
        theta = (expm(-0.3 * h) @ np.kron(v, w)).reshape(2, 2)
        sv = np.linalg.svd(theta, compute_uv=False)
        sv = sv / np.linalg.norm(sv)
        got = out.lams[bond.key]
        assert np.max(np.abs(got - sv[: got.size])) < 1e-10

    def test_j_zero_fixed_point_gates(self):
        st = plus_state(2, 2)
        gate = expm(0.05 * 0.25 * (
            np.kron(PAULI_X, np.eye(2)) + np.kron(np.eye(2), PAULI_X)
        )).reshape(2, 2, 2, 2)
        out = st
        for b in bond_list(st):
            out, _ = simple_update_bond(out, gate, b, 4)
        assert out.max_bond() == 1
        for a, b in zip(out.tensors, st.tensors):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_rank_zero_fatal(self):
        st = random_product_ipeps(2, 2, 4)
        with pytest.raises((RuntimeError, ValueError)):
            simple_update_bond(st, np.zeros((2, 2, 2, 2)), bond_list(st)[0], 4)

    def test_updated_tensors_c_contiguous(self):
        m = tfim_model(2, 0.2, 1.0)
        st = random_product_ipeps(2, 2, 11)
        site_h, bond_h = split_hamiltonian(m.hamiltonian, 2)
        for _ in range(3):
            for b in bond_list(st):
                h = bond_hamiltonian(site_h, bond_h[b.axis], 4)
                st, _ = simple_update_bond(st, expm(-0.05 * h).reshape(2, 2, 2, 2), b, 4)
        assert st.max_bond() > 1
        assert all(t.flags.c_contiguous for t in st.tensors)

    def test_input_state_unchanged(self):
        # the update builds a new state around the untouched arrays of its
        # input, so neither the input nor any state it returned may change
        # when that result is updated again
        m = tfim_model(2, 0.2, 1.0)
        site_h, bond_h = split_hamiltonian(m.hamiltonian, 2)
        gates = [bond_gate(bond_hamiltonian(site_h, b, 4), 0.05) for b in bond_h]
        st = random_product_ipeps(2, 2, 11)
        order = bond_list(st)
        for b in order:
            st, _ = simple_update_bond(st, gates[b.axis], b, 4)
        assert st.max_bond() > 1
        states = [st]
        for b in order + order[::-1]:
            states.append(simple_update_bond(states[-1], gates[b.axis], b, 4)[0])
        snapshots = [state.copy() for state in states]
        for b in order:
            simple_update_bond(states[-1], gates[b.axis], b, 4)
        for state, snap in zip(states, snapshots):
            assert state.lams.keys() == snap.lams.keys()
            for key, lam in snap.lams.items():
                assert np.array_equal(state.lams[key], lam)
            for t, t_snap in zip(state.tensors, snap.tensors):
                assert np.array_equal(t, t_snap)

    def test_single_site_cell_rejected(self):
        st = random_product_ipeps(2, 1, 4)
        with pytest.raises(ValueError):
            simple_update_bond(st, np.eye(4).reshape(2, 2, 2, 2),
                               bond_list(st)[0], 4)


class TestSuperorthogonalize:
    def test_product_state_already_canonical(self):
        st = random_product_ipeps(2, 1, 3)
        assert superorthogonality_residual(st) < 1e-12
        out, info = superorthogonalize(st)
        assert info.iterations == 0 and info.sweeps == 0
        assert info.converged

    def test_residual_nonincreasing(self):
        st = random_d2_state(0)
        prev = superorthogonality_residual(st)
        cur = st
        for _ in range(4):
            cur, info = superorthogonalize(cur, so_tol=1e-14, max_iter=1)
            assert info.residual <= prev + 1e-12
            prev = info.residual

    def test_converges_below_tolerance(self):
        st = random_d2_state(1)
        _, info = superorthogonalize(st, so_tol=1e-10)
        assert info.converged and info.residual <= 1e-10

    def test_sweeps_summed_over_passes(self, monkeypatch):
        counts = []
        inner = ipeps._message_fixed_point

        def counted(plan, tol, start):
            # loose messages leave a residual that takes further passes
            msgs, sweeps = inner(plan, 1e-4, start)
            counts.append(sweeps)
            return msgs, sweeps

        monkeypatch.setattr(ipeps, "_message_fixed_point", counted)
        _, info = superorthogonalize(random_d2_state(1), so_tol=1e-10)
        assert len(counts) == info.iterations > 1
        assert info.sweeps == sum(counts)

    def test_at_most_two_passes(self, monkeypatch):
        inner = ipeps._message_fixed_point

        def loose(plan, tol, start):
            # loose messages leave a residual that further passes would cut
            return inner(plan, 1e-4, start)

        monkeypatch.setattr(ipeps, "_message_fixed_point", loose)
        _, info = superorthogonalize(random_d2_state(0), so_tol=1e-10)
        assert info.iterations == ipeps.SO_MAX_PASSES == 2

    def test_one_plan_per_gram_evaluation(self, monkeypatch):
        # the pass is planned on entry and after every gauge-fix pass, and
        # each solve runs on the plan of the state it starts from
        plans, solved_on = [], []
        inner_plan, inner_solve = ipeps._plan_pass, ipeps._message_fixed_point

        def counted(st):
            plans.append(inner_plan(st))
            return plans[-1]

        def loose(plan, tol, start):
            # loose messages leave a residual that a second pass would cut
            solved_on.append(plan)
            return inner_solve(plan, 1e-4, start)

        monkeypatch.setattr(ipeps, "_plan_pass", counted)
        monkeypatch.setattr(ipeps, "_message_fixed_point", loose)
        _, info = superorthogonalize(random_d2_state(0), so_tol=1e-10)
        assert info.iterations == 2
        assert len(plans) == info.iterations + 1
        assert len(solved_on) == 2
        assert all(a is b for a, b in zip(solved_on, plans))

    def test_nan_state_raises(self):
        # one NaN entry: the residual reads NaN, the gauge fix and the
        # solve raise instead of reading the state converged
        st = kernel_state((2, 3, 3, 3, 3), 0, float)
        st.tensors[0][0, 1, 2, 0, 1] = np.nan
        assert np.isnan(superorthogonality_residual(st))
        with pytest.raises(RuntimeError, match="not finite"):
            superorthogonalize(st)
        with pytest.raises(RuntimeError, match="not finite"):
            solve(st, 1e-10, grams(st))

    def test_stall_warns(self, monkeypatch):
        inner = ipeps._message_fixed_point

        def loose(plan, tol, start):
            # one pass on messages this loose leaves the gauge far off
            return inner(plan, 1e-1, start)

        monkeypatch.setattr(ipeps, "_message_fixed_point", loose)
        with pytest.warns(RuntimeWarning, match="stalled") as record:
            _, info = superorthogonalize(random_d2_state(0), so_tol=1e-10,
                                         max_iter=1)
        assert not info.converged and info.residual > ipeps.SO_WARN_RESIDUAL
        assert f"{info.residual:.2e}" in str(record[0].message)

    def test_converged_call_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, info = superorthogonalize(random_d2_state(1), so_tol=1e-10)
        assert info.converged

    def test_unconverged_messages_warn(self, monkeypatch):
        monkeypatch.setattr(ipeps, "MESSAGE_MAX_SWEEPS", 1)
        with pytest.warns(RuntimeWarning, match="message fixed point unconverged"):
            st = random_d2_state(1)
            solve(st, 1e-10, identity_messages(st))

    def test_gauge_scramble_and_restore(self):
        base, _ = superorthogonalize(random_d2_state(2), so_tol=1e-12)
        vals = {
            name: expectation_terms_peps(base, op)
            for name, op in (("x", OX), ("z", OZ), ("zz", OZZ))
        }
        scrambled = scramble_gauge(base, 7)
        # the mean-field closure is gauge dependent: scrambling moves it
        assert abs(expectation_terms_peps(scrambled, OZ) - vals["z"]) > 1e-3
        restored, info = superorthogonalize(scrambled, so_tol=1e-12)
        for name, op in (("x", OX), ("z", OZ), ("zz", OZZ)):
            assert abs(expectation_terms_peps(restored, op) - vals[name]) < 1e-9


class TestAxisMpo:
    def test_identity_propagator_is_noop(self):
        st = random_product_ipeps(2, 1, 3)
        ident = Mpo(np.eye(2).reshape(1, 1, 2, 2), 0)
        out, info = apply_axis_mpo(st, ident, 0, 4)
        assert np.max(np.abs(np.abs(out.tensors[0]) - np.abs(st.tensors[0]))) < 1e-12

    def test_bond_enlarged_by_propagator_dimension(self):
        m = tfim_model(2, 0.3, 1.0)
        sch = EvolutionSchedule(dtau=0.1, tau_max=0.5, scheme="mpo", D_max=2, seed=1)
        st = _evolved_state(m, sch, 2)
        w = build_wii(
            hamiltonian_line_mpo(-0.3 * np.kron(PAULI_Z, PAULI_Z),
                                 -1.0 * PAULI_X, 0.5),
            0.1,
        )
        big, _ = apply_axis_mpo(st, w, 0, D_max=100)
        assert big.lams[(0, 0)].size == st.lams[(0, 0)].size * w.virtual_dim

    def test_one_step_matches_dense_cluster(self):
        # x then y propagator on a product state vs exp(-dtau H) on a 2x2
        # periodic cluster: local magnetization agrees to O(dtau^2)
        J, g = 0.3, 1.0
        m = tfim_model(2, J, g)
        blocks = hamiltonian_line_mpo(
            -J * np.kron(PAULI_Z, PAULI_Z), -g * PAULI_X, 0.5
        )
        errs = []
        for dt in (0.1, 0.05):
            w = build_wii(blocks, dt)
            st = random_product_ipeps(2, 1, 11)
            stx, _ = apply_axis_mpo(st, w, 0, 16)
            sty, _ = apply_axis_mpo(stx, w, 1, 16)
            # the step's polish: the mean-field closure reads the gauge
            sty, _ = superorthogonalize(sty, ipeps.SO_TOL, ipeps.SO_MAX_PASSES)
            got = expectation_terms_peps(sty, OX)

            hd = terms_to_dense(m.hamiltonian, (2, 2))
            v0 = st.tensors[0].reshape(2)
            psi = np.kron(np.kron(v0, v0), np.kron(v0, v0))
            psi = expm(-dt * hd) @ psi
            psi /= np.linalg.norm(psi)
            xd = terms_to_dense(OX, (2, 2)) / 4.0
            ref = float(np.real(psi @ xd @ psi))
            errs.append(abs(got - ref))
        assert errs[0] < 10.0 * 0.1**2
        assert errs[1] < 10.0 * 0.05**2
        assert errs[0] / errs[1] > 2.5  # second-order in the step

    def test_j_zero_fixed_point_mpo(self):
        # below D_max nothing is cut; the step's polish takes the bond
        # back to 1
        st = plus_state(2, 1)
        blocks = hamiltonian_line_mpo(
            0.0 * np.kron(PAULI_Z, PAULI_Z), -1.0 * PAULI_X, 0.5
        )
        w = build_wii(blocks, 0.05)
        out, discarded = apply_axis_mpo(st, w, 0, 4)
        assert discarded == 0.0
        out, _ = superorthogonalize(out, ipeps.SO_TOL, ipeps.SO_MAX_PASSES)
        assert out.max_bond() == 1
        assert np.max(np.abs(out.tensors[0] - st.tensors[0])) < 1e-12

    def test_wide_state_in_gauge_is_cut(self):
        # a state already at SO_TOL still gets its cut when a bond is
        # wider than D_max, and the discarded weight is that cut's
        base, _ = superorthogonalize(random_d2_state(2), so_tol=1e-12)
        assert superorthogonality_residual(base) <= ipeps.SO_TOL
        ident = Mpo(np.eye(2).reshape(1, 1, 2, 2), 0)
        out, discarded = apply_axis_mpo(base, ident, 0, 1)
        assert out.max_bond() == 1
        assert discarded == pytest.approx(
            max(lam[1] ** 2 for lam in base.lams.values()), rel=1e-6)

    @staticmethod
    def evolved(dim, J, D):
        """A D-bond state five mpo steps (dtau 0.2) from seed 11, and its
        axis propagators."""
        m = tfim_model(dim, J, 1.0)
        sch = EvolutionSchedule(dtau=0.2, tau_max=1.0, scheme="mpo", D_max=D, seed=11)
        site_h, bond_h = split_hamiltonian(m.hamiltonian, dim)
        mpos = [build_wii(hamiltonian_line_mpo(bond_h[a], site_h, 1.0 / dim), 0.2, a)
                for a in range(dim)]
        return _evolved_state(m, sch, D), mpos

    @pytest.mark.parametrize("dim,J,D", [(2, 0.2, 4), (3, 0.15, 3)],
                             ids=["2d", "3d"])
    def test_returned_state_matches_its_result(self, dim, J, D):
        # every bond comes back cut to D_max with a discarded weight, and
        # the polish's residual is the polished state's own
        st, mpos = self.evolved(dim, J, D)
        for a, w in enumerate(mpos):
            st, discarded = apply_axis_mpo(st, w, a, D)
            assert st.max_bond() <= D
            assert 0.0 < discarded < 1.0
        out, info = superorthogonalize(st, ipeps.SO_TOL, ipeps.SO_MAX_PASSES)
        assert out.max_bond() <= D
        assert info.iterations >= 1
        assert superorthogonality_residual(out) == pytest.approx(
            info.residual, rel=1e-6, abs=1e-14)
        assert info.converged == (info.residual <= ipeps.SO_TOL)

    @pytest.mark.parametrize("dim,J,D", [(2, 0.2, 4), (3, 0.15, 3)],
                             ids=["2d", "3d"])
    def test_input_state_left_unchanged(self, dim, J, D):
        # both results share the input's arrays that they do not replace,
        # so neither function may write into its input state
        def same_bits(a, b):
            return (len(a.tensors) == len(b.tensors) and a.lams.keys() == b.lams.keys()
                    and all(x.shape == y.shape and x.tobytes() == y.tobytes()
                            for x, y in zip(a.tensors, b.tensors))
                    and all(a.lams[k].tobytes() == b.lams[k].tobytes() for k in a.lams))

        st, mpos = self.evolved(dim, J, D)
        for a, w in enumerate(mpos):
            kept = st.copy()
            out, _ = apply_axis_mpo(st, w, a, D)
            assert same_bits(st, kept)
            wide, _ = apply_axis_mpo(st, w, a, 100)
            assert wide.max_bond() > D
            kept = wide.copy()
            cut, _ = ipeps.truncate_bonds(wide, D)
            assert same_bits(wide, kept)
            assert cut.max_bond() == D
            assert all(cut.lams[k] is wide.lams[k]
                       for k in wide.lams if wide.lams[k].size <= D)
            st = out

    def test_cut_state_is_polished(self, monkeypatch):
        # plain sweeps to MESSAGE_ANDERSON_START on the enlarged bonds and
        # the cut right after that pass; the step's polish at D_max to SO_TOL
        st, (w, _) = self.evolved(2, 0.2, 4)
        solves, mixes = [], []
        inner_solve, inner_mix = ipeps._message_fixed_point, ipeps._anderson_mix

        def recorded(plan, tol, start):
            solves.append((max(w.size for w in plan.lams), tol))
            return inner_solve(plan, tol, start)

        def recorded_mix(fs, gs):
            mixes.append(solves[-1][0])
            return inner_mix(fs, gs)

        def counted_plan(st):
            plans.append(st.max_bond())
            return inner_plan(st)

        plans = []
        inner_plan = ipeps._plan_pass
        monkeypatch.setattr(ipeps, "_message_fixed_point", recorded)
        monkeypatch.setattr(ipeps, "_anderson_mix", recorded_mix)
        monkeypatch.setattr(ipeps, "_plan_pass", counted_plan)
        cut, _ = apply_axis_mpo(st, w, 0, 4)
        assert solves == [(4 * w.virtual_dim, ipeps.MESSAGE_ANDERSON_START)]
        assert plans == [4 * w.virtual_dim]
        assert cut.max_bond() == 4
        out, info = superorthogonalize(cut, ipeps.SO_TOL, ipeps.SO_MAX_PASSES)
        assert solves[1:] == [(4, ipeps.SO_TOL)]
        # one plan per state: the enlarged one, the cut one, the polished one
        assert plans == [4 * w.virtual_dim, 4, 4]
        assert all(width <= 4 for width in mixes)
        assert info.iterations == 1 and info.converged
        assert out.max_bond() == 4
        assert superorthogonality_residual(out) <= ipeps.SO_TOL

    @pytest.mark.parametrize("dim,J,D", [(2, 0.2, 4), (3, 0.15, 3)],
                             ids=["2d", "3d"])
    def test_step_polishes_only_the_measured_state(self, dim, J, D, monkeypatch):
        # one mpo step: per axis, plain sweeps to MESSAGE_ANDERSON_START on
        # the enlarged bonds and the cut; then one polish at D_max to
        # SO_TOL, which plans on entry and after its pass
        st, mpos = self.evolved(dim, J, D)
        advance = mpo_advance(tfim_model(dim, J, 1.0), 0.2, D)
        solves, plans, polished = [], [], []
        inner_solve, inner_plan = ipeps._message_fixed_point, ipeps._plan_pass
        inner_polish = ipeps.superorthogonalize

        def recorded(plan, tol, start):
            solves.append((max(w.size for w in plan.lams), tol))
            return inner_solve(plan, tol, start)

        def counted_plan(state):
            plans.append(state.max_bond())
            return inner_plan(state)

        def kept_result(*args):
            polished.append(inner_polish(*args))
            return polished[-1]

        monkeypatch.setattr(ipeps, "_message_fixed_point", recorded)
        monkeypatch.setattr(ipeps, "_plan_pass", counted_plan)
        monkeypatch.setattr(ipeps, "superorthogonalize", kept_result)
        out = advance(st)
        wide = D * mpos[0].virtual_dim
        assert solves == ([(wide, ipeps.MESSAGE_ANDERSON_START)] * dim
                          + [(D, ipeps.SO_TOL)])
        assert plans == [wide] * dim + [D, D]
        (state, info), = polished
        assert state is out and out.max_bond() == D
        assert info.iterations == 1
        assert superorthogonality_residual(out) == pytest.approx(
            info.residual, rel=1e-6, abs=1e-14)

    def test_checkerboard_rejected(self):
        st = random_product_ipeps(2, 2, 1)
        ident = Mpo(np.eye(2).reshape(1, 1, 2, 2), 0)
        with pytest.raises(ValueError):
            apply_axis_mpo(st, ident, 0, 4)


class TestExpectation:
    def test_independent_of_memory_layout(self):
        # the 2D D=4 checkerboard state after 20 second-order gate sweeps:
        # a site tensor in another memory layout, with equal values, must
        # give the same bits (an einsum path planned on the layout did not)
        m = tfim_model(2, 0.2, 1.0)
        st = random_product_ipeps(2, 2, 11)
        site_h, bond_h = split_hamiltonian(m.hamiltonian, 2)
        gates = [bond_gate(bond_hamiltonian(site_h, b, 4), 0.025) for b in bond_h]
        order = bond_list(st)
        for _ in range(20):
            for b in order + order[::-1]:
                st, _ = simple_update_bond(st, gates[b.axis], b, 4)
        comm = m.commutator()
        ref = expectation_terms_peps(st, comm)
        for site in range(2):
            t = st.tensors[site]
            layouts = [np.asfortranarray(t)] + [
                np.moveaxis(np.ascontiguousarray(np.moveaxis(t, leg, -1)), -1, leg)
                for leg in range(1, t.ndim - 1)
            ]
            for view in layouts:
                assert np.array_equal(view, t) and not view.flags.c_contiguous
                alt = st.copy()
                alt.tensors[site] = view
                assert expectation_terms_peps(alt, comm) == ref

    def test_identity_per_site(self):
        st = random_product_ipeps(2, 1, 2)
        ident = OperatorTerms([LocalTerm(((0, 0),), np.eye(2))], 2)
        assert expectation_terms_peps(st, ident) == pytest.approx(1.0, abs=1e-13)

    def test_plus_product_values(self):
        st = plus_state(2, 1)
        assert expectation_terms_peps(st, OX) == pytest.approx(1.0, abs=1e-13)
        assert expectation_terms_peps(st, OZ) == pytest.approx(0.0, abs=1e-13)

    def test_bond_term_on_product_state_factorizes(self):
        st = random_product_ipeps(2, 1, 9)
        v = st.tensors[0].reshape(2)
        zz = expectation_terms_peps(st, OZZ)
        per_axis = (v @ PAULI_Z @ v) ** 2
        assert zz == pytest.approx(per_axis, abs=1e-12)

    def test_unsupported_support_rejected(self):
        st = random_product_ipeps(2, 1, 1)
        diag = OperatorTerms(
            [LocalTerm(((0, 0), (1, 1)), np.eye(4))], 2
        )
        with pytest.raises(ValueError):
            expectation_terms_peps(st, diag)


def mpo_advance(model, dtau, D_max):
    """One step of ``run_evolution_peps``'s mpo scheme, as the function the
    evolution repeats: ``record_trace`` is replaced by one that returns
    its ``advance``."""
    sch = EvolutionSchedule(dtau=dtau, tau_max=dtau, scheme="mpo",
                            D_max=D_max, seed=0)
    with mock.patch.object(ipeps, "record_trace",
                           lambda state, advance, *rest: advance):
        return run_evolution_peps(model, sch, D_max)


def _evolved_state(model, schedule, D_max):
    """Short evolution returning the final, measured state (mpo scheme)."""
    advance = mpo_advance(model, schedule.dtau, D_max)
    st = random_product_ipeps(model.dimension, 1, schedule.seed)
    for _ in range(planned_steps(schedule.dtau, schedule.tau_max)):
        st = advance(st)
    return st


class TestRunEvolution:
    def test_determinism(self):
        m = tfim_model(2, 0.2, 1.0)
        sch = EvolutionSchedule(dtau=0.2, tau_max=2.0, scheme="mpo", D_max=3, seed=8)
        t1 = run_evolution_peps(m, sch, D_max=3)
        t2 = run_evolution_peps(m, sch, D_max=3)
        assert np.array_equal(t1.cs, t2.cs)

    def test_paramagnetic_symmetry(self):
        # symmetric start: sigma_z stays zero through the evolution
        m = tfim_model(2, 0.2, 1.0)
        sch = EvolutionSchedule(dtau=0.2, tau_max=8.0, scheme="mpo", D_max=2, seed=0)
        st = _evolved_state(m, sch, 2)
        # replace the random start by the symmetric one and re-evolve
        sym = plus_state(2, 1)
        site_h, bond_h = split_hamiltonian(m.hamiltonian, 2)
        w = build_wii(hamiltonian_line_mpo(bond_h[0], site_h, 0.5), 0.2)
        for _ in range(40):
            for a in (0, 1):
                sym, _ = apply_axis_mpo(sym, w, a, 2)
        assert abs(expectation_terms_peps(sym, OZ)) < 1e-6

    def test_ferromagnetic_symmetry_breaking(self):
        m = tfim_model(2, 1.0, 0.5)
        sch = EvolutionSchedule(dtau=0.1, tau_max=6.0, scheme="gates",
                                D_max=2, seed=3)
        tr = run_evolution_peps(m, sch, D_max=2)
        st = random_product_ipeps(2, 2, 3)
        site_h, bond_h = split_hamiltonian(m.hamiltonian, 2)
        for _ in range(60):
            for b in bond_list(st):
                h = bond_hamiltonian(site_h, bond_h[b.axis], 4)
                st, _ = simple_update_bond(st, bond_gate(h, 0.1), b, 2)
        assert abs(expectation_terms_peps(st, OZ)) / 2.0 > 0.5

    def test_j_zero_gap_all_schemes(self):
        for scheme in ("mpo", "gates"):
            m = tfim_model(2, 0.0, 1.0)
            sch = EvolutionSchedule(dtau=0.05, tau_max=9.0, scheme=scheme,
                                    D_max=2, seed=3)
            tr = run_evolution_peps(m, sch, D_max=2)
            e = estimate_gap(tr, window=(6.0, 8.0))
            assert e.gap == pytest.approx(2.0, abs=1e-8), scheme

    def test_gates_scheme_is_plain_simple_update(self, monkeypatch):
        def no_gauge_fix(*args):
            raise AssertionError("the gates scheme ran a gauge fix")

        monkeypatch.setattr(ipeps, "superorthogonalize", no_gauge_fix)
        sch = EvolutionSchedule(dtau=0.1, tau_max=2.0, scheme="gates",
                                D_max=2, seed=0)
        tr = run_evolution_peps(tfim_model(2, 0.2, 1.0), sch, D_max=2)
        assert len(tr) == 21

    def test_one_dimensional_rejected(self):
        from specgap.models import haldane_model

        with pytest.raises(ValueError):
            run_evolution_peps(
                haldane_model(),
                EvolutionSchedule(dtau=0.1, tau_max=1.0, D_max=2),
                D_max=2,
            )
