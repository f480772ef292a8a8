"""Kernel cases for pytest-benchmark, at operand shapes the traced runs record.

Run from the repository root:

    python3 -m pytest perfbench/kernels.py -p no:cacheprovider --benchmark-only

Operands are the real arguments of calls made by short evolutions of the
two headline workloads (tfim2d-mpo-D8 and haldane-tebd-D32, cut at
tau = 1), captured per operand signature.  The signatures below are
among the most frequent that ``run.py --trace 1`` writes under
``operand_shapes`` for those workloads; a case fails if its signature no
longer occurs.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from specgap import imps, ipeps, models, tensor, wii  # noqa: E402


def _capture(run) -> dict:
    """Last (args, kwargs) of each traced kernel per operand signature."""
    seen = {}

    def factory(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                sig = tuple(tracer.describe(a) for a in args)
                seen[(name, sig)] = (args, kwargs)
                return fn(*args, **kwargs)

            return wrapper

        return make

    with tracer.patched({n: factory(n) for n in tracer.SHAPED}):
        run()
    return seen


@pytest.fixture(scope="module")
def calls() -> dict:
    mpo = imps.EvolutionSchedule(
        dtau=0.2, tau_max=1.0, scheme="mpo", D_max=8, seed=11)
    tebd = imps.EvolutionSchedule(dtau=0.05, tau_max=1.0, D_max=32, seed=5)
    return {
        **_capture(lambda: ipeps.run_evolution_peps(
            models.tfim_model(2, 0.2, 1.0), mpo, 8)),
        **_capture(lambda: imps.run_evolution_1d(
            models.haldane_model(), tebd, 32, 5)),
    }


def _case(benchmark, calls, fn, name, sig):
    if (name, sig) not in calls:
        pytest.fail(f"no {name} call with operands {sig}")
    args, kwargs = calls[(name, sig)]
    return benchmark(fn, *args, **kwargs)


MPO_STATE = ((2, 16, 16, 8, 8),)
TEBD_STATE = ((32, 3, 32), (32, 3, 32))


@pytest.mark.parametrize("sig", [((16, 16),), ((96, 96),), ((32, 32),)],
                         ids=["gauge-fix-16", "tebd-96", "recanonicalize-32"])
def test_svd_fixed(benchmark, calls, sig):
    u, s, vh = _case(benchmark, calls, tensor.svd_fixed, "tensor.svd_fixed", sig)
    assert s.size == min(sig[0])


@pytest.mark.parametrize("sig", [((16, 16),), ((32, 32),)],
                         ids=["gauge-fix-16", "recanonicalize-32"])
def test_psd_factor(benchmark, calls, sig):
    x, _ = _case(benchmark, calls, tensor.psd_factor, "tensor.psd_factor", sig)
    assert x.shape == sig[0]


@pytest.mark.parametrize("sig", [
    ("asb,asc->bc", (32, 3, 32), (32, 3, 32)),
    ("asb,csb->ac", (32, 3, 32), (32, 3, 32)),
    ("lrpq,qabcd->lrpabcd", (2, 2, 2, 2), (2, 8, 8, 8, 8)),
], ids=["recanonicalize-left", "recanonicalize-right", "axis-mpo"])
def test_einsum2(benchmark, calls, sig):
    _case(benchmark, calls, tensor.einsum2, "tensor.einsum2", sig)


def test_build_wii(benchmark, calls):
    out = _case(benchmark, calls, wii.build_wii, "wii.build_wii",
                ("MpoBlocks", "float", "int"))
    assert out.virtual_dim == 2


def test_tebd_step(benchmark, calls):
    _, discarded = _case(benchmark, calls, imps.tebd_step, "imps.tebd_step",
                         (TEBD_STATE, (3, 3, 3, 3), "int", "int", "float"))
    assert 0.0 <= discarded < 1e-3


def test_superorthogonalize(benchmark, calls):
    _, info = _case(benchmark, calls, ipeps.superorthogonalize,
                    "ipeps.superorthogonalize", (MPO_STATE, "float", "int"))
    assert info.iterations >= 1
