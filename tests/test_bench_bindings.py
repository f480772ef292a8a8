"""What the benchmark harness under ``perfbench/`` binds in the package.

The harness wraps the functions named in ``tracer.LAYERS`` and the five the
``run.py`` probe patches, runs points through ``cli.run`` and
``workloads.run_chain``, and replays recorded call forms in ``kernels.py``.
Toy points run here under both sets of wrappers, so a renamed function or
a changed call form fails this test rather than the benchmark.
"""

import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from specgap import cli, tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _load_run():
    # importing run.py sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
    # MKL_NUM_THREADS to 1; the environment is restored afterwards
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


run = _load_run()

TOY = dict(J=0.2, g=1.0, D=2, dtau=0.2, tau_max=0.6, seed=0)
POINTS = (
    ("tfim2d_mpo", dict(model="tfim2d", scheme="mpo", **TOY)),
    ("tfim3d_mpo", dict(model="tfim3d", scheme="mpo", **TOY)),
    ("tfim2d_gates", dict(model="tfim2d", scheme="gates", **TOY)),
)


def test_benchmark_bindings_hold(tmp_path):
    cfgs = [cli.RunConfig(**cfg, outdir=str(tmp_path), tag=tag)
            for tag, cfg in POINTS]
    cfgs.append(SimpleNamespace(model="tfim1d", J=0.8, g=1.0, D=4, dtau=0.05,
                                tau_max=0.5, seed=2, outdir=str(tmp_path),
                                tag="tfim1d_tebd"))

    tr, probe = tracer.Tracer(), run.Probe()
    fits = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            fits.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    w0 = tensor.work_count()
    with tracer.patched(tr.factories()), tracer.patched(probe.factories()), \
            tracer.patched({"estimator.estimate_gap": counted}):
        for cfg in cfgs:
            probe.reset()
            fits.clear()
            # looked up under the wrappers, as run.run_pass does
            runner = workloads.run_chain if cfg.model == "tfim1d" else cli.run
            runner(cfg)
            assert probe.step_times, cfg.tag
            assert probe.trace is not None and len(probe.trace) > 0, cfg.tag
            # one fit per point, so the probe's t_fit and trace are the final fit's
            assert len(fits) == 1 and fits[0] is probe.trace, cfg.tag
    madds = tensor.work_count() - w0
    assert madds > 0
    assert tr.total_madds() == madds
    assert tr.layer_metrics()
    for name in ("ipeps.superorthogonalize", "ipeps.simple_update_bond",
                 "imps.tebd_step", "imps.recanonicalize", "cli.run"):
        assert tr.calls[name] > 0, name

    # the operand signatures perfbench/kernels.py looks up and replays
    so = tr.shapes["ipeps.superorthogonalize"]
    assert so and all(
        isinstance(s[0], tuple) and s[1:] == ("float", "int") for s in so), so
    assert set(tr.shapes["wii.build_wii"]) == {("MpoBlocks", "float", "int")}
    steps = tr.shapes["imps.tebd_step"]
    assert steps and all(
        isinstance(s[0], tuple) and isinstance(s[1], tuple)
        and s[2:] == ("int", "int", "float") for s in steps), steps
    assert any(s[0] == "lrpq,qabcd->lrpabcd" for s in tr.shapes["tensor.einsum2"])
