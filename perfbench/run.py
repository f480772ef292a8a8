"""specgap benchmark: time to a fitted spectral gap, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload tfim2d-mpo-D8 [--seed N]
                             [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.py``.  The loop is closed and runs
in one process: every point of the workload goes through
``specgap.cli.run`` (the TFIM chain through ``workloads.run_chain``), one
after another, with BLAS pinned to one thread.
Whole passes over the points repeat while another pass still fits in
``--seconds``; at least one pass always runs.

``--trace 0`` prints the end-to-end metrics.  Step latency, the start of
the evolution and the fitted estimate are read by thin wrappers around
``expectation_terms_*``, ``run_evolution_*`` and ``estimate_gap``.
``--trace 1`` runs one such pass, then one pass with a span around every
public function named in ``tracer.LAYERS``, checks that both passes gave
identical traces and multiply-add counts, and prints the per-layer
metrics.

Every point's fitted gap is checked against its acceptance tolerance; a
point that raises, finds no linear window or misses its tolerance counts
as failed and the workload goes on.  ``correct`` is false when a point
returns a gap outside its tolerance or a traced pass disagrees with the
untraced one.  Human-readable lines come first, a
full record goes to ``perfbench/out/``, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status is 0 when that line was printed, 2 when the
package cannot be imported.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9  # set-up is timed in this many fresh processes


def setup(workload: str, seed: int | None) -> list:
    """Import the package and build the workload's run configurations."""
    sys.path.insert(0, str(ROOT / "src"))
    from specgap import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "specgap":
        raise ImportError(f"specgap comes from {cli.__file__}, not this checkout")
    outdir = OUT / workload
    return [
        (p, cli.RunConfig(**p.config, outdir=str(outdir), tag=p.tag))
        for p in workloads.build(workload, seed)
    ]


def measure_setup(args) -> list[float]:
    """Seconds from process start to built inputs, in fresh processes."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--setup-probe"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times[1:]  # the first process warms the file cache and is not timed


class Probe:
    """Evolution start, step times and fitted estimate of the current point,
    read from outside the program."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.t_start = None
        self.t_fit = None
        self.step_times: list[float] = []
        self.trace = None

    def factories(self) -> dict:
        return {
            "ipeps.run_evolution_peps": self._evolution,
            "imps.run_evolution_1d": self._evolution,
            "ipeps.expectation_terms_peps": self._step,
            "imps.expectation_terms_imps": self._step,
            "estimator.estimate_gap": self._fit,
        }

    def _evolution(self, fn):
        def wrapper(*args, **kwargs):
            if self.t_start is None:
                self.t_start = time.perf_counter()
            return fn(*args, **kwargs)

        return wrapper

    def _step(self, fn):
        def wrapper(*args, **kwargs):
            self.step_times.append(time.perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def _fit(self, fn):
        def wrapper(trace, *args, **kwargs):
            out = fn(trace, *args, **kwargs)
            self.t_fit = time.perf_counter()
            self.trace = trace
            return out

        return wrapper


def read_summary(path: Path) -> dict | None:
    if not path.exists():
        return None
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def run_pass(points, probe: Probe) -> list[dict]:
    """Every point once through ``cli.run``; one record per point."""
    from specgap import cli, tensor

    records = []
    for point, cfg in points:
        outdir = Path(cfg.outdir)
        for suffix in ("_summary.txt", "_trace.csv", "_deriv.csv"):
            (outdir / f"{cfg.tag}{suffix}").unlink(missing_ok=True)
        probe.reset()
        w0 = tensor.work_count()
        error = None
        runner = workloads.run_chain if cfg.model == "tfim1d" else cli.run
        try:
            code = runner(cfg)
        except Exception as exc:  # a point that raises fails; the rest go on
            code, error = None, f"{type(exc).__name__}: {exc}"
        t_done = time.perf_counter()
        summary = read_summary(outdir / f"{cfg.tag}_summary.txt")
        failure, wrong = workloads.check(point, summary)
        failure = error or failure
        gap = float(summary["gap"]) if summary else float("nan")
        trace = probe.trace
        digest = None
        if trace is not None:
            digest = hashlib.sha256(
                trace.taus.astype(float).tobytes() + trace.cs.astype(float).tobytes()
            ).hexdigest()
        t_start = probe.t_start if probe.t_start is not None else t_done
        times = probe.step_times
        records.append({
            "tag": cfg.tag,
            "seed": cfg.seed,
            "exit_code": code,
            "gap": gap,
            "quality": summary["quality"] if summary else None,
            "window": ([float(summary["window_lo"]), float(summary["window_hi"])]
                       if summary else None),
            "reference": point.reference,
            "failure": failure,
            "wrong_gap": wrong,
            "sha256": digest,
            "madds": tensor.work_count() - w0,
            "time_to_gap_s": (probe.t_fit or t_done) - t_start,
            "step_s": [b - a for a, b in zip(times, times[1:])],
        })
    return records


def end_to_end(passes: list[list[dict]], setup_times: list[float]) -> dict:
    totals = [sum(r["time_to_gap_s"] for r in recs) for recs in passes]
    steps = [dt for recs in passes for r in recs for dt in r["step_s"]]
    return {
        "time_to_gap_s": (statistics.median(totals), "s"),
        "steps_per_s": (len(steps) / sum(totals), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def unbounded(records: list[dict], failed: int, attempted: int) -> dict:
    """End-to-end figures printed and recorded but given no bound: they
    vary with the seed or the mix of points by more than any usable bound."""
    import numpy as np

    steps = [dt for r in records for dt in r["step_s"]]
    errs = [abs(r["gap"] - r["reference"]) for r in records
            if r["reference"] is not None and r["failure"] is None]
    out = {
        "gap_abs_err": (max(errs) if errs else float("nan"), "1"),
        "failed_fraction": (failed / attempted, "ratio"),
    }
    if steps:
        out["step_ms_p50"] = (float(np.percentile(steps, 50)) * 1e3, "ms")
        out["step_ms_p90"] = (float(np.percentile(steps, 90)) * 1e3, "ms")
    return out


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS loaded into this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(load_at_start) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of every point (default: acceptance seeds)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()

    try:
        points = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(time.monotonic())
        return 0

    from specgap import tensor

    import tracer

    setup_times = [] if args.trace else measure_setup(args)
    env = environment(load_at_start)
    probe = Probe()
    passes = []
    checks = []
    with tracer.patched(probe.factories()):
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(points, probe))
            elapsed = time.perf_counter() - begin
            if args.trace or elapsed * (1 + 1 / len(passes)) > args.seconds:
                break
    if args.trace:
        tr = tracer.Tracer()
        w0 = tensor.work_count()
        with tracer.patched(tr.factories()), tracer.patched(probe.factories()):
            traced = run_pass(points, probe)
        for a, b in zip(passes[0], traced):
            checks.append((f"{a['tag']}: traced sha256 equals untraced",
                           a["sha256"] == b["sha256"]))
            checks.append((f"{a['tag']}: traced madds equal untraced",
                           a["madds"] == b["madds"]))
        checks.append(("self madds over all spans equal the counter total",
                       tr.total_madds() == tensor.work_count() - w0))
        untraced_s = sum(r["time_to_gap_s"] for r in passes[0])
        traced_s = sum(r["time_to_gap_s"] for r in traced)
        metrics = tr.layer_metrics()
        for name in ("ipeps.superorthogonalize", "imps.recanonicalize"):
            metrics[f"{name}.incl_share"] = (tr.incl_s[name] / traced_s, "ratio")
        metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
        passes.append(traced)
    else:
        metrics = end_to_end(passes, setup_times)

    records = [r for recs in passes for r in recs]
    attempted = len(records)
    failed = sum(r["failure"] is not None for r in records)
    for r in records:
        status = "ok" if r["failure"] is None else f"FAILED ({r['failure']})"
        print(f"point {r['tag']} seed={r['seed']}: gap={r['gap']:.6g} "
              f"quality={r['quality']} window={r['window']} {status} "
              f"sha256={r['sha256']} madds={r['madds']:.0f} "
              f"time_to_gap={r['time_to_gap_s']:.3f}s steps={len(r['step_s'])}")
    for label, ok in checks:
        print(f"check {'ok' if ok else 'FAILED'}: {label}")
    print(f"env {json.dumps(env)}")
    info = unbounded(records, failed, attempted)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} = {value:.6g} {unit}")

    correct = not any(r["wrong_gap"] for r in records) and all(
        ok for _, ok in checks)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "setup_times_s": setup_times, "points": records,
        "checks": checks, "metrics": metrics, "unbounded": info,
        "correct": correct,
        "cpu_s": {"user": usage.ru_utime, "sys": usage.ru_stime},
    }
    if args.trace:
        record["operand_shapes"] = tr.top_shapes()
    seed_tag = "default" if args.seed is None else args.seed
    path = OUT / f"{args.workload}-seed{seed_tag}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
