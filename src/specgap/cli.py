"""Batch front end: run one evolution (or an oracle check) from a config,
persist the trace, its derivative and a flat summary, or sweep a parameter
grid into a plot-ready table.

Config files are flat ``key = value`` text; any command-line flag of the
same name overrides the file.  Exit codes: 0 fitted (clean or noisy),
1 usage error, 2 no linear window, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import estimator, models, oracle
from .estimator import GapTrace, estimate_gap, record_trace
from .imps import EvolutionSchedule, run_evolution_1d
from .ipeps import run_evolution_peps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_WINDOW = 2
EXIT_NUMERIC = 3
# exit codes from worst to best: the code a sweep takes from its points
EXIT_RANK = (EXIT_USAGE, EXIT_NUMERIC, EXIT_NO_WINDOW, EXIT_OK)

MODELS = ("tfim2d", "tfim3d", "haldane", "oracle-random")
# the TFIM fields, which the models without couplings ignore
TFIM_FIELDS = ("J", "g", "scheme")
FIXED_MODELS = ("haldane", "oracle-random")


def ignored_fields(model: str) -> tuple[str, ...]:
    """The ``RunConfig`` fields that ``model`` does not read."""
    return TFIM_FIELDS if model in FIXED_MODELS else ()


@dataclass
class RunConfig:
    """Everything one run needs; defaults are echoed into the summary,
    except the fields the model ignores (``ignored_fields``)."""

    model: str = "tfim2d"
    J: float = 0.2
    g: float = 1.0
    scheme: str = "mpo"     # peps models only: mpo | gates
    D: int | None = None          # bond dimension (oracle-random: Hilbert dimension,
                                  # 2 to the oracle cap); unset picks the per-model default
    dtau: float | None = None     # unset picks the per-scheme default (0.2 mpo, 0.05 gates)
    tau_max: float | None = None  # unset picks a per-model default
    seed: int = 0
    outdir: str = "."
    tag: str = ""

    def resolve(self) -> "RunConfig":
        cfg = replace(self)
        if cfg.model not in MODELS:
            raise ValueError(f"unknown model {cfg.model!r} (choose from {MODELS})")
        if cfg.dtau is None:
            cfg.dtau = 0.05 if (cfg.scheme == "gates" or cfg.model == "haldane") else 0.2
        if cfg.tau_max is None:
            cfg.tau_max = {"haldane": 25.0, "oracle-random": 30.0}.get(cfg.model, 32.0)
        if cfg.D is None:
            cfg.D = {"tfim2d": 8, "tfim3d": 4, "haldane": 32,
                     "oracle-random": 10}[cfg.model]
        if not cfg.tag:
            cfg.tag = cfg.model
        if Path(cfg.tag).name != cfg.tag:
            raise ValueError(f"tag {cfg.tag!r} must be a file name, not a path")
        return cfg


def parse_config_file(path: str) -> dict:
    values = {}
    names = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in names:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def _parser(f) -> type:
    """How a flag or config value of ``RunConfig`` field ``f`` is read."""
    return {"int": int, "float": float}.get(f.type.removesuffix(" | None"), str)


def _format(value) -> str:
    """Floats (numpy scalars included) as the shortest round-trip repr."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(_format(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_summary(path: Path, record: dict) -> None:
    lines = [f"{k}={_format(v)}" for k, v in record.items()]
    path.write_text("\n".join(lines) + "\n")


def _oracle_random_trace(cfg: RunConfig) -> tuple[GapTrace, dict]:
    """Seeded random dense instance evolved exactly on a tau grid, with
    its exact gap and overlap class (the config records the rest)."""
    rng = np.random.default_rng(cfg.seed)
    dim = int(cfg.D)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    d = oracle.spectral_decompose(h)
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    obs = (b + b.conj().T) / 2.0
    phi0 = rng.normal(size=dim)
    cls = oracle.classify_overlap(d, obs, phi0)
    if cls.kind is oracle.OverlapKind.NEITHER:
        raise RuntimeError("random instance satisfies neither overlap condition")
    info = {"exact_gap": d.gap(), "overlap_class": cls.kind.value}
    # the exact evolution needs no state beyond the step count
    trace = record_trace(
        0,
        lambda step: step + 1,
        lambda step: oracle.commutator_expectation_exact(
            d, obs, phi0, step * cfg.dtau),
        cfg.dtau, cfg.tau_max,
    )
    return trace, info


def build_model(cfg: RunConfig) -> models.Model | None:
    """Lattice model of a resolved config (None for the dense oracle);
    ValueError when its parameters are invalid."""
    if cfg.model == "oracle-random":
        if not 2 <= cfg.D <= oracle.ORACLE_DIM_CAP:
            raise ValueError("oracle-random needs a Hilbert dimension D in "
                             f"[2, {oracle.ORACLE_DIM_CAP}]")
        return None
    if cfg.model == "haldane":
        return models.haldane_model()
    return models.tfim_model(3 if cfg.model == "tfim3d" else 2, cfg.J, cfg.g)


def run(cfg: RunConfig) -> int:
    """Execute one run and persist trace, derivative and summary files;
    once the config resolves, an earlier run's files of the same tag go,
    so a run that fails leaves none."""
    try:
        cfg = cfg.resolve()
        for suffix in ("_trace.csv", "_deriv.csv", "_summary.txt"):
            (Path(cfg.outdir) / f"{cfg.tag}{suffix}").unlink(missing_ok=True)
        schedule = EvolutionSchedule(dtau=cfg.dtau, tau_max=cfg.tau_max,
                                     scheme=cfg.scheme, D_max=cfg.D, seed=cfg.seed)
        model = build_model(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    extra: dict = {}
    try:
        if model is None:
            trace, extra = _oracle_random_trace(cfg)
        elif model.dimension == 1:
            trace = run_evolution_1d(model, schedule, cfg.D, cfg.seed)
        else:
            trace = run_evolution_peps(model, schedule, cfg.D)
        est = estimate_gap(trace)
    except Exception as exc:  # numeric failure: report and bail out
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    wall = time.perf_counter() - start

    write_csv(outdir / f"{cfg.tag}_trace.csv", "tau,C", zip(trace.taus, trace.cs))
    taus_d, deriv = estimator.numerical_derivative(estimator.drop_spikes(trace))
    write_csv(outdir / f"{cfg.tag}_deriv.csv", "tau,dCdtau", zip(taus_d, deriv))

    record = {
        "gap": est.gap,
        "err": est.error_bar,
        "quality": est.quality,
        "window_lo": est.window[0] if est.window else float("nan"),
        "window_hi": est.window[1] if est.window else float("nan"),
        "intercept": est.intercept,
        "derivative_std": est.derivative_std,
        "derivative_fluctuation": est.derivative_fluctuation,
        "n_samples": len(trace),
        # 1: the run ended before SPIKE_HALFWIDTH + 1 samples followed the window
        "window_open": (int(np.sum(trace.taus > est.window[1]) <= estimator.SPIKE_HALFWIDTH)
                        if est.window else float("nan")),
        "wall_time_s": wall,
    }
    for f in fields(RunConfig):
        if f.name not in ignored_fields(cfg.model):
            record[f"cfg_{f.name}"] = getattr(cfg, f.name)
    for key, val in extra.items():
        record[f"info_{key}"] = val
    write_summary(outdir / f"{cfg.tag}_summary.txt", record)

    if est.window is None:
        print(f"{cfg.tag}: no linear window ({est.quality})")
        return EXIT_NO_WINDOW
    print(
        f"{cfg.tag}: gap = {est.gap:.6g} +- {est.error_bar:.2g} "
        f"({est.quality}, window [{est.window[0]:g}, {est.window[1]:g}], "
        f"{wall:.1f}s)"
    )
    return EXIT_OK


def sweep(cfg: RunConfig, param: str, values: list[float]) -> int:
    """Run a grid over one numeric parameter, aggregating gap vs value.

    A point that fails (usage error or numeric failure) becomes a row with
    gap nan and its exit status as the quality; the sweep returns the
    worst exit code of its points, ranked usage error (1) > numeric
    failure (3) > no linear window (2) > fitted (0).  Each point's files
    are tagged ``<tag>_<param><value:g>``; a grid with two values that
    print alike there is a usage error, before anything runs.
    """
    if not values:
        print("error: empty sweep grid", file=sys.stderr)
        return EXIT_USAGE
    if param not in ("J", "g", "D", "dtau"):
        print(f"error: cannot sweep {param!r}", file=sys.stderr)
        return EXIT_USAGE
    if param == "D" and not all(v.is_integer() for v in values):
        print("error: D values must be integers", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = cfg.resolve()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if param in ignored_fields(cfg.model):
        print(f"error: {cfg.model} does not depend on {param}", file=sys.stderr)
        return EXIT_USAGE
    tags = [f"{cfg.tag}_{param}{v:g}" for v in values]
    shared = sorted({tag for tag in tags if tags.count(tag) > 1})
    if shared:
        print(f"error: grid values share the file tag {', '.join(shared)}",
              file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    worst = EXIT_OK
    for v, tag in zip(values, tags):
        sub = replace(cfg, **{param: int(v) if param == "D" else float(v)},
                      tag=tag)
        summary = outdir / f"{sub.tag}_summary.txt"
        code = run(sub)
        worst = min(worst, code, key=EXIT_RANK.index)
        if code in (EXIT_OK, EXIT_NO_WINDOW):
            vals = dict(
                line.split("=", 1) for line in summary.read_text().splitlines()
            )
            rows.append((v, vals["gap"], vals["err"], vals["quality"]))
        else:
            rows.append((v, "nan", "nan", f"exit-{code}"))
    write_csv(outdir / f"{cfg.tag}_sweep.csv", "param,gap,err,quality", rows)
    return worst


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        p.add_argument(f"--{f.name}", type=_parser(f))


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Config file overridden by flags; ValueError when a field the model
    does not read is given."""
    kwargs: dict = {}
    if args.config:
        parsers = {f.name: _parser(f) for f in fields(RunConfig)}
        for key, val in parse_config_file(args.config).items():
            kwargs[key] = parsers[key](val)
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            kwargs[f.name] = val
    cfg = RunConfig(**kwargs)
    unread = [name for name in ignored_fields(cfg.model) if name in kwargs]
    if unread:
        raise ValueError(f"{cfg.model} does not read {', '.join(unread)}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="specgap",
        description=(
            "Estimate spectral gaps of lattice models from the decay of the "
            "commutator expectation under imaginary-time evolution."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="one evolution, trace + summary files")
    _add_config_flags(p_run)
    p_sweep = sub.add_parser("sweep", help="grid over one parameter")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help="J, g, D or dtau")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated grid values"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the error (or --help)
        if not exc.code:
            raise
        return EXIT_USAGE
    try:
        cfg = _build_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "run":
        return run(cfg)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        print(f"error: bad grid values: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return sweep(cfg, args.param, values)


if __name__ == "__main__":
    sys.exit(main())
