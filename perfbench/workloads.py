"""The benchmark's workloads: lists of run points with their acceptance checks.

Each point is one ``specgap run`` configuration, except the transverse-field
Ising chain, which the CLI does not offer and which runs through the library
as acceptance criterion 3 does.  Without a workload seed every point takes
its acceptance-suite configuration.  A workload seed replaces the
initial-state seed of every point except those marked ``fixed_seed``, and
draws the energy scale of the chain's Hamiltonian.

Known defect: on a two-site unit cell (every 1D run, and the 2D gate
scheme) the fitted gap depends on the random initial state, and a sizeable
share of initial states gives a wrong gap or no linear window:

- ``haldane-tebd-D32``: seeds 4, 6 and 9 of 1-10 fail (4: gap 0.873,
  clean; 6: 0.8616, noisy; 9: no linear window), and so does 794535508
  (0.868, noisy);
- the TFIM chain at J = 0.8: 1 of 33 seeds (404285457: 2.25 against 0.4,
  noisy);
- the D = 4 gate point of ``smallD-batch``: 1 of 26 seeds (404285457: no
  linear window, after 60 s instead of about 5 s).

For the chain, seed 404285457 puts the two site vectors 5 degrees from the
line phi_A + phi_B = 90 degrees (angles from the z axis); product states
placed 10 degrees from that line fail as well.  The mpo scheme evolves a
single-site cell, and its points passed at all of the 25 seeds tried.
``haldane-tebd-D32`` takes the workload seed as its initial-state seed, so
it shows the defect; ``BENCHMARK.json`` does not list it.  In
``tfim1d-tebd-D32`` and ``smallD-batch``, which it lists, the chain and the
gate point keep their acceptance initial states, and the workload seed
varies the chain's energy scale instead, which moves the gap but hardly the
work (3.08e10 and 3.12e10 multiply-adds at the ends of its range).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

# gap references of the acceptance suite
REF_2D = 1.074      # square-lattice TFIM, J = 0.2, g = 1
REF_HALDANE = 0.410  # spin-1 Heisenberg chain
# range the workload seed draws the chain's energy scale from
CHAIN_SCALE = (0.97, 1.03)


@dataclass(frozen=True)
class Point:
    """One run configuration plus what its fitted gap must satisfy.

    ``accept`` is the closed interval the gap must land in (None: any
    gap), ``qualities`` the estimator quality flags accepted, and
    ``reference`` the value ``gap_abs_err`` is measured against.
    ``fixed_seed`` keeps the initial state under any workload seed.
    """

    tag: str
    config: dict
    accept: tuple[float, float] | None = None
    qualities: tuple[str, ...] | None = None
    reference: float | None = None
    fixed_seed: bool = False


def chain_point(scale: float) -> Point:
    """TFIM chain at J = 0.8 scale, g = scale, D = 32 and Haldane's schedule,
    from criterion 3's initial state.  Near-critical, so D = 32 fills and
    the recanonicalization does the work.  The reference is the exact gap,
    the dispersion minimum 2 |g - J| at k = 0, held to criterion 3's 1 %
    tolerance."""
    J, g = 0.8 * scale, scale
    ref = 2.0 * abs(g - J)
    return Point(
        "tfim1d_tebd_D32",
        dict(model="tfim1d", J=J, g=g, D=32, dtau=0.05, tau_max=25.0, seed=2),
        accept=(0.99 * ref, 1.01 * ref),
        reference=ref,
        fixed_seed=True,
    )


WORKLOADS = {
    # criterion-5 headline: the gauge fix on enlarged D*Dw = 16 bonds does
    # the arithmetic; the 1D layer is idle
    "tfim2d-mpo-D8": (
        Point(
            "tfim2d_mpo_D8",
            dict(model="tfim2d", J=0.2, g=1.0, scheme="mpo", D=8,
                 dtau=0.2, tau_max=32.0, seed=11),
            accept=(REF_2D - 0.01, REF_2D + 0.01),
            reference=REF_2D,
        ),
    ),
    # criterion-4 trace run: tens of thousands of small tensor calls inside
    # the 1D recanonicalization; the iPEPS layer is idle
    "haldane-tebd-D32": (
        Point(
            "haldane_tebd_D32",
            dict(model="haldane", D=32, dtau=0.05, tau_max=25.0, seed=5),
            accept=(REF_HALDANE - 0.005, REF_HALDANE + 0.005),
            reference=REF_HALDANE,
        ),
    ),
    # the 1D layer at Haldane's D and schedule, on a model with an exact gap
    "tfim1d-tebd-D32": (chain_point(1.0),),
    # phase-diagram style batch: the same gauge fix on small tensors, the
    # only gate-scheme run, and per-point set-up and file output
    "smallD-batch": (
        Point(
            "tfim3d_mpo_D3_J0.10",
            dict(model="tfim3d", J=0.10, g=1.0, scheme="mpo", D=3,
                 dtau=0.2, tau_max=20.0, seed=7),
            qualities=("clean", "noisy"),
        ),
        Point(
            "tfim3d_mpo_D3_J0.15",
            dict(model="tfim3d", J=0.15, g=1.0, scheme="mpo", D=3,
                 dtau=0.2, tau_max=20.0, seed=7),
            qualities=("clean", "noisy"),
        ),
        Point(
            "tfim2d_gates_D4",
            dict(model="tfim2d", J=0.2, g=1.0, scheme="gates", D=4,
                 dtau=0.05, tau_max=32.0, seed=11),
            accept=(1.06, 1.09),
            reference=REF_2D,
            fixed_seed=True,  # two-site cell: see the known defect above
        ),
    ),
}


def build(name: str, seed: int | None) -> list[Point]:
    """The workload's points under a workload seed (None: as defined)."""
    points = WORKLOADS[name]
    if seed is None:
        return list(points)
    out = []
    for p in points:
        if p.config["model"] == "tfim1d":
            lo, hi = CHAIN_SCALE
            p = chain_point(lo + (hi - lo) * random.Random(seed).random())
        if not p.fixed_seed:
            p = replace(p, config={**p.config, "seed": seed})
        out.append(p)
    return out


def run_chain(cfg) -> int:
    """A TFIM-chain point through the library, fitted as criterion 3 fits
    it; writes the summary fields ``check`` reads, as ``cli.run`` does."""
    from specgap import cli, estimator, imps, models

    schedule = imps.EvolutionSchedule(
        dtau=cfg.dtau, tau_max=cfg.tau_max, D_max=cfg.D, seed=cfg.seed)
    trace = imps.run_evolution_1d(
        models.tfim_chain_model(cfg.J, cfg.g), schedule, cfg.D, cfg.seed)
    est = estimator.estimate_gap(trace)
    lo, hi = est.window or (float("nan"), float("nan"))
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cli.write_summary(outdir / f"{cfg.tag}_summary.txt", {
        "gap": est.gap, "quality": est.quality, "window_lo": lo, "window_hi": hi,
    })
    return cli.EXIT_OK if est.window else cli.EXIT_NO_WINDOW


def check(point: Point, summary: dict | None) -> tuple[str | None, bool]:
    """Why the point failed (None when it passed), and whether the failure
    is a wrong gap rather than a run that gave no usable gap."""
    if summary is None:
        return "no summary written", False
    gap, quality = float(summary["gap"]), summary["quality"]
    if summary["window_lo"] == "nan":
        return f"no linear window ({quality})", False
    if point.qualities is not None and quality not in point.qualities:
        return f"quality {quality}", False
    if point.accept is not None and not point.accept[0] <= gap <= point.accept[1]:
        lo, hi = point.accept
        return f"gap {gap:.6g} outside [{lo:g}, {hi:g}]", True
    return None, False
