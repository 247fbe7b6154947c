"""The benchmark's workloads: which configs one pass runs, in what environment.

Each workload writes its configs into the run's work directory from the
seed alone, so the same seed gives the same inputs.  The seed picks each
n = 3 sweep's starting h in [2^-5, 2^-4]; the shipped configs are never
edited.  A pass runs its configs in a fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0

# Environment variables that set OpenBLAS's thread count.  A worker starts
# with all of them removed, then gets the workload's own settings.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")

SWEEP_TEMPLATE = """\
[experiment]
id = {id}
kind = sharpness-sweep

[params]
family = {family}
n = {n}
k = 3
h_start = {h_start!r}
h_stop = {h_stop!r}
p_list = {p_list}
margin = {margin}
points_per_scale = {points_per_scale}
joint_orders = 3

[tolerances]
slope = 0.1
volume_band = 4.0
joint_slack = {joint_slack}
"""

# k = 3, not k = 1: for k = 1 the cutoff is an exact rescaling in h and the
# slopes come out exact, which tests nothing.  margin * points_per_scale = 32
# gives 64^3 position grids; the shipped default of 128^3 costs ~19 s a point.
N3_SWEEPS = (
    dict(stem="lp_n3_paraboloid_k3", id="lp-n3-paraboloid-k3",
         family="paraboloid", n=3, p_list="inf, 8", margin=4,
         points_per_scale=8, joint_slack="3/16"),
    dict(stem="lp_n3_slab_k3", id="lp-n3-slab-k3", family="slab", n=3,
         p_list="4", margin=8, points_per_scale=4, joint_slack="1/16"),
)

# Self-test only: one n = 2 sweep on 16^2 grids plus the cheapest shipped
# config, so a run takes about a second.
TINY_SWEEPS = (
    dict(stem="tiny_n2_paraboloid_k3", id="tiny-n2-paraboloid-k3",
         family="paraboloid", n=2, p_list="inf", margin=2,
         points_per_scale=4, joint_slack="3/16"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple = ()
    shipped: tuple[str, ...] = ()          # file names under configs/
    env: dict[str, str] = field(default_factory=dict)

    def write_configs(self, root: Path, seed: int, dest: Path) -> list[Path]:
        """Write this seed's sweep configs into dest; list every config."""
        rng = random.Random(seed)
        dest.mkdir(parents=True, exist_ok=True)
        paths = []
        for sweep in self.sweeps:
            h_start = 2.0 ** (-5.0 + rng.random())
            path = dest / f"{sweep['stem']}.cfg"
            path.write_text(SWEEP_TEMPLATE.format(
                h_start=h_start, h_stop=h_start / 16.0, **sweep))
            paths.append(path)
        paths += [root / "configs" / name for name in self.shipped]
        return paths

    def compares_reference(self, seed: int) -> bool:
        """Sweep outputs depend on the seed, so theirs are compared with
        bench/reference at DEFAULT_SEED only."""
        return not self.sweeps or seed == DEFAULT_SEED


# The 13 configs shipped when the benchmark was defined.  Listed, not
# globbed, so that a config added later does not change the workload.
SHIPPED = (
    "contact_axis_k3.cfg", "contact_uniform_n3_k3.cfg", "delta_curves_n3.cfg",
    "fio_n2_k1.cfg", "peak_valley_n3.cfg", "sharp_largep_n2_k1.cfg",
    "sharp_largep_n2_k3.cfg", "sharp_smallp_n2.cfg", "ttstar_n2.cfg",
    "vdc_d1.cfg", "vdc_d1_resonant.cfg", "vdc_d2.cfg",
    "wavelet_flat_n2_k3.cfg",
)

SINGLE = {"QUASILAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

WORKLOADS = {w.name: w for w in (
    Workload("lp-sweep-n3", sweeps=N3_SWEEPS, env=SINGLE),
    Workload("lp-sweep-n3-par", sweeps=N3_SWEEPS, env={"QUASILAB_THREADS": "2"}),
    Workload("shipped-configs", shipped=SHIPPED, env=SINGLE),
    # Self-test only; BENCHMARK.json does not list it.
    Workload("tiny", sweeps=TINY_SWEEPS, shipped=("delta_curves_n3.cfg",),
             env=SINGLE),
)}
