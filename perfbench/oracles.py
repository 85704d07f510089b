"""Output checks for the benchmark's CSVs, independent of the timed code path.

Each check returns a list of problems; an empty list means the CSV is right.
Every CSV must have the expected header, one row per grid point in
axis1-major order, axis values equal to the requested ones, and finite,
non-negative negativities. On top of that:

* grid-n4: every N_half_one matches the four-site closed-form negativity and
  every logZ the four-site closed-form log partition function;
* temp-scan-n8: every N_half_one matches the even-ring relation
  N = max(0, -1/3 - (2/3) U/N_sites) with the row's own U;
* j2-scan-n8: a seeded sample of rows is recomputed through the dense public
  path build_model -> diagonalize -> thermal_state -> partial_trace ->
  negativity, which stays as the reference whatever the sweep does.
"""

from __future__ import annotations

import random

import numpy as np

from mixedspin import analytic
from mixedspin.models import ModelSpec, build_model
from mixedspin.negativity import negativity, partial_trace
from mixedspin.thermal import diagonalize, internal_energy, thermal_state

ABS_TOL = 1e-9
REL_TOL = 1e-9
PAIR_SITES = {"N_half_one": (0, 1), "N_half_half": (0, 2), "N_one_one": (1, 3)}
DENSE_SAMPLE = 2


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def _close(got: float, want: float, rel: bool = False) -> bool:
    scale = max(1.0, abs(want)) if rel else 1.0
    return abs(got - want) <= (REL_TOL if rel else ABS_TOL) * scale


def check(workload, text: str, seed: int) -> list[str]:
    header, rows = parse_csv(text)
    axes = [name for name, *_ in workload.axes]
    expected = axes + list(PAIR_SITES) + ["U", "logZ"]
    if header != expected:
        return [f"header {header} != {expected}"]
    grids = np.meshgrid(*[np.linspace(lo, hi, steps) for _, lo, hi, steps in workload.axes],
                        indexing="ij")
    params = np.stack([g.ravel() for g in grids], axis=1)
    if rows.shape[0] != params.shape[0]:
        return [f"{rows.shape[0]} rows, expected {params.shape[0]}"]
    problems = []
    if not np.isfinite(rows).all():
        problems.append("non-finite value")
    if np.abs(rows[:, :len(axes)] - params).max() > 1e-11 * max(1.0, np.abs(params).max()):
        problems.append("axis values differ from the request")
    negs = rows[:, len(axes):len(axes) + len(PAIR_SITES)]
    if (negs < 0).any():
        problems.append("negative negativity")
    col = {name: rows[:, i] for i, name in enumerate(header)}
    problems += CHECKS[workload.name](workload, params, col, seed)
    return problems


def _check_grid_n4(workload, params, col, seed):
    problems = []
    for i, (j2, t) in enumerate(params):
        beta = 1.0 / t
        want_n = analytic.four_spin_negativity_half_one(beta, 1.0, j2)
        want_z = analytic.four_spin_log_partition(beta, 1.0, j2)
        if not _close(col["N_half_one"][i], want_n):
            problems.append(f"row {i}: N_half_one {col['N_half_one'][i]!r} vs closed form {want_n!r}")
        if not _close(col["logZ"][i], want_z, rel=True):
            problems.append(f"row {i}: logZ {col['logZ'][i]!r} vs closed form {want_z!r}")
    return problems


def _check_temp_scan(workload, params, col, seed):
    problems = []
    for i in range(params.shape[0]):
        want = analytic.even_ring_negativity_from_energy(col["U"][i] / workload.n)
        if not _close(col["N_half_one"][i], want):
            problems.append(f"row {i}: N_half_one {col['N_half_one'][i]!r} vs energy relation {want!r}")
    return problems


def _check_j2_scan(workload, params, col, seed):
    problems = []
    sample = random.Random(seed).sample(range(params.shape[0]), DENSE_SAMPLE)
    for i in sorted(sample):
        j2 = float(params[i, 0])
        decomp = diagonalize(build_model(ModelSpec(n_sites=workload.n, j2=j2)))
        state = thermal_state(decomp, workload.temperature)
        want = {name: negativity(partial_trace(state, sites)).value
                for name, sites in PAIR_SITES.items()}
        want["U"] = internal_energy(decomp, state.beta)
        want["logZ"] = state.log_z
        for name, value in want.items():
            if not _close(col[name][i], value, rel=name in ("U", "logZ")):
                problems.append(f"row {i} (j2={j2}): {name} {col[name][i]!r} vs dense path {value!r}")
    return problems


CHECKS = {
    "grid-n4": _check_grid_n4,
    "temp-scan-n8": _check_temp_scan,
    "j2-scan-n8": _check_j2_scan,
}
