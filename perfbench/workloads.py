"""The benchmark's workloads: configs made from a seed, the CLI stage
chains that run them, and the oracles that check each pass's outputs.

All three workloads use the Fig. 1b ensemble of the paper (xi log-uniform
on [0, 1], eta log-uniform on [1/2, 3/2], q uniform on [0, 1]); the seed
argument becomes the ensemble seed and nothing else.  Sizes are chosen so
that one cold pass plus one rerun pass takes a few seconds on a 2-core
machine, which leaves room for several passes per timed run.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from tricurves.config import ExperimentConfig, RunManifest
from tricurves.errors import ValidationError

ENSEMBLE = """\
[ensemble]
mode = iid
seed = {seed}
[ensemble.xi]
kind = log_uniform
a = 0.0
b = 1.0
[ensemble.eta]
kind = log_uniform
a = 0.5
b = 1.5
[ensemble.q]
kind = uniform
a = 0.0
b = 1.0
"""

# trace_defect in eigensolvers documents |sum z_i - sum q| / (n max(1, |sum q|)) <= 1e-8
TRACE_DEFECT_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    chain: tuple
    sections: dict = field(default_factory=dict)
    pooled: bool = False  # run the chain with --jobs equal to the core count

    def config_text(self, seed: int, overrides: dict | None = None) -> str:
        """INI text for this workload at the given ensemble seed;
        ``overrides`` replaces whole sections (used by the smoke test)."""
        sections = dict(self.sections)
        sections.update(overrides or {})
        parts = [ENSEMBLE.format(seed=int(seed))]
        for name, items in sections.items():
            parts.append(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()))
        return "\n".join(parts)


WORKLOADS = {
    # Empirical side as users run it: pooled dense QR over (n, rep) jobs,
    # one size above the eigenvector limit (800) so the closure probes run.
    # The rerun pass reads samples, spectra and the IDS back as cache hits.
    "clouds": Workload(
        "clouds",
        ("sample", "spectrum", "ids", "curve", "compare"),
        {"run": {"sizes": "300 900", "reps": "2"}, "ids": {"grid_points": "1024"}},
        pooled=True,
    ),
    # Predicted side without eigensolves: Sturm counts for the IDS, the
    # transfer recursion for the Thouless scan, phi_many for the curve.
    # The rerun pass hits the IDS cache and skips the Sturm counts only.
    "limit": Workload(
        "limit",
        ("ids", "lyapunov", "curve"),
        {
            "ids": {"n": "40000", "reps": "1", "grid_points": "1024"},
            "verify": {"thouless_n": "20000", "thouless_reps": "2"},
        },
    ),
    # The invariant battery: serial dense QR with closure probes, the
    # rank-2 determinant, exclusion rectangles and the limit-measure
    # integrals of the weak-convergence panel.  The panel's check (error
    # decreasing along the sizes) passed on every seed tried only with two
    # far-apart sizes: the prediction's own error leaves a floor near
    # 3e-3, so with up to 8 reps closer pairs such as 200/900, and every
    # triple of sizes up to 900 tried, fail it on 4-45% of seeds.
    # With exclusion n=801 (above the eigenvector limit of 800, so the
    # closure probes run) and the panel 16/500 x 1 the whole battery
    # passed on seeds 0-59 and 2024; a pass takes about 2 s, so that a
    # timed run holds enough cycles for a steady median.
    "certify": Workload(
        "certify",
        ("ids", "verify"),
        {
            "ids": {"grid_points": "1024"},
            "curve": {"x_points": "400"},
            "verify": {
                "exclusion_n": "801",
                "exclusion_reps": "1",
                "thouless_n": "5000",
                "thouless_reps": "2",
                "panel_sizes": "16 500",
                "panel_reps": "1",
            },
        },
    ),
}


def artifact_digests(out_dir: str) -> dict:
    """sha256 of every file under out_dir except the run manifests."""
    digests = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            if name.startswith("manifest_"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def manifest_artifacts(path: str) -> list:
    """Normalized artifact paths a manifest lists; none if it is missing
    or unreadable."""
    try:
        return [os.path.normpath(rel) for rel in RunManifest.read(path).artifacts.values()]
    except (OSError, ValueError):
        return []


def artifact_owners(out_dir: str, chain: tuple) -> dict:
    """Artifact path -> the first stage of the chain whose manifest lists it."""
    owners = {}
    for stage in chain:
        for rel in manifest_artifacts(os.path.join(out_dir, f"manifest_{stage}.txt")):
            owners.setdefault(rel, stage)
    return owners


def manifests_invalid(out_dir: str) -> int:
    """Number of manifests in out_dir that fail their own validate();
    one that cannot be read counts as failing."""
    bad = 0
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("manifest_"):
            try:
                RunManifest.read(os.path.join(out_dir, name)).validate(out_dir)
            except (ValidationError, OSError, ValueError):
                bad += 1
    return bad


def _data_rows(path: str) -> list:
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]  # drop the column header


def _header_fields(path: str) -> dict:
    with open(path) as fh:
        head = fh.readline()
    return dict(tok.split("=", 1) for tok in head[1:].split() if "=" in tok)


def _check_traces(cfg: ExperimentConfig, out_dir: str) -> list:
    problems = []
    for n in cfg.sizes:
        for rep in range(cfg.reps):
            q = np.array([float(r[3]) for r in _data_rows(os.path.join(out_dir, "samples", f"coeffs_n{n}_rep{rep}.csv"))])
            eig = np.array([complex(float(r[0]), float(r[1]))
                            for r in _data_rows(os.path.join(out_dir, "spectra", f"spectrum_n{n}_rep{rep}.csv"))])
            trace = float(np.sum(q[1:]))
            defect = abs(complex(np.sum(eig)) - trace) / (n * max(1.0, abs(trace)))
            if len(eig) != n or not defect <= TRACE_DEFECT_TOL:
                problems.append(("spectrum", f"n={n} rep={rep}: {len(eig)} eigenvalues, trace defect {defect:.3g}"))
    return problems


def _check_thouless(cfg: ExperimentConfig, out_dir: str) -> list:
    rows = _data_rows(os.path.join(out_dir, "lyapunov", "lyapunov_scan.csv"))
    probes = rows[: len(cfg.thouless_points)]
    problems = []
    if len(probes) != len(cfg.thouless_points):
        problems.append(("lyapunov", f"{len(probes)} probe rows, expected {len(cfg.thouless_points)}"))
    for r in probes:
        gap = abs(float(r[2]) - float(r[4]))
        if not gap < cfg.thouless_tol:
            problems.append(("lyapunov", f"z={r[0]}+{r[1]}i: |transfer - thouless| = {gap:.3g}"))
    return problems


def _check_mass(cfg: ExperimentConfig, out_dir: str) -> list:
    mass = float(_header_fields(os.path.join(out_dir, "curve", "curve_points.csv"))["mass"])
    if not abs(mass - 1.0) <= cfg.mass_tol:
        return [("curve", f"header mass {mass:.6g} outside 1 +- {cfg.mass_tol}")]
    return []


def pass_problems(workload: Workload, cfg: ExperimentConfig, out_dir: str) -> list:
    """(stage, message) for every output that misses the workload's
    oracle after a pass; an artifact that is missing or cannot be parsed
    misses it too.  Exit codes are checked by the caller."""
    checks = {
        "clouds": [("spectrum", _check_traces)],
        "limit": [("lyapunov", _check_thouless), ("curve", _check_mass)],
        "certify": [],  # the verify stage's exit code is the oracle
    }[workload.name]
    problems = []
    for stage, check in checks:
        try:
            problems += check(cfg, out_dir)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems.append((stage, f"unreadable artifact: {exc!r}"))
    return problems


def rerun_problems(workload: Workload, out_dir: str, cold: dict, rerun: dict) -> list:
    """(stage, message) for every non-manifest artifact that the rerun
    pass did not leave byte-identical to the cold pass."""
    owners = artifact_owners(out_dir, workload.chain)
    problems = []
    for rel in sorted(set(cold) | set(rerun)):
        if cold.get(rel) != rerun.get(rel):
            stage = owners.get(os.path.normpath(rel), workload.chain[0])
            problems.append((stage, f"{rel} differs between the cold and the rerun pass"))
    return problems
