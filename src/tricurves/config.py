"""Experiment configuration and run manifests.

Configs are plain INI text (key-value with nested sections).  Only the
[ensemble] block is mandatory -- every numeric knob has a default -- and
the seed inside it is required.  The config hash is the sha256 of the
canonical re-serialization, so semantically identical files hash alike;
every artifact file embeds this hash in its header line (see
``artifacts``), and a manifest lists the artifacts of a run together with
wall times and the tool version.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, field, replace

from . import artifacts
from .ensembles import EnsembleSpec, ensemble_from_config, ensemble_to_config
from .errors import ValidationError

__all__ = ["ExperimentConfig", "RunManifest", "load_config", "config_to_text", "config_hash"]


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: EnsembleSpec
    sizes: tuple = (201,)
    reps: int = 1
    nonreal_tol: float = 1e-6
    ids_n: int = 4000
    ids_reps: int = 4
    ids_grid_points: int = 2048
    curve_x_points: int = 800
    curve_tol: float = 1e-6
    mass_tol: float = 0.02
    rect_margin: float = 0.1
    exclusion_n: int = 2001
    exclusion_reps: int = 5
    thouless_n: int = 100_000
    thouless_reps: int = 8
    thouless_tol: float = 0.02
    thouless_points: tuple = (1 + 1j, -0.5 + 0.75j, 2 - 0.5j, 0.25 + 1.5j, -1 - 1j, 3 + 2j)
    panel_sizes: tuple = (500, 1000, 2000)
    panel_reps: int = 8
    hausdorff_budget: float = 0.15

    def __post_init__(self):
        if not self.sizes or any(n < 2 for n in self.sizes):
            raise ValidationError("sizes must be a nonempty list of integers >= 2")
        if list(self.sizes) != sorted(self.sizes):
            raise ValidationError("sizes must be ascending")
        for name in (
            "nonreal_tol", "curve_tol", "mass_tol", "rect_margin", "thouless_tol", "hausdorff_budget",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("reps", "ids_n", "ids_reps", "ids_grid_points", "curve_x_points",
                     "exclusion_n", "exclusion_reps", "thouless_n", "thouless_reps"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, ensemble=replace(self.ensemble, seed=int(seed)))


def _parse_complex_list(text: str) -> tuple:
    return tuple(complex(tok.replace("i", "j")) for tok in text.split())


def load_config(path_or_text: str, is_text: bool = False) -> ExperimentConfig:
    """Parse a config; a malformed file, a bad value or a section or key
    that nothing reads raises ValidationError."""
    if not is_text and not os.path.exists(path_or_text):
        raise ValidationError(f"config file not found: {path_or_text}")
    cp = configparser.ConfigParser()
    try:
        if is_text:
            cp.read_string(path_or_text)
        else:
            cp.read(path_or_text)
        cfg = _parse(cp)
    except ValidationError:
        raise
    except (configparser.Error, ValueError) as exc:
        raise ValidationError(f"invalid config: {exc}") from exc
    _reject_unread(cp, cfg)
    return cfg


def _parse(cp: configparser.ConfigParser) -> ExperimentConfig:
    ensemble = ensemble_from_config(cp)
    kwargs = {}
    run = cp["run"] if "run" in cp else {}
    if "sizes" in run:
        kwargs["sizes"] = tuple(int(tok) for tok in run["sizes"].split())
    for key, cast in (("reps", int), ("nonreal_tol", float)):
        if key in run:
            kwargs[key] = cast(run[key])
    ids = cp["ids"] if "ids" in cp else {}
    for src, dst, cast in (("n", "ids_n", int), ("reps", "ids_reps", int), ("grid_points", "ids_grid_points", int)):
        if src in ids:
            kwargs[dst] = cast(ids[src])
    curve = cp["curve"] if "curve" in cp else {}
    for src, dst, cast in (
        ("x_points", "curve_x_points", int),
        ("curve_tol", "curve_tol", float),
        ("mass_tol", "mass_tol", float),
    ):
        if src in curve:
            kwargs[dst] = cast(curve[src])
    verify = cp["verify"] if "verify" in cp else {}
    for src, dst, cast in (
        ("rect_margin", "rect_margin", float),
        ("exclusion_n", "exclusion_n", int),
        ("exclusion_reps", "exclusion_reps", int),
        ("thouless_n", "thouless_n", int),
        ("thouless_reps", "thouless_reps", int),
        ("thouless_tol", "thouless_tol", float),
        ("panel_reps", "panel_reps", int),
    ):
        if src in verify:
            kwargs[dst] = cast(verify[src])
    if "thouless_points" in verify:
        kwargs["thouless_points"] = _parse_complex_list(verify["thouless_points"])
    if "panel_sizes" in verify:
        kwargs["panel_sizes"] = tuple(int(tok) for tok in verify["panel_sizes"].split())
    compare = cp["compare"] if "compare" in cp else {}
    if "hausdorff_budget" in compare:
        kwargs["hausdorff_budget"] = float(compare["hausdorff_budget"])
    return ExperimentConfig(ensemble=ensemble, **kwargs)


def _reject_unread(cp: configparser.ConfigParser, cfg: ExperimentConfig) -> None:
    """Every section and key of the file must be one the parser reads: the
    canonical text lists them all, plus ``raw`` (omitted there when false)."""
    known = configparser.ConfigParser()
    known.read_string(config_to_text(cfg))
    known["ensemble"].setdefault("raw", "false")
    for section in cp.sections():
        if section not in known:
            raise ValidationError(f"unknown config section [{section}]")
        extra = sorted(set(cp[section]) - set(known[section]))
        if extra:
            raise ValidationError(f"unknown key(s) in [{section}]: {', '.join(extra)}")


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical serialization (stable field order); hashing input."""
    cp = configparser.ConfigParser()
    cp.read_string(ensemble_to_config(cfg.ensemble))
    cp["run"] = {
        "sizes": " ".join(str(n) for n in cfg.sizes),
        "reps": str(cfg.reps),
        "nonreal_tol": repr(cfg.nonreal_tol),
    }
    cp["ids"] = {
        "n": str(cfg.ids_n),
        "reps": str(cfg.ids_reps),
        "grid_points": str(cfg.ids_grid_points),
    }
    cp["curve"] = {
        "x_points": str(cfg.curve_x_points),
        "curve_tol": repr(cfg.curve_tol),
        "mass_tol": repr(cfg.mass_tol),
    }
    cp["verify"] = {
        "rect_margin": repr(cfg.rect_margin),
        "exclusion_n": str(cfg.exclusion_n),
        "exclusion_reps": str(cfg.exclusion_reps),
        "thouless_n": str(cfg.thouless_n),
        "thouless_reps": str(cfg.thouless_reps),
        "thouless_tol": repr(cfg.thouless_tol),
        "thouless_points": " ".join(str(z) for z in cfg.thouless_points),
        "panel_sizes": " ".join(str(n) for n in cfg.panel_sizes),
        "panel_reps": str(cfg.panel_reps),
    }
    cp["compare"] = {"hausdorff_budget": repr(cfg.hausdorff_budget)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_to_text(cfg).encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """The artifacts one command listed, with the measured wall time of
    each (0 for a reused product).  On disk it is an artifact like the
    others: the header ``# config_hash=<h> tool_version=<v>``, then
    ``name,path,seconds`` rows."""

    config_hash: str
    tool_version: str
    artifacts: dict = field(default_factory=dict)
    walltimes: dict = field(default_factory=dict)

    def add(self, name: str, path: str, seconds: float):
        self.artifacts[name] = path
        self.walltimes[name] = seconds

    def write(self, path: str) -> None:
        header = {"config_hash": self.config_hash, "tool_version": self.tool_version}
        rows = [f"{name},{self.artifacts[name]},{self.walltimes[name]:.3f}\n" for name in sorted(self.artifacts)]
        artifacts.write(path, header, ["name,path,seconds\n", *rows])

    @staticmethod
    def read(path: str) -> "RunManifest":
        header, body = artifacts.read(path)
        if set(header) != {"config_hash", "tool_version"} or body[:1] != ["name,path,seconds\n"]:
            raise ValidationError(f"{path} is not a run manifest")
        manifest = RunManifest(header["config_hash"], header["tool_version"])
        for line in body[1:]:
            try:
                name, rel, seconds = line.rstrip("\n").split(",")
                manifest.add(name, rel, float(seconds))
            except ValueError as exc:
                raise ValidationError(f"{path}: malformed manifest row {line!r}") from exc
        return manifest

    def validate(self, base_dir: str) -> None:
        """Every artifact exists and its header carries this manifest's config hash."""
        for name, rel in self.artifacts.items():
            path = os.path.join(base_dir, rel)
            if not os.path.exists(path):
                raise ValidationError(f"manifest artifact missing: {name} -> {rel}")
            if not artifacts.is_current(path, self.config_hash):
                raise ValidationError(f"artifact {rel} does not embed config hash {self.config_hash}")
