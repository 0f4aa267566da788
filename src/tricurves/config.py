"""Experiment configuration and run manifests.

Configs are plain INI text (key-value with nested sections).  Only the
[ensemble] block is mandatory -- every numeric knob has a default -- and
the seed inside it is required.  The fields of ExperimentConfig are the
schema: each one names its ``[section] key`` in its metadata, and its type
picks how the value is read, written and checked (int, float, or a
space-separated list of ints or of complex points); its declaration order
is the canonical order.  The config hash is the sha256 of the canonical
re-serialization, so semantically identical files hash alike; every
artifact file embeds this hash in its header line (see ``artifacts``),
and a manifest lists the artifacts of a run together with wall times and
the tool version.
"""

# No ``from __future__ import annotations`` here: the schema reads each
# field's type as a class.
import cmath
import configparser
import functools
import hashlib
import io
import math
import os
from dataclasses import dataclass, field, fields, replace

from . import artifacts
from .ensembles import EnsembleSpec, ensemble_from_config, ensemble_to_config
from .errors import ValidationError

__all__ = ["ExperimentConfig", "RunManifest", "load_config", "config_to_text", "config_hash"]


def _at(section: str, key: str, default):
    """A field read from and written to ``[section] key``."""
    return field(default=default, metadata={"at": (section, key)})


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: EnsembleSpec
    sizes: tuple = _at("run", "sizes", (201,))
    reps: int = _at("run", "reps", 1)
    nonreal_tol: float = _at("run", "nonreal_tol", 1e-6)
    ids_n: int = _at("ids", "n", 4000)
    ids_reps: int = _at("ids", "reps", 4)
    ids_grid_points: int = _at("ids", "grid_points", 2048)
    curve_x_points: int = _at("curve", "x_points", 800)
    curve_tol: float = _at("curve", "curve_tol", 1e-6)
    mass_tol: float = _at("curve", "mass_tol", 0.02)
    rect_margin: float = _at("verify", "rect_margin", 0.1)
    exclusion_n: int = _at("verify", "exclusion_n", 2001)
    exclusion_reps: int = _at("verify", "exclusion_reps", 5)
    thouless_n: int = _at("verify", "thouless_n", 100_000)
    thouless_reps: int = _at("verify", "thouless_reps", 8)
    thouless_tol: float = _at("verify", "thouless_tol", 0.02)
    thouless_points: tuple = _at(
        "verify", "thouless_points", (1 + 1j, -0.5 + 0.75j, 2 - 0.5j, 0.25 + 1.5j, -1 - 1j, 3 + 2j)
    )
    panel_sizes: tuple = _at("verify", "panel_sizes", (500, 1000, 2000))
    panel_reps: int = _at("verify", "panel_reps", 8)
    hausdorff_budget: float = _at("compare", "hausdorff_budget", 0.15)

    def __post_init__(self):
        for f in _SCHEMA:
            value = getattr(self, f.name)
            if f.type is float and not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{f.name} must be positive and finite, got {value}")
            if f.type is int and value < 1:
                raise ValidationError(f"{f.name} must be >= 1")
            if f.type is tuple and _holds_complex(f) and not (value and all(map(cmath.isfinite, value))):
                raise ValidationError(f"{f.name} must be a nonempty list of finite points")
            if f.type is tuple and not _holds_complex(f):
                if not value or any(n < 2 for n in value):
                    raise ValidationError(f"{f.name} must be a nonempty list of integers >= 2")
                if any(b <= a for a, b in zip(value, value[1:])):
                    raise ValidationError(f"{f.name} must be ascending, without repeats")
        if len(self.panel_sizes) < 2:
            # the panel checks that its error falls from size to size
            raise ValidationError("panel_sizes needs at least two sizes")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, ensemble=replace(self.ensemble, seed=int(seed)))

    @functools.cached_property
    def canonical_text(self) -> str:
        """The canonical serialization (schema field order), built once
        per config: the hashing input, and the list of keys it reads."""
        cp = configparser.ConfigParser()
        cp.read_string(ensemble_to_config(self.ensemble))
        for f in _SCHEMA:
            section, key = f.metadata["at"]
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key, _encode(f, getattr(self, f.name)))
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


_SCHEMA = tuple(f for f in fields(ExperimentConfig) if f.metadata)


def _holds_complex(f) -> bool:
    return isinstance(f.default[0], complex)


def _decode(f, text: str):
    if f.type is not tuple:
        return f.type(text)
    if _holds_complex(f):
        return tuple(complex(tok.replace("i", "j")) for tok in text.split())
    return tuple(int(tok) for tok in text.split())


def _encode(f, value) -> str:
    if f.type is tuple:
        return " ".join(str(v) for v in value)
    return repr(value) if f.type is float else str(value)


def load_config(path: str) -> ExperimentConfig:
    """Parse a config file; a missing or malformed file, a bad value or a
    section or key that nothing reads raises ValidationError."""
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
        ensemble = ensemble_from_config(cp)
        values = {f.name: _decode(f, cp.get(*f.metadata["at"])) for f in _SCHEMA if cp.has_option(*f.metadata["at"])}
        cfg = ExperimentConfig(ensemble=ensemble, **values)
    except ValidationError:
        raise
    except (configparser.Error, ValueError) as exc:
        raise ValidationError(f"invalid config: {exc}") from exc
    _reject_unread(cp, cfg)
    return cfg


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
    """Canonical serialization (schema field order); hashing input."""
    return cfg.canonical_text


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_to_text(cfg).encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """The artifacts one command listed, with the measured wall time of
    each (0 for a reused product).  On disk it is a table like the
    others: the header ``# config_hash=<h> tool_version=<v>``, then
    ``name,path,seconds`` rows (seconds with three decimals)."""

    config_hash: str
    tool_version: str
    artifacts: dict = field(default_factory=dict)
    walltimes: dict = field(default_factory=dict)

    def add(self, name: str, path: str, seconds: float):
        self.artifacts[name] = path
        self.walltimes[name] = seconds

    def write(self, path: str) -> None:
        names = sorted(self.artifacts)
        artifacts.write_table(path, {"config_hash": self.config_hash, "tool_version": self.tool_version},
                              {"name": names, "path": [self.artifacts[name] for name in names],
                               "seconds": [f"{self.walltimes[name]:.3f}" for name in names]})

    @staticmethod
    def read(path: str) -> "RunManifest":
        header, table = artifacts.read_table(path, {"name": str, "path": str, "seconds": float})
        if set(header) != {"config_hash", "tool_version"}:
            raise ValidationError(f"{path} is not a run manifest")
        manifest = RunManifest(header["config_hash"], header["tool_version"])
        for row in zip(table["name"], table["path"], table["seconds"].tolist()):
            manifest.add(*row)
        return manifest

    def validate(self, base_dir: str) -> None:
        """Every artifact exists and its header carries this manifest's config hash."""
        for name, rel in self.artifacts.items():
            path = os.path.join(base_dir, rel)
            if not os.path.exists(path):
                raise ValidationError(f"manifest artifact missing: {name} -> {rel}")
            if not artifacts.is_current(path, self.config_hash):
                raise ValidationError(f"artifact {rel} does not embed config hash {self.config_hash}")
