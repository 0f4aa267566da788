"""Coefficient ensembles and seeded realizations of the triple sequence.

A realization is the sequence of triples (xi_k, eta_k, q_k), k = 0..n,
from which the matrix family is built: sub-diagonal entries -exp(xi_k),
super-diagonal entries -exp(eta_k), diagonal entries q_k.  A raw-entry
mode samples the sub/super/diagonal entries directly with free signs; it
exists for mixed-sign demonstrations and supports only the dense
eigensolver (no symmetrization, no curve theory).

Random number generation
------------------------
Sampling uses the Philox4x64 counter-based generator (numpy.random.Philox)
with one stream per field: stream key = 4 * seed + field index, where the
field indices are xi -> 0, eta -> 1, q -> 2 (same slots for sub/sup/diag
in raw mode).  The value at index k is inverse-CDF(u_k) where u_k is built
from the k-th 64-bit word of the stream (u = (word >> 11) * 2**-53).
Values are therefore pure functions of (seed, field, k): disjoint index
ranges can be generated independently and concurrently and always agree
with a single bulk pass.  Realization r of an ensemble is its sample at
seed + r (``realization``); every stage and check draws through that rule.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ValidationError

__all__ = [
    "DistributionSpec",
    "EnsembleSpec",
    "CoefficientSequence",
    "sample",
    "sample_range",
    "realization",
    "empirical_means",
    "analytic_means",
    "mean_log_coupling",
    "ensemble_to_config",
    "ensemble_from_config",
    "spec_hash",
]

_KINDS = ("constant", "uniform", "two_point", "gaussian", "cauchy", "log_uniform")

# Parameter names per kind, in storage order.
_PARAM_NAMES = {
    "constant": ("value",),
    "uniform": ("a", "b"),
    "two_point": ("v1", "v2", "prob"),
    "gaussian": ("mean", "sd"),
    "cauchy": ("loc", "scale"),
    "log_uniform": ("a", "b"),
}


@dataclass(frozen=True)
class DistributionSpec:
    """One marginal distribution, identified by kind plus parameters.

    log_uniform(a, b) draws u ~ Uni[a, b] and returns log(u); it expresses
    "entries drawn from Uni[a,b]" in the log coordinates used by the
    symmetrization.  A literal draw of u = 0 (probability zero, only
    possible for a = 0) is clamped to the smallest positive normal double
    before the log so that no -inf can poison downstream sums.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        names = _PARAM_NAMES[self.kind]
        if len(self.params) != len(names):
            raise ValidationError(
                f"{self.kind} takes parameters {names}, got {len(self.params)} values"
            )
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = dict(zip(names, self.params))
        if self.kind == "uniform" and not p["a"] < p["b"]:
            raise ValidationError(f"uniform requires a < b, got a={p['a']}, b={p['b']}")
        if self.kind == "two_point" and not 0.0 <= p["prob"] <= 1.0:
            raise ValidationError(f"two_point requires 0 <= prob <= 1, got prob={p['prob']}")
        if self.kind == "gaussian" and not p["sd"] >= 0.0:
            raise ValidationError(f"gaussian requires sd >= 0, got sd={p['sd']}")
        if self.kind == "cauchy" and not p["scale"] > 0.0:
            raise ValidationError(f"cauchy requires scale > 0, got scale={p['scale']}")
        if self.kind == "log_uniform" and not (0.0 <= p["a"] < p["b"]):
            raise ValidationError(f"log_uniform requires b > a >= 0, got a={p['a']}, b={p['b']}")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def constant(value: float) -> "DistributionSpec":
        return DistributionSpec("constant", (value,))

    @staticmethod
    def uniform(a: float, b: float) -> "DistributionSpec":
        return DistributionSpec("uniform", (a, b))

    @staticmethod
    def two_point(v1: float, v2: float, prob: float) -> "DistributionSpec":
        """Takes value v1 with probability prob, else v2."""
        return DistributionSpec("two_point", (v1, v2, prob))

    @staticmethod
    def gaussian(mean: float, sd: float) -> "DistributionSpec":
        return DistributionSpec("gaussian", (mean, sd))

    @staticmethod
    def cauchy(loc: float, scale: float) -> "DistributionSpec":
        return DistributionSpec("cauchy", (loc, scale))

    @staticmethod
    def log_uniform(a: float, b: float) -> "DistributionSpec":
        return DistributionSpec("log_uniform", (a, b))

    # -- properties ------------------------------------------------------
    @property
    def heavy_tailed(self) -> bool:
        """True when E|X| is infinite.  Only the Cauchy kind qualifies; it
        is admissible for the diagonal field (which only needs a finite
        E log(1+|q|)) but rejected for xi/eta."""
        return self.kind == "cauchy"

    @property
    def mean(self) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "uniform":
            a, b = self.params
            return 0.5 * (a + b)
        if self.kind == "two_point":
            v1, v2, prob = self.params
            return prob * v1 + (1.0 - prob) * v2
        if self.kind == "gaussian":
            return self.params[0]
        if self.kind == "log_uniform":
            a, b = self.params
            # E log u, u ~ Uni[a,b]: (b log b - a log a)/(b - a) - 1.
            alog = 0.0 if a == 0.0 else a * math.log(a)
            return (b * math.log(b) - alog) / (b - a) - 1.0
        raise ValidationError(f"{self.kind} distribution has no finite mean")

    # -- sampling --------------------------------------------------------
    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniforms in [0, 1)."""
        if self.kind == "constant":
            return np.full_like(u, self.params[0])
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * u
        if self.kind == "two_point":
            v1, v2, prob = self.params
            return np.where(u < prob, v1, v2)
        if self.kind == "gaussian":
            from scipy.special import ndtri

            mean, sd = self.params
            # ndtri(0) = -inf would only arise from the probability-2^-53
            # word 0; nudge into the open interval.
            return mean + sd * ndtri(np.maximum(u, 2.0**-54))
        if self.kind == "cauchy":
            loc, scale = self.params
            return loc + scale * np.tan(np.pi * (u - 0.5))
        if self.kind == "log_uniform":
            a, b = self.params
            v = a + (b - a) * u
            return np.log(np.maximum(v, np.finfo(float).tiny))
        raise AssertionError(self.kind)

    def label(self) -> str:
        names = _PARAM_NAMES[self.kind]
        inner = ", ".join(f"{k}={v:g}" for k, v in zip(names, self.params))
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class EnsembleSpec:
    """Full sampling specification for the triple sequence.

    mode "iid" draws independent triples; "constant" requires all three
    marginals to be constants; "periodic" repeats the fixed table of
    (xi, eta, q) triples and ignores the marginals.  raw=True switches the
    three fields to direct sub-/super-/diagonal entries (signs free).
    """

    xi: Optional[DistributionSpec]
    eta: Optional[DistributionSpec]
    q: Optional[DistributionSpec]
    mode: str = "iid"
    seed: int = 0
    table: Optional[tuple] = None  # periodic mode: tuple of (xi, eta, q) triples
    raw: bool = False

    def __post_init__(self):
        if self.mode not in ("iid", "constant", "periodic"):
            raise ValidationError(f"unknown ensemble mode {self.mode!r}")
        if self.seed is None or int(self.seed) < 0:
            raise ValidationError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
        if self.mode == "periodic":
            if self.raw:
                raise ValidationError("periodic mode does not support raw entries")
            if not self.table:
                raise ValidationError("periodic mode requires a nonempty table")
            tab = tuple(tuple(float(v) for v in row) for row in self.table)
            if any(len(row) != 3 for row in tab):
                raise ValidationError("periodic table rows must be (xi, eta, q) triples")
            object.__setattr__(self, "table", tab)
        else:
            for name in ("xi", "eta", "q"):
                if getattr(self, name) is None:
                    raise ValidationError(f"{self.mode} mode requires distribution {name!r}")
            if self.mode == "constant":
                for name in ("xi", "eta", "q"):
                    if getattr(self, name).kind != "constant":
                        raise ValidationError("constant mode requires constant marginals")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def constants(xi: float, eta: float, q: float, seed: int = 0) -> "EnsembleSpec":
        return EnsembleSpec(
            DistributionSpec.constant(xi),
            DistributionSpec.constant(eta),
            DistributionSpec.constant(q),
            mode="constant",
            seed=seed,
        )

    @staticmethod
    def periodic(table, seed: int = 0) -> "EnsembleSpec":
        return EnsembleSpec(None, None, None, mode="periodic", seed=seed, table=tuple(table))

    @staticmethod
    def raw_entries(sub: DistributionSpec, sup: DistributionSpec, diag: DistributionSpec, seed: int = 0) -> "EnsembleSpec":
        """Mixed-sign demo mode: sample matrix entries directly."""
        return EnsembleSpec(sub, sup, diag, mode="iid", seed=seed, raw=True)

    @property
    def period(self) -> int:
        return len(self.table) if self.table else 0

    def require_log_coordinates(self, operation: str) -> None:
        if self.raw:
            raise ValidationError(
                f"{operation} requires log-coordinate ensembles; raw-entry mode supports only the dense spectrum"
            )

    def require_light_tails(self, operation: str) -> None:
        self.require_log_coordinates(operation)
        if self.mode == "periodic":
            return
        for name in ("xi", "eta"):
            if getattr(self, name).heavy_tailed:
                raise ValidationError(
                    f"{operation} needs finite E {name}; distribution {getattr(self, name).label()} is heavy tailed"
                )


@dataclass(frozen=True)
class CoefficientSequence:
    """One realization: arrays of length n+1 (indices 0..n inclusive).

    Canonical mode fills xi/eta/q; raw mode fills sub/sup/diag instead.
    Index usage downstream: sub-diagonal entries use indices 1..n-1, the
    top-right corner uses index 0, the bottom-left corner uses index n,
    the diagonal uses indices 1..n.  Index 0 of q and index n of xi (and
    index 0 of eta) enter only boundary factors.
    """

    n: int
    spec: EnsembleSpec
    xi: Optional[np.ndarray] = None
    eta: Optional[np.ndarray] = None
    q: Optional[np.ndarray] = None
    sub: Optional[np.ndarray] = None
    sup: Optional[np.ndarray] = None
    diag: Optional[np.ndarray] = None

    def __post_init__(self):
        arrays = (self.sub, self.sup, self.diag) if self.spec.raw else (self.xi, self.eta, self.q)
        for arr in arrays:
            if arr is None or arr.shape != (self.n + 1,):
                raise ValidationError("coefficient arrays must all have length n+1")
            arr.setflags(write=False)

    @property
    def raw(self) -> bool:
        return self.spec.raw

    def sub_entries(self) -> np.ndarray:
        """Actual sub-diagonal/corner values at indices 0..n."""
        return self.sub if self.raw else -np.exp(self.xi)

    def sup_entries(self) -> np.ndarray:
        return self.sup if self.raw else -np.exp(self.eta)

    def diag_entries(self) -> np.ndarray:
        return self.diag if self.raw else self.q


def _uniform_words(key: int, start: int, count: int) -> np.ndarray:
    """Words [start, start+count) of the Philox stream, as uniforms in [0,1)."""
    bg = np.random.Philox(key=key)
    block, rem = divmod(start, 4)  # Philox counters advance in 4-word blocks
    if block:
        bg.advance(block)
    raw = bg.random_raw(count + rem)[rem:]
    return (raw >> np.uint64(11)) * (2.0**-53)


def sample_range(spec: EnsembleSpec, lo: int, hi: int) -> dict:
    """Field arrays for indices [lo, hi); pure function of (spec, lo, hi)."""
    if hi <= lo or lo < 0:
        raise ValidationError("need 0 <= lo < hi")
    count = hi - lo
    out = {}
    if spec.mode == "periodic":
        tab = np.asarray(spec.table)
        idx = np.arange(lo, hi) % spec.period
        for j, name in enumerate(("xi", "eta", "q")):
            out[name] = tab[idx, j].copy()
        return out
    names = ("sub", "sup", "diag") if spec.raw else ("xi", "eta", "q")
    for field, name in enumerate(names):
        dist = (spec.xi, spec.eta, spec.q)[field]
        if spec.mode == "constant" or dist.kind == "constant":
            out[name] = np.full(count, dist.params[0])
        else:
            u = _uniform_words(4 * spec.seed + field, lo, count)
            out[name] = dist.from_uniform(u)
    return out


def sample(spec: EnsembleSpec, n: int) -> CoefficientSequence:
    """Seeded realization of the triple sequence for matrix size n.

    Deterministic in (spec, n): identical inputs give bit-identical arrays,
    and any sub-range equals the corresponding slice of the full arrays.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    fields = sample_range(spec, 0, n + 1)
    return CoefficientSequence(n=n, spec=spec, **fields)


def realization(spec: EnsembleSpec, n: int, r: int) -> CoefficientSequence:
    """Realization r of size n: the sample at seed spec.seed + r."""
    return sample(replace(spec, seed=spec.seed + r), n)


def empirical_means(seq: CoefficientSequence):
    """(mean xi, mean eta, mean log(1+|q|)) over indices 0..n-1."""
    if seq.raw:
        raise ValidationError("empirical_means requires log-coordinate sequences")
    sl = slice(0, seq.n)
    return (
        float(np.mean(seq.xi[sl])),
        float(np.mean(seq.eta[sl])),
        float(np.mean(np.log1p(np.abs(seq.q[sl])))),
    )


def analytic_means(spec: EnsembleSpec):
    """(E xi, E eta) from the specification, exact (not sampled).

    Periodic mode returns table averages (the ergodic means); heavy-tailed
    xi/eta are rejected.
    """
    spec.require_light_tails("analytic_means")
    if spec.mode == "periodic":
        tab = np.asarray(spec.table)
        return float(tab[:, 0].mean()), float(tab[:, 1].mean())
    return spec.xi.mean, spec.eta.mean


def mean_log_coupling(spec: EnsembleSpec) -> float:
    """E log c_0 = (E xi + E eta) / 2, the additive constant linking the
    log-potential of the reference measure to the Lyapunov exponent."""
    e_xi, e_eta = analytic_means(spec)
    return 0.5 * (e_xi + e_eta)


# -- config serialization -------------------------------------------------

def ensemble_to_config(spec: EnsembleSpec, section: str = "ensemble") -> str:
    """Serialize to the key-value config format (see ensemble_from_config)."""
    cp = configparser.ConfigParser()
    cp[section] = {"mode": spec.mode, "seed": str(spec.seed)}
    if spec.raw:
        cp[section]["raw"] = "true"
    if spec.mode == "periodic":
        cp[f"{section}.table"] = {
            f"row{i}": " ".join(f"{v!r}" for v in row) for i, row in enumerate(spec.table)
        }
    else:
        for name in ("xi", "eta", "q"):
            dist = getattr(spec, name)
            sec = {"kind": dist.kind}
            for pname, val in zip(_PARAM_NAMES[dist.kind], dist.params):
                sec[pname] = f"{val!r}"
            cp[f"{section}.{name}"] = sec
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def ensemble_from_config(source, section: str = "ensemble") -> EnsembleSpec:
    """Parse an EnsembleSpec from config text or a ConfigParser.

    Layout: section [ensemble] with keys mode and seed (seed is mandatory),
    plus one sub-section per field, e.g.

        [ensemble]
        mode = iid
        seed = 7
        [ensemble.xi]
        kind = log_uniform
        a = 0.0
        b = 1.0

    Periodic mode instead uses [ensemble.table] with rows "rowK = xi eta q".
    """
    if isinstance(source, configparser.ConfigParser):
        cp = source
    else:
        cp = configparser.ConfigParser()
        cp.read_string(source)
    if section not in cp:
        raise ValidationError(f"missing [{section}] section")
    base = cp[section]
    if "seed" not in base:
        raise ValidationError("ensemble config must declare a seed")
    mode = base.get("mode", "iid")
    seed = int(base["seed"])
    raw = base.getboolean("raw", fallback=False)
    if mode == "periodic":
        tsec = f"{section}.table"
        if tsec not in cp:
            raise ValidationError("periodic mode requires an [ensemble.table] section")
        rows = []
        for i in range(len(cp[tsec])):
            key = f"row{i}"
            if key not in cp[tsec]:
                raise ValidationError(f"periodic table rows must be row0..rowK-1, missing {key}")
            rows.append(tuple(float(tok) for tok in cp[tsec][key].split()))
        return EnsembleSpec.periodic(rows, seed=seed)
    dists = {}
    for name in ("xi", "eta", "q"):
        dsec = f"{section}.{name}"
        if dsec not in cp:
            raise ValidationError(f"missing [{dsec}] section")
        kind = cp[dsec].get("kind")
        if kind not in _KINDS:
            raise ValidationError(f"[{dsec}] has unknown kind {kind!r}")
        try:
            params = tuple(float(cp[dsec][p]) for p in _PARAM_NAMES[kind])
        except KeyError as exc:
            raise ValidationError(f"[{dsec}] missing parameter {exc.args[0]!r} for kind {kind}") from exc
        dists[name] = DistributionSpec(kind, params)
    return EnsembleSpec(dists["xi"], dists["eta"], dists["q"], mode=mode, seed=seed, raw=raw)


def spec_hash(spec: EnsembleSpec) -> str:
    """Stable short hash of the full specification (used to tag artifacts)."""
    return hashlib.sha256(ensemble_to_config(spec).encode()).hexdigest()[:16]
