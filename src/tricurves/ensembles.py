"""Coefficient ensembles and seeded realizations of the triple sequence.

A realization is the sequence of triples (xi_k, eta_k, q_k), k = 0..n,
from which the matrix family is built: sub-diagonal entries -exp(xi_k),
super-diagonal entries -exp(eta_k), diagonal entries q_k.  A raw-entry
mode samples the sub/super/diagonal entries directly with free signs; it
exists for mixed-sign demonstrations and supports only the dense
eigensolver (no symmetrization, no curve theory).

Distribution kinds
------------------
The limit curves see the coefficient law only through E xi, E eta and the
reference density of states, so a kind is one row of ``_KINDS`` (parameter
names, domain, inverse CDF, mean), and a new disorder law is one new row.

Random number generation
------------------------
Sampling uses the Philox4x64 counter-based generator (numpy.random.Philox)
with one stream per field: stream key = 4 * seed + field index, where the
field indices are xi -> 0, eta -> 1, q -> 2 (same slots for sub/sup/diag
in raw mode).  The value at index k is inverse-CDF(u_k) where u_k is built
from the k-th 64-bit word of the stream (u = (word >> 11) * 2**-53).
Values are therefore pure functions of (seed, field, k): a sample of
size n is the first n + 1 values of any larger one.  Realization r of an
ensemble is its sample at seed + r (``realization``); every stage and
check draws through that rule.  Seeds lie in [0, 2**120), so that every
Philox key the package forms fits in 128 bits.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError

__all__ = [
    "DistributionSpec",
    "EnsembleSpec",
    "CoefficientSequence",
    "sample",
    "realization",
    "analytic_means",
    "mean_log_coupling",
    "ensemble_to_config",
    "ensemble_from_config",
    "spec_hash",
]


@dataclass(frozen=True)
class _Kind:
    """One distribution kind; its callables take the parameters in order."""

    names: tuple  # parameter names, in storage order
    domain: Callable[..., bool]
    domain_text: str  # the domain condition, as its error shows it
    inverse_cdf: Callable[..., np.ndarray]  # of uniforms in [0, 1)
    mean: Optional[Callable[..., float]]  # None when E|X| is infinite


def _gaussian_inverse_cdf(u, mean, sd):
    from scipy.special import ndtri

    # ndtri(0) = -inf only from the probability-2^-53 word 0: nudge it inward
    return mean + sd * ndtri(np.maximum(u, 2.0**-54))


def _log_uniform_mean(a, b):
    # E log u, u ~ Uni[a,b]: (b log b - a log a)/(b - a) - 1.
    alog = 0.0 if a == 0.0 else a * math.log(a)
    return (b * math.log(b) - alog) / (b - a) - 1.0


# the tightest Philox key is verify's (seed << 8) + stream
_SEED_LIMIT = 2**120

_KINDS = {
    "constant": _Kind(("value",), lambda value: True, "any value",
                      lambda u, value: np.full_like(u, value), lambda value: value),
    "uniform": _Kind(("a", "b"), lambda a, b: a < b, "a < b",
                     lambda u, a, b: a + (b - a) * u, lambda a, b: 0.5 * (a + b)),
    # value v1 with probability prob, else v2
    "two_point": _Kind(("v1", "v2", "prob"), lambda v1, v2, prob: 0.0 <= prob <= 1.0, "0 <= prob <= 1",
                       lambda u, v1, v2, prob: np.where(u < prob, v1, v2),
                       lambda v1, v2, prob: prob * v1 + (1.0 - prob) * v2),
    "gaussian": _Kind(("mean", "sd"), lambda mean, sd: sd >= 0.0, "sd >= 0",
                      _gaussian_inverse_cdf, lambda mean, sd: mean),
    # admissible for the diagonal field (which only needs a finite
    # E log(1+|q|)) but rejected for xi/eta
    "cauchy": _Kind(("loc", "scale"), lambda loc, scale: scale > 0.0, "scale > 0",
                    lambda u, loc, scale: loc + scale * np.tan(np.pi * (u - 0.5)), None),
    # log(u), u ~ Uni[a, b]: Uni[a, b] entries in the symmetrization's log
    # coordinates.  A draw u = 0 (probability zero, only for a = 0) is
    # clamped to the smallest positive normal double, so no -inf appears.
    "log_uniform": _Kind(("a", "b"), lambda a, b: 0.0 <= a < b, "b > a >= 0",
                         lambda u, a, b: np.log(np.maximum(a + (b - a) * u, np.finfo(float).tiny)),
                         _log_uniform_mean),
}


@dataclass(frozen=True)
class DistributionSpec:
    """One marginal distribution: a kind (the key of a ``_KINDS`` row) and
    its parameters, in that row's order."""

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        row = _KINDS[self.kind]
        if len(self.params) != len(row.names):
            raise ValidationError(f"{self.kind} takes parameters {row.names}, got {len(self.params)} values")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        for name, p in zip(row.names, self.params):
            if not math.isfinite(p):
                raise ValidationError(f"{self.kind} parameter {name} must be finite, got {p}")
        if not row.domain(*self.params):
            raise ValidationError(f"{self.kind} requires {row.domain_text}, got {dict(zip(row.names, self.params))}")

    @property
    def heavy_tailed(self) -> bool:
        """True when E|X| is infinite."""
        return _KINDS[self.kind].mean is None

    @property
    def mean(self) -> float:
        mean = _KINDS[self.kind].mean
        if mean is None:
            raise ValidationError(f"{self.kind} distribution has no finite mean")
        return mean(*self.params)

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniforms in [0, 1)."""
        return _KINDS[self.kind].inverse_cdf(u, *self.params)

    def label(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in zip(_KINDS[self.kind].names, self.params))
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class EnsembleSpec:
    """Full sampling specification for the triple sequence.

    mode "iid" draws independent triples from the three marginals (fixed
    values: constant-kind marginals); "periodic" repeats the fixed table of
    (xi, eta, q) triples and ignores the marginals.  raw=True switches the
    fields to direct sub-/super-/diagonal entries (signs free), as in
    ``EnsembleSpec(sub, sup, diag, seed=s, raw=True)``.
    """

    xi: Optional[DistributionSpec]
    eta: Optional[DistributionSpec]
    q: Optional[DistributionSpec]
    mode: str = "iid"
    seed: int = 0
    table: Optional[tuple] = None  # periodic mode: tuple of (xi, eta, q) triples
    raw: bool = False

    def __post_init__(self):
        if self.mode not in ("iid", "periodic"):
            raise ValidationError(
                f"unknown ensemble mode {self.mode!r}; the modes are iid and periodic "
                "(for fixed values use mode = iid with kind = constant marginals)"
            )
        if self.seed is None or not 0 <= int(self.seed) < _SEED_LIMIT:
            raise ValidationError(f"seed must be an integer in [0, 2**120), got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.mode == "periodic":
            if self.raw:
                raise ValidationError("periodic mode does not support raw entries")
            if not self.table:
                raise ValidationError("periodic mode requires a nonempty table")
            tab = tuple(tuple(float(v) for v in row) for row in self.table)
            if any(len(row) != 3 for row in tab):
                raise ValidationError("periodic table rows must be (xi, eta, q) triples")
            for i, row in enumerate(tab):
                if not all(map(math.isfinite, row)):
                    raise ValidationError(f"periodic table row{i} must be finite, got {row}")
            object.__setattr__(self, "table", tab)
        else:
            for name in ("xi", "eta", "q"):
                if getattr(self, name) is None:
                    raise ValidationError(f"{self.mode} mode requires distribution {name!r}")

    @staticmethod
    def periodic(table, seed: int = 0) -> "EnsembleSpec":
        return EnsembleSpec(None, None, None, mode="periodic", seed=seed, table=tuple(table))

    def require_light_tails(self, operation: str) -> None:
        if self.raw:
            raise ValidationError(
                f"{operation} requires log-coordinate ensembles; raw-entry mode supports only the dense spectrum"
            )
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


# One Philox generator per thread, re-keyed for every draw: constructing
# one pulls fresh OS entropy, which costs several times a reset.  Per
# thread, because the spectrum pool draws realizations on worker threads.
_PHILOX = threading.local()


def _uniform_words(key: int, count: int) -> np.ndarray:
    """The first count words of the Philox stream, as uniforms in [0,1).

    The thread's generator is reset to the state of Philox(key=key): the
    key split into 64-bit words [key mod 2^64, key >> 64], a zero counter
    and an empty buffer."""
    bg = getattr(_PHILOX, "generator", None)
    if bg is None:
        bg = _PHILOX.generator = np.random.Philox(key=key)
    high, low = divmod(key, 1 << 64)
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": np.array([low, high], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    raw = bg.random_raw(count)
    return (raw >> np.uint64(11)) * (2.0**-53)


def sample(spec: EnsembleSpec, n: int) -> CoefficientSequence:
    """Seeded realization of the triple sequence for matrix size n, indices
    0..n.

    Deterministic in (spec, n): identical inputs give bit-identical arrays,
    and each value depends only on (seed, field, k), so a smaller sample
    is a prefix of a larger one.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    count = n + 1
    fields = {}
    if spec.mode == "periodic":
        tab = np.asarray(spec.table)
        idx = np.arange(count) % len(spec.table)
        for j, name in enumerate(("xi", "eta", "q")):
            fields[name] = tab[idx, j].copy()
    else:
        names = ("sub", "sup", "diag") if spec.raw else ("xi", "eta", "q")
        for field, name in enumerate(names):
            dist = (spec.xi, spec.eta, spec.q)[field]
            if dist.kind == "constant":
                fields[name] = np.full(count, dist.params[0])
            else:
                fields[name] = dist.from_uniform(_uniform_words(4 * spec.seed + field, count))
    return CoefficientSequence(n=n, spec=spec, **fields)


def realization(spec: EnsembleSpec, n: int, r: int) -> CoefficientSequence:
    """Realization r of size n: the sample at seed spec.seed + r."""
    return sample(replace(spec, seed=spec.seed + r), n)


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

def ensemble_to_config(spec: EnsembleSpec) -> str:
    """Serialize to the key-value config format (see ensemble_from_config)."""
    cp = configparser.ConfigParser()
    cp["ensemble"] = {"mode": spec.mode, "seed": str(spec.seed)}
    if spec.raw:
        cp["ensemble"]["raw"] = "true"
    if spec.mode == "periodic":
        cp["ensemble.table"] = {
            f"row{i}": " ".join(f"{v!r}" for v in row) for i, row in enumerate(spec.table)
        }
    else:
        for name in ("xi", "eta", "q"):
            dist = getattr(spec, name)
            params = {p: f"{v!r}" for p, v in zip(_KINDS[dist.kind].names, dist.params)}
            cp[f"ensemble.{name}"] = {"kind": dist.kind, **params}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def ensemble_from_config(source) -> EnsembleSpec:
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
    if "ensemble" not in cp:
        raise ValidationError("missing [ensemble] section")
    base = cp["ensemble"]
    if "seed" not in base:
        raise ValidationError("ensemble config must declare a seed")
    mode = base.get("mode", "iid")
    seed = int(base["seed"])
    raw = base.getboolean("raw", fallback=False)
    if mode == "periodic":
        tsec = "ensemble.table"
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
        dsec = f"ensemble.{name}"
        if dsec not in cp:
            raise ValidationError(f"missing [{dsec}] section")
        kind = cp[dsec].get("kind")
        if kind not in _KINDS:
            raise ValidationError(f"[{dsec}] has unknown kind {kind!r}")
        try:
            params = tuple(float(cp[dsec][p]) for p in _KINDS[kind].names)
        except KeyError as exc:
            raise ValidationError(f"[{dsec}] missing parameter {exc.args[0]!r} for kind {kind}") from exc
        dists[name] = DistributionSpec(kind, params)
    return EnsembleSpec(dists["xi"], dists["eta"], dists["q"], mode=mode, seed=seed, raw=raw)


def spec_hash(spec: EnsembleSpec) -> str:
    """Stable short hash of the full specification (used to tag artifacts)."""
    return hashlib.sha256(ensemble_to_config(spec).encode()).hexdigest()[:16]
