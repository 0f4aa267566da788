import concurrent.futures
import configparser
import hashlib
import math
import threading

import numpy as np
import pytest

from tricurves import (
    DistributionSpec,
    EnsembleSpec,
    ValidationError,
    analytic_means,
    mean_log_coupling,
    sample,
)
from tricurves.ensembles import _uniform_words, ensemble_from_config, ensemble_to_config, realization, spec_hash


def iid_spec(seed=0, xi=None, eta=None, q=None):
    return EnsembleSpec(
        xi or DistributionSpec("log_uniform", (0, 1)),
        eta or DistributionSpec("log_uniform", (0.5, 1.5)),
        q or DistributionSpec("uniform", (0, 1)),
        seed=seed,
    )


# -- validation ----------------------------------------------------------------

def test_invalid_parameters_name_the_field():
    with pytest.raises(ValidationError, match="a < b"):
        DistributionSpec("uniform", (2.0, 1.0))
    with pytest.raises(ValidationError, match="prob"):
        DistributionSpec("two_point", (0, 1, 1.5))
    with pytest.raises(ValidationError, match="sd"):
        DistributionSpec("gaussian", (0.0, -1.0))
    with pytest.raises(ValidationError, match="b > a >= 0"):
        DistributionSpec("log_uniform", (-0.5, 1.0))
    with pytest.raises(ValidationError, match="seed"):
        iid_spec(seed=-3)
    with pytest.raises(ValidationError, match="mode = iid with kind = constant marginals"):
        EnsembleSpec(*[DistributionSpec("constant", (0.0,))] * 3, mode="constant")


def test_a_seed_is_bounded_so_that_every_philox_key_fits():
    from tricurves.verify import _rng

    top = iid_spec(seed=2**120 - 1)
    realization(top, 4, 0)  # the largest seed still draws, here and in verify
    _rng(top.seed, 2)
    with pytest.raises(ValidationError, match="seed"):
        realization(top, 4, 1)
    with pytest.raises(ValidationError, match="seed"):
        iid_spec(seed=2**120)


def test_cauchy_admitted_only_for_q():
    spec = iid_spec(q=DistributionSpec("cauchy", (0.0, 1.0)))
    spec.require_light_tails("op")  # q may be heavy tailed
    bad = EnsembleSpec(
        DistributionSpec("cauchy", (0.0, 1.0)),
        DistributionSpec("constant", (0.0,)),
        DistributionSpec("constant", (0.0,)),
        seed=1,
    )
    with pytest.raises(ValidationError, match="heavy tailed"):
        bad.require_light_tails("op")
    with pytest.raises(ValidationError, match="no finite mean"):
        DistributionSpec("cauchy", (0.0, 1.0)).mean


# -- sampling ------------------------------------------------------------------

def test_constant_spec_all_zero():
    seq = sample(EnsembleSpec(*[DistributionSpec("constant", (0.0,))] * 3, seed=5), 4)
    for arr in (seq.xi, seq.eta, seq.q):
        assert arr.shape == (5,)
        assert np.all(arr == 0.0)


def test_same_seed_bit_identical():
    spec = iid_spec(seed=99)
    a = sample(spec, 201)
    b = sample(spec, 201)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.q, b.q)


def test_different_seeds_differ():
    a = sample(iid_spec(seed=1), 50)
    b = sample(iid_spec(seed=2), 50)
    assert not np.array_equal(a.q, b.q)


def test_uniform_mean_sanity_bound():
    # mean of 202 Uni[0,1] draws within 3 sigma = 3/sqrt(12*202) of 1/2
    seq = sample(iid_spec(seed=12345), 201)
    sigma = 1.0 / math.sqrt(12.0 * 202)
    assert abs(np.mean(seq.q) - 0.5) < 3.0 * sigma


def philox_uniforms(key: int, start: int, count: int) -> np.ndarray:
    """Oracle: words [start, start + count) of the Philox stream with this
    key, as uniforms in [0, 1); the counter advances in 4-word blocks."""
    bg = np.random.Philox(key=key)
    block, rem = divmod(start, 4)
    bg.advance(block)
    return (bg.random_raw(count + rem)[rem:] >> np.uint64(11)) * (2.0**-53)


def test_range_sampling_matches_full_pass():
    # value k of a field is a pure function of (seed, field, k): any index
    # range drawn on its own from the field's stream (key 4 seed + field)
    # matches the full pass, and a smaller sample is its prefix
    spec = iid_spec(seed=31)
    full = sample(spec, 1000)
    for field, (name, dist) in enumerate((("xi", spec.xi), ("eta", spec.eta), ("q", spec.q))):
        part = dist.from_uniform(philox_uniforms(4 * 31 + field, 401, 299))
        assert np.array_equal(part, getattr(full, name)[401:700])
    prefix = sample(spec, 699)
    for name in ("xi", "eta", "q"):
        assert np.array_equal(getattr(prefix, name), getattr(full, name)[:700])


UNIFORM_KEYS = (0, 5, 2**63 + 7, 2**64 + 5, 2**70 + 3)


def fresh_uniforms(key: int, count: int) -> np.ndarray:
    """Oracle: the first count words of a fresh Philox(key=key), as uniforms."""
    return (np.random.Philox(key=key).random_raw(count) >> np.uint64(11)) * (2.0**-53)


def test_uniform_words_equal_a_fresh_generator():
    # the thread's re-keyed generator gives a fresh generator's words,
    # for keys with and without a high 64-bit word and counts that end
    # inside and at the end of a 4-word counter block
    for key in UNIFORM_KEYS:
        for count in (1, 4, 5, 61, 40_001):
            assert np.array_equal(_uniform_words(key, count), fresh_uniforms(key, count)), (key, count)


def test_uniform_words_on_two_threads_at_once():
    # each thread re-keys its own generator: two threads drawing
    # different keys at the same time each get the oracle's words
    oracle = {key: fresh_uniforms(key, 61) for key in UNIFORM_KEYS}
    start = threading.Barrier(2)

    def draw(keys):
        start.wait()
        return all(np.array_equal(_uniform_words(key, 61), oracle[key]) for _ in range(200) for key in keys)

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(draw, (UNIFORM_KEYS[:3], UNIFORM_KEYS[2:][::-1])))
    assert results == [True, True]


def test_realizations_construct_one_generator_per_thread(monkeypatch):
    # 120 realizations of three sampled fields draw 360 streams; each
    # thread constructs at most one generator for them, and the draws on
    # worker threads equal those on the calling thread
    made = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        made.append(threading.get_ident())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    spec = iid_spec(seed=40)
    serial = [realization(spec, 60, r) for r in range(120)]
    assert len(made) <= 1
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        pooled = list(pool.map(lambda r: realization(spec, 60, r), range(120)))
    assert len(made) == len(set(made)) <= 3
    for a, b in zip(serial, pooled):
        assert all(np.array_equal(getattr(a, name), getattr(b, name)) for name in ("xi", "eta", "q"))


def test_periodic_mode_tiles_table():
    table = [(0.0, 1.0, -1.0), (0.5, -0.5, 2.0)]
    seq = sample(EnsembleSpec.periodic(table, seed=0), 5)
    assert np.allclose(seq.xi, [0.0, 0.5, 0.0, 0.5, 0.0, 0.5])
    assert np.allclose(seq.eta, [1.0, -0.5, 1.0, -0.5, 1.0, -0.5])
    assert np.allclose(seq.q, [-1.0, 2.0, -1.0, 2.0, -1.0, 2.0])
    e_xi, e_eta = analytic_means(EnsembleSpec.periodic(table))
    assert e_xi == pytest.approx(0.25)
    assert e_eta == pytest.approx(0.25)


def test_raw_mode_samples_entries_directly():
    spec = EnsembleSpec(
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (0, 1)),
        seed=4,
        raw=True,
    )
    seq = sample(spec, 30)
    assert seq.raw
    assert seq.xi is None
    assert np.all(np.abs(seq.sub_entries()) <= 0.5)
    assert np.any(seq.sub_entries() > 0)  # signs really are free


def test_log_uniform_never_minus_inf():
    # force the u = 0 word through the clamp
    d = DistributionSpec("log_uniform", (0.0, 1.0))
    vals = d.from_uniform(np.array([0.0, 0.5, 1.0 - 2**-53]))
    assert np.all(np.isfinite(vals))
    assert vals[0] == math.log(np.finfo(float).tiny)


def test_gaussian_sampling_moments():
    spec = iid_spec(seed=8, xi=DistributionSpec("gaussian", (2.0, 0.5)))
    seq = sample(spec, 100_000)
    assert np.mean(seq.xi) == pytest.approx(2.0, abs=0.02)
    assert np.std(seq.xi) == pytest.approx(0.5, abs=0.02)


def test_two_point_sampling_frequencies():
    spec = iid_spec(seed=8, q=DistributionSpec("two_point", (0.0, 1.0, 0.25)))
    seq = sample(spec, 100_000)
    assert set(np.unique(seq.q)) == {0.0, 1.0}
    assert np.mean(seq.q == 0.0) == pytest.approx(0.25, abs=0.01)


_PIN_U = np.array([0.0, 2.0**-53, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 2.0**-53])


@pytest.mark.parametrize(
    "kind, params, digest, mean",
    [
        ("constant", (0.3,), "0ad39b2b680e20169833cee4e9fe6593140a8f9f132435b8acf760425e6be265", "0.3"),
        ("uniform", (-0.3, 1.7), "91b0fa934b6fe70236a95bc9e78be1dfba67ec024ef56bbdfd5d6f77b7ff8693", "0.7"),
        ("two_point", (0.1, 1.5, 0.3), "379761a7e5a4dcda170afe73f3b2f21fbf31eeb5416de70886f55b9bf0a691f5",
         "1.0799999999999998"),
        ("gaussian", (0.8, 1.3), "78f186df7e3b0695fd4ac281ca556446f62ef1326711372cca2a769ff9b1e74c", "0.8"),
        ("cauchy", (0.1, 0.2), "f2d05bb0dddb1c8598ed519ac29f1165e4722af74b3e9f5b2373d720cb44a90c", None),
        ("log_uniform", (0.0, 1.0), "ac0d801dcc7774c11f26fe5ef0747bf7ca5327e39de2510ee8143ab4ca5b04a2", "-1.0"),
        ("log_uniform", (0.5, 1.5), "40eb113f4d6e59fdcb0ceb8993f036bb206632eed990a089c08301802a1c8eda",
         "-0.045228747557780835"),
    ],
)
def test_every_kind_pins_its_values_and_mean(kind, params, digest, mean):
    # exact bytes of the inverse CDF on uniforms that include both ends of
    # [0, 1), and the exact mean (None: E|X| is infinite); pinned on a
    # little-endian machine with numpy 2.4 / scipy 1.17
    d = DistributionSpec(kind, params)
    assert hashlib.sha256(d.from_uniform(_PIN_U).tobytes()).hexdigest() == digest
    assert d.heavy_tailed == (mean is None)
    if mean is None:
        with pytest.raises(ValidationError, match="no finite mean"):
            d.mean
    else:
        assert repr(d.mean) == mean


# -- means ---------------------------------------------------------------------

def test_log_uniform_mean_matches_integral():
    # E log u over Uni[0,1] is -1; Monte Carlo at n=1e5 within 0.02
    d = DistributionSpec("log_uniform", (0, 1))
    assert d.mean == pytest.approx(-1.0)
    seq = sample(iid_spec(seed=3, xi=d), 100_000)
    assert np.mean(seq.xi[:-1]) == pytest.approx(-1.0, abs=0.02)


def test_mean_log_coupling():
    spec = iid_spec()
    e_xi, e_eta = analytic_means(spec)
    assert mean_log_coupling(spec) == pytest.approx(0.5 * (e_xi + e_eta))


def test_stationarity_proxy_halves_agree():
    spec = iid_spec(seed=21)
    seq = sample(spec, 100_000)
    half = 50_000
    for arr, var in ((seq.xi, 1.0), (seq.q, 1.0 / 12.0)):
        sigma = math.sqrt(var / half)
        assert abs(np.mean(arr[:half]) - np.mean(arr[half : 2 * half])) < 4.0 * math.sqrt(2.0) * sigma


# -- config round trip -----------------------------------------------------------

def test_config_round_trip_iid():
    spec = iid_spec(seed=42)
    text = ensemble_to_config(spec)
    again = ensemble_from_config(text)
    assert again == spec
    assert spec_hash(again) == spec_hash(spec)


def test_config_round_trip_periodic_and_raw():
    per = EnsembleSpec.periodic([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)], seed=9)
    assert ensemble_from_config(ensemble_to_config(per)) == per
    raw = EnsembleSpec(
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (0, 1)),
        seed=4,
        raw=True,
    )
    assert ensemble_from_config(ensemble_to_config(raw)) == raw


def test_config_requires_seed():
    spec = iid_spec(seed=42)
    cp = configparser.ConfigParser()
    cp.read_string(ensemble_to_config(spec))
    del cp["ensemble"]["seed"]
    with pytest.raises(ValidationError, match="seed"):
        ensemble_from_config(cp)
