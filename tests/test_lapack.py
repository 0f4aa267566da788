"""The in-place dgeev binding against np.linalg.eigvals, its fallback, and
the failure paths of a dense solve."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tricurves
from tricurves import DistributionSpec, EigenSolveError, EnsembleSpec, NumericalError, build, sample, spectrum
from tricurves import _lapack
from tricurves.ensembles import realization

from conftest import StubLapack, fig1b_mirror_spec, fig1b_spec

needs_binding = pytest.mark.skipif(_lapack._geev() is None, reason="numpy links no LAPACK the binding knows")


def raw_spec(seed=31):
    return EnsembleSpec(
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (-0.5, 0.5)),
        DistributionSpec("uniform", (0, 1)),
        seed=seed,
        raw=True,
    )


BUNDLES = {
    **{f"fig1b n={n}": (fig1b_spec, n) for n in (2, 3, 16, 120, 801)},
    "fig1b mirror (g < 0) n=300": (fig1b_mirror_spec, 300),
    "raw n=120": (raw_spec, 120),
}


def bundle_of(case):
    make_spec, n = BUNDLES[case]
    return build(realization(make_spec(), n, 0))


def assert_same_bits(got, ref):
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


# -- the binding ---------------------------------------------------------------------

@needs_binding
@pytest.mark.parametrize("case", BUNDLES)
def test_in_place_eigenvalues_equal_numpys_bit_for_bit(case):
    bundle = bundle_of(case)
    matrix = bundle.dense()
    assert_same_bits(_lapack.eigvals(matrix), np.linalg.eigvals(bundle.dense()))
    assert not np.array_equal(matrix, bundle.dense())  # solved in place: LAPACK overwrote it


@needs_binding
def test_negative_zero_real_parts_survive_the_result_assembly():
    # numpy's dgeev gives -0.0 + i and -0.0 - i here; wr + 1j * wi would give +0.0
    rotation = np.array([[-0.0, -1.0], [1.0, -0.0]], order="F")
    ref = np.linalg.eigvals(rotation.copy(order="F"))
    got = _lapack.eigvals(rotation)
    assert_same_bits(got, ref)
    assert np.signbit(got.real).all()
    mixed = _lapack._assemble(np.array([-0.0, -0.0, 1.0]), np.array([0.5, -0.5, 0.0]))
    assert mixed.dtype == complex
    assert np.signbit(mixed.real).tolist() == [True, True, False]
    real = _lapack._assemble(np.array([-0.0, 2.0]), np.array([0.0, -0.0]))
    assert real.dtype == np.float64
    assert np.signbit(real).tolist() == [True, False]


@needs_binding
def test_in_place_bits_hold_on_two_blas_threads():
    # two BLAS threads split the blocked kernels differently; the binding
    # must still be the very call numpy makes
    script = (
        "import numpy as np\n"
        "from tricurves import _lapack, build\n"
        "from tricurves.ensembles import realization\n"
        "from conftest import fig1b_spec\n"
        "b = build(realization(fig1b_spec(), 801, 0))\n"
        "got, ref = _lapack.eigvals(b.dense()), np.linalg.eigvals(b.dense())\n"
        "print(_lapack._geev() is not None, got.dtype == ref.dtype and got.tobytes() == ref.tobytes())\n"
    )
    paths = [os.path.dirname(os.path.dirname(tricurves.__file__)), os.path.dirname(__file__)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "True"]


@pytest.mark.parametrize("case", ["fig1b n=801", "fig1b n=120", "fig1b mirror (g < 0) n=300", "raw n=120"])
def test_spectrum_is_unchanged_when_the_lookup_fails(case, monkeypatch):
    bundle = bundle_of(case)
    bound = spectrum(bundle)
    monkeypatch.setattr(_lapack, "_geev", lambda: None)
    fallback = spectrum(bundle)
    assert_same_bits(bound.eigenvalues, fallback.eigenvalues)
    assert (bound.method, repr(bound.residual)) == (fallback.method, repr(fallback.residual))


def test_binding_resolves_where_numpy_links_its_openblas():
    # a numpy upgrade that renames the symbol fails here instead of
    # quietly solving on a copy again
    lapack = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {lapack.get('name')!r}, not its OpenBLAS wheel")
    assert _lapack._geev() is not None


# -- failure paths of the dense solve ----------------------------------------------------

def test_unconverged_qr_raises_with_replay_information(unconverged_lapack):
    bundle = build(sample(fig1b_spec(seed=77), 120))
    with pytest.raises(EigenSolveError, match="Eigenvalues did not converge") as err:
        spectrum(bundle)
    assert (err.value.seed, err.value.n, err.value.detail) == (77, 120, "Eigenvalues did not converge")
    assert "seed=77" in str(err.value)
    assert unconverged_lapack.calls


def test_rejected_argument_is_a_binding_defect_not_a_numerical_failure(monkeypatch):
    StubLapack("binding", monkeypatch, info=-4)
    with pytest.raises(RuntimeError, match="argument 4") as err:
        spectrum(build(sample(fig1b_spec(), 120)))
    assert not isinstance(err.value, NumericalError)


@pytest.mark.parametrize("field, value", [("diag", math.nan), ("sup", math.inf), ("corner_bottom", -math.inf)])
@pytest.mark.parametrize("raw", [False, True])
def test_non_finite_band_raises_before_lapack_runs(field, value, raw, unconverged_lapack):
    # raw-entry bundles skip the closure probe, but not the band check
    bundle = build(sample((raw_spec if raw else fig1b_spec)(seed=78), 40))
    assert bundle.raw is raw
    if field == "corner_bottom":
        bad = value
    else:
        bad = getattr(bundle, field).copy()
        bad[len(bad) // 2] = value
    with pytest.raises(EigenSolveError, match="NaN or inf on the band") as err:
        spectrum(dataclasses.replace(bundle, **{field: bad}))
    assert (err.value.seed, err.value.n) == (78, 40)
    assert unconverged_lapack.calls == []
