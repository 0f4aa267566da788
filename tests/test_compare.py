"""The compare stage's geometry against per-segment and per-eigenvalue
loop oracles: the distance to the curve and the arc-length histogram."""

import dataclasses
import os

import numpy as np
import pytest

from conftest import arc_bins, arc_histogram_error_loop, distance_to_arcs_loop
from tricurves.artifacts import read_table
from tricurves.cli import main
from tricurves.config import load_config
from tricurves.curves import Arc, load_curve_model
from tricurves.pipeline import _arc_histogram_error, distance_to_arcs
from tricurves.spectral import load_ids

# the config of perfbench's clouds workload: Fig. 1b ensemble, n = 300 and
# 900, two reps each, IDS on 1024 grid points
CLOUDS = """
[ensemble]
mode = iid
seed = 2024
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

[run]
sizes = 300 900
reps = 2

[ids]
grid_points = 1024
"""


def _eigenvalues(path):
    _, table = read_table(path, {"re": float, "im": float})
    return table["re"] + 1j * table["im"]


@pytest.fixture(scope="module")
def clouds(tmp_path_factory):
    """(curve model, [(n, eigenvalues)]) of the clouds workload's spectra."""
    out = tmp_path_factory.mktemp("clouds")
    cfg_path = out / "clouds.ini"
    cfg_path.write_text(CLOUDS)
    for stage in ("spectrum", "curve"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out), "--jobs", "2"]) == 0
    model = load_curve_model(out / "curve" / "curve_points.csv", load_ids(out / "ids" / "ids.csv"))
    cfg = load_config(str(cfg_path))
    spectra = [(n, _eigenvalues(os.path.join(out, "spectra", f"spectrum_n{n}_rep{rep}.csv")))
               for n in cfg.sizes for rep in range(cfg.reps)]
    return model, spectra


def assert_matches_loop(points, model):
    d = distance_to_arcs(points, model)
    ref = distance_to_arcs_loop(points, model)
    assert d.shape == ref.shape
    assert np.all(np.abs(d - ref) <= 1e-15 * np.maximum(1.0, ref))
    return d


def test_distance_matches_the_loop_on_the_workload_spectra(clouds):
    model, spectra = clouds
    for _, eigs in spectra:
        nonreal = eigs[np.abs(eigs.imag) > 1e-8]
        assert nonreal.size > 200
        assert_matches_loop(nonreal, model)


@pytest.mark.parametrize("pad", [0.05, 0.5, 3.0, 30.0])
def test_distance_matches_the_loop_around_the_curve(clouds, pad):
    # a box around both sheets: the lower half-plane, points far from the
    # curve and points exactly on the real axis
    model, _ = clouds
    rng = np.random.default_rng(17)
    x_lo = min(arc.a for arc in model.arcs) - pad
    x_hi = max(arc.a_prime for arc in model.arcs) + pad
    y_hi = max(float(arc.y.max()) for arc in model.arcs) + pad
    points = rng.uniform(x_lo, x_hi, 2000) + 1j * rng.uniform(-y_hi, y_hi, 2000)
    points[:200] = points[:200].real
    assert_matches_loop(points, model)


def test_distance_vanishes_on_the_vertices_of_both_sheets(clouds):
    model, _ = clouds
    vertices = np.concatenate([arc.points() for arc in model.arcs])
    d = assert_matches_loop(np.concatenate([vertices, np.conj(vertices)]), model)
    assert np.all(d <= 1e-15)


def test_distance_to_two_arcs_with_a_zero_length_segment(clouds):
    # the second arc repeats a vertex; no RuntimeWarning may be raised
    model, _ = clouds
    first = Arc(x=np.array([0.0, 0.25, 0.5, 1.0]), y=np.array([0.0, 0.3, 0.4, 0.0]), rho=np.ones(4))
    second = Arc(x=np.array([1.5, 1.75, 1.75, 2.0, 2.5]), y=np.array([0.0, 0.2, 0.2, 0.25, 0.0]), rho=np.ones(5))
    two = dataclasses.replace(model, arcs=(first, second))
    rng = np.random.default_rng(3)
    points = rng.uniform(-1.0, 3.5, 3000) + 1j * rng.uniform(-1.0, 1.0, 3000)
    points = np.concatenate([points, first.points(), np.conj(second.points())])
    d = assert_matches_loop(points, two)
    assert np.all(d[-9:] <= 1e-15)


def test_distance_without_arcs_is_to_the_real_axis(clouds):
    model, _ = clouds
    points = np.array([[0.5 + 0.1j, 1.0], [2.0j, -1.0 - 1.0j]])
    d = distance_to_arcs(points, dataclasses.replace(model, arcs=()))
    assert d.shape == (2, 2) and np.array_equal(d, [[0.1, 0.0], [2.0, 1.0]])


def test_distance_keeps_the_shape_of_2d_input(clouds):
    model, spectra = clouds
    eigs = spectra[0][1]
    nonreal = eigs[np.abs(eigs.imag) > 1e-8][:250]
    d = assert_matches_loop(nonreal.reshape(50, 5), model)
    assert d.shape == (50, 5)
    assert np.array_equal(d.ravel(), distance_to_arcs(nonreal, model))


def test_arc_histogram_matches_the_loop(clouds):
    model, spectra = clouds
    for n, eigs in spectra:
        nonreal = eigs[np.abs(eigs.imag) > 1e-8]
        assert _arc_histogram_error(nonreal, model, n) == arc_histogram_error_loop(nonreal, model, n)
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.5, 2.5, 1000) + 1j * rng.uniform(-1.0, 1.0, 1000)
    assert _arc_histogram_error(points, model, 1000) == arc_histogram_error_loop(points, model, 1000)


def test_arc_histogram_tie_goes_to_the_lower_bin(clouds):
    # a flat-topped arc on a dyadic grid: neighbouring centres share their
    # height, so the point above their midpoint is exactly as far from both
    model, _ = clouds
    x = np.arange(65) / 64.0
    y = np.full(65, 0.25)
    y[0] = y[-1] = 0.0
    # a density small enough that the bin holding the point sets the error
    flat = dataclasses.replace(model, arcs=(Arc(x=x, y=y, rho=0.01 * (1.0 + x)),))
    centers, predicted = arc_bins(flat)
    i = next(i for i in range(centers.size - 1) if centers[i].imag == centers[i + 1].imag == 0.25)
    z = 0.5 * (centers[i].real + centers[i + 1].real) + 0.375j
    assert np.abs(z - centers[i]) == np.abs(z - centers[i + 1])
    assert predicted[i] != predicted[i + 1]  # the two assignments give different errors
    error = {name: _arc_histogram_error(np.array([point]), flat, 1)
             for name, point in (("tie", z), ("conj", np.conj(z)), ("lower", z - 1e-9), ("upper", z + 1e-9))}
    for name, point in (("tie", z), ("lower", z - 1e-9), ("upper", z + 1e-9)):
        assert error[name] == arc_histogram_error_loop(np.array([point]), flat, 1)
    assert error["tie"] == error["conj"] == error["lower"] != error["upper"]
