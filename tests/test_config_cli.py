import configparser
import dataclasses
import os
import re
import shutil
import sys
import types

import numpy as np
import pytest

from tricurves import artifacts, pipeline, plot, verify
from tricurves.cli import main
from tricurves.config import ExperimentConfig, RunManifest, config_hash, config_to_text, load_config
from tricurves.ensembles import DistributionSpec, EnsembleSpec, mean_log_coupling
from tricurves.curves import Arc, CurveModel, load_curve_model, save_curve_model
from tricurves.errors import ValidationError
from tricurves.spectral import IdsEstimate, load_ids, lyapunov_thouless, save_ids

from conftest import StubLapack

BASE = """
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
sizes = 64 96
reps = 2

[ids]
n = 400
reps = 2
grid_points = 512
"""

# deterministic constant-coefficient ensemble: every stage is noise-free
VERIFY_CFG = """
[ensemble]
mode = iid
seed = 7
[ensemble.xi]
kind = constant
value = -0.5
[ensemble.eta]
kind = constant
value = 0.5
[ensemble.q]
kind = constant
value = 0.3

[run]
sizes = 96
reps = 1

[ids]
n = 3000
reps = 2
grid_points = 1024

[verify]
thouless_n = 50000
thouless_reps = 2
thouless_tol = 0.01
exclusion_n = 400
exclusion_reps = 2
panel_sizes = 150 300 600
thouless_points = 1+1i -0.5+0.75i 2-0.5i
"""

# small enough for the whole battery, with the fig1b-style ensemble of BASE
SMALL_VERIFY = (
    BASE.replace("sizes = 64 96", "sizes = 201")
    + "\n[verify]\nthouless_n = 5000\nthouless_reps = 2\nthouless_points = 1+1i 2-0.5i\n"
    "exclusion_n = 101\nexclusion_reps = 1\npanel_sizes = 50 200\npanel_reps = 2\n"
)


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config ------------------------------------------------------------------------

def test_load_config_defaults_and_round_trip(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert cfg.sizes == (64, 96)
    assert cfg.reps == 2
    assert cfg.ids_n == 400
    assert cfg.curve_tol == 1e-6  # default
    again = load_config(write_cfg(tmp_path, config_to_text(cfg), name="canonical.ini"))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


# The canonical text of BASE: every artifact header carries its hash, so
# these bytes decide which cached products stay current.
BASE_CANONICAL = """[ensemble]
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
sizes = 64 96
reps = 2
nonreal_tol = 1e-06

[ids]
n = 400
reps = 2
grid_points = 512

[curve]
x_points = 800
curve_tol = 1e-06
mass_tol = 0.02

[verify]
rect_margin = 0.1
exclusion_n = 2001
exclusion_reps = 5
thouless_n = 100000
thouless_reps = 8
thouless_tol = 0.02
thouless_points = (1+1j) (-0.5+0.75j) (2-0.5j) (0.25+1.5j) (-1-1j) (3+2j)
panel_sizes = 500 1000 2000
panel_reps = 8

[compare]
hausdorff_budget = 0.15

"""


def test_canonical_text_and_hash_are_pinned(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert config_to_text(cfg) == BASE_CANONICAL
    assert config_hash(cfg) == "abaef14c279affa5"
    # every field but the ensemble has a key, so the text and the hash cover it
    assert [f.name for f in dataclasses.fields(ExperimentConfig) if not f.metadata] == ["ensemble"]


# one non-default value for every key of the schema, (file text, loaded value);
# a schema field missing here fails its case below
NON_DEFAULTS = {
    ("run", "sizes"): ("50 70", (50, 70)),
    ("run", "reps"): ("3", 3),
    ("run", "nonreal_tol"): ("2e-6", 2e-6),
    ("ids", "n"): ("500", 500),
    ("ids", "reps"): ("3", 3),
    ("ids", "grid_points"): ("100", 100),
    ("curve", "x_points"): ("300", 300),
    ("curve", "curve_tol"): ("3e-7", 3e-7),
    ("curve", "mass_tol"): ("0.05", 0.05),
    ("verify", "rect_margin"): ("0.2", 0.2),
    ("verify", "exclusion_n"): ("11", 11),
    ("verify", "exclusion_reps"): ("3", 3),
    ("verify", "thouless_n"): ("99", 99),
    ("verify", "thouless_reps"): ("3", 3),
    ("verify", "thouless_tol"): ("0.5", 0.5),
    ("verify", "thouless_points"): ("1+2i 3-1i (2+0j) 1", (1 + 2j, 3 - 1j, 2 + 0j, 1 + 0j)),
    ("verify", "panel_sizes"): ("10 20", (10, 20)),
    ("verify", "panel_reps"): ("2", 2),
    ("compare", "hausdorff_budget"): ("0.3", 0.3),
}
SCHEMA = [f for f in dataclasses.fields(ExperimentConfig) if f.metadata]


@pytest.mark.parametrize("f", SCHEMA, ids=[f.name for f in SCHEMA])
def test_every_key_is_read_and_hashed(tmp_path, f):
    section, key = f.metadata["at"]
    text, value = NON_DEFAULTS[section, key]
    cp = configparser.ConfigParser()
    cp.read_string(VERIFY_CFG)
    if section not in cp:
        cp.add_section(section)
    cp[section][key] = text
    with open(tmp_path / "edited.ini", "w") as fh:
        cp.write(fh)
    plain = load_config(write_cfg(tmp_path, VERIFY_CFG))
    edited = load_config(str(tmp_path / "edited.ini"))
    assert getattr(plain, f.name) != value
    assert edited == dataclasses.replace(plain, **{f.name: value})
    assert config_hash(edited) != config_hash(plain)


def test_config_validation():
    spec = EnsembleSpec(*[DistributionSpec("constant", (0.0,))] * 3, seed=1)
    with pytest.raises(ValidationError, match="ascending"):
        ExperimentConfig(ensemble=spec, sizes=(100, 50))
    with pytest.raises(ValidationError, match="positive"):
        ExperimentConfig(ensemble=spec, mass_tol=-1.0)
    with pytest.raises(ValidationError, match=">= 1"):
        ExperimentConfig(ensemble=spec, reps=0)
    with pytest.raises(ValidationError, match="panel_sizes must be ascending"):
        ExperimentConfig(ensemble=spec, panel_sizes=(1000, 500))
    with pytest.raises(ValidationError, match="thouless_points must be a nonempty list"):
        ExperimentConfig(ensemble=spec, thouless_points=())


def test_seed_override_changes_hash(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert config_hash(cfg.with_seed(999)) != config_hash(cfg)


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("grid_points = 512", "gridpoints = 64"),  # misspelt key
        lambda text: text + "\n[verify]\npanel_bumps = 12\n",  # a field that no longer exists
        lambda text: text + "\n[rnu]\nreps = 3\n",  # stray section
        lambda text: text.replace("reps = 2", "reps = two", 1),  # value of the wrong type
        lambda text: text + "\n[ensemble.xi]\nkind = constant\nvalue = 0.0\n",  # duplicated section
        lambda text: text + "\n[verify]\npanel_sizes = 500\npanel_reps = 0\n",  # no panel realization
        lambda text: text + "\n[verify]\npanel_sizes = 16 500\npanel_reps = 0\n",
        lambda text: text + "\n[verify]\npanel_sizes =\n",  # no panel size
        lambda text: text + "\n[verify]\nthouless_points =\n",  # no Thouless point to check
        lambda text: text + "\n[verify]\npanel_sizes = 500\n",  # a panel with nothing to compare
        lambda text: text + "\n[verify]\npanel_sizes = 200 200\n",  # the error cannot fall
        lambda text: text.replace("sizes = 64 96", "sizes = 300 300"),  # one (n, rep) solved twice
        lambda text: VERIFY_CFG.replace("mode = iid", "mode = constant"),  # a removed mode
    ],
    ids=["unknown-key", "deleted-field", "unknown-section", "bad-value", "duplicate-section",
         "panel-reps-0-one-size", "panel-reps-0-two-sizes", "empty-panel-sizes", "empty-thouless-points",
         "one-panel-size", "repeated-panel-size", "repeated-run-size", "mode-constant"],
)
def test_bad_config_exits_2(tmp_path, capsys, edit):
    cfg_path = write_cfg(tmp_path, edit(BASE))
    with pytest.raises(ValidationError):
        load_config(cfg_path)
    assert main(["ids", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert "validation error" in capsys.readouterr().err


PERIODIC = "[ensemble]\nmode = periodic\nseed = 1\n[ensemble.table]\nrow0 = 0.0 0.5 0.1\nrow1 = 0.0 0.5 {}\n"


@pytest.mark.parametrize("text, key", [
    (BASE.replace("[run]\n", "[run]\nnonreal_tol = nan\n"), "nonreal_tol"),
    (BASE + "\n[compare]\nhausdorff_budget = nan\n", "hausdorff_budget"),
    (BASE + "\n[curve]\ncurve_tol = inf\n", "curve_tol"),
    (BASE + "\n[verify]\nthouless_points = 1+1i nan+1i\n", "thouless_points"),
    (BASE.replace("kind = uniform\na = 0.0\nb = 1.0", "kind = gaussian\nmean = nan\nsd = 1.0"), "mean"),
    (BASE.replace("kind = uniform\na = 0.0\nb = 1.0", "kind = constant\nvalue = -inf"), "value"),
    (PERIODIC.format("nan"), "row1"),
], ids=["nonreal_tol", "hausdorff_budget", "curve_tol", "thouless_points", "gaussian-mean", "constant-value",
        "periodic-row"])
def test_a_non_finite_config_number_exits_2_naming_its_key(tmp_path, capsys, text, key):
    assert main(["sample", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and key in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    out = tmp_path / "run"
    assert main(["sample", "--config", write_cfg(tmp_path, BASE), "--out", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err and not out.exists()


def test_raw_false_is_accepted_and_hashes_like_its_absence(tmp_path):
    plain = load_config(write_cfg(tmp_path, BASE))
    explicit = load_config(write_cfg(tmp_path, BASE.replace("mode = iid", "mode = iid\nraw = false"), name="raw.ini"))
    assert config_hash(explicit) == config_hash(plain)


# -- pipeline stages -----------------------------------------------------------------

def test_sample_and_spectrum_stages(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "run")
    assert main(["sample", "--config", cfg_path, "--out", out]) == 0
    assert main(["spectrum", "--config", cfg_path, "--out", out, "--jobs", "2"]) == 0
    summary = os.path.join(out, "spectra", "summary.csv")
    lines = open(summary).read().splitlines()
    assert lines[0].startswith("# config_hash=")
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 4  # two sizes x two reps
    # fig1b-style ensemble has a visible complex component already at n=96
    assert any(int(r[2]) > 0 for r in rows)
    manifest = RunManifest.read(os.path.join(out, "manifest_spectrum.txt"))
    manifest.validate(out)


def _stamp(path):
    """Changes whenever the file is rewritten (atomic writes replace the inode)."""
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


def test_spectrum_restart_reuses_artifacts(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "run")
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    path = os.path.join(out, "spectra", "spectrum_n64_rep0.csv")
    before = os.path.getmtime(path)
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    assert os.path.getmtime(path) == before  # cached, not rewritten


def test_spectrum_rerun_with_every_spectrum_cached_keeps_the_summary(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "run")
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    summary = os.path.join(out, "spectra", "summary.csv")
    before = _stamp(summary)
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    assert _stamp(summary) == before
    manifest = RunManifest.read(os.path.join(out, "manifest_spectrum.txt"))
    assert set(manifest.walltimes.values()) == {0.0}  # every product reused


def test_curve_rerun_keeps_its_artifacts(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "run")
    assert main(["curve", "--config", cfg_path, "--out", out]) == 0
    paths = [os.path.join(out, "curve", "curve_points.csv")]
    before = [_stamp(p) for p in paths]
    assert main(["curve", "--config", cfg_path, "--out", out]) == 0
    assert [_stamp(p) for p in paths] == before


def test_curve_height_stall_exits_3(tmp_path, capsys):
    # no height reaches a residual of 1e-18 (Phi rounds at about 1e-16)
    cfg_path = write_cfg(tmp_path, BASE + "\n[curve]\nx_points = 400\ncurve_tol = 1e-18\n")
    assert main(["curve", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: curve height solve stalled: worst residual" in err
    assert "(tol 1e-18) after 110 sweeps" in err
    assert not os.path.exists(tmp_path / "run" / "curve" / "curve_points.csv")


def test_curve_stage_deterministic_bytes(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        assert main(["ids", "--config", cfg_path, "--out", out]) == 0
        assert main(["curve", "--config", cfg_path, "--out", out]) == 0
    bytes_a = open(os.path.join(out_a, "curve", "curve_points.csv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "curve", "curve_points.csv"), "rb").read()
    assert bytes_a == bytes_b
    # re-running in place is also byte-stable
    assert main(["curve", "--config", cfg_path, "--out", out_a]) == 0
    assert open(os.path.join(out_a, "curve", "curve_points.csv"), "rb").read() == bytes_a


def test_seed_override_produces_different_spectra(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "run")
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    out2 = str(tmp_path / "run2")
    assert main(["spectrum", "--config", cfg_path, "--out", out2, "--seed-override", "31337"]) == 0
    a = open(os.path.join(out, "spectra", "spectrum_n64_rep0.csv")).read()
    b = open(os.path.join(out2, "spectra", "spectrum_n64_rep0.csv")).read()
    assert a != b


@pytest.mark.parametrize("seed", [2**120, 10**38])  # 10**38 > 2**126 crashed sample too
@pytest.mark.parametrize("where", ["config", "override"])
def test_a_seed_too_large_for_philox_exits_2_naming_it(where, seed, tmp_path, capsys):
    text = BASE.replace("seed = 2024", f"seed = {seed}") if where == "config" else BASE
    argv = ["sample", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "run")]
    if where == "override":
        argv += ["--seed-override", str(seed)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and str(seed) in err


@pytest.mark.parametrize("argv", [
    ["bogus", "--config", "cfg.ini", "--out", "run"],
    ["ids", "--out", "run"],
    ["--config", "cfg.ini", "--out", "run"],
])
def test_an_unknown_command_or_a_missing_argument_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "usage: tricurves" in capsys.readouterr().err


def test_a_stage_builds_the_canonical_config_text_once(tmp_path, monkeypatch):
    from tricurves import config

    cfg_path = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "run")
    builds = []
    real = config.ensemble_to_config
    monkeypatch.setattr(config, "ensemble_to_config", lambda spec: builds.append(spec.seed) or real(spec))
    assert main(["ids", "--config", cfg_path, "--out", out]) == 0
    assert builds == [2024]  # the unknown-key check and the config hash share it
    assert config_hash(load_config(cfg_path).with_seed(5)) != config_hash(load_config(cfg_path))
    builds.clear()
    assert main(["sample", "--config", cfg_path, "--out", out, "--seed-override", "5"]) == 0
    assert builds == [2024, 5]
    assert artifacts.read_header(os.path.join(out, "samples", "coeffs_n64_rep0.csv"))["seed"] == "5"


def test_lyapunov_stage(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        BASE + "\n[verify]\nthouless_n = 5000\nthouless_reps = 2\nthouless_points = 1+1i 2-0.5i\n",
    )
    out = str(tmp_path / "run")
    assert main(["lyapunov", "--config", cfg_path, "--out", out]) == 0
    scan = open(os.path.join(out, "lyapunov", "lyapunov_scan.csv")).read().splitlines()
    header = scan[1].split(",")
    assert header == ["re", "im", "gamma_transfer", "stderr", "gamma_thouless", "real_axis_caveat"]
    rows = [l.split(",") for l in scan[2:]]
    probe = rows[0]
    assert abs(float(probe[2]) - float(probe[4])) < 0.05  # two routes agree loosely here
    axis_rows = [r for r in rows if r[2] == "nan"]
    assert len(axis_rows) == 41 and all(r[5] == "1" for r in axis_rows)


def test_lyapunov_scan_thouless_column_equals_per_point_values(tmp_path):
    # the stage evaluates all points in one call; each value must equal
    # the one-point call bit for bit (probes on and off the real axis)
    cfg_path = write_cfg(
        tmp_path,
        BASE + "\n[verify]\nthouless_n = 200\nthouless_reps = 2\nthouless_points = 1+1i 0.5 2-0.5i\n",
    )
    out = str(tmp_path / "run")
    assert main(["lyapunov", "--config", cfg_path, "--out", out]) == 0
    ids = load_ids(os.path.join(out, "ids", "ids.csv"))
    mlc = mean_log_coupling(load_config(cfg_path).ensemble)
    rows = [l.split(",") for l in open(os.path.join(out, "lyapunov", "lyapunov_scan.csv")).read().splitlines()[2:]]
    assert len(rows) == 3 + 41
    for re_, im, _, _, thouless, _ in rows:
        assert float(thouless) == lyapunov_thouless(ids, mlc, complex(float(re_), float(im)))


def test_compare_stage_and_budget(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.replace("sizes = 64 96", "sizes = 201"))
    out = str(tmp_path / "run")
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    assert main(["ids", "--config", cfg_path, "--out", out]) == 0
    assert main(["curve", "--config", cfg_path, "--out", out]) == 0
    assert main(["compare", "--config", cfg_path, "--out", out]) == 0
    report = open(os.path.join(out, "compare_report.csv")).read().splitlines()
    row = report[2].split(",")
    assert float(row[2]) > 0.10  # non-real fraction
    assert float(row[3]) < 0.15  # hausdorff to curve within budget
    tight = write_cfg(
        tmp_path, BASE.replace("sizes = 64 96", "sizes = 201") + "\n[compare]\nhausdorff_budget = 1e-9\n", name="tight.ini"
    )
    out2 = str(tmp_path / "tight")
    assert main(["spectrum", "--config", tight, "--out", out2]) == 0
    assert main(["compare", "--config", tight, "--out", out2]) == 4
    RunManifest.read(os.path.join(out2, "manifest_compare.txt")).validate(out2)


def test_compare_requires_matching_hash(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.replace("sizes = 64 96", "sizes = 201"))
    out = str(tmp_path / "run")
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    assert main(["curve", "--config", cfg_path, "--out", out]) == 0
    other = write_cfg(tmp_path, BASE.replace("seed = 2024", "seed = 1"), name="other.ini")
    assert main(["compare", "--config", other, "--out", out]) == 2


def test_compare_report_is_deterministic(tmp_path):
    # the same bytes from a cold run and a rerun, and with one or two jobs
    cfg_path = write_cfg(tmp_path, BASE.replace("sizes = 64 96", "sizes = 201"))
    reports = []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}")
        for stage in ("spectrum", "curve", "compare", "compare"):
            assert main([stage, "--config", cfg_path, "--out", out, "--jobs", jobs]) == 0
            if stage == "compare":
                reports.append(open(os.path.join(out, "compare_report.csv"), "rb").read())
    assert reports[0] == reports[1] == reports[2] == reports[3]


class _Pyplot:
    """Stands in for matplotlib.pyplot and its figure and axes (matplotlib
    is no dependency): records the arguments of every ``plot`` call and
    ignores every other call."""

    def __init__(self):
        self.lines = []  # (x, y, style, label)

    def subplots(self):
        return self, self

    def plot(self, x, y, style, **kwargs):
        self.lines.append((np.asarray(x), np.asarray(y), style, kwargs.get("label")))

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


@pytest.fixture
def pyplot(monkeypatch):
    stub = _Pyplot()
    monkeypatch.setitem(sys.modules, "matplotlib", types.SimpleNamespace(pyplot=stub))
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", stub)
    return stub


def test_plot_draws_only_the_current_spectra(tmp_path, pyplot):
    # shrinking the sizes leaves the n = 96 spectra on disk, listed by no
    # manifest; plot must draw only what summary.csv lists
    out = tmp_path / "run"
    small = write_cfg(tmp_path, BASE.replace("sizes = 64 96", "sizes = 64"), name="small.ini")
    for cfg_path in (write_cfg(tmp_path, BASE), small):
        assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "spectra" / "spectrum_n96_rep0.csv").exists()
    current = [out / "spectra" / f"spectrum_n64_rep{rep}.csv" for rep in (0, 1)]
    assert plot.spectrum_paths(str(out)) == [str(path) for path in current]
    plot.main(str(out))
    assert [label for *_, label in pyplot.lines] == [path.stem for path in current]
    _, table = artifacts.read_table(current[1], {"re": float, "im": float})
    assert np.array_equal(pyplot.lines[1][0], table["re"]) and np.array_equal(pyplot.lines[1][1], table["im"])


def test_plot_draws_each_arc_and_its_conjugate_as_separate_lines(tmp_path, pyplot):
    ids = IdsEstimate(grid=np.array([0.0, 3.0]), values=np.array([0.0, 1.0]), n_used=10, realizations_used=1,
                      support=(0.0, 3.0), source_hash="h")
    first = Arc(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 0.4, 0.0]), rho=np.ones(3))
    second = Arc(x=np.array([1.5, 2.0, 2.25, 2.5]), y=np.array([0.0, 0.2, 0.25, 0.0]), rho=np.ones(4))
    model = CurveModel(g=0.5, threshold=0.5, mean_log_c=0.5, arcs=(first, second), real_points=(), sigma=(),
                       ids=ids, curve_tol=1e-6)
    for rel in ("ids", "curve"):
        (tmp_path / rel).mkdir()
    save_ids(ids, tmp_path / "ids" / "ids.csv")
    save_curve_model(model, tmp_path / "curve" / "curve_points.csv")
    plot.main(str(tmp_path))
    # no summary, so no spectrum; one line per arc on each sheet, none
    # joining one arc's end to the next arc's start
    assert [(list(x), list(y), style) for x, y, style, _ in pyplot.lines] == [
        (list(arc.x), list(sign * arc.y), "k-") for arc in (first, second) for sign in (1, -1)]


# plot_template.py as versions before the summary-driven template wrote it
GLOB_PLOT_TEMPLATE = '''"""Plot helper template (not part of the package).

Reads the CSV artifacts written next to this file.  Adapt freely; any
plotting engine works, matplotlib shown.
"""
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

out = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
fig, ax = plt.subplots()
for path in sorted(out.glob("spectra/spectrum_*.csv")):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
    xs = [float(r[0]) for r in rows]
    ys = [float(r[1]) for r in rows]
    ax.plot(xs, ys, ".", ms=2, alpha=0.6, label=path.stem)
curve = out / "curve" / "curve_points.csv"
if curve.exists():
    with open(curve) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
    xs = [float(r[1]) for r in rows]
    ys = [float(r[2]) for r in rows]
    ax.plot(xs, ys, "k-", lw=1)
    ax.plot(xs, [-y for y in ys], "k-", lw=1)
ax.set_xlabel("Re z")
ax.set_ylabel("Im z")
ax.legend(fontsize=6)
fig.savefig(out / "spectrum_plot.png", dpi=160)
print("wrote", out / "spectrum_plot.png")
'''


@pytest.mark.parametrize("stage", ["spectrum", "curve"])
def test_no_stage_writes_a_plot_template(tmp_path, stage):
    # a fresh directory gets none, and a copy left by an earlier version
    # stays as it is
    cfg_path = write_cfg(tmp_path, BASE)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    old.mkdir()
    (old / "plot_template.py").write_bytes(GLOB_PLOT_TEMPLATE.encode())
    for out in (fresh, old):
        assert main([stage, "--config", cfg_path, "--out", str(out)]) == 0
    assert not (fresh / "plot_template.py").exists()
    assert (old / "plot_template.py").read_bytes() == GLOB_PLOT_TEMPLATE.encode()


@pytest.fixture
def solves(monkeypatch):
    """(n, realization) of every dense solve a stage writes, in order."""
    calls = []
    write = pipeline._write_spectrum

    def recorded(run, n, r, *args, **kwargs):
        calls.append((n, r))
        return write(run, n, r, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_write_spectrum", recorded)
    return calls


def test_spectrum_solves_the_largest_n_first(tmp_path, solves):
    cfg_path = write_cfg(tmp_path, BASE.replace("sizes = 64 96", "sizes = 40 90"))
    assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "run"), "--jobs", "1"]) == 0
    assert solves == [(90, 0), (90, 1), (40, 0), (40, 1)]


def test_verify_solves_the_largest_n_first_and_a_shared_key_once(tmp_path, solves):
    # exclusion (200, 0) is also a panel key
    cfg_path = write_cfg(tmp_path, SMALL_VERIFY.replace("exclusion_n = 101", "exclusion_n = 200"))
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "run"), "--jobs", "1"]) == 0
    assert solves == [(200, 0), (200, 7919), (50, 0), (50, 7919)]


def test_spectrum_exits_3_with_replay_information_when_qr_does_not_converge(tmp_path, capsys, unconverged_lapack):
    cfg_path = write_cfg(tmp_path, BASE.replace("sizes = 64 96", "sizes = 801").replace("reps = 2", "reps = 1", 1))
    assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "n=801, seed=2024" in err and "Eigenvalues did not converge" in err
    assert unconverged_lapack.calls


def test_spectrum_does_not_map_a_binding_defect_to_exit_3(tmp_path, monkeypatch):
    StubLapack("binding", monkeypatch, info=-1)
    cfg_path = write_cfg(tmp_path, BASE.replace("sizes = 64 96", "sizes = 801").replace("reps = 2", "reps = 1", 1))
    with pytest.raises(RuntimeError, match="argument 1 has an illegal value"):
        main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "run")])


def test_spectrum_circulant_exact_csv(tmp_path):
    cfg_text = VERIFY_CFG.replace("sizes = 96", "sizes = 4").replace("value = -0.5", "value = 0.0").replace(
        "value = 0.5", "value = 0.0"
    ).replace("value = 0.3", "value = 0.0")
    cfg_path = write_cfg(tmp_path, cfg_text)
    out = str(tmp_path / "run")
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    rows = [
        l.split(",")
        for l in open(os.path.join(out, "spectra", "spectrum_n4_rep0.csv")).read().splitlines()[2:]
    ]
    got = np.sort_complex(np.array([float(r[0]) + 1j * float(r[1]) for r in rows]))
    assert np.allclose(got, [-2.0, 0.0, 0.0, 2.0], atol=1e-10)


def test_verify_command_green_and_red(tmp_path):
    cfg_path = write_cfg(tmp_path, VERIFY_CFG)
    out = str(tmp_path / "run")
    assert main(["verify", "--config", cfg_path, "--out", out, "--jobs", "1"]) == 0
    report = open(os.path.join(out, "verify_report.txt")).read()
    assert "FAIL" not in report
    broken = write_cfg(tmp_path, VERIFY_CFG.replace("thouless_tol = 0.01", "thouless_tol = 1e-9"), name="broken.ini")
    out2 = str(tmp_path / "run2")
    assert main(["verify", "--config", broken, "--out", out2]) == 4


# -- artifacts: reuse rule, manifests, atomic writes ----------------------------------

def test_ids_cache_is_rebuilt_when_the_config_changes(tmp_path):
    small = BASE.replace("n = 400", "n = 200").replace("grid_points = 512", "grid_points = 256")
    out = str(tmp_path / "run")
    path = os.path.join(out, "ids", "ids.csv")
    assert main(["ids", "--config", write_cfg(tmp_path, small, name="small.ini"), "--out", out]) == 0
    cfg_path = write_cfg(tmp_path, BASE)
    assert main(["ids", "--config", cfg_path, "--out", out]) == 0
    ids = load_ids(path)
    assert ids.n_used == 400
    assert ids.grid.size == 512
    RunManifest.read(os.path.join(out, "manifest_ids.txt")).validate(out)
    before = os.stat(path).st_mtime_ns
    assert main(["ids", "--config", cfg_path, "--out", out]) == 0
    assert os.stat(path).st_mtime_ns == before  # same config: reused, not rebuilt


def test_every_manifest_validates(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_VERIFY)
    out = str(tmp_path / "run")
    chain = ("sample", "spectrum", "ids", "lyapunov", "curve", "compare")
    for stage in chain:
        assert main([stage, "--config", cfg_path, "--out", out]) == 0
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    names = sorted(name for name in os.listdir(out) if name.startswith("manifest_"))
    assert names == sorted(f"manifest_{stage}.txt" for stage in chain + ("verify",))
    for name in names:
        RunManifest.read(os.path.join(out, name)).validate(out)


def test_verify_after_curve_loads_the_model_without_tracing(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, SMALL_VERIFY)
    out = str(tmp_path / "run")
    assert main(["curve", "--config", cfg_path, "--out", out]) == 0

    def no_tracing(*args, **kwargs):
        raise AssertionError("verify traced the curve again")

    monkeypatch.setattr(pipeline, "trace_curve", no_tracing)
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0


def test_verify_in_a_fresh_directory_leaves_the_curve_model(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_VERIFY)
    out = str(tmp_path / "run")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    manifest = RunManifest.read(os.path.join(out, "manifest_verify.txt"))
    assert manifest.artifacts["curve_model"] == os.path.join("curve", "curve_points.csv")
    manifest.validate(out)
    # the same model the curve stage writes for this config
    other = str(tmp_path / "curve_only")
    assert main(["curve", "--config", cfg_path, "--out", other]) == 0
    rel = os.path.join("curve", "curve_points.csv")
    with open(os.path.join(out, rel), "rb") as a, open(os.path.join(other, rel), "rb") as b:
        assert a.read() == b.read()


def _verify_files(out):
    """Relative path -> bytes of verify_report.txt and every verify/ file."""
    rels = ["verify_report.txt"] + [os.path.join("verify", name) for name in sorted(os.listdir(os.path.join(out, "verify")))]
    return {rel: open(os.path.join(out, rel), "rb").read() for rel in rels}


def _verify_spectra_listed(out):
    """(path, seconds) of each spectrum the verify manifest lists; the manifest validates."""
    manifest = RunManifest.read(os.path.join(out, "manifest_verify.txt"))
    manifest.validate(out)
    return [(rel, manifest.walltimes[name]) for name, rel in manifest.artifacts.items()
            if rel.startswith("verify" + os.sep)]


def test_verify_rerun_solves_nothing(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, SMALL_VERIFY)
    out = str(tmp_path / "run")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    report = open(os.path.join(out, "verify_report.txt"), "rb").read()

    def no_solve(*args, **kwargs):
        raise AssertionError("the rerun solved an eigenproblem")

    monkeypatch.setattr(pipeline, "spectrum", no_solve)
    monkeypatch.setattr(verify, "spectrum", no_solve, raising=False)
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    assert open(os.path.join(out, "verify_report.txt"), "rb").read() == report
    listed = _verify_spectra_listed(out)
    # exclusion n = 101, r = 0; panel n = 50 and 200 at r = 0 and 7919
    assert sorted(rel for rel, _ in listed) == sorted(
        os.path.join("verify", f"spectrum_n{n}_r{r}.csv") for n, r in ((101, 0), (50, 0), (50, 7919), (200, 0), (200, 7919))
    )
    assert {seconds for _, seconds in listed} == {0.0}


def test_verify_spectra_are_keyed_on_the_config(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_VERIFY)
    out = str(tmp_path / "run")
    assert main(["verify", "--config", cfg_path, "--out", out, "--jobs", "1"]) == 0
    first = _verify_files(out)
    # a file from another config is rebuilt, not read
    stale = os.path.join(out, "verify", "spectrum_n200_r0.csv")
    with open(stale, "w") as fh:
        fh.write("# config_hash=0000000000000000 seed=2024 n=200 r=0\nre,im\n" + "0,0\n" * 200)
    assert main(["verify", "--config", cfg_path, "--out", out]) == 0
    assert _verify_files(out) == first
    # --jobs does not change a byte
    pooled = str(tmp_path / "pooled")
    assert main(["verify", "--config", cfg_path, "--out", pooled, "--jobs", "2"]) == 0
    assert _verify_files(pooled) == first
    # changing exclusion_n, panel_sizes or the seed rebuilds every file the run lists
    for text, seed, solves in (
        (SMALL_VERIFY.replace("exclusion_n = 101", "exclusion_n = 200"), 2024, 4),  # (200, 0) is solved once
        (SMALL_VERIFY.replace("panel_sizes = 50 200", "panel_sizes = 60 200"), 2024, 5),
        (SMALL_VERIFY, 2025, 5),
    ):
        cfg_path = write_cfg(tmp_path, text, name="edited.ini")
        stamps = {name: _stamp(os.path.join(out, "verify", name)) for name in os.listdir(os.path.join(out, "verify"))}
        assert main(["verify", "--config", cfg_path, "--out", out, "--seed-override", str(seed)]) == 0
        cfg = load_config(cfg_path).with_seed(seed)
        listed = _verify_spectra_listed(out)
        assert len(listed) == solves
        for rel, _ in listed:
            path = os.path.join(out, rel)
            assert artifacts.read_header(path)["config_hash"] == config_hash(cfg)
            assert _stamp(path) != stamps.get(os.path.basename(rel))


def test_manifest_uses_the_artifact_header_and_rejects_malformed_files(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "run")
    assert main(["ids", "--config", cfg_path, "--out", out]) == 0
    path = os.path.join(out, "manifest_ids.txt")
    lines = open(path).read().splitlines()
    assert lines[0] == f"# config_hash={config_hash(load_config(cfg_path))} tool_version=0.1.0"
    assert lines[1] == "name,path,seconds"
    name, rel, seconds = lines[2].split(",")
    assert (name, rel) == ("ids", os.path.join("ids", "ids.csv")) and float(seconds) > 0.0
    for broken in ("# run-manifest v1\n", lines[0] + "\nname,path,seconds\nids,ids/ids.csv\n"):
        with open(path, "w") as fh:
            fh.write(broken)
        with pytest.raises(ValidationError):
            RunManifest.read(path)


class _FailingValue:
    """Stands in for an eigenvalue; formatting it fails like a full disk."""

    def __float__(self):
        raise OSError(28, "No space left on device")


def test_failed_write_leaves_no_artifact_and_the_rerun_rebuilds_it(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "run")
    solve = pipeline.spectrum

    def spectrum_that_fails_mid_write(bundle):
        res = solve(bundle)
        values = np.array([*res.eigenvalues[:5].real, _FailingValue()], dtype=object)
        return dataclasses.replace(res, eigenvalues=values)

    monkeypatch.setattr(pipeline, "spectrum", spectrum_that_fails_mid_write)
    with pytest.raises(OSError):
        main(["spectrum", "--config", cfg_path, "--out", out])
    assert os.listdir(os.path.join(out, "spectra")) == []  # neither the artifact nor a temp file
    monkeypatch.undo()
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "spectra", "spectrum_n64_rep0.csv")).read().splitlines()
    assert lines[1] == "re,im"
    assert len(lines) == 2 + 64


# -- tables: malformed products, earlier layouts, one format ---------------------------

@pytest.fixture(scope="module")
def spectra_and_curve(tmp_path_factory):
    """(config path, directory) after spectrum and curve ran with BASE."""
    base = tmp_path_factory.mktemp("tables")
    cfg_path = write_cfg(base, BASE)
    for stage in ("spectrum", "curve"):
        assert main([stage, "--config", cfg_path, "--out", str(base / "run")]) == 0
    return cfg_path, base / "run"


@pytest.mark.parametrize("rel, stage", [
    (os.path.join("spectra", "spectrum_n64_rep0.csv"), "compare"),
    (os.path.join("ids", "ids.csv"), "curve"),
    (os.path.join("curve", "curve_points.csv"), "curve"),
])
def test_a_malformed_row_in_a_current_product_exits_2(tmp_path, capsys, spectra_and_curve, rel, stage):
    cfg_path, run = spectra_and_curve
    out = tmp_path / "run"
    shutil.copytree(run, out)
    with open(out / rel, "a") as fh:  # the header stays current
        fh.write("0.5,oops\n")
    assert main([stage, "--config", cfg_path, "--out", str(out)]) == 2
    assert f"validation error: {out / rel}: malformed row" in capsys.readouterr().err


@pytest.mark.parametrize("rel, field, bad", [
    (os.path.join("curve", "curve_points.csv"), "g", "abc"),
    (os.path.join("ids", "ids.csv"), "support", "1.0"),
])
def test_a_malformed_header_field_of_a_current_product_exits_2(tmp_path, capsys, spectra_and_curve, rel, field, bad):
    cfg_path, run = spectra_and_curve
    out = tmp_path / "run"
    shutil.copytree(run, out)
    with open(out / rel) as fh:
        head, body = fh.readline(), fh.read()
    edited = re.sub(rf"(?<= ){field}=[^ \n]*", f"{field}={bad}", head)
    assert edited != head
    with open(out / rel, "w") as fh:  # config_hash and ids_hash stay current
        fh.write(edited + body)
    assert main(["curve", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"validation error: {out / rel}: malformed header field {field}={bad}" in capsys.readouterr().err


def _write_pre_table_files(new, old):
    """ids/ids_cache.txt, curve/curve_model.txt and curve/curve_points.csv
    in ``old`` as versions before the table layout wrote them, with the
    values of the tables in ``new``."""
    for sub in ("ids", "curve"):
        os.makedirs(os.path.join(old, sub))
    head, ids = artifacts.read_table(os.path.join(new, "ids", "ids.csv"), {"lambda": float, "N": float})
    artifacts.write(os.path.join(old, "ids", "ids_cache.txt"), head,
                    [f"{lam!r} {val!r}\n" for lam, val in zip(ids["lambda"].tolist(), ids["N"].tolist())])
    with open(os.path.join(new, "curve", "curve_points.csv")) as fh:
        head, body = artifacts.read_header(fh.name), fh.readlines()[1:]
    keys = ("config_hash", "seed", "g", "threshold")
    artifacts.write(os.path.join(old, "curve", "curve_points.csv"), {k: head[k] for k in keys + ("mass",)}, body)
    sigma = head["sigma"].split(",")
    rows = [f"sigma {lo} {hi}\n" for lo, hi in zip(sigma[0::2], sigma[1::2])]
    rows += [f"realpoint {x}\n" for x in head["real_points"].split(",") if x]
    rows += ["arc " + line.replace(",", " ") for line in body[1:]]
    artifacts.write(os.path.join(old, "curve", "curve_model.txt"),
                    {k: head[k] for k in keys + ("mean_log_c", "curve_tol", "ids_hash")}, rows)


def test_a_directory_from_before_the_table_layout_is_rebuilt(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    fresh, old = str(tmp_path / "fresh"), str(tmp_path / "old")
    assert main(["curve", "--config", cfg_path, "--out", fresh]) == 0
    _write_pre_table_files(fresh, old)
    # the earlier curve_points.csv carries the current config hash but no ids_hash
    assert artifacts.is_current(os.path.join(old, "curve", "curve_points.csv"), config_hash(load_config(cfg_path)))
    assert main(["curve", "--config", cfg_path, "--out", old]) == 0
    for rel in (os.path.join("ids", "ids.csv"), os.path.join("curve", "curve_points.csv")):
        with open(os.path.join(fresh, rel), "rb") as a, open(os.path.join(old, rel), "rb") as b:
            assert a.read() == b.read()
    # the earlier files are neither read nor removed
    assert sorted(os.listdir(os.path.join(old, "ids"))) == ["ids.csv", "ids_cache.txt"]
    assert sorted(os.listdir(os.path.join(old, "curve"))) == ["curve_model.txt", "curve_points.csv"]


def test_a_curve_without_arcs_round_trips_through_its_empty_table(tmp_path):
    # xi and eta with one law give g = 0, so the curve has no arcs; with
    # constant couplings the matrices are symmetric and compare sees only
    # real eigenvalues
    same_law = "kind = constant\nvalue = 0.0"
    text = (BASE.replace("[ensemble.xi]\nkind = log_uniform\na = 0.0\nb = 1.0", "[ensemble.xi]\n" + same_law)
            .replace("[ensemble.eta]\nkind = log_uniform\na = 0.5\nb = 1.5", "[ensemble.eta]\n" + same_law))
    cfg_path = write_cfg(tmp_path, text)
    out = str(tmp_path / "run")
    path = os.path.join(out, "curve", "curve_points.csv")
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    assert main(["curve", "--config", cfg_path, "--out", out]) == 0
    lines = open(path).read().splitlines()
    assert " g=0 " in lines[0] and lines[1:] == ["arc,x,y,rho"]
    before = _stamp(path)
    assert main(["curve", "--config", cfg_path, "--out", out]) == 0
    assert _stamp(path) == before
    assert main(["compare", "--config", cfg_path, "--out", out]) == 0
    model = load_curve_model(path, load_ids(os.path.join(out, "ids", "ids.csv")))
    assert model.g == 0.0 and model.arcs == () and model.sigma


def test_compare_with_g_zero_and_random_couplings_measures_to_the_real_axis(tmp_path, capsys):
    # eta with xi's law gives g = 0 and a model with no arcs, but the
    # random couplings leave the matrices nonsymmetric, so some eigenvalues
    # leave the axis (at n = 96, rep = 1: 2 of 96, by 1.1e-3); the limit is
    # real, so they are measured to the real axis, not to a missing curve
    text = BASE.replace("[ensemble.eta]\nkind = log_uniform\na = 0.5\nb = 1.5",
                        "[ensemble.eta]\nkind = log_uniform\na = 0.0\nb = 1.0")
    cfg_path = write_cfg(tmp_path, text)
    out = str(tmp_path / "run")
    assert main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", cfg_path, "--out", out]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("[no arcs: measured to the real axis]")
    _, report = artifacts.read_table(os.path.join(out, "compare_report.csv"), {
        "n": int, "rep": int, "nonreal_fraction": float, "hausdorff_to_curve": float,
        "hausdorff_to_curve_or_axis": float, "real_hist_max_err": float, "arc_hist_max_err": float})
    assert report["nonreal_fraction"][-1] > 0.0
    assert np.array_equal(report["hausdorff_to_curve"], report["hausdorff_to_curve_or_axis"])
    assert 0.0 < report["hausdorff_to_curve"][-1] < 0.15


def test_every_listed_artifact_is_a_table(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_VERIFY)
    out = str(tmp_path / "run")
    stages = ("sample", "spectrum", "ids", "lyapunov", "curve", "verify", "compare")
    for stage in stages:
        assert main([stage, "--config", cfg_path, "--out", out]) == 0
    rels = {rel for stage in stages
            for rel in RunManifest.read(os.path.join(out, f"manifest_{stage}.txt")).artifacts.values()}
    rels.remove("verify_report.txt")  # a report of check lines, not a table
    assert {rel.split(os.sep)[0] for rel in rels} == {
        "samples", "spectra", "ids", "lyapunov", "curve", "verify", "compare_report.csv"}
    for rel in rels:
        with open(os.path.join(out, rel)) as fh:
            fh.readline()
            names = fh.readline().rstrip("\n").split(",")
        _, table = artifacts.read_table(os.path.join(out, rel), {n: str if n == "path" else float for n in names})
        assert len({column.size for column in table.values()}) == 1
