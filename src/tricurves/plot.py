"""Draw a run directory: ``python -m tricurves.plot OUT`` writes
``OUT/spectrum_plot.png`` with each spectrum that ``spectra/summary.csv``
lists as a point cloud (so none that an earlier config left in ``OUT``),
and each arc of the curve model and its conjugate as separate lines.
Every file is read through ``artifacts.read_table``; matplotlib, which
is no dependency of the package, is imported only in ``main``.
"""

from __future__ import annotations

import os
import sys

from . import artifacts
from .curves import load_curve_model
from .pipeline import _CURVE, _IDS, _eigenvalues
from .spectral import load_ids


def spectrum_paths(out: str) -> list:
    """The current spectra: the path column of ``spectra/summary.csv``
    (none when there is no summary)."""
    summary = os.path.join(out, "spectra", "summary.csv")
    if not os.path.exists(summary):
        return []
    _, table = artifacts.read_table(
        summary, {"n": int, "rep": int, "nonreal_count": int, "nonreal_fraction": float, "path": str})
    return [os.path.join(out, rel) for rel in table["path"]]


def main(out: str) -> None:
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots()
    for path in spectrum_paths(out):
        eigs = _eigenvalues(path)
        ax.plot(eigs.real, eigs.imag, ".", ms=2, alpha=0.6, label=os.path.splitext(os.path.basename(path))[0])
    curve = os.path.join(out, _CURVE)
    if os.path.exists(curve):
        for arc in load_curve_model(curve, load_ids(os.path.join(out, _IDS))).arcs:
            ax.plot(arc.x, arc.y, "k-", lw=1)
            ax.plot(arc.x, -arc.y, "k-", lw=1)
    ax.set_xlabel("Re z")
    ax.set_ylabel("Im z")
    ax.legend(fontsize=6)
    png = os.path.join(out, "spectrum_plot.png")
    fig.savefig(png, dpi=160)
    print("wrote", png)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python -m tricurves.plot OUT")
    main(sys.argv[1])
