"""numpy's own LAPACK, called in place through ctypes.

``np.linalg.eigvals`` copies its input into a Fortran-ordered scratch
matrix and hands that copy to ``dgeev``, which overwrites it.  A caller
that builds a Fortran-ordered matrix only to solve it can hand the
matrix itself to the same ``dgeev`` and hold one n x n matrix instead of
two.  The routine is the one numpy's ``_umath_linalg`` extension links
(looked up through that extension's dependencies, once, at the first
solve), and it is called as ``umath_linalg`` calls it: no vectors, a
workspace query, then the optimal workspace.  Same library, same call,
same bits.  Only names whose ABI is known are accepted: the ILP64
OpenBLAS of numpy's wheels.  Where none resolves (numpy built against
MKL or a system LAPACK), ``eigvals`` calls ``np.linalg.eigvals``.
``ctypes.CDLL`` releases the GIL for the call, so a thread pool's solves
run side by side.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# numpy >= 2 wheels (scipy-openblas64) and numpy 1.x wheels (openblas64_);
# both take 64-bit Fortran integers.
_GEEV_SYMBOLS = ("scipy_dgeev_64_", "dgeev_64_")

_INT = ctypes.c_int64
_P_INT = ctypes.POINTER(_INT)
_P_DOUBLE = ctypes.POINTER(ctypes.c_double)


@functools.cache
def _geev():
    """numpy's dgeev as a ctypes function, or None where numpy links no
    LAPACK whose ABI is known here."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in _GEEV_SYMBOLS:
        routine = getattr(lib, name, None)
        if routine is not None:
            # JOBVL, JOBVR, N, A, LDA, WR, WI, VL, LDVL, VR, LDVR, WORK, LWORK, INFO
            routine.argtypes = [ctypes.c_char_p, ctypes.c_char_p, _P_INT, _P_DOUBLE, _P_INT, _P_DOUBLE,
                                _P_DOUBLE, _P_DOUBLE, _P_INT, _P_DOUBLE, _P_INT, _P_DOUBLE, _P_INT, _P_INT]
            routine.restype = None
            return routine
    return None


def _call(geev, a: np.ndarray, wr: np.ndarray, wi: np.ndarray, work: np.ndarray, lwork: int) -> None:
    """One eigenvalue-only dgeev call on a (lwork = -1: the workspace
    query, answered in work[0]).  VL and VR are not referenced, so their
    leading dimensions need only be 1."""
    n = a.shape[0]
    info = _INT(0)
    geev(b"N", b"N", ctypes.pointer(_INT(n)), a.ctypes.data_as(_P_DOUBLE), ctypes.pointer(_INT(max(n, 1))),
         wr.ctypes.data_as(_P_DOUBLE), wi.ctypes.data_as(_P_DOUBLE), None, ctypes.pointer(_INT(1)),
         None, ctypes.pointer(_INT(1)), work.ctypes.data_as(_P_DOUBLE), ctypes.pointer(_INT(lwork)),
         ctypes.pointer(info))
    if info.value < 0:
        raise RuntimeError(f"dgeev binding error: argument {-info.value} has an illegal value")
    if info.value > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _assemble(wr: np.ndarray, wi: np.ndarray) -> np.ndarray:
    """The eigenvalues as np.linalg.eigvals returns them: wr when every wi
    is 0, else complex with the parts assigned (wr + 1j * wi would turn a
    -0.0 real part into +0.0)."""
    if not np.any(wi):
        return wr
    w = np.empty(wr.shape, dtype=complex)
    w.real = wr
    w.imag = wi
    return w


def eigvals(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of the square float64 Fortran-ordered matrix a,
    equal to np.linalg.eigvals(a) bit for bit; a is overwritten.  A
    non-converged QR iteration raises np.linalg.LinAlgError, as
    np.linalg.eigvals does; a rejected argument (a binding defect)
    raises RuntimeError."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != np.float64 or not (
            a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("eigvals needs a square, writable, Fortran-ordered float64 matrix")
    geev = _geev()
    if geev is None:
        return np.linalg.eigvals(a)
    n = a.shape[0]
    wr, wi, query = np.empty(n), np.empty(n), np.empty(1)
    _call(geev, a, wr, wi, query, -1)
    work = np.empty(int(query[0]))
    _call(geev, a, wr, wi, work, work.size)
    return _assemble(wr, wi)
