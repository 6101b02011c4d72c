"""Sliding-window averaging and top-m eigendecomposition of symmetric matrices.

The detector estimates the unknown community subspace from the average of a
window of recent snapshots: the top-m eigenvectors of the window mean span the
estimated subspace, and their outer product is the rank-m projector the
detection statistic uses.

Both ways to that projector solve through one binding, LAPACKE_dsyevr_work
from the OpenBLAS in numpy's wheel, with np.linalg.eigh as the fallback where
that library or symbol is missing. window_projections is the detector's
kernel: a generator that holds the window, keeps a running window sum and
solves in arrays it keeps from step to step. projector(estimate_subspace(
window, m)), over the window's snapshots oldest first, is its slow, obvious
twin, built from sliding_mean and top_m_eigs: the kernel gives its bits
whenever it re-sums the window, and agrees with it within the running sum's
rounding in between.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Iterator

import numpy as np

from .graph_model import _CACHE_MAXSIZE, GraphSnapshot, _whole

ASYMMETRY_TOL = 1e-9

# numpy's Linux wheel bundles an ILP64 OpenBLAS with full LAPACK next to the
# package; its file name and symbol prefix are wheel internals, not API, so
# a missing library or symbol falls back to np.linalg.eigh
_OPENBLAS_GLOB = os.path.join(
    os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas64_*.so"
)
_DSYEVR_SYMBOL = "scipy_LAPACKE_dsyevr_work64_"
_COL_MAJOR = 102


def _load_dsyevr():
    """LAPACKE_dsyevr_work from numpy's bundled OpenBLAS, or None if it is
    absent. The caller passes the workspace, so none is allocated per call."""
    paths = sorted(glob.glob(_OPENBLAS_GLOB))
    if not paths:
        return None
    try:
        fn = getattr(ctypes.CDLL(paths[0]), _DSYEVR_SYMBOL)
    except (OSError, AttributeError):
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    c = ctypes.c_char
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m found,
    # w, z, ldz, isuppz, work, lwork, iwork, liwork; every array, m found
    # included, is passed as its address; lapack_int is 64 bits in this
    # ILP64 build
    fn.argtypes = [
        ctypes.c_int, c, c, c, i64, ptr, i64, f64, f64, i64, i64, f64,
        ptr, ptr, ptr, i64, ptr, ptr, i64, ptr, i64,
    ]
    fn.restype = i64
    # wrapped because a ctypes function does not hash, and _workspace_sizes
    # keys its cache by the binding
    return partial(fn)


_DSYEVR = _load_dsyevr()


class NumericalError(ValueError):
    """The data drove the statistic out of the finite numbers: a non-finite
    matrix or increment, or an eigensolve that failed."""


_NON_FINITE = "matrix has non-finite entries (NaN or infinity)"


@dataclass(frozen=True)
class SpectralEstimate:
    """Top-m eigenpairs of a window mean: eigenvalues descending, columns of
    `eigenvectors` orthonormal, each column's largest-magnitude entry positive."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sliding_mean(window: Iterable[GraphSnapshot]) -> np.ndarray:
    """Entrywise mean of a window's snapshots, oldest first, symmetrized.

    Equivalent to averaging (G + G^T)/2 over the window; for bit-symmetric
    snapshots this changes nothing, and for the iid-full sampling convention
    it performs the required symmetrization. The result is bit-exactly
    symmetric either way.
    """
    # the same left-to-right sum as np.add.reduce over the stacked window,
    # without stacking w copies first
    snaps = list(window)
    acc = np.array(snaps[0].weights, dtype=float)
    for snap in snaps[1:]:
        acc += snap.weights
    return (acc + acc.T) / (2.0 * len(snaps))


def top_m_eigs(matrix: np.ndarray, m: int) -> SpectralEstimate:
    """Top-m eigenpairs of a symmetric matrix, in descending eigenvalue order.

    Only the top m pairs are solved for, with LAPACK's MRRR solver dsyevr
    (index range n-m+1..n) through the LAPACKE_dsyevr_work binding into the
    OpenBLAS that numpy's wheel ships. Where that library or its symbol is
    missing, every pair comes from np.linalg.eigh and the top m are kept.
    Either solver reads the lower triangle. The solver is
    deterministic: repeated eigenvalues keep its ascending output order,
    reversed, and each eigenvector is sign-normalized so its
    largest-magnitude entry (first such entry on ties) is positive. The two
    solvers may pick different bases of a repeated eigenvalue's eigenspace.
    Residuals satisfy ||Mv - lambda v|| <= 1e-8 * max(1, ||M||_F) per pair.
    A matrix with a NaN or infinite entry raises NumericalError; a failed
    solve raises np.linalg.LinAlgError.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("input must be a square matrix")
    n = matrix.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    # a NaN or infinite entry makes its difference with its mirror non-finite
    with np.errstate(invalid="ignore"):
        asym = float(np.max(np.abs(matrix - matrix.T)))
    if not math.isfinite(asym):
        raise NumericalError(_NON_FINITE)
    if asym > ASYMMETRY_TOL:
        raise ValueError(
            f"matrix is not symmetric: max|M - M^T| = {asym:.3e} exceeds {ASYMMETRY_TOL}"
        )
    solve = _TopPairs(n, m)
    np.copyto(solve.a, matrix)
    vals, vecs = solve()
    top_vecs = np.ascontiguousarray(vecs[:, ::-1])
    _fix_signs(top_vecs)
    return SpectralEstimate(eigenvalues=vals[::-1].copy(), eigenvectors=top_vecs)


def _dsyevr_args(n, m, a, w, z, found, isuppz, work, lwork, iwork, liwork) -> tuple:
    """LAPACKE_dsyevr_work's arguments for the top m eigenpairs (index range
    n-m+1..n, ascending) of the column-major n x n matrix in a."""
    return (
        _COL_MAJOR, b"V", b"I", b"L", n, a.ctypes.data, n, 0.0, 0.0, n - m + 1, n, 0.0,
        found.ctypes.data, w.ctypes.data, z.ctypes.data, n, isuppz.ctypes.data,
        work.ctypes.data, lwork, iwork.ctypes.data, liwork,
    )


@lru_cache(maxsize=_CACHE_MAXSIZE)
def _workspace_sizes(solver, n: int, m: int) -> tuple[int, int]:
    """dsyevr's optimal (lwork, liwork) at (n, m), from its workspace query
    (lwork = liwork = -1), as LAPACKE_dsyevr sizes them. Keyed by the
    binding too, so a stand-in binding gets its own answer."""
    work = np.zeros(1)
    iwork = np.zeros(1, dtype=np.int64)
    found = np.zeros(1, dtype=np.int64)
    info = solver(*_dsyevr_args(
        n, m, np.zeros((n, n), order="F"), np.empty(n), np.empty((n, m), order="F"),
        found, np.empty(2 * m, dtype=np.int64), work, -1, iwork, -1,
    ))
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed: info={info} in its workspace query")
    return int(work[0]), int(iwork[0])


class _TopPairs:
    """The top m eigenpairs of the symmetric n x n matrix written into `a`,
    in ascending order, solved into arrays allocated once.

    A call solves with the binding bound at call time: LAPACKE_dsyevr_work,
    which overwrites `a`, or np.linalg.eigh where that binding is missing.
    The pairs it returns are views that the next call overwrites.
    """

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.a = np.empty((n, n), order="F")
        self._w = np.empty(n)
        self._z = np.empty((n, m), order="F")
        self._found = np.zeros(1, dtype=np.int64)
        self._isuppz = np.empty(2 * m, dtype=np.int64)
        # sized for the binding bound now; LAPACK checks lwork and liwork
        # against its minimum, so a binding bound later fails, not overruns
        lwork, liwork = (0, 0) if _DSYEVR is None else _workspace_sizes(_DSYEVR, n, m)
        self._work = np.empty(lwork)
        self._iwork = np.empty(liwork, dtype=np.int64)
        self._args = _dsyevr_args(
            n, m, self.a, self._w, self._z, self._found, self._isuppz,
            self._work, lwork, self._iwork, liwork,
        )

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        n, m = self.n, self.m
        solver = _DSYEVR
        if solver is None:
            evals, evecs = np.linalg.eigh(self.a)
            return evals[n - m :], evecs[:, n - m :]
        info = solver(*self._args)
        found = int(self._found[0])
        if info != 0 or found != m:
            raise np.linalg.LinAlgError(
                f"dsyevr failed: info={info}, found {found} of {m} eigenpairs"
            )
        return self._w[:m], self._z


def _fix_signs(vectors: np.ndarray) -> None:
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            # not np.negative(col, out=col): numpy 2.4.6 negates a column
            # view 64 bytes apart (8 columns) in place from the wrong entries
            vectors[:, j] = -col


def estimate_subspace(window: Iterable[GraphSnapshot], m: int) -> SpectralEstimate:
    """Estimated community subspace: top-m eigenpairs of the window mean."""
    return top_m_eigs(sliding_mean(window), m)


def projector(est: SpectralEstimate) -> np.ndarray:
    """Rank-m projector onto the estimated subspace (idempotent, trace m)."""
    return est.eigenvectors @ est.eigenvectors.T


# a running update is made only while the largest weights of the window and
# of the snapshot leaving it add up to at most this: then no running or
# left-to-right sum of them, nor acc + acc^T, can overflow
_RUNNING_ROOM = sys.float_info.max / 4


def window_projections(
    stream: Iterable[GraphSnapshot], w: int, m: int
) -> Iterator[tuple[GraphSnapshot, np.ndarray]]:
    """The detector's windowed kernel: yield each snapshot that a full
    window of w pushes out, with the rank-m projector onto the top-m
    eigenspace of the mean of the w snapshots after it. A stream of at most
    w snapshots yields nothing.

    From the first solve on it keeps a window sum and the solve's arrays;
    each push adds the snapshot that entered to the sum and subtracts the
    one that left. It re-sums the window left to right instead, as
    sliding_mean does, on the first solve, on the w-th solve after each
    re-sum, and whenever the largest weights of the window and of the
    snapshot that left add up past a quarter of the float range, where a
    sum could overflow (a NaN or infinite weight included). A re-summed
    solve gives the bits of projector(estimate_subspace(window, m)); the
    w - 1 running solves after it carry at most 2(w - 1) more roundings of
    the window's magnitudes. Only a re-sum decides a non-finite mean, as in
    sliding_mean, and only its finiteness is checked: (acc + acc^T) / (2w)
    is bit-symmetric by construction. The solve is top_m_eigs' binding and
    fallback, and no sign is fixed: negating a column leaves V V^T as is.

    A w or m that is not an integer raises ValueError at the first pull, a
    snapshot of another shape than the window's at its push, and an m
    outside 1..n at the first solve. A non-finite mean or a failed solve
    raises NumericalError, naming the scored snapshot.
    """
    w, m = _whole("w", w), _whole("m", m)
    if w < 1:
        raise ValueError("window length must be at least 1")
    window: deque[GraphSnapshot] = deque(maxlen=w)
    # largest |weight| of the snapshot that last left and of the window
    peaks: deque[float] = deque(maxlen=w + 1)
    solve, runs = None, 0  # runs: running updates left before a re-sum
    for snapshot in stream:
        if window and snapshot.weights.shape != window[0].weights.shape:
            raise ValueError(
                f"snapshot has shape {snapshot.weights.shape}, "
                f"window holds {window[0].weights.shape}"
            )
        left = window[0] if len(window) == w else None
        window.append(snapshot)
        peaks.append(float(np.abs(snapshot.weights).max(initial=0.0)))
        if left is None:
            continue
        if solve is None:
            n = snapshot.n
            if not 1 <= m <= n:
                raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
            solve = _TopPairs(n, m)
            acc, top, mean = np.empty((n, n)), np.empty((n, m)), solve.a
        running = runs > 0 and sum(peaks) <= _RUNNING_ROOM
        if running:
            acc += snapshot.weights
            acc -= left.weights
            runs -= 1
        else:
            snaps = iter(window)
            np.copyto(acc, next(snaps).weights)
            for snap in snaps:
                acc += snap.weights
            runs = w - 1
        np.add(acc, acc.T, out=mean)
        mean /= 2.0 * w
        try:
            if not running and not np.isfinite(mean).all():
                raise NumericalError(_NON_FINITE)
            _, vecs = solve()
        except (NumericalError, np.linalg.LinAlgError) as err:
            raise NumericalError(f"window after t={left.t}: {err}") from err
        np.copyto(top, vecs[:, ::-1])
        yield left, top @ top.T
