"""Sliding-window averaging and top-m eigendecomposition of symmetric matrices.

The detector estimates the unknown community subspace from the average of a
window of recent snapshots: the top-m eigenvectors of the window mean span the
estimated subspace, and their outer product is the rank-m projector the
detection statistic uses.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph_model import GraphSnapshot

ASYMMETRY_TOL = 1e-9

# numpy's Linux wheel bundles an ILP64 OpenBLAS with full LAPACK next to the
# package; its file name and symbol prefix are wheel internals, not API, so
# a missing library or symbol falls back to np.linalg.eigh
_OPENBLAS_GLOB = os.path.join(
    os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas64_*.so"
)
_DSYEVR_SYMBOL = "scipy_LAPACKE_dsyevr64_"
_COL_MAJOR = 102


def _load_dsyevr():
    """LAPACKE_dsyevr from numpy's bundled OpenBLAS, or None if it is absent."""
    paths = sorted(glob.glob(_OPENBLAS_GLOB))
    if not paths:
        return None
    try:
        fn = getattr(ctypes.CDLL(paths[0]), _DSYEVR_SYMBOL)
    except (OSError, AttributeError):
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    c = ctypes.c_char
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
    # m found, w, z, ldz, isuppz; lapack_int is 64 bits in this ILP64 build
    fn.argtypes = [
        ctypes.c_int, c, c, c, i64, ptr, i64, f64, f64, i64, i64, f64,
        ctypes.POINTER(i64), ptr, ptr, i64, ptr,
    ]
    fn.restype = i64
    return fn


_DSYEVR = _load_dsyevr()


class NumericalError(ValueError):
    """The data drove the statistic out of the finite numbers: a non-finite
    matrix or increment, or an eigensolve that failed."""


class WindowBuffer:
    """FIFO buffer holding the w most recent snapshots for window averaging."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self.capacity = int(capacity)
        self._snaps: deque[GraphSnapshot] = deque(maxlen=self.capacity)

    def push(self, snapshot: GraphSnapshot) -> GraphSnapshot | None:
        """Append a snapshot; return the one it evicts from a full buffer, or
        None while the buffer is still filling."""
        if self._snaps and snapshot.weights.shape != self._snaps[0].weights.shape:
            raise ValueError(
                f"snapshot has shape {snapshot.weights.shape}, "
                f"buffer holds {self._snaps[0].weights.shape}"
            )
        evicted = self._snaps[0] if self.full else None
        self._snaps.append(snapshot)
        return evicted

    @property
    def full(self) -> bool:
        return len(self._snaps) == self.capacity

    @property
    def snapshots(self) -> tuple[GraphSnapshot, ...]:
        return tuple(self._snaps)

    def __len__(self) -> int:
        return len(self._snaps)


@dataclass(frozen=True)
class SpectralEstimate:
    """Top-m eigenpairs of a window mean: eigenvalues descending, columns of
    `eigenvectors` orthonormal, each column's largest-magnitude entry positive."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sliding_mean(buffer: WindowBuffer) -> np.ndarray:
    """Entrywise mean of a full window, symmetrized.

    Equivalent to averaging (G + G^T)/2 over the window; for bit-symmetric
    snapshots this changes nothing, and for the iid-full sampling convention
    it performs the required symmetrization. The result is bit-exactly
    symmetric either way. A partially filled buffer is rejected: the
    statistic for a time index is not computable before its window completes.
    """
    if not buffer.full:
        raise ValueError(
            f"window not full: {len(buffer)} of {buffer.capacity} snapshots"
        )
    # the same left-to-right sum as np.add.reduce over the stacked window,
    # without stacking w copies first
    snaps = buffer.snapshots
    acc = np.array(snaps[0].weights, dtype=float)
    for snap in snaps[1:]:
        acc += snap.weights
    return (acc + acc.T) / (2.0 * buffer.capacity)


def top_m_eigs(matrix: np.ndarray, m: int) -> SpectralEstimate:
    """Top-m eigenpairs of a symmetric matrix, in descending eigenvalue order.

    Only the top m pairs are solved for, with LAPACK's MRRR solver dsyevr
    (index range n-m+1..n) from the OpenBLAS that numpy's wheel ships. Where
    that library or its symbol is missing, every pair comes from
    np.linalg.eigh and the top m are kept. Either solver reads the lower
    triangle. The solver is deterministic: repeated eigenvalues keep its
    ascending output order, reversed, and each eigenvector is sign-normalized
    so its largest-magnitude entry (first such entry on ties) is positive.
    The two solvers may pick different bases of a repeated eigenvalue's
    eigenspace. Residuals satisfy ||Mv - lambda v|| <= 1e-8 * max(1, ||M||_F)
    per pair. A matrix with a NaN or infinite entry raises NumericalError; a
    failed solve raises np.linalg.LinAlgError.
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
        raise NumericalError("matrix has non-finite entries (NaN or infinity)")
    if asym > ASYMMETRY_TOL:
        raise ValueError(
            f"matrix is not symmetric: max|M - M^T| = {asym:.3e} exceeds {ASYMMETRY_TOL}"
        )
    if _DSYEVR is None:
        evals, evecs = np.linalg.eigh(matrix)
        order = np.arange(n - 1, n - m - 1, -1)
        top_vals = np.ascontiguousarray(evals[order])
        top_vecs = np.ascontiguousarray(evecs[:, order])
    else:
        top_vals, top_vecs = _dsyevr_top(matrix, m)
    _fix_signs(top_vecs)
    return SpectralEstimate(eigenvalues=top_vals, eigenvectors=top_vecs)


def _dsyevr_top(matrix: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Top m eigenpairs, descending, from LAPACKE_dsyevr on a checked matrix."""
    n = matrix.shape[0]
    a = np.array(matrix, order="F")  # a copy: dsyevr overwrites its input
    evals = np.empty(n)
    evecs = np.empty((n, m), order="F")
    isuppz = np.empty(2 * m, dtype=np.int64)
    found = ctypes.c_int64()
    info = _DSYEVR(
        _COL_MAJOR, b"V", b"I", b"L", n, a.ctypes.data, n, 0.0, 0.0, n - m + 1, n, 0.0,
        ctypes.byref(found), evals.ctypes.data, evecs.ctypes.data, n, isuppz.ctypes.data,
    )
    if info != 0 or found.value != m:
        raise np.linalg.LinAlgError(
            f"dsyevr failed: info={info}, found {found.value} of {m} eigenpairs"
        )
    return evals[m - 1 :: -1].copy(), np.ascontiguousarray(evecs[:, ::-1])


def _fix_signs(vectors: np.ndarray) -> None:
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            # not np.negative(col, out=col): numpy 2.4.6 negates a column
            # view 64 bytes apart (8 columns) in place from the wrong entries
            vectors[:, j] = -col


def estimate_subspace(buffer: WindowBuffer, m: int) -> SpectralEstimate:
    """Estimated community subspace: top-m eigenpairs of the window mean."""
    return top_m_eigs(sliding_mean(buffer), m)


def projector(est: SpectralEstimate) -> np.ndarray:
    """Rank-m projector onto the estimated subspace (idempotent, trace m)."""
    return est.eigenvectors @ est.eigenvectors.T
