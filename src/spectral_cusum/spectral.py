"""Sliding-window averaging and top-m eigendecomposition of symmetric matrices.

The detector estimates the unknown community subspace from the average of a
window of recent snapshots: the top-m eigenvectors of the window mean span the
estimated subspace, and their outer product is the rank-m projector the
detection statistic uses.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph_model import GraphSnapshot

ASYMMETRY_TOL = 1e-9


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
        if self._snaps and snapshot.n != self._snaps[0].n:
            raise ValueError(
                f"snapshot has n={snapshot.n}, buffer holds n={self._snaps[0].n}"
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
    acc = np.add.reduce([snap.weights for snap in buffer.snapshots])
    return (acc + acc.T) / (2.0 * buffer.capacity)


def top_m_eigs(matrix: np.ndarray, m: int) -> SpectralEstimate:
    """Top-m eigenpairs of a symmetric matrix, in descending eigenvalue order.

    The solver is deterministic: repeated eigenvalues keep the internal
    solve's stable output order, and each eigenvector is sign-normalized so
    its largest-magnitude entry (first such entry on ties) is positive.
    Residuals satisfy ||Mv - lambda v|| <= 1e-8 * max(1, ||M||_F) per pair.
    A matrix with a NaN or infinite entry raises NumericalError.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("input must be a square matrix")
    n = matrix.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    asym = float(np.max(np.abs(matrix - matrix.T)))
    # a NaN or infinite entry makes its difference with its mirror non-finite
    if not math.isfinite(asym):
        raise NumericalError("matrix has non-finite entries (NaN or infinity)")
    if asym > ASYMMETRY_TOL:
        raise ValueError(
            f"matrix is not symmetric: max|M - M^T| = {asym:.3e} exceeds {ASYMMETRY_TOL}"
        )
    evals, evecs = np.linalg.eigh(matrix)
    order = np.arange(n - 1, n - m - 1, -1)
    top_vals = np.ascontiguousarray(evals[order])
    top_vecs = np.ascontiguousarray(evecs[:, order])
    _fix_signs(top_vecs)
    return SpectralEstimate(eigenvalues=top_vals, eigenvectors=top_vecs)


def _fix_signs(vectors: np.ndarray) -> None:
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            np.negative(col, out=col)


def estimate_subspace(buffer: WindowBuffer, m: int) -> SpectralEstimate:
    """Estimated community subspace: top-m eigenpairs of the window mean."""
    return top_m_eigs(sliding_mean(buffer), m)


def projector(est: SpectralEstimate) -> np.ndarray:
    """Rank-m projector onto the estimated subspace (idempotent, trace m)."""
    return est.eigenvectors @ est.eigenvectors.T
