"""Community structure, indicator matrices, and Gaussian snapshot streams.

The observation model: at each time step t we see a weighted graph on n nodes
whose adjacency matrix G_t has independent Gaussian entries. Before the change
point every edge weight has mean zero; after it, the mean jumps to (AA^T)_ij,
where A is the one-hot community indicator matrix. Community sizes are the
nonzero eigenvalues of AA^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

BACKGROUND = "background"

SYMMETRIC = "symmetric"
IID_FULL = "iid-full"
CONVENTIONS = (SYMMETRIC, IID_FULL)
_CACHE_MAXSIZE = 64


def rng_from_key(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for a (seed, stream) pair.

    Philox4x64 keyed directly with the two 64-bit words, so the mapping from
    (seed, stream) to the random stream is fully documented and reproducible,
    and distinct stream ids give independent generators by construction.
    """
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CommunityAssignment:
    """Per-node labels: community ids in 1..m, or BACKGROUND for unattached nodes.

    Every community id must be used at least once; communities are disjoint
    because each node carries exactly one label.
    """

    n: int
    m: int
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.n < 1 or self.m < 0 or self.n < self.m:
            raise ValueError(f"need n >= m >= 0 and n >= 1, got n={self.n}, m={self.m}")
        if len(self.labels) != self.n:
            raise ValueError(f"expected {self.n} labels, got {len(self.labels)}")
        seen = set()
        for lab in self.labels:
            if lab == BACKGROUND:
                continue
            if not isinstance(lab, (int, np.integer)) or not 1 <= lab <= self.m:
                raise ValueError(f"label {lab!r} is not in 1..{self.m} or background")
            seen.add(int(lab))
        missing = set(range(1, self.m + 1)) - seen
        if missing:
            raise ValueError(f"empty communities: {sorted(missing)}")


def assignment_from_sizes(sizes: Sequence[int], n: int | None = None) -> CommunityAssignment:
    """Assignment with the first size_1 nodes in community 1, the next size_2
    in community 2, and so on; any remaining nodes are background.

    Empty sizes with an explicit n gives an all-background assignment (useful
    for pure-noise scenarios)."""
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("community sizes must be positive integers")
    if not sizes and n is None:
        raise ValueError("an all-background assignment needs an explicit n")
    total = sum(sizes)
    if n is None:
        n = total
    if n < total:
        raise ValueError(f"n={n} is smaller than the sum of sizes {total}")
    labels: list = []
    for k, s in enumerate(sizes, start=1):
        labels.extend([k] * s)
    labels.extend([BACKGROUND] * (n - total))
    return CommunityAssignment(n=n, m=len(sizes), labels=tuple(labels))


@dataclass(frozen=True)
class IndicatorMatrix:
    """One-hot membership matrix A (n x m); background nodes are zero rows."""

    entries: np.ndarray
    sizes: tuple[int, ...]


def build_indicator(assignment: CommunityAssignment) -> IndicatorMatrix:
    """Build the n x m indicator matrix: row i is one-hot at node i's community."""
    a = np.zeros((assignment.n, assignment.m))
    for i, lab in enumerate(assignment.labels):
        if lab != BACKGROUND:
            a[i, int(lab) - 1] = 1.0
    sizes = tuple(int(s) for s in a.sum(axis=0))
    return IndicatorMatrix(entries=a, sizes=sizes)


def mean_matrix(a: IndicatorMatrix) -> np.ndarray:
    """Post-change mean AA^T: (AA^T)_ij is 1 iff nodes i, j share a community."""
    return a.entries @ a.entries.T


@dataclass(frozen=True)
class GraphSnapshot:
    """One observed weighted graph at time index t; n is its node count."""

    t: int
    weights: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.weights)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"weights must be a square 2-D array, got shape {shape}")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def sample_snapshot(
    mean: np.ndarray,
    sigma: float,
    convention: str,
    rng: np.random.Generator,
    t: int = 0,
) -> GraphSnapshot:
    """Draw one snapshot with entrywise mean `mean` and noise level sigma.

    Under the "symmetric" convention the upper triangle (diagonal included)
    is drawn independently and mirrored, so G = G^T holds bit-exactly. Under
    "iid-full" all n^2 entries are drawn independently and no symmetry holds.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and nonnegative")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 2 or mean.shape[0] != mean.shape[1]:
        raise ValueError("mean must be a square matrix")
    return GraphSnapshot(t=t, weights=_draw_block([(mean, 1)], sigma, convention, rng)[0])


@lru_cache(maxsize=_CACHE_MAXSIZE)
def _triu_cache(n: int):
    return np.triu_indices(n)


def _draw_block(runs, sigma, convention, rng) -> np.ndarray:
    """Weights of consecutive snapshots as one (k, n, n) block: runs holds
    (mean, count) pairs, and the block's rows are count snapshots about each
    mean in turn.

    The k rows' normal draws come from one 1-D standard_normal call and are
    used in row order; the generator fills them in sequence, so the block
    holds the bits that k one-snapshot draws would. sigma = 0 draws nothing.
    """
    n = runs[0][0].shape[0]
    if sigma == 0:
        return np.concatenate([np.broadcast_to(mean, (count, n, n)) for mean, count in runs])
    k = sum(count for _, count in runs)
    iu = _triu_cache(n) if convention == SYMMETRIC else None
    d = n * n if iu is None else iu[0].size
    vals = sigma * rng.standard_normal(k * d).reshape(k, d)
    row = 0
    for mean, count in runs:
        vals[row : row + count] += mean.ravel() if iu is None else mean[iu]
        row += count
    if iu is None:
        return vals.reshape(k, n, n)
    block = np.empty((k, n, n))
    block[:, iu[0], iu[1]] = vals
    block.transpose(0, 2, 1)[:, iu[0], iu[1]] = vals
    return block


def _block_rows(n: int) -> int:
    """Snapshots iter_stream draws at a time: at most 16, and at most 64 KB
    of weights, but at least one."""
    return max(1, min(16, (1 << 16) // (8 * n * n)))


@dataclass(frozen=True)
class StreamScenario:
    """Everything needed to generate one snapshot stream deterministically.

    tau is the change point: snapshots 1..tau are pre-change (zero mean),
    snapshots tau+1..horizon are post-change (mean AA^T). tau=None means the
    change never happens; tau=0 means every snapshot is post-change.
    """

    assignment: CommunityAssignment
    sigma: float
    tau: int | None
    horizon: int
    seed: int = 0
    convention: str = SYMMETRIC

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.tau is not None and self.tau < 0:
            raise ValueError("tau must be nonnegative or None")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")


def iter_stream(
    scenario: StreamScenario,
    rng: np.random.Generator | None = None,
    horizon: int | None = None,
) -> Iterator[GraphSnapshot]:
    """Lazily generate snapshots 1..horizon for a scenario.

    An explicit rng (used by the Monte Carlo harness for per-replication
    generators) overrides the scenario seed; an explicit horizon overrides
    the scenario horizon. Draws happen in time order, so a longer horizon
    extends a shorter stream of the same scenario without changing its prefix.
    Snapshots are drawn a block of up to 16 at a time (see _block_rows) and
    their weights are views into that block; a block never reaches past the
    horizon, and the bits are those of one draw per snapshot.
    """
    if rng is None:
        rng = rng_from_key(scenario.seed, 0)
    if horizon is None:
        horizon = scenario.horizon
    a = build_indicator(scenario.assignment)
    post_mean = mean_matrix(a)
    pre_mean = np.zeros_like(post_mean)
    tau = scenario.tau
    rows = _block_rows(scenario.assignment.n)
    for start in range(1, horizon + 1, rows):
        k = min(rows, horizon + 1 - start)
        pre = k if tau is None else min(max(tau + 1 - start, 0), k)
        block = _draw_block(
            [(pre_mean, pre), (post_mean, k - pre)], scenario.sigma, scenario.convention, rng
        )
        for i in range(k):
            yield GraphSnapshot(t=start + i, weights=block[i])


def make_stream(scenario: StreamScenario) -> list[GraphSnapshot]:
    """Materialize the full stream for a scenario (see iter_stream)."""
    return list(iter_stream(scenario))
