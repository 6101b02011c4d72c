"""Community structure, indicator matrices, and Gaussian snapshot streams.

The observation model: at each time step t we see a weighted graph on n nodes
whose adjacency matrix G_t has independent Gaussian entries. Before the change
point every edge weight has mean zero; after it, the mean jumps to (AA^T)_ij,
where A is the one-hot community indicator matrix. Community sizes are the
nonzero eigenvalues of AA^T.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

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


def _whole(name: str, value) -> int:
    """value as an int, if it is an integer or an integral float; a bool or
    any other value raises ValueError."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CommunityAssignment:
    """Communities by size on n nodes: the first sizes[0] nodes are community
    1, the next sizes[1] community 2, and so on; the rest are background.
    Sizes and n must be integral (a bool is refused) and are stored as ints."""

    sizes: tuple[int, ...]
    n: int

    def __post_init__(self):
        sizes = tuple(_whole("community size", s) for s in self.sizes)
        if any(s < 1 for s in sizes):
            raise ValueError("community sizes must be positive integers")
        n = _whole("n", self.n)
        if n < sum(sizes):
            raise ValueError(f"n={n} is smaller than the sum of sizes {sum(sizes)}")
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "n", n)

    @property
    def m(self) -> int:
        return len(self.sizes)


def assignment_from_sizes(sizes: Sequence[int], n: int | None = None) -> CommunityAssignment:
    """Assignment of the given sizes on n nodes, n defaulting to their sum;
    empty sizes need an explicit n, for an all-background (pure-noise) one."""
    if n is None and not sizes:
        raise ValueError("an all-background assignment needs an explicit n")
    sizes = tuple(_whole("community size", s) for s in sizes)
    return CommunityAssignment(sizes=sizes, n=sum(sizes) if n is None else n)


@dataclass(frozen=True)
class IndicatorMatrix:
    """One-hot membership matrix A (n x m); background nodes are zero rows."""

    entries: np.ndarray
    sizes: tuple[int, ...]


def build_indicator(assignment: CommunityAssignment) -> IndicatorMatrix:
    """Build the n x m indicator matrix: row i is one-hot at node i's community."""
    sizes = assignment.sizes
    a = np.zeros((assignment.n, len(sizes)))
    a[np.arange(sum(sizes)), np.repeat(np.arange(len(sizes)), sizes)] = 1.0
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


def _check_sigma(sigma: float) -> None:
    """Refuse a sigma whose draws could overflow. numpy's standard normals
    stay below 13.7 in size (the tail draw is r + (-ln(1 - u)) / r with
    r = 3.654 and u <= 1 - 2**-53), so sigma * z stays finite up to
    sys.float_info.max / 16."""
    if not 0 <= sigma <= sys.float_info.max / 16:
        raise ValueError(f"sigma must be finite, nonnegative and at most {sys.float_info.max / 16!r}")


@lru_cache(maxsize=_CACHE_MAXSIZE)
def _triu_cache(n: int):
    return np.triu_indices(n)


@lru_cache(maxsize=_CACHE_MAXSIZE)
def _mirror(n: int) -> np.ndarray:
    """Read-only: each n x n entry's position, row-major, in the _triu_cache(n) triangle."""
    iu = _triu_cache(n)
    pos = np.empty((n, n), np.intp)
    pos[iu] = pos.T[iu] = np.arange(iu[0].size)
    pos.flags.writeable = False
    return pos.ravel()


def _draw_block(runs, sigma, convention, rng) -> np.ndarray:
    """Weights of consecutive snapshots as one (k, n, n) block: runs holds
    (mean, count) pairs, and the block's rows are count snapshots about each
    mean in turn.

    The k rows' normal draws come from one 1-D standard_normal call and are
    used in row order; the generator fills them in sequence, so the block
    holds the bits that k one-snapshot draws would. sigma = 0 draws nothing:
    the rows start from zeros, and are mirrored like the draws at any sigma.
    """
    n = runs[0][0].shape[0]
    k = sum(count for _, count in runs)
    iu = _triu_cache(n) if convention == SYMMETRIC else None
    d = n * n if iu is None else iu[0].size
    vals = sigma * rng.standard_normal(k * d).reshape(k, d) if sigma else np.zeros((k, d))
    row = 0
    for mean, count in runs:
        vals[row : row + count] += mean.ravel() if iu is None else mean[iu]
        row += count
    if iu is not None:
        vals = vals.take(_mirror(n), axis=1)
    return vals.reshape(k, n, n)


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
    horizon and tau must be integral (a bool is refused) and are stored as
    ints.
    """

    assignment: CommunityAssignment
    sigma: float
    tau: int | None
    horizon: int
    seed: int = 0
    convention: str = SYMMETRIC

    def __post_init__(self):
        _check_sigma(self.sigma)
        object.__setattr__(self, "horizon", _whole("horizon", self.horizon))
        if self.tau is not None:
            object.__setattr__(self, "tau", _whole("tau", self.tau))
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
    the scenario horizon, and one that is not an integer of at least 1
    raises ValueError at the first pull. Draws happen in time order, so a
    longer horizon extends a shorter stream of the same scenario without
    changing its prefix.
    Snapshots are drawn a block of up to 16 at a time (see _block_rows) and
    their weights are views into that block; a block never reaches past the
    horizon, and the bits are those of one draw per snapshot.
    """
    if rng is None:
        rng = rng_from_key(scenario.seed, 0)
    horizon = scenario.horizon if horizon is None else _whole("horizon", horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
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

