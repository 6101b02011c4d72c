"""Slow, obvious twins that the tests use as oracles for the package's fast
paths. pytest does not collect this module; test modules import from it."""

import math
from typing import Iterable

import numpy as np


def cusum_maxform(increments: Iterable[float]) -> list[float]:
    """Brute-force max-form statistic: S_t = max over k <= t of sum(z_k..z_t).

    Computed by scanning all candidate change points, independently of the
    recursion, so it can serve as an oracle for the recursive form.
    """
    incs = [float(z) for z in increments]
    stats = []
    for t in range(1, len(incs) + 1):
        best = -math.inf
        acc = 0.0
        for k in range(t - 1, -1, -1):
            acc += incs[k]
            if acc > best:
                best = acc
        stats.append(best)
    return stats


def indicator_from_labels(sizes, n: int):
    """Slow twin of graph_model.build_indicator at the assignment
    (sizes, n): one label per node, community k for the sizes[k - 1] nodes
    after the earlier communities and 0 for the background nodes after them
    all, then the n x m matrix filled one node at a time. Returns the matrix
    and its column sums as the sizes."""
    labels = []
    for k, s in enumerate(sizes, start=1):
        labels.extend([k] * s)
    labels.extend([0] * (n - sum(sizes)))
    a = np.zeros((n, len(sizes)))
    for i, lab in enumerate(labels):
        if lab:
            a[i, lab - 1] = 1.0
    return a, tuple(int(s) for s in a.sum(axis=0))
