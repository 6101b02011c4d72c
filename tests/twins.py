"""Slow, obvious twins that the tests use as oracles for the package's fast
paths. pytest does not collect this module; test modules import from it."""

import math
from typing import Iterable


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
