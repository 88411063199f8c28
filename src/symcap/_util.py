"""Small shared helpers (RNG handling, deterministic formatting)."""

from __future__ import annotations

import numpy as np


def as_rng(seed=None):
    """Return a numpy Generator from a seed, a Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, count):
    """Deterministic independent child generators, one per restart.

    Child k depends only on the seed and k, not on ``count``: asking for
    more restarts leaves the streams of the first ones unchanged.
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def fmt(x):
    """Deterministic short decimal rendering used in reports."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def lexicographic_rank(rows):
    """Rank of each row of a 2d array in lexicographic order (0 = smallest).

    Ties between identical rows receive distinct ranks in input order, which
    keeps downstream tie breaking deterministic.
    """
    rows = np.asarray(rows)
    order = np.lexsort(rows.T[::-1])
    rank = np.empty(len(rows), dtype=int)
    rank[order] = np.arange(len(rows))
    return rank
