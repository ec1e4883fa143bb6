"""Bundled synthetic dataset generator.

Two Gaussian normal clusters plus two anomaly clusters: a "direct" cluster
separated along f2 (the source of labeled anomalies) and a "rule" cluster
separated along f3, intended to be covered only by acquired rules and
therefore absent from the weakly-labeled training pool.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .evaluate import Dataset

CLUSTERS = ("normal_a", "normal_b", "direct", "rule")


def make_synthetic(
    seed: int = 0,
    n_normal: int = 1500,
    n_direct: int = 90,
    n_rule: int = 150,
    n_features: int = 4,
    noise: float = 0.5,
) -> tuple[Dataset, np.ndarray]:
    """Returns (dataset, cluster tags).  Feature names are f1..fd.

    Draw order: one ``default_rng(seed)`` stream gives each cluster's
    standard normal rows in ``CLUSTERS`` order (normal_a holds
    ``n_normal // 2`` rows, normal_b the rest), then one
    ``permutation`` of all rows shuffles them.  Each value is
    ``center + z * noise``.

    Memory: the rows are drawn into the returned ``X`` itself and the shuffle
    gathers at most a quarter of its columns at a time, so the call holds at
    most about 1.2x the bytes it returns (``X``, ``y`` and the tags).

    Raises ConfigError for a negative seed or count, no rows, fewer than 4
    features, a noise that is not finite and positive, a noise so large that
    a value overflows, or an ``X`` that cannot be allocated.
    """
    sizes = (n_normal // 2, n_normal - n_normal // 2, n_direct, n_rule)
    for name, value in (("seed", seed), ("n_normal", n_normal), ("n_direct", n_direct),
                        ("n_rule", n_rule)):
        if value < 0:
            raise ConfigError(f"synthetic {name} must be >= 0, got {value}")
    if sum(sizes) == 0:
        raise ConfigError("synthetic n_normal + n_direct + n_rule must be > 0, got 0 rows")
    if n_features < 4:
        raise ConfigError(f"synthetic n_features must be >= 4, got {n_features}")
    if not (math.isfinite(noise) and noise > 0):
        raise ConfigError(f"synthetic noise must be finite and > 0, got {noise}")
    centers = np.zeros((len(CLUSTERS), n_features))
    centers[1, :2] = 2.5  # normal_b
    centers[2, 1] = 5.0  # direct, along f2
    centers[3, 2] = 5.0  # rule, along f3

    rng = np.random.default_rng(seed)
    try:
        X = np.empty((sum(sizes), n_features))
    except MemoryError:
        raise ConfigError(
            f"synthetic {sum(sizes)} rows x {n_features} features do not fit in memory"
        ) from None
    stop = 0
    for center, size in zip(centers, sizes):
        block = X[stop : stop + size]
        stop += size
        rng.standard_normal(out=block)
        with np.errstate(over="ignore"):
            block *= noise
        block += center
        if not np.isfinite(block).all():
            raise ConfigError(f"synthetic noise {noise} overflows a generated value")

    order = rng.permutation(X.shape[0])
    width = max(1, n_features // 4)
    for j in range(0, n_features, width):
        X[:, j : j + width] = np.take(X[:, j : j + width], order, axis=0)
    codes = np.repeat(np.arange(len(CLUSTERS), dtype=np.int8), sizes)[order]
    del order
    tag_width = max(len(name) for name, size in zip(CLUSTERS, sizes) if size)  # of drawn names
    tags = np.array(CLUSTERS, dtype=f"<U{tag_width}")[codes]
    names = [f"f{i + 1}" for i in range(n_features)]
    return Dataset(X, (codes >= CLUSTERS.index("direct")).astype(np.int64), names), tags
