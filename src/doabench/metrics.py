"""Evaluation metrics: empirical RMSE, Hausdorff set distance and source-count
confusion matrices."""

from __future__ import annotations

import numpy as np

__all__ = ["rmse", "hausdorff", "confusion"]


def rmse(truths, estimates) -> float:
    """Empirical RMSE in degrees over a batch of trials.

    Within a trial the truth and estimate sets have the same size, which may
    differ from trial to trial. Each trial's sets are sorted ascending and
    paired positionally (for 1-D squared error this pairing is optimal); the
    result is ``sqrt(mean of squared pairwise errors)`` over all trials and
    sources.
    """
    if len(truths) != len(estimates):
        raise ValueError("need one estimate set per truth set")
    if len(truths) == 0:
        raise ValueError("need at least one trial")
    total = 0.0
    count = 0
    for t, e in zip(truths, estimates):
        t = np.sort(np.asarray(t, dtype=np.float64))
        e = np.sort(np.asarray(e, dtype=np.float64))
        if t.size == 0:
            raise ValueError("angle sets must be non-empty")
        if e.size != t.size:
            raise ValueError("a trial's truth and estimate sets must have the same size")
        total += float(np.sum((t - e) ** 2))
        count += t.size
    return float(np.sqrt(total / count))


def hausdorff(a, b) -> float:
    """Hausdorff distance in degrees between two angle sets.

    The maximum over both directed distances, where the directed distance
    from A to B is ``max_{x in A} min_{y in B} |x - y|``. Two empty sets are
    at distance 0; if exactly one set is empty the distance is ``inf``
    (a detection failure, distinct from every finite value).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    diff = np.abs(a[:, None] - b[None, :])
    return float(max(diff.min(axis=1).max(), diff.min(axis=0).max()))


def confusion(true_counts, predicted_counts, k_display: int) -> np.ndarray:
    """Source-count confusion matrix.

    Entry ``(i, j)`` counts trials with true count i and predicted count j,
    for counts 0..``k_display``; predictions above ``k_display`` land in the
    final column.
    """
    true_counts = np.asarray(true_counts, dtype=np.int64)
    predicted_counts = np.asarray(predicted_counts, dtype=np.int64)
    if true_counts.shape != predicted_counts.shape:
        raise ValueError("need one prediction per truth")
    if k_display < 0:
        raise ValueError("k_display cannot be negative")
    size = k_display + 1
    matrix = np.zeros((size, size), dtype=np.int64)
    for t, p in zip(true_counts, predicted_counts):
        matrix[min(int(t), k_display), min(int(p), k_display)] += 1
    return matrix
