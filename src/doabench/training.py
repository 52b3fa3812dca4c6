"""Dataset construction, the supervised training loop, and the two inference
decoders (top-K and confidence threshold).

Training examples are built from the ensemble covariance of on-grid scenes
with unit source powers; the per-SNR noise power follows from the SNR
definition. Datasets hold lightweight recipes (SNR, angle tuple) and
materialize input tensors on demand, so even the large mixed-source sets can
be enumerated without holding every tensor in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .arraymodel import (
    GridSpec,
    UlaGeometry,
    build_input_channels,
    encode_label,
    ensemble_covariance,
)
from .nn import (
    Network,
    NetworkSpec,
    adam_step,
    bce_loss,
    init_adam_state,
    init_params,
)

__all__ = [
    "TrainingDiverged",
    "TrainConfig",
    "Dataset",
    "TrainingHistory",
    "build_fixed_k_dataset",
    "build_mixed_k_dataset",
    "train",
    "predict_topk",
    "predict_threshold",
    "noise_power_for_snr",
]

# Guard against absurd grid/source-count combinations.
_MAX_DATASET_SIZE = 10_000_000


class TrainingDiverged(RuntimeError):
    """The training loss became non-finite."""


def noise_power_for_snr(snr_db: float) -> float:
    """Noise power giving the requested SNR for unit source powers."""
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    epochs: int = 200
    initial_lr: float = 0.001
    lr_halving_period_epochs: int = 10
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch normalization needs batches of at least 2")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation fraction must lie strictly between 0 and 1")
        if self.lr_halving_period_epochs < 1:
            raise ValueError("the halving period must be at least one epoch")


@dataclass(frozen=True)
class Dataset:
    """Covariance-channel / label pairs described by (SNR, angles) recipes."""

    grid: GridSpec
    geom: UlaGeometry
    snr_db_list: tuple[float, ...]
    k_policy: str
    recipes: tuple = field(repr=False)

    def __len__(self) -> int:
        return len(self.recipes)

    def example(self, i: int):
        """Materialize example ``i`` as ``(input_tensor, label_vector)``."""
        x, z = self.batch([i])
        return x[0], z[0]

    def batch(self, indices):
        """Input tensors (B, N, N, 3) and label vectors (B, G) of the listed
        examples. The covariances of all examples with the same source count
        are built in one :func:`ensemble_covariance` call."""
        recipes = [self.recipes[int(i)] for i in indices]
        # Labels first: encoding checks that every angle is a distinct grid point.
        z = np.stack([encode_label(self.grid, angles) for _, angles in recipes])
        n = self.geom.n_sensors
        x = np.empty((len(recipes), n, n, 3))
        counts = np.array([len(angles) for _, angles in recipes])
        for k in np.unique(counts):
            if k >= n:
                raise ValueError(f"{k} sources are not identifiable with {n} sensors")
            rows = np.flatnonzero(counts == k)
            doas = np.array([recipes[r][1] for r in rows])
            noise = np.array([noise_power_for_snr(recipes[r][0]) for r in rows])
            x[rows] = build_input_channels(
                ensemble_covariance(self.geom, doas, np.ones_like(doas), noise)
            )
        return x, z


@dataclass(frozen=True)
class TrainingHistory:
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    learning_rate: tuple[float, ...]


def _combinations_dataset(grid, geom, ks, snrs, k_policy: str) -> Dataset:
    """All k-combinations of grid angles for each listed k, at each SNR."""
    count = len(snrs) * sum(comb(grid.n_points, k) for k in ks)
    if count > _MAX_DATASET_SIZE:
        raise ValueError(
            f"dataset of {count} examples exceeds the {_MAX_DATASET_SIZE} safety cap"
        )
    points = [float(p) for p in grid.points]
    recipes = tuple(
        (snr, angles) for snr in snrs for k in ks for angles in combinations(points, k)
    )
    return Dataset(grid, geom, snrs, k_policy, recipes)


def build_fixed_k_dataset(
    grid: GridSpec, geom: UlaGeometry, k: int, snr_db_list
) -> Dataset:
    """All K-combinations of grid angles at every listed SNR.

    One example per (SNR, combination): the input channels of the ensemble
    covariance with unit source powers, labelled by the combination's grid
    indicator.
    """
    if not 1 <= k <= geom.n_sensors - 1:
        raise ValueError(f"source count {k} must satisfy 1 <= k <= {geom.n_sensors - 1}")
    snrs = tuple(float(s) for s in snr_db_list)
    return _combinations_dataset(grid, geom, (k,), snrs, f"fixed-{k}")


def build_mixed_k_dataset(
    grid: GridSpec, geom: UlaGeometry, k_max: int, snr_db: float
) -> Dataset:
    """Union over k = 1..k_max of all k-combinations of grid angles at one SNR."""
    if not 1 <= k_max <= geom.n_sensors - 1:
        raise ValueError(
            f"maximum source count {k_max} must satisfy 1 <= k <= {geom.n_sensors - 1}"
        )
    ks = range(1, k_max + 1)
    return _combinations_dataset(grid, geom, ks, (float(snr_db),), f"mixed-1..{k_max}")


def _batch_indices(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    batches = [order[i : i + batch_size] for i in range(0, order.size, batch_size)]
    # A trailing singleton cannot pass through batch norm in train mode;
    # fold it into the previous batch.
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _mean_loss(network: Network, dataset: Dataset, indices, batch_size: int) -> float:
    total = 0.0
    for start in range(0, len(indices), batch_size):
        chunk = indices[start : start + batch_size]
        x, z = dataset.batch(chunk)
        p = network.forward(x, train=False)
        loss, _ = bce_loss(p, z)
        total += loss
    return total / len(indices)


def train(spec: NetworkSpec, dataset: Dataset, config: TrainConfig):
    """Minimize the mean per-example cross-entropy with Adam.

    The dataset is split once into train/validation parts (deterministic in
    the seed), each epoch is one shuffled pass, and the learning rate is
    ``initial_lr * 0.5**floor(epoch / period)``. Returns the parameters after
    the final epoch together with the per-epoch history.
    """
    if len(dataset) < 2:
        raise ValueError("need at least two examples to split and train")
    if spec.output_length != dataset.grid.n_points:
        raise ValueError(
            f"network output length {spec.output_length} does not match the "
            f"grid's {dataset.grid.n_points} points"
        )
    root = np.random.SeedSequence(config.seed)
    init_rng, split_rng, shuffle_rng, dropout_rng = (
        np.random.default_rng(s) for s in root.spawn(4)
    )
    params = init_params(spec, init_rng)
    network = Network(spec, params)
    state = init_adam_state(params, lr=config.initial_lr)

    perm = split_rng.permutation(len(dataset))
    n_val = max(1, int(round(config.validation_fraction * len(dataset))))
    n_val = min(n_val, len(dataset) - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    train_losses, val_losses, lrs = [], [], []
    for epoch in range(config.epochs):
        lr = config.initial_lr * 0.5 ** (epoch // config.lr_halving_period_epochs)
        state.lr = lr
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        epoch_loss = 0.0
        for batch in _batch_indices(order, config.batch_size):
            x, z = dataset.batch(batch)
            p = network.forward(x, train=True, rng=dropout_rng)
            loss, dlogits = bce_loss(p, z)
            batch_loss = loss / batch.size
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} (lr={lr:g}); "
                    "reduce the learning rate"
                )
            grads = network.backward_from_logits(dlogits / batch.size)
            adam_step(state, params, grads)
            epoch_loss += batch_loss * batch.size
        train_losses.append(epoch_loss / train_idx.size)
        val_losses.append(_mean_loss(network, dataset, val_idx, config.batch_size))
        lrs.append(lr)
    history = TrainingHistory(tuple(train_losses), tuple(val_losses), tuple(lrs))
    return params, history


def predict_topk(
    spec: NetworkSpec, params: list[dict], grid: GridSpec, x, k: int
) -> np.ndarray:
    """Grid angles of the K largest output probabilities, ties toward the
    smaller angle."""
    if k < 1:
        raise ValueError("need at least one source")
    if k > grid.n_points:
        raise ValueError(f"cannot select {k} angles from {grid.n_points} grid points")
    p = Network(spec, params).forward(x, train=False)
    order = np.lexsort((grid.points, -p))
    return np.sort(grid.points[order[:k]])


def predict_threshold(
    spec: NetworkSpec, params: list[dict], grid: GridSpec, x, p_bar: float
) -> np.ndarray:
    """All grid angles whose probability reaches the confidence level; the
    result's cardinality is the inferred source count (possibly zero)."""
    if not 0.0 < p_bar < 1.0:
        raise ValueError("the confidence level must lie strictly between 0 and 1")
    p = Network(spec, params).forward(x, train=False)
    return grid.points[p >= p_bar]
