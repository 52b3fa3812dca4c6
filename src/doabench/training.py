"""Dataset construction, the supervised training loop, and the two decoders
(top-K and confidence threshold) of the network's output probabilities.

Training examples are built from the ensemble covariance of on-grid scenes
with unit source powers; the per-SNR noise power follows from the SNR
definition. Datasets hold lightweight (SNR, grid-index support) recipes and
materialize examples on demand, so even the large mixed-source sets can be
enumerated without holding every tensor in memory.
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
    check_source_count,
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

# Adam's learning rate before the first halving, and the share of a dataset
# held out for validation (at least one example)
_INITIAL_LR = 0.001
_VALIDATION_FRACTION = 0.1


class TrainingDiverged(RuntimeError):
    """The training loss became non-finite."""


def noise_power_for_snr(snr_db: float) -> float:
    """Noise power giving the requested SNR for unit source powers."""
    try:
        power = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        power = np.inf
    if not np.isfinite(power):
        raise ValueError(
            f"noise power must be a finite non-negative number, got {power} for {snr_db} dB SNR"
        )
    return power


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    epochs: int = 200
    lr_halving_period_epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch normalization needs batches of at least 2")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.lr_halving_period_epochs < 1:
            raise ValueError("the halving period must be at least one epoch")


@dataclass(frozen=True)
class Dataset:
    """Covariance-channel / label pairs of (SNR, grid-index support) recipes."""

    grid: GridSpec
    geom: UlaGeometry
    recipes: tuple = field(repr=False)

    def __len__(self) -> int:
        return len(self.recipes)

    def batch(self, indices):
        """Input tensors (B, N, N, 3) and label vectors (B, G) of the listed
        examples. The covariances of all examples with the same source count
        are built in one :func:`ensemble_covariance` call."""
        recipes = [self.recipes[int(i)] for i in indices]
        n, g = self.geom.n_sensors, self.grid.n_points
        x = np.empty((len(recipes), n, n, 3))
        z = np.zeros((len(recipes), g))
        counts = np.array([len(support) for _, support in recipes])
        for k in np.unique(counts):
            check_source_count(k, n)
            rows = np.flatnonzero(counts == k)
            support = np.array([recipes[r][1] for r in rows], dtype=np.intp)
            if np.any((support < 0) | (support >= g)):
                raise ValueError(f"grid index outside [0, {g})")
            if np.any(np.diff(np.sort(support, axis=1), axis=1) == 0):
                raise ValueError("two sources fall on the same grid point")
            z[rows[:, None], support] = 1.0
            doas = self.grid.points[support]
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


def _combinations_dataset(grid, geom, ks, snrs) -> Dataset:
    """All k-combinations of grid indices for each listed k, at each SNR."""
    count = len(snrs) * sum(comb(grid.n_points, k) for k in ks)
    if count > _MAX_DATASET_SIZE:
        raise ValueError(
            f"dataset of {count} examples exceeds the {_MAX_DATASET_SIZE} safety cap"
        )
    for snr in snrs:
        noise_power_for_snr(snr)  # an SNR without a finite noise power fails before training
    supports = [s for k in ks for s in combinations(range(grid.n_points), k)]
    recipes = tuple((snr, support) for snr in snrs for support in supports)
    return Dataset(grid, geom, recipes)


def build_fixed_k_dataset(
    grid: GridSpec, geom: UlaGeometry, k: int, snr_db_list
) -> Dataset:
    """All K-combinations of grid points at every listed SNR.

    One example per (SNR, combination): the input channels of the ensemble
    covariance with unit source powers, labelled by the combination's grid
    indicator.
    """
    check_source_count(k, geom.n_sensors, least=1)
    snrs = tuple(float(s) for s in snr_db_list)
    return _combinations_dataset(grid, geom, (k,), snrs)


def build_mixed_k_dataset(
    grid: GridSpec, geom: UlaGeometry, k_max: int, snr_db: float
) -> Dataset:
    """Union over k = 1..k_max of all k-combinations of grid points at one SNR."""
    check_source_count(k_max, geom.n_sensors, least=1)
    ks = range(1, k_max + 1)
    return _combinations_dataset(grid, geom, ks, (float(snr_db),))


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

    The dataset is split once into train/validation parts (a tenth for
    validation, deterministic in the seed), each epoch is one shuffled pass,
    and the learning rate is ``0.001 * 0.5**floor(epoch / period)``. Returns
    the parameters after the final epoch together with the per-epoch history.
    """
    n_val = max(1, int(round(_VALIDATION_FRACTION * len(dataset))))
    n_train = len(dataset) - n_val
    if n_train < 2:
        # A training batch must hold two examples for batch normalization.
        raise ValueError(
            f"need at least two training examples; validation fraction "
            f"{_VALIDATION_FRACTION:g} of {len(dataset)} examples leaves "
            f"{max(n_train, 0)}"
        )
    if spec.output_length != dataset.grid.n_points:
        raise ValueError(
            f"network output length {spec.output_length} does not match the "
            f"grid's {dataset.grid.n_points} points"
        )
    root = np.random.SeedSequence(config.seed)
    init_rng, split_rng, shuffle_rng, dropout_rng = (
        np.random.default_rng(s) for s in root.spawn(4)
    )
    network = Network(spec, init_params(spec, init_rng))
    state = init_adam_state(network.flat.shape[1])

    perm = split_rng.permutation(len(dataset))
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    train_losses, val_losses, lrs = [], [], []
    for epoch in range(config.epochs):
        lr = _INITIAL_LR * 0.5 ** (epoch // config.lr_halving_period_epochs)
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
            network.backward_from_logits(dlogits / batch.size)
            adam_step(state, *network.flat, lr)
            epoch_loss += batch_loss * batch.size
        train_losses.append(epoch_loss / train_idx.size)
        val_losses.append(_mean_loss(network, dataset, val_idx, config.batch_size))
        lrs.append(lr)
    history = TrainingHistory(tuple(train_losses), tuple(val_losses), tuple(lrs))
    return network.params, history


def _grid_probabilities(p, grid: GridSpec) -> np.ndarray:
    p = np.asarray(p)
    if p.shape != (grid.n_points,):
        raise ValueError(f"need one probability per grid point {(grid.n_points,)}, got {p.shape}")
    return p


def predict_topk(p, grid: GridSpec, k: int) -> np.ndarray:
    """Grid angles of the K largest of the network's output probabilities
    ``p`` (one per grid point), ties toward the smaller angle."""
    if k < 1:
        raise ValueError("need at least one source")
    if k > grid.n_points:
        raise ValueError(f"cannot select {k} angles from {grid.n_points} grid points")
    order = np.argsort(-_grid_probabilities(p, grid), kind="stable")  # points ascend
    return np.sort(grid.points[order[:k]])


def predict_threshold(p, grid: GridSpec, p_bar: float) -> np.ndarray:
    """Grid angles whose probability in ``p`` reaches the confidence level; the
    result's cardinality is the inferred source count (possibly zero)."""
    if not 0.0 < p_bar < 1.0:
        raise ValueError("the confidence level must lie strictly between 0 and 1")
    return grid.points[_grid_probabilities(p, grid) >= p_bar]
