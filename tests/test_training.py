"""Dataset-builder counts, training-loop contracts and the two decoders."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from doabench import training
from doabench.arraymodel import (
    GridSpec,
    UlaGeometry,
    build_input_channels,
    manifold,
)
from doabench.nn import init_params
from doabench.nn.layers import (
    _BATCHNORM_EPS,
    _BATCHNORM_MOMENTUM,
    BatchNormLayer,
    ConvLayer,
    _windows,
)
from doabench.nn.network import TRAINABLE_KEYS
from doabench.nn.optim import _BETA1, _BETA2, _EPS
from doabench.profiles import PROFILES, build_network_spec
from doabench.training import (
    Dataset,
    TrainConfig,
    TrainingDiverged,
    build_fixed_k_dataset,
    build_mixed_k_dataset,
    noise_power_for_snr,
    predict_threshold,
    predict_topk,
    train,
)

# Reference copies of an earlier training step, kept as the oracle for the
# flat-buffer Adam, the im2col kernel gradient and the once-centred batch norm:
# the same arithmetic, one block, one offset and one expression at a time.


def reference_init_adam_state(params):
    """Per-block moments shaped like the trainable arrays of ``params``."""
    def zeros():
        return [{k: np.zeros_like(v) for k, v in block.items() if k in TRAINABLE_KEYS}
                for block in params]

    return SimpleNamespace(moments1=zeros(), moments2=zeros(), step=0)


def reference_adam_step(state, params, grads, lr):
    state.step += 1
    correct1 = 1.0 - _BETA1**state.step
    correct2 = 1.0 - _BETA2**state.step
    scale = lr * np.sqrt(correct2) / correct1
    for block, gblock, m1, m2 in zip(params, grads, state.moments1, state.moments2):
        for key, g in gblock.items():
            m1[key] *= _BETA1
            m1[key] += (1.0 - _BETA1) * g
            m2[key] *= _BETA2
            m2[key] += (1.0 - _BETA2) * g * g
            block[key] -= scale * m1[key] / (np.sqrt(m2[key]) + _EPS * np.sqrt(correct2))


def _block_views(vector, blocks):
    """Views of ``vector`` shaped like ``blocks``, in block order and then key order."""
    views, start = [], 0
    for block in blocks:
        views.append({})
        for key, value in block.items():
            views[-1][key] = vector[start : start + value.size].reshape(value.shape)
            start += value.size
    return views


def reference_flat_adam_step(state, p, g, lr):
    """The per-block reference step on views of the network's flat vectors."""
    views = [_block_views(vector, state.moments1) for vector in (p, g)]
    reference_adam_step(state, *views, lr)


def reference_conv_backward(self, g, input_grad=True):
    # Forms the input gradient even when `input_grad` is false; the network
    # then discards it.
    kernels, s = self.params["kernels"], self.spec.stride
    k, _, c, f = kernels.shape
    win = _windows(self._x, k, s)
    dk = win.transpose(3, 4, 5, 0, 1, 2).reshape(c * k * k, -1) @ g.reshape(-1, f)
    self.grads["kernels"][...] = dk.reshape(c, k, k, f).transpose(1, 2, 0, 3)
    self.grads["bias"][...] = g.sum(axis=(0, 1, 2))
    dx = np.zeros_like(self._x)
    b, oh, ow, _ = g.shape
    g2 = g.reshape(-1, f)
    for i in range(k):
        for j in range(k):
            dx[:, i : i + s * oh : s, j : j + s * ow : s, :] += (
                np.dot(g2, kernels[i, j].T).reshape(b, oh, ow, c)
            )
    return dx


def reference_batchnorm_forward(self, x, train, rng):
    p = self.params
    if train:
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        p["running_mean"] *= 1.0 - _BATCHNORM_MOMENTUM
        p["running_mean"] += _BATCHNORM_MOMENTUM * mean
        p["running_var"] *= 1.0 - _BATCHNORM_MOMENTUM
        p["running_var"] += _BATCHNORM_MOMENTUM * var
    else:
        mean, var = p["running_mean"], p["running_var"]
    std = np.sqrt(var + _BATCHNORM_EPS)
    self._cache = (x if train else None, mean, 1.0 / std)
    return p["gain"] * (x - mean) / std + p["shift"]


def reference_batchnorm_backward(self, g):
    x, mean, inv_std = self._cache
    gain = self.params["gain"]
    if x is None:
        return g * gain * inv_std
    axes = tuple(range(x.ndim - 1))
    xhat = (x - mean) * inv_std
    self.grads["gain"][...] = np.sum(g * xhat, axis=axes)
    self.grads["shift"][...] = np.sum(g, axis=axes)
    dxhat = g * gain
    return (dxhat - dxhat.mean(axis=axes) - xhat * np.mean(dxhat * xhat, axis=axes)) * inv_std


GRID61 = GridSpec(30.0, 1.0)
GEOM8 = UlaGeometry(8, 0.5)
GRID121 = GridSpec(60.0, 1.0)
GEOM16 = UlaGeometry(16, 0.5)


def tiny_dataset(n_examples=8, seed=0):
    full = build_fixed_k_dataset(GRID61, GEOM8, 2, (-10.0,))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(full), size=n_examples, replace=False)
    return Dataset(GRID61, GEOM8, tuple(full.recipes[int(i)] for i in picks))


class TestDatasetCounts:
    def test_single_snr_pair_count(self):
        ds = build_fixed_k_dataset(GRID121, GEOM16, 2, (-10.0,))
        assert len(ds) == 7_260

    def test_five_snr_total(self):
        ds = build_fixed_k_dataset(GRID121, GEOM16, 2, (-20.0, -15.0, -10.0, -5.0, 0.0))
        assert len(ds) == 36_300

    def test_three_point_grid(self):
        ds = build_fixed_k_dataset(GridSpec(1.0, 1.0), GEOM8, 1, (-5.0,))
        assert len(ds) == 3

    def test_mixed_full_scale_count(self):
        ds = build_mixed_k_dataset(GRID121, GEOM16, 3, -10.0)
        assert len(ds) == 295_361
        assert len(ds) == sum(comb(121, k) for k in (1, 2, 3))

    def test_mixed_k_max_one(self):
        assert len(build_mixed_k_dataset(GRID61, GEOM8, 1, 0.0)) == 61

    def test_mixed_small_grid_enumeration(self):
        grid = GridSpec(2.0, 1.0)  # points -2..2
        ds = build_mixed_k_dataset(grid, GEOM8, 2, 0.0)
        assert len(ds) == 15
        singles = [r for r in ds.recipes if len(r[1]) == 1]
        pairs = [r for r in ds.recipes if len(r[1]) == 2]
        assert len(singles) == 5 and len(pairs) == 10
        # brute-force enumeration of the pair set
        points = [-2.0, -1.0, 0.0, 1.0, 2.0]
        expected_pairs = {
            (a, b) for i, a in enumerate(points) for b in points[i + 1:]
        }
        assert {tuple(grid.points[list(r[1])]) for r in pairs} == expected_pairs

    def test_count_guard(self):
        with pytest.raises(ValueError):
            build_mixed_k_dataset(GridSpec(89.0, 0.01), GEOM16, 3, 0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_fixed_k_dataset(GRID61, GEOM8, 8, (-10.0,))


class TestDatasetExamples:
    def test_example_invariants(self):
        ds = build_fixed_k_dataset(GRID61, GEOM8, 2, (-10.0, 0.0))
        xs, zs = ds.batch([0, 100, len(ds) - 1])
        for x, z in zip(xs, zs):
            assert x.shape == (8, 8, 3) and z.shape == (61,)
            np.testing.assert_array_equal(x[:, :, 0], x[:, :, 0].T)
            np.testing.assert_array_equal(x[:, :, 1], -x[:, :, 1].T)
            assert np.all(x[:, :, 2] > -np.pi) and np.all(x[:, :, 2] <= np.pi)
            assert z.sum() == 2.0 and set(np.unique(z)) <= {0.0, 1.0}

    def test_batch_matches_one_example_at_a_time(self):
        # Batches mix source counts and SNRs; each row must have the bits of
        # its example built on its own from the steering manifold.
        small = PROFILES["small"]
        grid, geom = small.grid, small.geom
        mixed = build_mixed_k_dataset(grid, geom, 2, -5.0)
        two_snrs = Dataset(
            grid, geom, mixed.recipes[:3] + tuple((3.0, s) for _, s in mixed.recipes[-3:])
        )
        fixed = build_fixed_k_dataset(grid, geom, small.fixed_k, small.fixed_snrs_db)
        for ds in (two_snrs, fixed, mixed):
            order = np.random.default_rng(0).permutation(len(ds))
            for start in range(0, len(ds), 16):
                x, z = ds.batch(order[start : start + 16])
                for row, i in enumerate(order[start : start + 16]):
                    snr, support = ds.recipes[i]
                    b = manifold(geom, grid.points[list(support)]) * np.sqrt(np.ones(len(support)))
                    r = b @ b.conj().T + noise_power_for_snr(snr) * np.eye(8, dtype=complex)
                    label = np.zeros(grid.n_points)
                    label[list(support)] = 1.0
                    assert x[row].tobytes() == build_input_channels(r).tobytes()
                    assert z[row].tobytes() == label.tobytes()

    def test_batch_rejects_unidentifiable_and_off_grid_examples(self):
        too_many = Dataset(GRID61, GEOM8, ((0.0, tuple(range(8))),))
        with pytest.raises(ValueError, match="not identifiable"):
            too_many.batch([0])
        # A support holds distinct indices of grid points.
        for support, message in [((61,), "outside"), ((0, -1), "outside"),
                                 ((3, 3), "same grid point"), ((5, 2, 5), "same grid point")]:
            with pytest.raises(ValueError, match=message):
                Dataset(GRID61, GEOM8, ((0.0, support),)).batch([0])

    def test_batch_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on its first call, about 1 MiB and 13 ms.
        code = (
            "import sys\n"
            "from doabench.profiles import PROFILES\n"
            "from doabench.training import build_fixed_k_dataset\n"
            "p = PROFILES['small']\n"
            "build_fixed_k_dataset(p.grid, p.geom, p.fixed_k, p.fixed_snrs_db).batch(range(16))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(training.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out == "False\n"

    def test_noise_power_follows_snr(self):
        assert noise_power_for_snr(-10.0) == pytest.approx(10.0)
        assert noise_power_for_snr(0.0) == 1.0
        ds = build_fixed_k_dataset(GRID61, GEOM8, 2, (-10.0,))
        x, _ = ds.batch([0])
        # diagonal of the real channel = sum of source powers + noise power
        np.testing.assert_allclose(np.diag(x[0, :, :, 0]), 2.0 + 10.0, rtol=1e-12)


SMALL_SPEC = build_network_spec(PROFILES["small"])


class TestTrainLoop:
    def test_history_lengths_and_lr_schedule(self):
        ds = tiny_dataset()
        config = TrainConfig(batch_size=4, epochs=7, lr_halving_period_epochs=2, seed=1)
        _, history = train(SMALL_SPEC, ds, config)
        assert len(history.train_loss) == 7
        assert len(history.val_loss) == 7
        expected = [0.001 * 0.5 ** (e // 2) for e in range(7)]
        assert list(history.learning_rate) == expected

    def test_seed_determinism(self):
        ds = tiny_dataset()
        config = TrainConfig(batch_size=4, epochs=3, seed=9)
        params1, hist1 = train(SMALL_SPEC, ds, config)
        params2, hist2 = train(SMALL_SPEC, ds, config)
        assert hist1 == hist2
        for a, b in zip(params1, params2):
            for key in a:
                assert np.array_equal(a[key], b[key])

    def test_different_seeds_differ(self):
        ds = tiny_dataset()
        _, h1 = train(SMALL_SPEC, ds, TrainConfig(batch_size=4, epochs=2, seed=1))
        _, h2 = train(SMALL_SPEC, ds, TrainConfig(batch_size=4, epochs=2, seed=2))
        assert h1.train_loss != h2.train_loss

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self, monkeypatch):
        ds = tiny_dataset()
        monkeypatch.setattr(training, "_INITIAL_LR", 1e120)
        config = TrainConfig(batch_size=4, epochs=50, lr_halving_period_epochs=50, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train(SMALL_SPEC, ds, config)

    def test_same_bits_as_the_reference_step(self, monkeypatch):
        # 90 training examples: eleven batches of 8 and a last one of 2.
        ds = tiny_dataset(n_examples=100, seed=5)
        config = TrainConfig(batch_size=8, epochs=1, seed=4)
        params, history = train(SMALL_SPEC, ds, config)
        blocks = init_params(SMALL_SPEC, np.random.default_rng(0))  # for their shapes
        monkeypatch.setattr(training, "init_adam_state",
                            lambda n_params: reference_init_adam_state(blocks))
        monkeypatch.setattr(training, "adam_step", reference_flat_adam_step)
        monkeypatch.setattr(ConvLayer, "backward", reference_conv_backward)
        monkeypatch.setattr(BatchNormLayer, "forward", reference_batchnorm_forward)
        monkeypatch.setattr(BatchNormLayer, "backward", reference_batchnorm_backward)
        reference_params, reference_history = train(SMALL_SPEC, ds, config)
        assert history == reference_history
        for block, reference in zip(params, reference_params):
            assert block.keys() == reference.keys()
            for key in block:  # the running statistics too
                assert block[key].tobytes() == reference[key].tobytes(), key

    def test_rejects_a_split_with_one_training_example(self, monkeypatch):
        # Two examples split into one for validation and one for training,
        # which batch normalization cannot take; nothing is built first.
        def not_built(*args):
            raise AssertionError("parameters built before the split was checked")

        monkeypatch.setattr(training, "init_params", not_built)
        config = TrainConfig(batch_size=4, epochs=1)
        for n, fraction in [(0, 0.1), (1, 0.1), (2, 0.1), (5, 0.9)]:
            monkeypatch.setattr(training, "_VALIDATION_FRACTION", fraction)
            with pytest.raises(ValueError, match="need at least two training examples"):
                train(SMALL_SPEC, tiny_dataset(n), config)
        monkeypatch.undo()
        _, history = train(SMALL_SPEC, tiny_dataset(3), TrainConfig(batch_size=4, epochs=1))
        assert len(history.train_loss) == 1

    def test_a_trailing_singleton_joins_the_batch_before_it(self, monkeypatch):
        # One validation and eleven training examples at B=5: batches of 5, 5
        # and 1 each epoch, the singleton folded into the one before it.
        sizes = []
        forward = training.Network.forward

        def recorded(network, x, train=False, rng=None):
            if train:
                sizes.append(len(x))
            return forward(network, x, train, rng)

        monkeypatch.setattr(training.Network, "forward", recorded)
        _, history = train(SMALL_SPEC, tiny_dataset(12), TrainConfig(batch_size=5, epochs=2))
        assert sizes == [5, 6, 5, 6]
        assert np.isfinite(history.train_loss + history.val_loss).all()

    def test_rejects_mismatched_grid(self):
        ds = build_fixed_k_dataset(GRID121, GEOM16, 2, (-10.0,))
        small = Dataset(GRID121, GEOM16, ds.recipes[:8])
        with pytest.raises(ValueError):
            train(SMALL_SPEC, small, TrainConfig(batch_size=4, epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)


class TestDecoders:
    def test_topk_picks_largest(self):
        probs = np.full(61, 0.1)
        probs[GRID61.index_of(-4.0)] = 0.99
        probs[GRID61.index_of(17.0)] = 0.98
        np.testing.assert_allclose(predict_topk(probs, GRID61, 2), [-4.0, 17.0])

    def test_topk_tie_breaks_to_smaller_angles(self):
        np.testing.assert_allclose(
            predict_topk(np.full(61, 0.5), GRID61, 2), [-30.0, -29.0]
        )

    @pytest.mark.parametrize(
        "probs",
        [np.full(61, 0.5),
         np.r_[np.full(20, 0.1), 0.9, 0.3, np.full(18, 0.1), 0.3, np.full(20, 0.1)],
         np.round(np.random.default_rng(5).random(61), 1),
         np.r_[np.full(30, -0.0), np.zeros(31)]],
        ids=["all-equal", "tie-across-k", "rounded", "signed-zeros"],
    )
    def test_topk_matches_lexsort_with_ties(self, probs):
        # in tie-across-k, points 21 and 40 tie for second place: K=2 keeps the smaller angle
        for k in range(1, 62):
            order = np.lexsort((GRID61.points, -probs))
            expected = np.sort(GRID61.points[order[:k]])
            assert predict_topk(probs, GRID61, k).tobytes() == expected.tobytes()

    def test_topk_rejects_bad_k(self):
        probs = np.full(61, 0.5)
        with pytest.raises(ValueError):
            predict_topk(probs, GRID61, 0)
        with pytest.raises(ValueError):
            predict_topk(probs, GRID61, 62)
        with pytest.raises(ValueError, match="one probability per grid point"):
            predict_topk(np.full(60, 0.5), GRID61, 2)

    def test_threshold_selects_confident(self):
        probs = np.full(61, 0.1)
        for angle in (-20.0, 3.0, 28.0):
            probs[GRID61.index_of(angle)] = 0.95
        est = predict_threshold(probs, GRID61, 0.9)
        np.testing.assert_allclose(est, [-20.0, 3.0, 28.0])

    def test_threshold_empty_above_max(self):
        assert predict_threshold(np.full(61, 0.4), GRID61, 0.9).size == 0

    def test_threshold_monotone_in_confidence(self):
        probs = np.random.default_rng(22).random(61)
        previous = None
        for p_bar in np.linspace(0.05, 0.95, 19):
            est = set(predict_threshold(probs, GRID61, p_bar))
            if previous is not None:
                assert est <= previous
            previous = est

    def test_threshold_rejects_bad_level(self):
        probs = np.full(61, 0.4)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                predict_threshold(probs, GRID61, bad)
        with pytest.raises(ValueError, match="one probability per grid point"):
            predict_threshold(np.full(62, 0.4), GRID61, 0.5)
