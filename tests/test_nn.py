"""Network-engine contracts: brute-force convolution oracle, central
finite-difference gradient checks, layer semantics, optimizer behavior and
checkpoint round-trips."""

import json
import math
import struct

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import doabench
from doabench import nn
from doabench.cli import cli
from doabench.nn import (
    AdamState,
    FileFormatError,
    Network,
    NetworkSpec,
    adam_step,
    bce_loss,
    init_adam_state,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from doabench.nn.layers import _BATCHNORM_EPS, ConvLayer
from doabench.nn.network import (
    TRAINABLE_KEYS,
    BatchNormSpec,
    Conv2DSpec,
    DenseSpec,
    DropoutSpec,
    FlattenSpec,
    ReluSpec,
    SigmoidSpec,
)
from doabench.profiles import PROFILES, build_network_spec
from test_training import reference_adam_step, reference_init_adam_state

GRAD_TOL = 1e-4


def central_difference(f, x, h=1e-5):
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


def conv_quadruple_loop(x, kernels, biases, stride):
    """Literal four-nested-loop evaluation of the strided correlation."""
    batch, h, w, c = x.shape
    kh, kw, _, f = kernels.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((batch, oh, ow, f))
    for b in range(batch):
        for m in range(oh):
            for n in range(ow):
                for q in range(f):
                    acc = 0.0
                    for i in range(kh):
                        for j in range(kw):
                            for k in range(c):
                                acc += kernels[i, j, k, q] * x[b, m * stride + i, n * stride + j, k]
                    out[b, m, n, q] = acc + biases[q]
    return out


def gradient_arrays(params):
    """Zero gradient arrays for the trainable arrays of a parameter block."""
    return {key: np.zeros_like(value) for key, value in params.items() if key in TRAINABLE_KEYS}


def build(spec, params=None):
    """The runtime layer of ``spec`` bound to ``params`` and zero gradient arrays."""
    params = {} if params is None else params
    return spec.build(params, gradient_arrays(params))


def conv_layer(kernels, biases, stride):
    spec = Conv2DSpec(kernels.shape[-1], kernels.shape[0], stride)
    return build(spec, {"kernels": kernels, "bias": biases})


def batch_norm_layer(params):
    return build(BatchNormSpec(), params)


def dense_layer(weights, bias):
    return build(DenseSpec(weights.shape[0]), {"weights": weights, "bias": bias})


def sigmoid(x):
    return build(SigmoidSpec()).forward(x, False, None)


class TestConv2d:
    def test_paper_scale_output_dims(self):
        x = np.zeros((1, 16, 16, 3))
        k = np.zeros((3, 3, 3, 5))
        assert conv_layer(k, np.zeros(5), 2).forward(x, False, None).shape == (1, 7, 7, 5)

    def test_one_by_one_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 4, 1))
        out = conv_layer(np.ones((1, 1, 1, 1)), np.zeros(1), 1).forward(x, False, None)
        np.testing.assert_allclose(out, x, atol=1e-15)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_quadruple_loop(self, stride):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 5, 2))
        k = rng.standard_normal((2, 2, 2, 3))
        b = rng.standard_normal(3)
        np.testing.assert_allclose(
            conv_layer(k, b, stride).forward(x, False, None),
            conv_quadruple_loop(x, k, b, stride),
            atol=1e-12,
        )

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients(self, stride):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 5, 2))
        k = rng.standard_normal((2, 2, 2, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        layer = conv_layer(k, b, stride)
        out = layer.forward(x, True, None)
        proj = rng.standard_normal(out.shape)

        def loss():
            return float(np.sum(layer.forward(x, True, None) * proj))

        dx = layer.backward(proj)
        assert rel_err(dx, central_difference(loss, x)) < GRAD_TOL
        assert rel_err(layer.grads["kernels"], central_difference(loss, k)) < GRAD_TOL
        assert rel_err(layer.grads["bias"], central_difference(loss, b)) < GRAD_TOL

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 4, 2))
        layer = conv_layer(rng.standard_normal((2, 2, 2, 2)), np.zeros(2), 1)
        layer.forward(x, True, None)
        dx = layer.backward(np.zeros((1, 3, 3, 2)))
        assert not dx.any() and not layer.grads["kernels"].any() and not layer.grads["bias"].any()

    def test_single_pixel_upstream_extracts_patch(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 4, 4, 1))
        k = rng.standard_normal((2, 2, 1, 1))
        g = np.zeros((1, 3, 3, 1))
        g[0, 1, 2, 0] = 1.0
        layer = conv_layer(k, np.zeros(1), 1)
        layer.forward(x, True, None)
        layer.backward(g)
        np.testing.assert_allclose(
            layer.grads["kernels"][:, :, 0, 0], x[0, 1:3, 2:4, 0], atol=1e-14
        )

    def test_rejects_unbatched_input(self):
        # The convolution stack is entered through the network, which takes a
        # (B, H, W, C) batch and rejects other ranks, one (H, W, C) input too.
        spec = build_network_spec(PROFILES["small"])
        net = Network(spec, init_params(spec, np.random.default_rng(18)))
        for shape in [(8, 8), (8, 8, 3), (8, 8, 3, 1), (1, 1, 8, 8, 3)]:
            with pytest.raises(ValueError, match="does not match the network's"):
                net.forward(np.zeros(shape))

    def test_rejects_oversized_kernel(self):
        # The spec chain is where a kernel meets its input size.
        with pytest.raises(ValueError, match="empty output"):
            NetworkSpec((3, 3, 1), (Conv2DSpec(1, 4),))

    @pytest.mark.parametrize(
        "shape, kernel, filters, stride",
        [((8, 8, 8, 3), 3, 16, 1), ((8, 6, 6, 16), 2, 16, 1), ((2, 16, 16, 3), 3, 32, 2)],
    )
    def test_same_bits_as_einsum_and_tensordot(self, shape, kernel, filters, stride):
        # Inputs and gradients in the channel-major memory layout that
        # convolution outputs have inside the network.
        rng = np.random.default_rng(5)
        x = np.moveaxis(rng.standard_normal((shape[3],) + shape[:3]), 0, -1)
        k = rng.standard_normal((kernel, kernel, shape[3], filters))
        win = sliding_window_view(x, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
        layer = conv_layer(k, np.zeros(filters), stride)
        out = layer.forward(x, True, None)
        expected = np.einsum("bmnkij,ijkf->bmnf", win, k, optimize=True)
        np.testing.assert_array_equal(out, expected)
        # Memory layout too: it fixes the summation order of later reductions.
        assert out.strides == expected.strides
        g = np.moveaxis(rng.standard_normal((filters,) + out.shape[:3]), 0, -1)
        dx = layer.backward(g)
        dk = layer.grads["kernels"]
        np.testing.assert_array_equal(dk, np.einsum("bmnf,bmnkij->ijkf", g, win, optimize=True))
        expected = np.zeros_like(x)
        oh, ow = out.shape[1:3]
        for i in range(kernel):
            for j in range(kernel):
                expected[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += (
                    np.tensordot(g, k[i, j], axes=([3], [1]))
                )
        np.testing.assert_array_equal(dx, expected)
        assert dx.strides == expected.strides


def _bn_params(c, gain=1.0, shift=0.0):
    return {
        "gain": np.full(c, gain),
        "shift": np.full(c, shift),
        "running_mean": np.zeros(c),
        "running_var": np.ones(c),
    }


class TestBatchNorm:
    def test_normalized_batch_passes_through(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 3, 3, 2))
        x -= x.mean(axis=(0, 1, 2))
        x /= x.std(axis=(0, 1, 2))
        out = batch_norm_layer(_bn_params(2)).forward(x, True, None)
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_constant_channel_maps_to_shift(self):
        x = np.full((8, 2, 2, 1), 3.7)
        out = batch_norm_layer(_bn_params(1, shift=-0.5)).forward(x, True, None)
        np.testing.assert_allclose(out, -0.5, atol=1e-12)

    def test_rejects_batch_of_one_in_train(self):
        with pytest.raises(ValueError):
            batch_norm_layer(_bn_params(1)).forward(np.zeros((1, 2, 2, 1)), True, None)

    def test_eval_uses_running_statistics_bitwise(self):
        rng = np.random.default_rng(8)
        params = {
            "gain": rng.standard_normal(3),
            "shift": rng.standard_normal(3),
            "running_mean": rng.standard_normal(3),
            "running_var": rng.random(3) + 0.5,
        }
        before = {key: v.copy() for key, v in params.items()}
        x = rng.standard_normal((5, 4, 4, 3))
        out = batch_norm_layer(params).forward(x, False, None)
        expected = (
            params["gain"] * (x - params["running_mean"])
            / np.sqrt(params["running_var"] + _BATCHNORM_EPS) + params["shift"]
        )
        assert np.array_equal(out, expected)
        assert all(np.array_equal(params[key], before[key]) for key in params)

    def test_train_eval_consistency(self):
        rng = np.random.default_rng(6)
        params = {
            "gain": np.array([1.3, 0.7]),
            "shift": np.array([0.2, -0.1]),
            "running_mean": np.zeros(2),
            "running_var": np.ones(2),
        }
        layer = batch_norm_layer(params)
        for _ in range(300):
            layer.forward(rng.standard_normal((32, 4, 4, 2)) * 2.0 + 1.0, True, None)
        fresh = rng.standard_normal((32, 4, 4, 2)) * 2.0 + 1.0
        train_out = layer.forward(fresh, True, None)
        eval_out = layer.forward(fresh, False, None)
        rms = np.sqrt(np.mean((train_out - eval_out) ** 2))
        assert rms < 0.05 * np.sqrt(np.mean(train_out**2))

    def test_gradients_train_mode(self):
        rng = np.random.default_rng(7)
        params = {
            "gain": rng.standard_normal(2) * 0.5 + 1.0,
            "shift": rng.standard_normal(2) * 0.2,
            "running_mean": np.zeros(2),
            "running_var": np.ones(2),
        }
        x = rng.standard_normal((4, 3, 3, 2))
        proj = rng.standard_normal((4, 3, 3, 2))
        layer = batch_norm_layer(params)

        def loss():
            rm, rv = params["running_mean"].copy(), params["running_var"].copy()
            value = float(np.sum(layer.forward(x, True, None) * proj))
            params["running_mean"][:], params["running_var"][:] = rm, rv
            return value

        layer.forward(x, True, None)
        dx = layer.backward(proj)
        assert rel_err(dx, central_difference(loss, x)) < GRAD_TOL
        assert rel_err(layer.grads["gain"], central_difference(loss, params["gain"])) < GRAD_TOL
        assert rel_err(layer.grads["shift"], central_difference(loss, params["shift"])) < GRAD_TOL


class TestReluDropoutDense:
    def test_relu_values(self):
        out = build(ReluSpec()).forward(np.array([[-1.0, 0.0, 2.0]]), True, None)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_all_negative(self):
        x = -np.abs(np.random.default_rng(8).standard_normal((3, 4)))
        layer = build(ReluSpec())
        assert not layer.forward(x, True, None).any()
        assert not layer.backward(np.ones_like(x)).any()

    def test_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 5))
        x[np.abs(x) < 1e-3] = 0.5
        proj = rng.standard_normal((5, 5))
        layer = build(ReluSpec())

        def loss():
            return float(np.sum(layer.forward(x, True, None) * proj))

        layer.forward(x, True, None)
        assert rel_err(layer.backward(proj), central_difference(loss, x)) < GRAD_TOL

    def test_dropout_eval_identity(self):
        x = np.random.default_rng(10).standard_normal((7, 7))
        layer = build(DropoutSpec(0.2))
        np.testing.assert_array_equal(layer.forward(x, False, None), x)
        np.testing.assert_array_equal(layer.backward(np.ones_like(x)), np.ones_like(x))
        np.testing.assert_array_equal(build(DropoutSpec(0.0)).forward(x, True, np.random.default_rng(0)), x)

    def test_dropout_zero_fraction(self):
        x = np.ones((1, 100_000))
        out = build(DropoutSpec(0.2)).forward(x, True, np.random.default_rng(123))
        frac = np.mean(out == 0.0)
        assert abs(frac - 0.2) < 0.01
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.8, rtol=1e-12)

    def test_dropout_mask_is_the_inverted_dropout_formula(self):
        x = np.random.default_rng(11).standard_normal((4, 9))
        layer = build(DropoutSpec(0.3))
        out = layer.forward(x, True, np.random.default_rng(12))
        mask = (np.random.default_rng(12).random(x.shape) >= 0.3) / (1 - 0.3)
        assert np.array_equal(out, x * mask)
        assert np.array_equal(layer.backward(np.ones_like(x)), mask)

    def test_dropout_rejects_bad_rate(self):
        for rate in (1.0, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="dropout rate"):
                DropoutSpec(rate)

    def test_dense_identity(self):
        x = np.arange(8.0).reshape(2, 4)
        layer = dense_layer(np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(layer.forward(x, False, None), x)

    def test_dense_gradients(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 6))
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        proj = rng.standard_normal((3, 4))
        layer = dense_layer(w, b)

        def loss():
            return float(np.sum(layer.forward(x, True, None) * proj))

        layer.forward(x, True, None)
        dx = layer.backward(proj)
        assert rel_err(dx, central_difference(loss, x)) < GRAD_TOL
        assert rel_err(layer.grads["weights"], central_difference(loss, w)) < GRAD_TOL
        assert rel_err(layer.grads["bias"], central_difference(loss, b)) < GRAD_TOL

    def test_dense_rejects_unbatched_input(self):
        # An unbatched gradient reaches the dense head only through the
        # network, which rejects it once.
        spec = build_network_spec(PROFILES["small"])
        net = Network(spec, init_params(spec, np.random.default_rng(19)))
        x = np.random.default_rng(20).standard_normal((3, 8, 8, 3))
        net.forward(x, train=True, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="last forward output"):
            net.backward_from_logits(np.zeros(61))
        net.forward(x[:1])  # an eval-mode batch of one
        with pytest.raises(ValueError, match="last forward output"):
            net.backward_from_logits(np.zeros(61))
        # A (1, 61) gradient passes the shape check and meets the eval-mode one.
        with pytest.raises(ValueError, match="train-mode forward"):
            net.backward_from_logits(np.zeros((1, 61)))


class TestSigmoidAndLoss:
    def test_zero_maps_to_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation_without_overflow(self):
        out = sigmoid(np.array([40.0, -40.0]))
        assert abs(out[0] - 1.0) < 1e-15 and out[0] < 1.0
        assert abs(out[1]) < 1e-15 and out[1] > 0.0

    def test_symmetry(self):
        x = np.random.default_rng(12).standard_normal(100) * 5
        np.testing.assert_allclose(
            sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12
        )

    def test_loss_near_zero_for_exact_labels(self):
        z = np.zeros(121)
        z[[3, 50]] = 1.0
        loss, _ = bce_loss(z.copy(), z)
        assert loss <= 121 * 1e-6

    def test_uniform_half_gives_log_two_sum(self):
        z = np.zeros(121)
        z[5] = 1.0
        loss, _ = bce_loss(np.full(121, 0.5), z)
        assert loss == pytest.approx(121 * np.log(2.0), rel=1e-12)

    def test_fused_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal(9) * 2
        z = (rng.random(9) < 0.3).astype(float)
        _, grad = bce_loss(sigmoid(logits), z)

        def loss():
            return bce_loss(sigmoid(logits), z)[0]

        assert rel_err(grad, central_difference(loss, logits)) < GRAD_TOL

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(np.zeros(3), np.zeros(4))

    def test_same_bits_as_the_masked_formula(self):
        # The former forward: each sign's formula on its masked entries.
        rng = np.random.default_rng(26)
        x = np.concatenate(
            [rng.standard_normal(2000) * scale for scale in (0.1, 1.0, 10.0, 100.0, 800.0)]
            + [np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308])]
        )
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        np.minimum(ref, 1.0 - 1e-16, out=ref)
        np.maximum(ref, 1e-300, out=ref)
        assert sigmoid(x).tobytes() == ref.tobytes()


class TestNetworkSpec:
    def test_paper_profile_shapes(self):
        spec = build_network_spec(PROFILES["paper"])
        assert len(spec.layers) == 24
        chain = spec.shape_chain()
        conv_dims = [s[0] for layer, s in zip(spec.layers, chain) if isinstance(layer, Conv2DSpec)]
        assert conv_dims == [7, 6, 5, 4]
        assert (4096,) in chain  # flatten output
        assert spec.output_length == 121

    def test_paper_parameter_count(self):
        assert param_count(build_network_spec(PROFILES["paper"])) == 28_190_585

    def test_small_parameter_count(self):
        # by-hand sum: conv 448 + 3*1040 + bn 128 + dense 37120+32896+8256+3965
        assert param_count(build_network_spec(PROFILES["small"])) == 85_933

    def test_rejects_collapsed_chain(self):
        # the full-scale kernel pattern on an 8x8 input reaches a zero dim
        layers = build_network_spec(PROFILES["paper"]).layers
        with pytest.raises(ValueError):
            NetworkSpec((8, 8, 3), layers)

    def test_rejects_unknown_layer_object(self):
        with pytest.raises(ValueError, match="unknown layer descriptor"):
            NetworkSpec((8, 8, 3), (Conv2DSpec(4, 3), object()))

    def test_parameter_count_formula(self):
        spec = build_network_spec(PROFILES["small"])
        params = init_params(spec, np.random.default_rng(0))
        actual = sum(
            block[key].size
            for block in params
            for key in block
            if key in ("kernels", "bias", "gain", "shift", "weights")
        )
        assert actual == param_count(spec)


def reference_init_params(spec, rng):
    """The per-kind initializers that the parameter shapes replaced, kept as
    an oracle: fan-in-scaled Gaussian kernels and weights, zero biases and
    shifts, unit gains, and running statistics of mean 0 and variance 1."""
    blocks = []
    for layer, shape in zip(spec.layers, (spec.input_shape, *spec.shape_chain())):
        if isinstance(layer, Conv2DSpec):
            fan_in = layer.kernel * layer.kernel * shape[-1]
            kernels = rng.standard_normal(
                (layer.kernel, layer.kernel, shape[-1], layer.filters)
            ) * np.sqrt(2.0 / fan_in)
            blocks.append({"kernels": kernels, "bias": np.zeros(layer.filters)})
        elif isinstance(layer, BatchNormSpec):
            c = shape[-1]
            blocks.append({"gain": np.ones(c), "shift": np.zeros(c),
                           "running_mean": np.zeros(c), "running_var": np.ones(c)})
        elif isinstance(layer, DenseSpec):
            fan_in = shape[0]
            weights = rng.standard_normal((layer.units, fan_in)) * np.sqrt(2.0 / fan_in)
            blocks.append({"weights": weights, "bias": np.zeros(layer.units)})
        else:
            blocks.append({})
    return blocks


# Every layer kind, with a stride-2 first convolution: 9x9x3 -> 4x4x4 -> 3x3x5 -> 45 -> 7 -> 6.
EVERY_KIND_SPEC = NetworkSpec((9, 9, 3), (
    Conv2DSpec(4, 3, 2), BatchNormSpec(), ReluSpec(),
    Conv2DSpec(5, 2), BatchNormSpec(), ReluSpec(),
    FlattenSpec(),
    DenseSpec(7), ReluSpec(), DropoutSpec(0.2),
    DenseSpec(6), SigmoidSpec(),
))


class TestParamShapes:
    def test_shapes_of_every_kind(self):
        assert EVERY_KIND_SPEC.param_shapes() == [
            {"kernels": (3, 3, 3, 4), "bias": (4,)},
            dict.fromkeys(("gain", "shift", "running_mean", "running_var"), (4,)), {},
            {"kernels": (2, 2, 4, 5), "bias": (5,)},
            dict.fromkeys(("gain", "shift", "running_mean", "running_var"), (5,)), {},
            {},
            {"weights": (7, 45), "bias": (7,)}, {}, {},
            {"weights": (6, 7), "bias": (6,)}, {},
        ]
        assert param_count(EVERY_KIND_SPEC) == (
            (3 * 3 * 3 * 4 + 4) + 2 * 4 + (2 * 2 * 4 * 5 + 5) + 2 * 5 + (45 * 7 + 7) + (7 * 6 + 6)
        )

    @pytest.mark.parametrize("spec", [EVERY_KIND_SPEC, build_network_spec(PROFILES["small"])],
                             ids=["every-kind", "small"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_init_matches_the_per_kind_initializers(self, spec, seed):
        ours = init_params(spec, np.random.default_rng(seed))
        theirs = reference_init_params(spec, np.random.default_rng(seed))
        assert len(ours) == len(theirs) == len(spec.layers)
        for a, b in zip(ours, theirs):
            assert list(a) == list(b)  # same keys in the same order
            for key in a:
                assert a[key].dtype == b[key].dtype == np.float64
                assert a[key].shape == b[key].shape
                assert a[key].tobytes() == b[key].tobytes(), key


class TestNetworkBlocks:
    SPEC = build_network_spec(PROFILES["small"])

    @pytest.mark.parametrize("layer, edit, match", [
        (1, lambda b: b.pop("gain"), r"layer 1 \(batchnorm\)"),
        (0, lambda b: b.update(kernels=b["kernels"][:2, :2]), r"layer 0 \(conv2d\)"),
        (16, lambda b: b.update(bias=np.zeros(3)), r"layer 16 \(dense\)"),
        (2, lambda b: b.update(weights=np.zeros((2, 2))), r"layer 2 \(relu\)"),
    ], ids=["batchnorm-without-gain", "2x2-kernel-in-a-3x3-conv", "short-bias", "relu-weights"])
    def test_rejects_a_block_that_does_not_fit_the_spec(self, layer, edit, match):
        params = init_params(self.SPEC, np.random.default_rng(30))
        edit(params[layer])
        with pytest.raises(ValueError, match=match):
            Network(self.SPEC, params)

    def test_rejects_the_wrong_block_count(self):
        params = init_params(self.SPEC, np.random.default_rng(31))
        with pytest.raises(ValueError, match="one parameter block per layer"):
            Network(self.SPEC, params[:-1])


class TestNetworkForward:
    SPEC = build_network_spec(PROFILES["small"])

    def test_output_length_and_range(self):
        rng = np.random.default_rng(14)
        params = init_params(self.SPEC, rng)
        p = Network(self.SPEC, params).forward(rng.standard_normal((1, 8, 8, 3)))
        assert p.shape == (1, 61)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_eval_deterministic_bitwise(self):
        rng = np.random.default_rng(15)
        params = init_params(self.SPEC, rng)
        x = rng.standard_normal((1, 8, 8, 3))
        net = Network(self.SPEC, params)
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_rejects_wrong_input_shape(self):
        params = init_params(self.SPEC, np.random.default_rng(16))
        with pytest.raises(ValueError):
            Network(self.SPEC, params).forward(np.zeros((1, 9, 9, 3)))

    def test_single_step_decreases_loss(self):
        spec = self.SPEC
        for s in range(20):
            rng = np.random.default_rng(100 + s)
            params = init_params(spec, rng)
            net = Network(spec, params)
            x = rng.standard_normal((2, 8, 8, 3))
            x[1] = x[0]
            z = np.zeros((2, 61))
            z[:, rng.integers(0, 61, 2)] = 1.0
            p = net.forward(x, train=True, rng=np.random.default_rng(999))
            before, dlogits = bce_loss(p, z)
            net.backward_from_logits(dlogits / 2.0)
            adam_step(init_adam_state(net.flat.shape[1]), *net.flat, 1e-4)
            p2 = net.forward(x, train=True, rng=np.random.default_rng(999))
            after, _ = bce_loss(p2, z)
            assert after < before

    def test_backward_skips_the_input_gradient_of_the_first_layer(self, monkeypatch):
        net = Network(self.SPEC, init_params(self.SPEC, np.random.default_rng(19)))
        calls = []
        conv_backward = ConvLayer.backward

        def recorded(layer, g, input_grad=True):
            dx = conv_backward(layer, g, input_grad)
            calls.append((layer, g, dx))
            return dx

        monkeypatch.setattr(ConvLayer, "backward", recorded)
        x = np.random.default_rng(20).standard_normal((3, 8, 8, 3))
        net.forward(x, train=True, rng=np.random.default_rng(0))
        grads = net.backward_from_logits(np.random.default_rng(21).standard_normal((3, 61)))
        assert [layer for layer, _, _ in calls] == [net.layers[i] for i in (9, 6, 3, 0)]
        assert calls[-1][2] is None
        assert all(dx.shape == layer._x.shape for layer, _, dx in calls[:-1])
        # Its parameter gradients are those of a backward pass with the input gradient.
        first, g, _ = calls[-1]
        written = {key: grads[0][key].copy() for key in ("kernels", "bias")}
        assert conv_backward(first, g).shape == x.shape
        for key in ("kernels", "bias"):
            assert written[key].tobytes() == first.grads[key].tobytes()

    def test_backward_through_a_first_layer_that_is_not_a_convolution(self):
        spec = NetworkSpec((2, 2, 1), (FlattenSpec(), DenseSpec(3), SigmoidSpec()))
        net = Network(spec, init_params(spec, np.random.default_rng(36)))
        rng = np.random.default_rng(37)
        x = rng.standard_normal((4, 2, 2, 1))
        z = (rng.random((4, 3)) < 0.5).astype(float)

        def loss():
            return bce_loss(net.forward(x, train=True), z)[0]

        grads = net.backward_from_logits(bce_loss(net.forward(x, train=True), z)[1])
        expected = central_difference(loss, net.params[1]["weights"])
        np.testing.assert_allclose(grads[1]["weights"], expected, rtol=1e-5)

    def test_backward_rejects_gradient_of_another_shape(self):
        net = Network(self.SPEC, init_params(self.SPEC, np.random.default_rng(16)))
        with pytest.raises(ValueError, match="last forward output"):
            net.backward_from_logits(np.zeros((1, 61)))  # no forward pass yet
        x = np.random.default_rng(17).standard_normal((3, 8, 8, 3))
        net.forward(x, train=True, rng=np.random.default_rng(0))
        for shape in [(2, 61), (3, 60)]:
            with pytest.raises(ValueError, match="last forward output"):
                net.backward_from_logits(np.zeros(shape))

    def test_backward_rejects_an_eval_mode_forward(self):
        # Batch norm's eval backward writes no gain or shift gradient, so a
        # step after it would read the gradients of an earlier pass.
        net = Network(self.SPEC, init_params(self.SPEC, np.random.default_rng(26)))
        x = np.random.default_rng(27).standard_normal((3, 8, 8, 3))
        g = np.random.default_rng(28).standard_normal((3, 61))
        net.forward(x, train=True, rng=np.random.default_rng(0))
        net.backward_from_logits(g)
        before = net.flat.copy()
        net.forward(x, train=False)
        with pytest.raises(ValueError, match="train-mode forward"):
            net.backward_from_logits(g)
        assert net.flat.tobytes() == before.tobytes()
        net.forward(x, train=True, rng=np.random.default_rng(0))
        net.backward_from_logits(g)

    def test_two_backward_passes_write_into_the_same_arrays(self):
        net = Network(self.SPEC, init_params(self.SPEC, np.random.default_rng(29)))
        rng = np.random.default_rng(30)
        passes = []
        for _ in range(2):
            net.forward(rng.standard_normal((4, 8, 8, 3)), train=True, rng=rng)
            grads = net.backward_from_logits(rng.standard_normal((4, 61)))
            passes.append((grads, net.flat[1].copy()))
        (first, row1), (second, row2) = passes
        assert first is second
        for layer, block in zip(net.layers, first):
            assert not block or layer.grads is block
            assert all(np.shares_memory(value, net.flat[1]) for value in block.values())
        assert not np.array_equal(row1, row2)  # the second pass overwrote the first
        assert np.all(np.isfinite(row2)) and row2.any()


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = np.array([1.0, -2.0])
        adam_step(init_adam_state(2), p, np.zeros(2), 0.01)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_constant_gradient_asymptote(self):
        p = np.zeros(3)
        state = init_adam_state(3)
        g = np.array([3.0, -0.5, 2e-3])
        delta = None
        for _ in range(500):
            before = p.copy()
            adam_step(state, p, g.copy(), 0.01)
            delta = p - before
        np.testing.assert_allclose(delta, -0.01 * np.sign(g), rtol=1e-3)

    def test_quadratic_bowl_convergence(self):
        target = np.array([0.3, -1.2, 2.5, 0.0])
        p = np.zeros(4)
        state = init_adam_state(4)
        lr = 0.1
        for step in range(5000):
            if step and step % 250 == 0:
                lr *= 0.5
            adam_step(state, p, p - target, lr)
        assert 0.5 * np.sum((p - target) ** 2) < 1e-6

    def test_trainable_arrays_move_into_one_buffer(self):
        spec = build_network_spec(PROFILES["small"])
        params = init_params(spec, np.random.default_rng(23))
        before = [{key: value.copy() for key, value in block.items()} for block in params]
        identities = [{key: id(value) for key, value in block.items()} for block in params]
        net = Network(spec, params)
        assert net.flat.shape == (2, param_count(spec))
        trainable = [block[key] for block in net.params for key in block if key in TRAINABLE_KEYS]
        grads = [layer.grads[key] for layer in net.layers for key in getattr(layer, "grads", {})]
        assert len(trainable) == len(grads) == 24
        for arrays, row in ((trainable, net.flat[0]), (grads, net.flat[1])):
            assert all(value.base is net.flat and np.shares_memory(value, row) for value in arrays)
            assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                           for b in arrays[i + 1:])
        # Row 0 holds the trainable arrays in block order and then key order.
        assert net.flat[0].tobytes() == np.concatenate(
            [block[key] for block in before for key in block if key in TRAINABLE_KEYS],
            axis=None).tobytes()
        for ours, theirs, old, ids in zip(net.params, params, before, identities):
            assert ours.keys() == theirs.keys() == old.keys()
            for key in ours:
                assert ours[key].tobytes() == old[key].tobytes()
                # The caller's blocks keep their own arrays and values.
                assert id(theirs[key]) == ids[key] and theirs[key].tobytes() == old[key].tobytes()
                assert not np.shares_memory(ours[key], theirs[key])

    def test_fifty_steps_match_the_per_block_reference(self):
        spec = build_network_spec(PROFILES["small"])
        net = Network(spec, init_params(spec, np.random.default_rng(24)))
        reference = [{key: value.copy() for key, value in block.items()} for block in net.params]
        state = init_adam_state(net.flat.shape[1])
        reference_state = reference_init_adam_state(reference)
        rng = np.random.default_rng(25)
        for step in range(50):
            lr = 0.01 if step < 25 else 0.005
            grads = [{key: rng.standard_normal(block[key].shape) * 10.0 ** rng.integers(-6, 1)
                      for key in block} for block in net.grads]
            for block, gblock in zip(net.grads, grads):
                for key in block:
                    block[key][...] = gblock[key]
            adam_step(state, *net.flat, lr)
            reference_adam_step(reference_state, reference, grads, lr)
        assert state.step == reference_state.step == 50
        for ours, theirs in zip(net.params, reference):
            assert ours.keys() == theirs.keys()
            for key in ours:
                assert ours[key].tobytes() == theirs[key].tobytes(), key
        moments = (reference_state.moments1, reference_state.moments2)
        for ours, theirs in zip(state.moments, moments):
            flat = np.concatenate([m[key] for m in theirs for key in m], axis=None)
            assert ours.tobytes() == flat.tobytes()

    def test_step_rejects_gradients_that_do_not_match(self):
        def attempt(n_params, n_grads):
            adam_step(init_adam_state(8), np.zeros(n_params), np.ones(n_grads), 0.01)

        attempt(8, 8)
        for n_params, n_grads in [(8, 7), (7, 8), (7, 7), (9, 9)]:
            with pytest.raises(ValueError, match="need 8 parameters and gradients"):
                attempt(n_params, n_grads)

    def test_state_shapes(self):
        spec = build_network_spec(PROFILES["small"])
        state = init_adam_state(param_count(spec))
        assert isinstance(state, AdamState)
        assert state.step == 0
        assert state.moments.shape == (3, 85_933)
        assert not state.moments.any()


@pytest.mark.parametrize(
    "module", [doabench, nn, nn.layers, nn.network, nn.optim], ids=lambda m: m.__name__
)
def test_public_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = build_network_spec(PROFILES["small"])
        rng = np.random.default_rng(18)
        params = init_params(spec, rng)
        meta = {"epochs": 7, "snr_db_list": [-10.0]}
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, params, meta)
        spec2, params2, meta2 = load_checkpoint(path)
        assert spec2 == spec
        assert meta2 == meta
        for a, b in zip(params, params2):
            assert sorted(a) == sorted(b)
            for key in a:
                assert np.array_equal(a[key], b[key])

    def test_forward_identical_after_round_trip(self, tmp_path):
        spec = build_network_spec(PROFILES["small"])
        rng = np.random.default_rng(19)
        params = init_params(spec, rng)
        x = rng.standard_normal((1, 8, 8, 3))
        before = Network(spec, params).forward(x)
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, params)
        spec2, params2, _ = load_checkpoint(path)
        assert np.array_equal(before, Network(spec2, params2).forward(x))

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        spec = build_network_spec(PROFILES["small"])
        params = init_params(spec, np.random.default_rng(28))
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, params)

        def forbidden(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew parameters")

        monkeypatch.setattr(nn.network, "init_params", forbidden)
        monkeypatch.setattr(nn.checkpoint, "init_params", forbidden, raising=False)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        spec2, params2, _ = load_checkpoint(path)
        assert spec2 == spec
        # The blocks come back in the spec's key order, as initialized.
        assert [list(block) for block in params2] == [list(block) for block in params]
        assert Network(spec2, params2).flat[0].tobytes() == Network(spec, params).flat[0].tobytes()

    @pytest.mark.parametrize("spec", [build_network_spec(PROFILES["small"]), EVERY_KIND_SPEC],
                             ids=["small", "stride-2-first-conv"])
    def test_payload_is_the_version_1_blocks_in_spec_order(self, tmp_path, spec):
        params = init_params(spec, np.random.default_rng(32))
        meta = {"epochs": 3}
        _save_v1_checkpoint(tmp_path / "v1.doac", spec, params, meta)
        save_checkpoint(tmp_path / "v2.doac", spec, params, meta)
        v1_meta, blocks = _read_v1_blocks(tmp_path / "v1.doac")
        data = (tmp_path / "v2.doac").read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        assert data[:12] == b"DOAC" + struct.pack("<II", 2, len(v1_meta))
        assert data[12 : 12 + meta_len] == v1_meta
        payload = b"".join(blocks.pop((idx, key)) for idx, block in
                           enumerate(spec.param_shapes()) for key in block)
        assert blocks == {}
        assert data[12 + meta_len :] == payload
        _, loaded, _ = load_checkpoint(tmp_path / "v2.doac")
        assert b"".join(a.tobytes() for block in loaded for a in block.values()) == payload

    @pytest.mark.parametrize("edit, match", [
        (lambda params: params[4].pop("running_var"), r"layer 4 \(batchnorm\)"),
        (lambda params: params[-2].clear(), r"layer 22 \(dense\)"),
    ], ids=["one-key", "last-dense-layer"])
    def test_missing_blocks(self, tmp_path, edit, match):
        self._assert_save_rejects(tmp_path, edit, match)

    @pytest.mark.parametrize("edit, match", [
        (lambda params: params[0].update(extra=np.zeros(1)), r"layer 0 \(conv2d\)"),
        (lambda params: params.append({"bias": np.zeros(1)}), "25 blocks for 24 layers"),
    ], ids=["unknown-key", "layer-past-the-spec"])
    def test_blocks_outside_the_spec(self, tmp_path, edit, match):
        self._assert_save_rejects(tmp_path, edit, match)

    @staticmethod
    def _assert_save_rejects(tmp_path, edit, match):
        spec = build_network_spec(PROFILES["small"])
        params = init_params(spec, np.random.default_rng(29))
        edit(params)
        with pytest.raises(ValueError, match=match):
            save_checkpoint(tmp_path / "model.doac", spec, params)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        spec = build_network_spec(PROFILES["small"])
        params = init_params(spec, np.random.default_rng(33))
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, params)
        before = path.read_bytes()
        # Strings of the right shape fit the spec and fail only while written.
        params[13]["weights"] = np.full(params[13]["weights"].shape, "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(path, spec, params)
        assert path.read_bytes() == before
        load_checkpoint(path)

    def test_failed_save_leaves_no_partial_file(self, tmp_path):
        spec = build_network_spec(PROFILES["small"])
        params = init_params(spec, np.random.default_rng(33))
        path = tmp_path / "m.doac"
        save_checkpoint(path, spec, params)
        before = path.read_bytes()
        params[13]["weights"] = np.full(params[13]["weights"].shape, "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(path, spec, params)
        assert [p.name for p in tmp_path.iterdir()] == ["m.doac"]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("edit", [lambda data: data[:-1], lambda data: data + b"\0"],
                             ids=["one-byte-short", "one-byte-long"])
    def test_payload_of_the_wrong_size(self, tmp_path, edit):
        spec = build_network_spec(PROFILES["small"])
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(34)))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FileFormatError, match="parameters are not the 688488 bytes"):
            load_checkpoint(path)

    def test_version_1_is_rejected(self, tmp_path, capsys):
        spec = build_network_spec(PROFILES["small"])
        path = tmp_path / "model.doac"
        _save_v1_checkpoint(path, spec, init_params(spec, np.random.default_rng(35)), {})
        with pytest.raises(FileFormatError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)
        rc = cli(["eval", "--preset", "mixed-k-fixed-0db", "--checkpoint", str(path),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unsupported checkpoint version 1")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.doac"
        save_checkpoint(path, build_network_spec(PROFILES["small"]),
                        init_params(build_network_spec(PROFILES["small"]),
                                    np.random.default_rng(20)))
        data = path.read_bytes()
        path.write_bytes(b"EVIL" + data[4:])
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        spec = build_network_spec(PROFILES["small"])
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(21)))
        path.write_bytes(path.read_bytes()[: 100])
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_layer_entries_keep_their_format(self, tmp_path):
        # Files already written name layers this way; the spec fields must
        # keep serializing to exactly these entries.
        spec = build_network_spec(PROFILES["small"])
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(22)))
        layers, _ = _network_entry(path)
        assert layers[0] == {"kind": "conv2d", "filters": 16, "kernel": 3, "stride": 1}
        assert layers[1] == {"kind": "batchnorm"}
        assert layers[15] == {"kind": "dropout", "rate": 0.2}
        assert layers[13] == {"kind": "dense", "units": 256}
        assert layers[-1] == {"kind": "sigmoid"}

    @pytest.mark.parametrize(
        "idx, entry",
        [
            (0, {"kind": "maxpool"}),
            (0, {"filters": 16, "kernel": 3, "stride": 1}),
            (0, {"kind": "conv2d", "filters": 16, "kernel": 3}),
            (0, {"kind": "conv2d", "filters": 16, "kernel": 3, "stride": 1, "padding": 0}),
            (1, {"kind": "batchnorm", "momentum": 0.1}),
        ],
    )
    def test_bad_layer_entry(self, tmp_path, idx, entry):
        spec = build_network_spec(PROFILES["small"])
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(23)))
        layers, rewrite = _network_entry(path)
        layers[idx] = entry
        rewrite()
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: _with_layer(m, 0, {**m["network"]["layers"][0], "filters": "16"}),
            lambda m: {**m, "network": {**m["network"], "layers": 5}},
            lambda m: _with_layer(m, 0, ["conv2d", 16, 3, 1]),
            lambda m: {k: v for k, v in m.items() if k != "network"},
            lambda m: {**m, "network": {"layers": m["network"]["layers"]}},
            lambda m: [m],
            lambda m: _with_layer(m, 0, {**m["network"]["layers"][0], "stride": 0}),
            lambda m: _with_layer(m, 0, {**m["network"]["layers"][0], "kernel": 0}),
            lambda m: _with_layer(m, 0, {**m["network"]["layers"][0], "filters": 0}),
            lambda m: _with_layer(m, 13, {**m["network"]["layers"][13], "units": 0}),
            lambda m: _with_layer(m, 15, {**m["network"]["layers"][15], "rate": 1.5}),
            lambda m: _with_layer(m, 13, {**m["network"]["layers"][13], "units": 256.0}),
        ],
        ids=["string-field", "int-layers", "list-layer", "no-network", "no-input-shape",
             "list-metadata", "zero-stride", "zero-kernel", "zero-filters", "zero-units",
             "rate-1.5", "float-units"],
    )
    def test_malformed_network_metadata(self, tmp_path, capsys, edit):
        spec = build_network_spec(PROFILES["small"])
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(24)))
        data = path.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        meta = json.loads(data[12 : 12 + meta_len])
        blob = json.dumps(edit(meta)).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + meta_len :])
        with pytest.raises(FileFormatError, match="malformed network description"):
            load_checkpoint(path)
        rc = cli(["eval", "--preset", "mixed-k-fixed-0db", "--checkpoint", str(path),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: checkpoint has a malformed")

    @pytest.mark.parametrize(
        "blob", [b'"x"', b"3", b"null", b"{", b"\xff{}"],
        ids=["string", "number", "null", "unclosed", "not-utf8"],
    )
    def test_metadata_that_is_not_a_json_object(self, tmp_path, blob):
        path = _checkpoint_with_metadata(tmp_path, blob)
        with pytest.raises(FileFormatError, match="malformed network description"):
            load_checkpoint(path)

    def test_cli_exits_2_on_metadata_that_is_not_a_json_object(self, tmp_path, capsys):
        path = _checkpoint_with_metadata(tmp_path, b'"x"')
        out = tmp_path / "out"
        rc = cli(["eval", "--preset", "mixed-k-fixed-0db", "--checkpoint", str(path),
                  "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("idx, field, value", [(13, "units", 2**31), (0, "filters", 2**32 - 1)],
                             ids=["units-2**31", "filters-2**32-1"])
    def test_oversized_description(self, tmp_path, capsys, monkeypatch, idx, field, value):
        # The payload size is checked against the file before any payload is
        # read, so a description this large never sizes a read.
        spec = build_network_spec(PROFILES["small"])
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(25)))
        layers, rewrite = _network_entry(path)
        layers[idx][field] = value
        rewrite()
        (meta_len,) = struct.unpack("<I", path.read_bytes()[8:12])
        files = []

        def counting_open(*args):
            files.append(_CountingReads(open(*args)))
            return files[-1]

        monkeypatch.setattr(nn.checkpoint, "open", counting_open, raising=False)
        with pytest.raises(FileFormatError, match="parameters are not the"):
            load_checkpoint(path)
        assert files[0].sizes == [4, 4, 4, meta_len]
        rc = cli(["eval", "--preset", "mixed-k-fixed-0db", "--checkpoint", str(path),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: checkpoint parameters are not the")


class _CountingReads:
    """A binary file that records the size of every ``read``."""

    def __init__(self, fh):
        self.fh, self.sizes = fh, []

    def read(self, size=-1):
        self.sizes.append(size)
        return self.fh.read(size)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _save_v1_checkpoint(path, spec, params, metadata):
    """The version-1 writer: the same header and metadata, then one tagged
    block per array (layer index u32, key length u16 + key, ndim u8, dims
    u32 each, float64 data) in sorted key order and a 0xFFFFFFFF end marker."""
    meta = dict(metadata)
    meta["network"] = nn.checkpoint._spec_to_dict(spec)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"DOAC")
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        for layer_idx, block in enumerate(params):
            for key in sorted(block):
                arr = np.ascontiguousarray(block[key], dtype=np.float64)
                key_bytes = key.encode("ascii")
                fh.write(struct.pack("<IH", layer_idx, len(key_bytes)))
                fh.write(key_bytes)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.astype("<f8").tobytes())
        fh.write(struct.pack("<I", 0xFFFFFFFF))


def _read_v1_blocks(path):
    """The metadata bytes of a version-1 file and its block payloads by
    (layer index, key)."""
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[8:12])
    at, blocks = 12 + meta_len, {}
    while True:
        (layer_idx,) = struct.unpack("<I", data[at : at + 4])
        if layer_idx == 0xFFFFFFFF:
            assert at + 4 == len(data)
            return data[12 : 12 + meta_len], blocks
        (key_len,) = struct.unpack("<H", data[at + 4 : at + 6])
        key = data[at + 6 : at + 6 + key_len].decode("ascii")
        at += 6 + key_len
        ndim = data[at]
        size = 8 * math.prod(struct.unpack(f"<{ndim}I", data[at + 1 : at + 1 + 4 * ndim]))
        at += 1 + 4 * ndim
        blocks[layer_idx, key] = data[at : at + size]
        at += size


def _with_layer(meta, idx, entry):
    layers = list(meta["network"]["layers"])
    layers[idx] = entry
    return {**meta, "network": {**meta["network"], "layers": layers}}


def _checkpoint_with_metadata(tmp_path, blob):
    """A small-profile checkpoint whose metadata block is ``blob``."""
    spec = build_network_spec(PROFILES["small"])
    path = tmp_path / "model.doac"
    save_checkpoint(path, spec, init_params(spec, np.random.default_rng(27)))
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[8:12])
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + meta_len :])
    return path


def _network_entry(path):
    """The serialized layer list of a checkpoint file, and a function that
    writes the (edited) list back into the file."""
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[8:12])
    meta = json.loads(data[12 : 12 + meta_len])

    def rewrite():
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + meta_len :])

    return meta["network"]["layers"], rewrite
