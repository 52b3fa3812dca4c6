"""Network-engine contracts: brute-force convolution oracle, central
finite-difference gradient checks, layer semantics, optimizer behavior and
checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import doabench
from doabench import nn
from doabench.arraymodel import FileFormatError
from doabench.cli import cli
from doabench.nn import (
    AdamState,
    Network,
    NetworkSpec,
    adam_step,
    bce_loss,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    init_adam_state,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
    sigmoid_forward,
)
from doabench.nn.layers import _BATCHNORM_EPS, BatchNormLayer, DropoutLayer, ReluLayer
from doabench.nn.network import Conv2DSpec
from doabench.profiles import PROFILES, build_network_spec

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


class TestConv2d:
    def test_paper_scale_output_dims(self):
        x = np.zeros((1, 16, 16, 3))
        k = np.zeros((3, 3, 3, 5))
        assert conv2d_forward(x, k, np.zeros(5), 2).shape == (1, 7, 7, 5)

    def test_one_by_one_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 4, 1))
        k = np.ones((1, 1, 1, 1))
        np.testing.assert_allclose(conv2d_forward(x, k, np.zeros(1), 1), x, atol=1e-15)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_quadruple_loop(self, stride):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 5, 2))
        k = rng.standard_normal((2, 2, 2, 3))
        b = rng.standard_normal(3)
        np.testing.assert_allclose(
            conv2d_forward(x, k, b, stride),
            conv_quadruple_loop(x, k, b, stride),
            atol=1e-12,
        )

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients(self, stride):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 5, 2))
        k = rng.standard_normal((2, 2, 2, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        out = conv2d_forward(x, k, b, stride)
        proj = rng.standard_normal(out.shape)

        def loss():
            return float(np.sum(conv2d_forward(x, k, b, stride) * proj))

        dx, dk, db = conv2d_backward(proj, x, k, stride)
        assert rel_err(dx, central_difference(loss, x)) < GRAD_TOL
        assert rel_err(dk, central_difference(loss, k)) < GRAD_TOL
        assert rel_err(db, central_difference(loss, b)) < GRAD_TOL

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 4, 2))
        k = rng.standard_normal((2, 2, 2, 2))
        dx, dk, db = conv2d_backward(np.zeros((1, 3, 3, 2)), x, k, 1)
        assert not dx.any() and not dk.any() and not db.any()

    def test_single_pixel_upstream_extracts_patch(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 4, 4, 1))
        k = rng.standard_normal((2, 2, 1, 1))
        g = np.zeros((1, 3, 3, 1))
        g[0, 1, 2, 0] = 1.0
        _, dk, _ = conv2d_backward(g, x, k, 1)
        np.testing.assert_allclose(dk[:, :, 0, 0], x[0, 1:3, 2:4, 0], atol=1e-14)

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError):
            conv2d_forward(np.zeros((1, 3, 3, 1)), np.zeros((4, 4, 1, 1)), np.zeros(1), 1)

    def test_rejects_unbatched_input(self):
        k = np.zeros((2, 2, 1, 1))
        with pytest.raises(ValueError, match="expected a batch"):
            conv2d_forward(np.zeros((4, 4, 1)), k, np.zeros(1), 1)
        with pytest.raises(ValueError, match="expected a batch"):
            conv2d_backward(np.zeros((3, 3, 1)), np.zeros((4, 4, 1)), k, 1)
        with pytest.raises(ValueError, match="expected a batch"):
            conv2d_backward(np.zeros((3, 3, 1)), np.zeros((1, 4, 4, 1)), k, 1)

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
        out = conv2d_forward(x, k, np.zeros(filters), stride)
        expected = np.einsum("bmnkij,ijkf->bmnf", win, k, optimize=True)
        np.testing.assert_array_equal(out, expected)
        # Memory layout too: it fixes the summation order of later reductions.
        assert out.strides == expected.strides
        g = np.moveaxis(rng.standard_normal((filters,) + out.shape[:3]), 0, -1)
        dx, dk, _ = conv2d_backward(g, x, k, stride)
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
        out = BatchNormLayer(_bn_params(2)).forward(x, True, None)
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_constant_channel_maps_to_shift(self):
        x = np.full((8, 2, 2, 1), 3.7)
        out = BatchNormLayer(_bn_params(1, shift=-0.5)).forward(x, True, None)
        np.testing.assert_allclose(out, -0.5, atol=1e-12)

    def test_rejects_batch_of_one_in_train(self):
        with pytest.raises(ValueError):
            BatchNormLayer(_bn_params(1)).forward(np.zeros((1, 2, 2, 1)), True, None)

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
        out = BatchNormLayer(params).forward(x, False, None)
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
        layer = BatchNormLayer(params)
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
        layer = BatchNormLayer(params)

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
        out = ReluLayer().forward(np.array([[-1.0, 0.0, 2.0]]), True, None)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_all_negative(self):
        x = -np.abs(np.random.default_rng(8).standard_normal((3, 4)))
        layer = ReluLayer()
        assert not layer.forward(x, True, None).any()
        assert not layer.backward(np.ones_like(x)).any()

    def test_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 5))
        x[np.abs(x) < 1e-3] = 0.5
        proj = rng.standard_normal((5, 5))
        layer = ReluLayer()

        def loss():
            return float(np.sum(layer.forward(x, True, None) * proj))

        layer.forward(x, True, None)
        assert rel_err(layer.backward(proj), central_difference(loss, x)) < GRAD_TOL

    def test_dropout_eval_identity(self):
        x = np.random.default_rng(10).standard_normal((7, 7))
        layer = DropoutLayer(0.2)
        np.testing.assert_array_equal(layer.forward(x, False, None), x)
        np.testing.assert_array_equal(layer.backward(np.ones_like(x)), np.ones_like(x))
        np.testing.assert_array_equal(DropoutLayer(0.0).forward(x, True, np.random.default_rng(0)), x)

    def test_dropout_zero_fraction(self):
        x = np.ones((1, 100_000))
        out = DropoutLayer(0.2).forward(x, True, np.random.default_rng(123))
        frac = np.mean(out == 0.0)
        assert abs(frac - 0.2) < 0.01
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.8, rtol=1e-12)

    def test_dropout_mask_is_the_inverted_dropout_formula(self):
        x = np.random.default_rng(11).standard_normal((4, 9))
        layer = DropoutLayer(0.3)
        out = layer.forward(x, True, np.random.default_rng(12))
        mask = (np.random.default_rng(12).random(x.shape) >= 0.3) / (1 - 0.3)
        assert np.array_equal(out, x * mask)
        assert np.array_equal(layer.backward(np.ones_like(x)), mask)

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            DropoutLayer(1.0)

    def test_dense_identity(self):
        x = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(dense_forward(x, np.eye(4), np.zeros(4)), x)

    def test_dense_gradients(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 6))
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        proj = rng.standard_normal((3, 4))

        def loss():
            return float(np.sum(dense_forward(x, w, b) * proj))

        dx, dw, db = dense_backward(proj, x, w)
        assert rel_err(dx, central_difference(loss, x)) < GRAD_TOL
        assert rel_err(dw, central_difference(loss, w)) < GRAD_TOL
        assert rel_err(db, central_difference(loss, b)) < GRAD_TOL

    def test_dense_rejects_mismatch(self):
        with pytest.raises(ValueError):
            dense_forward(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))

    def test_dense_rejects_unbatched_input(self):
        w = np.zeros((2, 4))
        with pytest.raises(ValueError, match="expected a batch"):
            dense_forward(np.zeros(4), w, np.zeros(2))
        with pytest.raises(ValueError, match="expected a batch"):
            dense_backward(np.zeros(2), np.zeros(4), w)
        with pytest.raises(ValueError, match="expected a batch"):
            dense_backward(np.zeros(2), np.zeros((1, 4)), w)


class TestSigmoidAndLoss:
    def test_zero_maps_to_half(self):
        assert sigmoid_forward(np.array([0.0]))[0] == 0.5

    def test_saturation_without_overflow(self):
        out = sigmoid_forward(np.array([40.0, -40.0]))
        assert abs(out[0] - 1.0) < 1e-15 and out[0] < 1.0
        assert abs(out[1]) < 1e-15 and out[1] > 0.0

    def test_symmetry(self):
        x = np.random.default_rng(12).standard_normal(100) * 5
        np.testing.assert_allclose(
            sigmoid_forward(x) + sigmoid_forward(-x), 1.0, atol=1e-12
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
        _, grad = bce_loss(sigmoid_forward(logits), z)

        def loss():
            return bce_loss(sigmoid_forward(logits), z)[0]

        assert rel_err(grad, central_difference(loss, logits)) < GRAD_TOL

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(np.zeros(3), np.zeros(4))


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


class TestNetworkForward:
    SPEC = build_network_spec(PROFILES["small"])

    def test_output_length_and_range(self):
        rng = np.random.default_rng(14)
        params = init_params(self.SPEC, rng)
        p = nn.forward(self.SPEC, params, rng.standard_normal((8, 8, 3)))
        assert p.shape == (61,)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_eval_deterministic_bitwise(self):
        rng = np.random.default_rng(15)
        params = init_params(self.SPEC, rng)
        x = rng.standard_normal((8, 8, 3))
        assert np.array_equal(
            nn.forward(self.SPEC, params, x), nn.forward(self.SPEC, params, x)
        )

    def test_rejects_wrong_input_shape(self):
        params = init_params(self.SPEC, np.random.default_rng(16))
        with pytest.raises(ValueError):
            nn.forward(self.SPEC, params, np.zeros((9, 9, 3)))

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
            grads = net.backward_from_logits(dlogits / 2.0)
            adam_step(init_adam_state(params, lr=1e-4), params, grads)
            p2 = net.forward(x, train=True, rng=np.random.default_rng(999))
            after, _ = bce_loss(p2, z)
            assert after < before


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = [{"weights": np.array([1.0, -2.0])}]
        state = init_adam_state(params, lr=0.01)
        adam_step(state, params, [{"weights": np.zeros(2)}])
        np.testing.assert_array_equal(params[0]["weights"], [1.0, -2.0])

    def test_constant_gradient_asymptote(self):
        params = [{"weights": np.zeros(3)}]
        state = init_adam_state(params, lr=0.01)
        g = np.array([3.0, -0.5, 2e-3])
        delta = None
        for _ in range(500):
            before = params[0]["weights"].copy()
            adam_step(state, params, [{"weights": g.copy()}])
            delta = params[0]["weights"] - before
        np.testing.assert_allclose(delta, -0.01 * np.sign(g), rtol=1e-3)

    def test_quadratic_bowl_convergence(self):
        target = np.array([0.3, -1.2, 2.5, 0.0])
        params = [{"weights": np.zeros(4)}]
        state = init_adam_state(params, lr=0.1)
        for step in range(5000):
            if step and step % 250 == 0:
                state.lr *= 0.5
            grad = params[0]["weights"] - target
            adam_step(state, params, [{"weights": grad}])
        assert 0.5 * np.sum((params[0]["weights"] - target) ** 2) < 1e-6

    def test_state_shapes(self):
        spec = build_network_spec(PROFILES["small"])
        params = init_params(spec, np.random.default_rng(17))
        state = init_adam_state(params)
        assert isinstance(state, AdamState)
        for block, m1, m2 in zip(params, state.moments1, state.moments2):
            assert sorted(m1) == sorted(m2)
            for key in m1:
                assert m1[key].shape == block[key].shape
                assert m2[key].shape == block[key].shape
                assert not np.shares_memory(m1[key], m2[key])
        assert all("running_mean" not in m for m in state.moments1)


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
        x = rng.standard_normal((8, 8, 3))
        before = nn.forward(spec, params, x)
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, params)
        spec2, params2, _ = load_checkpoint(path)
        assert np.array_equal(before, nn.forward(spec2, params2, x))

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
            lambda m: _with_first_layer(m, {**m["network"]["layers"][0], "filters": "16"}),
            lambda m: {**m, "network": {**m["network"], "layers": 5}},
            lambda m: _with_first_layer(m, ["conv2d", 16, 3, 1]),
            lambda m: {k: v for k, v in m.items() if k != "network"},
            lambda m: {**m, "network": {"layers": m["network"]["layers"]}},
            lambda m: [m],
        ],
        ids=["string-field", "int-layers", "list-layer", "no-network", "no-input-shape",
             "list-metadata"],
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
        "dims", [(2**31, 2**31), (2**32 - 1,) * 4], ids=["oversized", "wrapping-size"]
    )
    def test_corrupt_block_dims(self, tmp_path, capsys, dims):
        # A header is checked against the spec before its payload is read, so
        # dims whose size overflows or wraps around never size a read.
        spec = build_network_spec(PROFILES["small"])
        path = tmp_path / "model.doac"
        save_checkpoint(path, spec, init_params(spec, np.random.default_rng(25)))
        data = path.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        # The first block is layer 0's "bias": index u32, key length u16, key, ndim u8.
        at = 12 + meta_len + 4 + 2 + 4
        assert data[at - 4 : at] == b"bias" and data[at] == 1
        header = struct.pack(f"<B{len(dims)}I", len(dims), *dims)
        path.write_bytes(data[:at] + header + data[at + len(header) :])
        with pytest.raises(FileFormatError, match="key 'bias' has shape"):
            load_checkpoint(path)
        rc = cli(["eval", "--preset", "mixed-k-fixed-0db", "--checkpoint", str(path),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: checkpoint block layer 0 key 'bias'")


def _with_first_layer(meta, entry):
    network = meta["network"]
    return {**meta, "network": {**network, "layers": [entry, *network["layers"][1:]]}}


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
