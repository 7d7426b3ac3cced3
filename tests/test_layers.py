"""Finite-difference oracles for every layer's backward pass, plus a naive
convolution forward oracle."""

import numpy as np
import pytest

from ctcprobe import layers as L
from ctcprobe.model import LayerSpec


def rel_err(a, b):
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1.0)
    return np.abs(a - b).max(initial=0.0) / scale


def fd_grad(f, x, h=1e-6):
    """Central finite differences of scalar f over every coordinate of x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def naive_conv(x, W, b, stride, padding):
    c_in, t_in, f_in = x.shape
    c_out, _, kt, kf = W.shape
    st, sf = stride
    pt, pf = padding
    xp = np.pad(x, ((0, 0), (pt, pt), (pf, pf)))
    t_out = (t_in + 2 * pt - kt) // st + 1
    f_out = (f_in + 2 * pf - kf) // sf + 1
    out = np.zeros((c_out, t_out, f_out))
    for o in range(c_out):
        for t in range(t_out):
            for f in range(f_out):
                patch = xp[:, t * st:t * st + kt, f * sf:f * sf + kf]
                out[o, t, f] = (patch * W[o]).sum() + b[o]
    return out


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(0)
        bn = L.BatchNorm(5)
        x = rng.normal(3.0, 2.0, size=(64, 5))
        y = bn.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(1)
        bn = L.BatchNorm(3)
        for _ in range(200):
            bn.forward(rng.normal(1.0, 2.0, size=(32, 3)), train=True)
        x = rng.normal(1.0, 2.0, size=(16, 3))
        y = bn.forward(x, train=False)
        expected = ((x - bn.buffers["running_mean"])
                    / np.sqrt(bn.buffers["running_var"] + bn.eps))
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_eval_forward_does_not_mutate(self):
        rng = np.random.default_rng(2)
        bn = L.BatchNorm(4)
        before = {k: v.copy() for k, v in bn.buffers.items()}
        bn.forward(rng.normal(size=(8, 4)), train=False)
        for k in before:
            np.testing.assert_array_equal(bn.buffers[k], before[k])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 4))
        dy = rng.normal(size=(7, 4))
        bn = L.BatchNorm(4)
        bn.params["gamma"] = rng.normal(1.0, 0.2, size=4)
        bn.params["beta"] = rng.normal(size=4)
        running = {k: v.copy() for k, v in bn.buffers.items()}

        def loss():
            bn.buffers = {k: v.copy() for k, v in running.items()}
            return float((bn.forward(x, train=True) * dy).sum())

        loss()
        dx, grads = bn.backward(dy)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6
        assert rel_err(grads["gamma"], fd_grad(loss, bn.params["gamma"])) < 1e-6
        assert rel_err(grads["beta"], fd_grad(loss, bn.params["beta"])) < 1e-6


def conv_spec(**kw):
    base = dict(kind="conv2d", kernel=(3, 5), stride=(2, 2), padding=(1, 0),
                out_channels=2, batchnorm=True, activation="relu")
    base.update(kw)
    return LayerSpec(**base)


class TestConvLayer:
    def test_forward_matches_naive_convolution(self):
        rng = np.random.default_rng(4)
        spec = conv_spec(batchnorm=False, activation="none")
        layer = L.ConvLayer(spec, in_channels=2, rng=rng)
        x = rng.normal(size=(2, 9, 11))
        out, _pre = layer.forward(x, train=False)
        expected = naive_conv(x, layer.params["W"], layer.params["b"],
                              spec.stride, spec.padding)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_stride_override(self):
        rng = np.random.default_rng(5)
        layer = L.ConvLayer(conv_spec(batchnorm=False, activation="none"),
                            1, rng)
        x = rng.normal(size=(1, 10, 9))
        strided, _ = layer.forward(x, train=False)
        full, _ = layer.forward(x, train=False, stride_t=1)
        assert full.shape[1] == 10  # pad 1, kernel 3, stride 1
        np.testing.assert_allclose(strided, full[:, ::2], atol=1e-12)

    def test_relu_non_negative(self):
        rng = np.random.default_rng(6)
        layer = L.ConvLayer(conv_spec(), 1, rng)
        out, _ = layer.forward(rng.normal(size=(1, 8, 9)), train=False)
        assert np.all(out >= 0.0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        layer = L.ConvLayer(conv_spec(), 2, rng)
        x = rng.normal(size=(2, 8, 9))
        dy_shape = layer.forward(x, train=True)[0].shape
        dy = np.random.default_rng(8).normal(size=dy_shape)
        running = {k: v.copy() for k, v in layer.bn.buffers.items()}

        def loss():
            layer.bn.buffers = {k: v.copy() for k, v in running.items()}
            return float((layer.forward(x, train=True)[0] * dy).sum())

        loss()
        dx, grads = layer.backward(dy)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-5
        for name, value in L.named_arrays(layer, "params").items():
            assert rel_err(grads[name], fd_grad(loss, value)) < 1e-5, name


def recurrent_spec(kind, hidden=6, batchnorm=True):
    return LayerSpec(kind, hidden_size=hidden, batchnorm=batchnorm)


class TestRecurrentLayer:
    @pytest.mark.parametrize("kind", ["rnn_bidir", "lstm_bidir"])
    def test_backward_matches_finite_differences(self, kind):
        rng = np.random.default_rng(9)
        layer = L.RecurrentLayer(recurrent_spec(kind), in_size=5, rng=rng)
        x = rng.normal(size=(7, 5))
        dy = np.random.default_rng(10).normal(size=(7, 6))
        buffers = L.named_arrays(layer, "buffers")
        running = {k: v.copy() for k, v in buffers.items()}

        def loss():
            for k, v in running.items():
                buffers[k][...] = v
            return float((layer.forward(x, train=True)[0] * dy).sum())

        loss()
        dx, grads = layer.backward(dy)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-5
        for name, value in L.named_arrays(layer, "params").items():
            assert rel_err(grads[name], fd_grad(loss, value)) < 1e-5, name

    def test_forward_direction_is_causal(self):
        # The first half of the output is the forward direction: its state
        # at time t must not depend on inputs at t' > t.
        rng = np.random.default_rng(11)
        layer = L.RecurrentLayer(recurrent_spec("rnn_bidir", batchnorm=False),
                                 in_size=4, rng=rng)
        x = rng.normal(size=(8, 4))
        base, _ = layer.forward(x, train=False)
        perturbed = x.copy()
        perturbed[5:] += rng.normal(size=(3, 4))
        out, _ = layer.forward(perturbed, train=False)
        np.testing.assert_allclose(out[:5, :3], base[:5, :3], atol=1e-12)
        assert not np.allclose(out[:5, 3:], base[:5, 3:])

    def test_backward_direction_is_anticausal(self):
        rng = np.random.default_rng(12)
        layer = L.RecurrentLayer(recurrent_spec("lstm_bidir", batchnorm=False),
                                 in_size=4, rng=rng)
        x = rng.normal(size=(8, 4))
        base, _ = layer.forward(x, train=False)
        perturbed = x.copy()
        perturbed[:3] += rng.normal(size=(3, 4))
        out, _ = layer.forward(perturbed, train=False)
        np.testing.assert_allclose(out[5:, 3:], base[5:, 3:], atol=1e-12)

    def test_odd_hidden_size_rejected(self):
        with pytest.raises(ValueError):
            L.RecurrentLayer(recurrent_spec("rnn_bidir", hidden=7),
                             4, np.random.default_rng(0))


class TestFCLayer:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        layer = L.FCLayer(LayerSpec("fully_connected", hidden_size=5,
                                    batchnorm=False), in_size=4, rng=rng)
        x = rng.normal(size=(6, 4))
        dy = rng.normal(size=(6, 5))

        def loss():
            return float((layer.forward(x, train=True) * dy).sum())

        loss()
        dx, grads = layer.backward(dy)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6
        for name, value in L.named_arrays(layer, "params").items():
            assert rel_err(grads[name], fd_grad(loss, value)) < 1e-6, name


def test_uniform_init_range():
    rng = np.random.default_rng(14)
    w = L.uniform_init(rng, (50, 100), fan_in=100)
    assert np.abs(w).max() <= 0.1
    assert np.abs(w).max() > 0.05
