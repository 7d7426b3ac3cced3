"""Finite-difference oracles for every layer's backward pass, a naive
convolution forward oracle, a per-kernel-row convolution that the
phase-blocked `ConvLayer` must match bit for bit in its float32 eval
forward and to rounding elsewhere, and a per-direction recurrent layer
that `RecurrentLayer` must match bit for bit."""

import tracemalloc

import numpy as np
import pytest
from oracles import RecurrentOracle, RowConvOracle

from ctcprobe import layers as L
from ctcprobe.model import LayerSpec, TrainedModel, preset
from ctcprobe.probing import TrainedProbe


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
                    / np.sqrt(bn.buffers["running_var"] + L.BN_EPS))
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_eval_forward_does_not_mutate(self):
        rng = np.random.default_rng(2)
        bn = L.BatchNorm(4)
        before = {k: v.copy() for k, v in bn.buffers.items()}
        bn.forward(rng.normal(size=(8, 4)), train=False)
        for k in before:
            np.testing.assert_array_equal(bn.buffers[k], before[k])

    # Conv batch norm's (t*f, channels) rows at the asr-train benchmark's
    # ds2-mini shapes (cnn1, cnn2), and a recurrent direction's (T, gates *
    # hidden) rows for the simple RNN and the LSTM.
    @pytest.mark.parametrize("shape", [(3172, 8), (1066, 8), (26, 32),
                                       (10, 128)], ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_pass_is_the_textbook_one_bit_for_bit(self, dtype, shape):
        """The forward's output, running statistics and cache are those of
        the batch's ``x.mean(axis=0)`` and ``x.var(axis=0)``, and the
        backward is the textbook expression, term by term."""
        rng = np.random.default_rng(shape[0])
        bn = L.BatchNorm(shape[1])
        L.cast([bn], dtype)
        for v in (*bn.params.values(), *bn.buffers.values()):
            v[...] = rng.uniform(0.5, 1.5, size=v.shape)
        running = {k: v.copy() for k, v in bn.buffers.items()}
        x = rng.normal(3.0, 2.0, size=shape).astype(dtype)
        y = bn.forward(x, train=True)
        mu, var = x.mean(axis=0), x.var(axis=0)
        for name, batch in (("running_mean", mu), ("running_var", var)):
            want = running[name]
            want *= 1 - L.BN_MOMENTUM
            want += L.BN_MOMENTUM * batch
            np.testing.assert_array_equal(bn.buffers[name], want)
            assert bn.buffers[name].dtype == dtype
        inv_std = 1.0 / np.sqrt(var + L.BN_EPS)
        xhat = (x - mu) * inv_std
        cached_xhat, cached_inv_std = bn._cache[0]
        np.testing.assert_array_equal(cached_xhat, xhat)
        np.testing.assert_array_equal(cached_inv_std, inv_std)
        want_y = bn.params["gamma"] * xhat + bn.params["beta"]
        assert y.dtype == cached_xhat.dtype == cached_inv_std.dtype == dtype
        np.testing.assert_array_equal(y, want_y)
        dy = rng.normal(size=shape).astype(dtype)
        dx, grads = bn.backward(dy)
        dxhat = dy * bn.params["gamma"]
        want_dx = inv_std * (dxhat - dxhat.mean(axis=0)
                             - xhat * (dxhat * xhat).mean(axis=0))
        assert dx.dtype == dtype
        np.testing.assert_array_equal(dx, want_dx)
        np.testing.assert_array_equal(grads["gamma"], (dy * xhat).sum(axis=0))
        np.testing.assert_array_equal(grads["beta"], dy.sum(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_forward_is_the_textbook_one_bit_for_bit(self, dtype):
        rng = np.random.default_rng(26)
        bn = L.BatchNorm(8)
        L.cast([bn], dtype)
        for v in (*bn.params.values(), *bn.buffers.values()):
            v[...] = rng.uniform(0.5, 1.5, size=v.shape)
        x = rng.normal(3.0, 2.0, size=(1066, 8)).astype(dtype)
        mu, var = bn.buffers["running_mean"], bn.buffers["running_var"]
        want = (bn.params["gamma"] * ((x - mu) * (1.0 / np.sqrt(
            var + L.BN_EPS))) + bn.params["beta"])
        np.testing.assert_array_equal(bn.forward(x, train=False), want)

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


# (stride, input (c_in, t, f), stride_t override) with kernel (3, 5) and
# padding (1, 0).  (2, 1) is cnn2's stride.  "padded_row_tail" leaves the
# last padding row outside every window; "uncovered_tail" leaves the last
# input row and the last two frequency columns outside every window.
CONV_CASES = {
    "stride_1x1": ((1, 1), (2, 9, 9), None),
    "stride_2x1": ((2, 1), (2, 9, 9), None),
    "stride_2x2": ((2, 2), (2, 9, 11), None),
    "padded_row_tail": ((2, 2), (2, 8, 9), None),
    "uncovered_tail": ((3, 3), (2, 9, 10), None),
    "stride_t_override": ((2, 2), (2, 9, 11), 1),
    # More time-stride phases than kernel rows: phase 3 has no kernel row.
    "stride_exceeds_kernel": ((4, 1), (2, 13, 9), None),
}


def check_forward_matches_naive(case):
    stride, x_shape, stride_t = CONV_CASES[case]
    rng = np.random.default_rng(4)
    spec = conv_spec(stride=stride, batchnorm=False, activation="none")
    layer = L.ConvLayer(spec, in_channels=2, rng=rng)
    x = rng.normal(size=x_shape)
    out, _pre = layer.forward(x, train=False, stride_t=stride_t)
    effective = (stride[0] if stride_t is None else stride_t, stride[1])
    expected = naive_conv(x, layer.params["W"], layer.params["b"],
                          effective, spec.padding)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def check_backward_matches_fd(case):
    stride, x_shape, stride_t = CONV_CASES[case]
    rng = np.random.default_rng(7)
    layer = L.ConvLayer(conv_spec(stride=stride), 2, rng)
    x = rng.normal(size=x_shape)
    dy_shape = layer.forward(x, train=True, stride_t=stride_t)[0].shape
    dy = np.random.default_rng(8).normal(size=dy_shape)
    running = {k: v.copy() for k, v in layer.bn.buffers.items()}

    def loss():
        layer.bn.buffers = {k: v.copy() for k, v in running.items()}
        out = layer.forward(x, train=True, stride_t=stride_t)[0]
        return float((out * dy).sum())

    loss()
    dx, grads = layer.backward(dy)
    assert rel_err(dx, fd_grad(loss, x)) < 1e-5
    for name, value in L.named_arrays(layer, "params").items():
        assert rel_err(grads[name], fd_grad(loss, value)) < 1e-5, name


# The unparametrized tests run conv_spec()'s own stride on the default
# input shapes; the "_cases" tests run every other case of CONV_CASES.
FORWARD_DEFAULT = "stride_2x2"
BACKWARD_DEFAULT = "padded_row_tail"


class TestConvLayer:
    def test_forward_matches_naive_convolution(self):
        check_forward_matches_naive(FORWARD_DEFAULT)

    @pytest.mark.parametrize(
        "case", [c for c in CONV_CASES if c != FORWARD_DEFAULT])
    def test_forward_matches_naive_convolution_cases(self, case):
        check_forward_matches_naive(case)

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
        check_backward_matches_fd(BACKWARD_DEFAULT)

    @pytest.mark.parametrize(
        "case", [c for c in CONV_CASES if c != BACKWARD_DEFAULT])
    def test_backward_matches_finite_differences_cases(self, case):
        check_backward_matches_fd(case)

    # Both presets' convs (padding (5, 0)), conv_spec()'s padding (1, 0),
    # and padding along frequency too.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name, index", [
        ("ds2-mini", 0), ("ds2-mini", 1), ("ds2", 0), ("ds2", 1),
        ("padding_1x0", None), ("padding_2x3", None)])
    def test_padded_is_np_pad_of_the_channel_major_input(self, name, index,
                                                         dtype):
        if index is None:
            pt, pf = (1, 0) if name == "padding_1x0" else (2, 3)
            spec, c_in, f_in = conv_spec(padding=(pt, pf)), 2, 11
        else:
            spec, c_in, f_in = model_conv(name, index)
        layer = L.ConvLayer(spec, c_in, np.random.default_rng(20))
        x = np.random.default_rng(21).normal(size=(c_in, 23, f_in))
        x = x.astype(dtype)
        pt, pf = spec.padding
        want = np.pad(x, ((0, 0), (pt, pt), (pf, pf)))
        got = layer._padded(x)
        assert got.dtype == want.dtype == dtype
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    def test_activations_and_gradients_are_channel_major(self):
        # Bias, batch norm and ReLU run along contiguous (t, f) rows, so
        # every (c, t, f) array a pass returns is C-contiguous.
        spec, c_in, f_in = model_conv("ds2-mini", 1)
        layer = L.ConvLayer(spec, c_in, np.random.default_rng(24))
        x = np.random.default_rng(25).normal(size=(c_in, 30, f_in))
        out, pre = layer.forward(x, True)
        # The gradient as the model hands it over: a transposed view.
        dy = np.random.default_rng(26).normal(
            size=(out.shape[1], out.shape[0], out.shape[2])).transpose(1, 0, 2)
        dx = layer.backward(dy)[0]
        assert out.flags.c_contiguous and pre.flags.c_contiguous
        assert dx.shape == x.shape and dx.base.flags.c_contiguous


def model_conv(name, index):
    """(spec, in_channels, input freq bins) of a preset's conv layer."""
    cfg = preset(name)
    c_in = cfg.layers[index - 1].out_channels if index else 1
    return cfg.layers[index], c_in, cfg.freq_bins_after(index)


def conv_pair(name, index):
    spec, c_in, _f = model_conv(name, index)
    return (L.ConvLayer(spec, c_in, np.random.default_rng(16)),
            RowConvOracle(spec, c_in, np.random.default_rng(16)))


def conv_input(name, index, frames):
    _spec, c_in, f_in = model_conv(name, index)
    return np.random.default_rng(17).normal(size=(c_in, frames, f_in))


def randomize_bn(layer, seed):
    """Batch-norm parameters and running statistics away from their
    initial ones, drawn from ``seed`` in the layer's dtype."""
    rng = np.random.default_rng(seed)
    for arrays in (layer.bn.params, layer.bn.buffers):
        for name, v in arrays.items():
            v[...] = rng.uniform(0.5, 1.5, v.shape) * (
                1 if name.endswith("var") or name == "gamma" else
                rng.choice([-1, 1], v.shape))


def conv_terms(layer, x, dy, train, stride_t):
    """Sum of the absolute terms of every output of ``layer``'s pass on
    ``x`` (and, in train mode, of its backward from ``dy``), in float64,
    by name: "out" and "pre", and "dx", "W", "b", "bn.gamma", "bn.beta".

    A convolution's terms are those of |W| over |x|.  Batch norm scales
    them per channel by |gamma| * inv_std, adds its mean's (train) or the
    running mean's (eval) and |beta|, and |gamma * xhat| for its standard
    deviation.  Its backward's are ``inv_std * (|g| + mean |g| + |xhat| *
    mean |g * xhat|)`` for ``g = dy * gamma`` where the ReLU passes; the
    weight and input gradients take those over |x| and |W|."""
    spec, bn = layer.spec, layer.bn
    c_in = layer.in_channels
    plain = RowConvOracle(LayerSpec(
        "conv2d", kernel=spec.kernel, stride=spec.stride, padding=spec.padding,
        out_channels=spec.out_channels, batchnorm=False), c_in,
        np.random.default_rng(0))
    W, b = (layer.params[k].astype(np.float64) for k in ("W", "b"))
    x = x.astype(np.float64)
    plain.params = {"W": W, "b": b}
    z = plain.forward(x, False, stride_t=stride_t)[1]
    plain.params = {"W": np.abs(W), "b": np.abs(b)}
    s_z = plain.forward(np.abs(x), train, stride_t=stride_t)[1]
    gamma, beta, mean, var = (v.astype(np.float64)[:, None, None] for v in (
        bn.params["gamma"], bn.params["beta"], bn.buffers["running_mean"],
        bn.buffers["running_var"]))
    if train:
        mean = z.mean(axis=(1, 2), keepdims=True)
        var = z.var(axis=(1, 2), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + L.BN_EPS)
    xhat = (z - mean) * inv_std
    s_mean = s_z.mean(axis=(1, 2), keepdims=True) if train else np.abs(mean)
    s_pre = (np.abs(gamma) * inv_std * (s_z + s_mean)
             + np.abs(gamma * xhat) + np.abs(beta))
    terms = {"out": s_pre, "pre": s_pre}
    if not train:
        return terms
    dy = dy.astype(np.float64) * (gamma * xhat + beta > 0)
    g = np.abs(dy * gamma)
    s_dz = inv_std * (g + g.mean(axis=(1, 2), keepdims=True) + np.abs(xhat)
                      * (g * np.abs(xhat)).mean(axis=(1, 2), keepdims=True))
    dx, grads = plain.backward(s_dz)
    return {**terms, "dx": dx, "W": grads["W"], "b": grads["b"],
            "bn.gamma": np.abs(dy * xhat).sum(axis=(1, 2)),
            "bn.beta": np.abs(dy).sum(axis=(1, 2))}


def conv_pass(layer, x, dy, train, stride_t, input_grad):
    """``layer``'s outputs of a pass by `conv_terms`' names."""
    out, pre = layer.forward(x, train, stride_t=stride_t)
    got = {"out": out, "pre": pre}
    if train:
        dx, grads = layer.backward(dy, input_grad=input_grad)
        got.update(grads, **({"dx": dx} if input_grad else {}))
    return got


def worst_agreement(got, want, terms):
    """Largest |got - want| of any output, as a fraction of its sum of
    absolute terms, in units of the outputs' dtype's epsilon."""
    worst = 0.0
    for name, g in got.items():
        assert g.dtype == want[name].dtype, name
        diff = np.abs(g.astype(np.float64) - want[name])
        eps = np.finfo(g.dtype).eps
        worst = max(worst, (diff / (eps * terms[name])).max(initial=0.0))
    return worst


# Largest |ConvLayer - RowConvOracle| of any output of a float64 pass, or
# of a float32 train pass, as a fraction of the output's sum of absolute
# terms (`conv_terms`), in epsilons of the pass's dtype.  The GEMM's
# operand order, batch norm's and the bias gradient's sums along
# contiguous rows, and ``dW``'s sums over blocks of phase rows round
# differently from the oracle's loop.  Measured worst: 2.0 float64
# epsilons and 1.7 float32 epsilons (both ``dW``) over the cases of
# `TestConvMatchesPerRowOracle`, at one BLAS thread and at two; ``dW`` at
# one-row blocks against the default ones, 0.5 float64 epsilons.
CONV_AGREEMENT = 4.0

# (preset, index) of the model's own conv shapes.
MODEL_CONVS = [("ds2-mini", 0), ("ds2-mini", 1), ("ds2", 0), ("ds2", 1)]


class TestConvMatchesPerRowOracle:
    """The model's own conv shapes at both time strides: the float32 eval
    forward bit for bit, float64 passes and float32 training within
    `CONV_AGREEMENT`.  conv1 is checked without ``dx``, as the model runs
    it: nothing uses the spectrogram's gradient."""

    @pytest.mark.parametrize("block_bytes", [L.CONV_BLOCK_BYTES, 1],
                             ids=["default_blocks", "one_row_blocks"])
    @pytest.mark.parametrize("stride_t", [None, 1], ids=["stride", "no_stride"])
    @pytest.mark.parametrize("name, index", MODEL_CONVS)
    def test_bit_for_bit(self, monkeypatch, name, index, stride_t,
                         block_bytes):
        # The pass that makes a loaded checkpoint's taps.
        monkeypatch.setattr(L, "CONV_BLOCK_BYTES", block_bytes)
        layer, oracle = conv_pair(name, index)
        for conv in (layer, oracle):
            L.cast([conv], np.float32)
            randomize_bn(conv, 22)
        x = conv_input(name, index, 61).astype(np.float32)
        out, pre = layer.forward(x, False, stride_t=stride_t)
        want_out, want_pre = oracle.forward(x, False, stride_t=stride_t)
        assert out.dtype == pre.dtype == np.float32
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(pre, want_pre)

    @pytest.mark.parametrize("block_bytes", [L.CONV_BLOCK_BYTES, 1],
                             ids=["default_blocks", "one_row_blocks"])
    @pytest.mark.parametrize("stride_t", [None, 1], ids=["stride", "no_stride"])
    @pytest.mark.parametrize("train, dtype", [
        (True, np.float64), (False, np.float64), (True, np.float32)],
        ids=["train", "eval", "train_float32"])
    @pytest.mark.parametrize("name, index", MODEL_CONVS)
    def test_agrees_to_rounding(self, monkeypatch, name, index, train, dtype,
                                stride_t, block_bytes):
        monkeypatch.setattr(L, "CONV_BLOCK_BYTES", block_bytes)
        layer, oracle = conv_pair(name, index)
        for conv in (layer, oracle):
            L.cast([conv], dtype)
            randomize_bn(conv, 23)
        x = conv_input(name, index, 61).astype(dtype)
        dy = np.random.default_rng(18).normal(
            size=oracle.forward(x, False, stride_t=stride_t)[0].shape
        ).astype(dtype)
        terms = conv_terms(oracle, x, dy, train, stride_t)
        got = conv_pass(layer, x, dy, train, stride_t, index > 0)
        want = conv_pass(oracle, x, dy, train, stride_t, index > 0)
        assert list(got) == list(want)
        assert worst_agreement(got, want, terms) <= CONV_AGREEMENT

    @pytest.mark.parametrize("stride_t", [None, 1], ids=["stride", "no_stride"])
    @pytest.mark.parametrize("name, index", MODEL_CONVS)
    def test_weight_grad_agrees_across_block_sizes(self, monkeypatch, name,
                                                   index, stride_t):
        x = conv_input(name, index, 61)
        layer = conv_pair(name, index)[0]
        dy = np.random.default_rng(18).normal(
            size=layer.forward(x, False, stride_t=stride_t)[0].shape)
        grads = []
        for block_bytes in (L.CONV_BLOCK_BYTES, 1):
            monkeypatch.setattr(L, "CONV_BLOCK_BYTES", block_bytes)
            grads.append(conv_pass(layer, x, dy, True, stride_t, False))
        terms = conv_terms(layer, x, dy, True, stride_t)
        assert worst_agreement({"W": grads[0]["W"]}, {"W": grads[1]["W"]},
                               terms) <= CONV_AGREEMENT


def traced_peak(fn):
    fn()  # warm up, so first-call allocations do not count
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each preset's conv1 and conv2 at the input lengths it meets: ds2 at 300
# frames, ds2-mini at the benchmark's utterances of about 104 frames.
@pytest.mark.parametrize("name, index, frames", [
    ("ds2", 0, 300), ("ds2", 1, 150), ("ds2-mini", 0, 104),
    ("ds2-mini", 1, 52)], ids=["ds2-conv1", "ds2-conv2", "ds2-mini-conv1",
                               "ds2-mini-conv2"])
def test_ds2_conv_peak_memory_within_oracle(name, index, frames):
    """Neither the eval forward nor the train forward+backward may peak
    above 1.1x the per-row oracle."""
    layer, oracle = conv_pair(name, index)
    x = conv_input(name, index, frames)
    dy = np.random.default_rng(19).normal(
        size=oracle.forward(x, False)[0].shape)

    def train_step(conv):
        conv.forward(x, True)
        conv.backward(dy, input_grad=index > 0)  # takes the cached entry

    for run in (lambda conv: conv.forward(x, False), train_step):
        peak, oracle_peak = traced_peak(lambda: run(layer)), traced_peak(
            lambda: run(oracle))
        assert peak <= 1.1 * oracle_peak, (peak, oracle_peak)


def recurrent_spec(kind, hidden=6, batchnorm=True):
    return LayerSpec(kind, hidden_size=hidden, batchnorm=batchnorm)


def padded(xs):
    """The zero-padded, time-major (T, B, D) batch of ``xs`` and their
    lengths, as a recurrent layer takes them."""
    lengths = [len(x) for x in xs]
    batch = np.zeros((max(lengths), len(xs), xs[0].shape[1]))
    for u, x in enumerate(xs):
        batch[:len(x), u] = x
    return batch, lengths


def run_one(layer, x):
    """A recurrent layer's eval output for one utterance: a batch of one."""
    return layer.forward(x[:, None], [len(x)], train=False)[:, 0]


# Lengths of a ragged batch whose longest utterance is not first.
RAGGED = (7, 5, 6)


def reference_recurrent(layer, x):
    """The bidirectional layer with batch norm off, from the cell equations:
    h_t = tanh(Wx x_t + Wh h_{t-1} + b) for the simple RNN; for the LSTM,
    with the rows of Wx, Wh and b stacked as gates i, f, g, o,
    c_t = f_t * c_{t-1} + i_t * g_t and h_t = o_t * tanh(c_t).  The
    backward direction reads x from the last frame to the first."""
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    def run(p, frames):
        n = p["Wh"].shape[1]
        h, c, out = np.zeros(n), np.zeros(n), []
        for x_t in frames:
            a = p["Wx"] @ x_t + p["Wh"] @ h + p["b"]
            if layer.spec.kind == "lstm_bidir":
                a_i, a_f, a_g, a_o = np.split(a, 4)
                c = sigmoid(a_f) * c + sigmoid(a_i) * np.tanh(a_g)
                h = sigmoid(a_o) * np.tanh(c)
            else:
                h = np.tanh(a)
            out.append(h)
        return np.array(out)

    return np.concatenate([run(layer.fwd.params, x),
                           run(layer.bwd.params, x[::-1])[::-1]], axis=1)


class TestRecurrentLayer:
    @pytest.mark.parametrize("kind", ["rnn_bidir", "lstm_bidir"])
    def test_forward_matches_the_cell_equations(self, kind):
        # On a ragged batch: each utterance's frames, then zeros.
        rng = np.random.default_rng(8)
        layer = L.RecurrentLayer(recurrent_spec(kind, batchnorm=False),
                                 in_size=3, rng=rng)
        for value in L.named_arrays(layer, "params").values():
            value[...] = rng.normal(size=value.shape)  # b is zero at init
        xs = [rng.normal(size=(n, 3)) for n in RAGGED]
        out = layer.forward(*padded(xs), train=False)
        for u, x in enumerate(xs):
            np.testing.assert_allclose(out[:len(x), u],
                                       reference_recurrent(layer, x),
                                       atol=1e-12)
            assert not out[len(x):, u].any()

    @pytest.mark.parametrize("kind", ["rnn_bidir", "lstm_bidir"])
    def test_backward_matches_finite_differences(self, kind):
        # A ragged batch, with output gradients on the padding too: they
        # must reach nothing, and the padding's input gradient is zero.
        rng = np.random.default_rng(9)
        layer = L.RecurrentLayer(recurrent_spec(kind), in_size=5, rng=rng)
        x, lengths = padded([rng.normal(size=(n, 5)) for n in RAGGED])
        dy = np.random.default_rng(10).normal(size=x.shape[:2] + (6,))
        buffers = L.named_arrays(layer, "buffers")
        running = {k: v.copy() for k, v in buffers.items()}

        def loss():
            for k, v in running.items():
                buffers[k][...] = v
            return float((layer.forward(x, lengths, train=True) * dy).sum())

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
        base = run_one(layer, x)
        perturbed = x.copy()
        perturbed[5:] += rng.normal(size=(3, 4))
        out = run_one(layer, perturbed)
        np.testing.assert_allclose(out[:5, :3], base[:5, :3], atol=1e-12)
        assert not np.allclose(out[:5, 3:], base[:5, 3:])

    def test_backward_direction_is_anticausal(self):
        rng = np.random.default_rng(12)
        layer = L.RecurrentLayer(recurrent_spec("lstm_bidir", batchnorm=False),
                                 in_size=4, rng=rng)
        x = rng.normal(size=(8, 4))
        base = run_one(layer, x)
        perturbed = x.copy()
        perturbed[:3] += rng.normal(size=(3, 4))
        out = run_one(layer, perturbed)
        np.testing.assert_allclose(out[5:, 3:], base[5:, 3:], atol=1e-12)

    def test_odd_hidden_size_rejected(self):
        with pytest.raises(ValueError):
            L.RecurrentLayer(recurrent_spec("rnn_bidir", hidden=7),
                             4, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["rnn_bidir", "lstm_bidir"])
    def test_checkpoint_layout(self, kind):
        # The registry keys, their order and shapes that checkpoints store,
        # and the initial draws, those of the per-direction oracle.
        layer = L.RecurrentLayer(recurrent_spec(kind, hidden=6), 5,
                                 np.random.default_rng(0))
        oracle = RecurrentOracle(recurrent_spec(kind, hidden=6), 5,
                                 np.random.default_rng(0))
        for section in ("params", "buffers"):
            want = L.named_arrays(oracle, section)
            for k, v in L.named_arrays(layer, section).items():
                np.testing.assert_array_equal(v, want[k], err_msg=k)
        g = 4 * 3 if kind == "lstm_bidir" else 3
        direction = [("Wx", (g, 5)), ("Wh", (g, 3)), ("b", (g,)),
                     ("bn.gamma", (g,)), ("bn.beta", (g,))]
        assert [(k, v.shape) for k, v in L.named_arrays(
            layer, "params").items()] == [
            (f"{d}.{k}", shape) for d in ("fwd", "bwd")
            for k, shape in direction]
        assert [(k, v.shape) for k, v in L.named_arrays(
            layer, "buffers").items()] == [
            (f"{d}.bn.{k}", (g,)) for d in ("fwd", "bwd")
            for k in ("running_mean", "running_var")]


def recurrent_pair(kind, in_size, hidden, dtype=np.float64):
    """A `RecurrentLayer` and its per-direction oracle, with the same
    parameters (drawn, then made nonzero everywhere) in ``dtype``."""
    spec = recurrent_spec(kind, hidden=hidden)
    layer, oracle = (cls(spec, in_size, np.random.default_rng(22))
                     for cls in (L.RecurrentLayer, RecurrentOracle))
    rng = np.random.default_rng(23)
    for k, v in L.named_arrays(layer, "params").items():
        v[...] = rng.normal(size=v.shape) / np.sqrt(v.shape[-1])
        L.named_arrays(oracle, "params")[k][...] = v
    L.cast([layer, oracle], dtype)
    return layer, oracle


class TestRecurrentMatchesPerDirectionOracle:
    """Both directions stepped in one recurrence give the per-direction
    loop's every bit: outputs, batch-norm statistics, parameter gradients
    in the same key order, and input gradients.  A ragged batch whose
    longest utterance is not first goes forward twice and back twice, the
    second time without the input gradient.  The widths are a small layer
    and ds2-mini's first recurrent layer."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("in_size, hidden, lengths", [
        (5, 6, RAGGED), (328, 64, (26, 27, 24, 25))],
        ids=["small", "ds2_mini"])
    @pytest.mark.parametrize("kind", ["rnn_bidir", "lstm_bidir"])
    def test_bit_for_bit(self, kind, in_size, hidden, lengths, train, dtype):
        layer, oracle = recurrent_pair(kind, in_size, hidden, dtype)
        rng = np.random.default_rng(24)
        x, lengths = padded([rng.normal(size=(n, in_size)) for n in lengths])
        x = x.astype(dtype)
        for _ in range(2):
            out = layer.forward(x, lengths, train)
            want = oracle.forward(x, lengths, train)
            assert out.dtype == want.dtype == dtype
            np.testing.assert_array_equal(out, want)
        want_buffers = L.named_arrays(oracle, "buffers")
        for k, v in L.named_arrays(layer, "buffers").items():
            np.testing.assert_array_equal(v, want_buffers[k], err_msg=k)
        if not train:
            return
        dy = rng.normal(size=out.shape).astype(dtype)
        for input_grad in (True, False):
            dx, grads = layer.backward(dy, input_grad)
            want_dx, want_grads = oracle.backward(dy, input_grad)
            if input_grad:
                assert dx.dtype == dtype
                np.testing.assert_array_equal(dx, want_dx)
            else:
                assert dx is None
            assert list(grads) == list(want_grads)
            for k, g in grads.items():
                np.testing.assert_array_equal(g, want_grads[k], err_msg=k)


@pytest.mark.parametrize("in_size", [328, 64], ids=["rnn1", "rnn2"])
def test_ds2_mini_recurrent_peak_memory_within_oracle(in_size):
    """At ds2-mini width (the first recurrent layer's input and a later
    one's), on a batch of four utterances of asr-train's length, neither
    the eval forward nor the train forward+backward may peak above the
    per-direction oracle."""
    layer, oracle = recurrent_pair("rnn_bidir", in_size, 64)
    rng = np.random.default_rng(25)
    x, lengths = padded([rng.normal(size=(n, in_size))
                         for n in (26, 27, 24, 25)])
    dy = rng.normal(size=x.shape[:2] + (64,))

    def train_step(rnn):
        rnn.forward(x, lengths, True)
        rnn.backward(dy)  # takes the cached entry

    for run in (lambda rnn: rnn.forward(x, lengths, False), train_step):
        peak, oracle_peak = traced_peak(lambda: run(layer)), traced_peak(
            lambda: run(oracle))
        assert peak <= oracle_peak, (peak, oracle_peak)


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

    # The forward computes the transpose of ``W @ x.T``.  In float32 that
    # is ``x @ W.T`` bit for bit at the probe's shapes: minibatch and dev
    # rows, tap widths, and the output widths of the probe's layers.  In
    # float64 it is not always so: OpenBLAS 0.3.31 (Haswell kernels) gave
    # other last bits whenever the rows or the output width passed 192 and
    # were not a multiple of 8.  So at the float64 model's fc shape
    # (64 -> 29), 270 rows are pinned to rounding only.  No pipeline path
    # runs a float64 probe; the float64 model forwards its fc at each
    # training utterance's output length.
    @pytest.mark.parametrize("dtype, in_size, out_size", [
        *[pytest.param(np.float32, k, n, id=f"float32-{k}-{n}")
          for k in (64, 161, 488, 1640) for n in (29, 40, 500)],
        pytest.param(np.float64, 64, 29, id="float64-64-29")])
    def test_forward_is_x_times_w_transposed_plus_b(self, dtype, in_size,
                                                   out_size):
        rng = np.random.default_rng(in_size * out_size)
        layer = L.FCLayer(LayerSpec("fully_connected", hidden_size=out_size,
                                    batchnorm=False), in_size, rng)
        L.cast([layer], dtype)
        layer.params["b"][...] = rng.normal(size=out_size)
        W, b = layer.params["W"], layer.params["b"]
        for rows in (1, 16, 70, 270):
            x = rng.normal(size=(rows, in_size)).astype(dtype)
            out = layer.forward(x, train=False)
            assert out.dtype == dtype and out.flags.c_contiguous
            if dtype == np.float64 and rows > 192:
                np.testing.assert_allclose(out, x @ W.T + b, rtol=0,
                                           atol=1e-13)
            else:
                np.testing.assert_array_equal(out, x @ W.T + b,
                                              err_msg=rows)


# kind -> make(rng): (a layer of that kind, its forward's inputs)
WITHOUT_INPUT_GRAD = {
    "conv": lambda rng: (L.ConvLayer(conv_spec(), 2, rng),
                         [rng.normal(size=(2, 8, 10))]),
    "fc": lambda rng: (L.FCLayer(LayerSpec("fully_connected", hidden_size=5,
                                           batchnorm=False), 4, rng),
                       [rng.normal(size=(6, 4))]),
    "rnn": lambda rng: (L.RecurrentLayer(recurrent_spec("rnn_bidir"), 5, rng),
                        padded([rng.normal(size=(n, 5)) for n in RAGGED])),
    "lstm": lambda rng: (L.RecurrentLayer(recurrent_spec("lstm_bidir"), 5,
                                          rng),
                         padded([rng.normal(size=(n, 5)) for n in RAGGED])),
}


@pytest.mark.parametrize("kind", WITHOUT_INPUT_GRAD)
def test_backward_without_input_grad(kind):
    # Every layer skips its input gradient the same way: dx is None, and
    # the parameter gradients are those of a full backward, bit for bit.
    # Each backward takes one cached forward, so the input goes forward
    # twice.
    rng = np.random.default_rng(15)
    layer, args = WITHOUT_INPUT_GRAD[kind](rng)
    x = args[0]
    for _ in range(2):
        out = layer.forward(*args, train=True)
    if kind == "conv":
        out = out[0]
    dy = rng.normal(size=out.shape)
    dx, grads = layer.backward(dy)
    assert dx.shape == x.shape
    no_dx, grads_only = layer.backward(dy, input_grad=False)
    assert no_dx is None
    assert list(grads_only) == list(grads)
    for name, g in grads.items():
        np.testing.assert_array_equal(grads_only[name], g, err_msg=name)


def test_uniform_init_is_the_scaled_draw(monkeypatch):
    # Dividing the draw in place is the same true_divide as dividing it
    # into a new array, on every shape a mini preset or a probe draws.
    shapes, real = [], L.uniform_init
    monkeypatch.setattr(L, "uniform_init", lambda rng, shape, fan_in: (
        shapes.append((shape, fan_in)) or real(rng, shape, fan_in)))
    for name in ("ds2-mini", "ds2-light-mini"):
        TrainedModel(preset(name))
    TrainedProbe.init(1640, [f"p{i}" for i in range(29)])
    assert ((500, 1640), 1640) in shapes and ((29, 500), 500) in shapes
    for i, (shape, fan_in) in enumerate(shapes):
        np.testing.assert_array_equal(
            real(np.random.default_rng(i), shape, fan_in),
            np.random.default_rng(i).uniform(-1.0, 1.0, shape)
            / np.sqrt(fan_in), err_msg=str(shape))


def test_uniform_init_range():
    rng = np.random.default_rng(14)
    w = L.uniform_init(rng, (50, 100), fan_in=100)
    assert np.abs(w).max() <= 0.1
    assert np.abs(w).max() > 0.05
