"""Network building blocks with hand-written forward and backward passes.

Each layer owns its parameters (``params``) and non-learned state
(``buffers``), updated only in place; `named_arrays` lists them for the
model's registry.  Layers cache intermediates on forward, and return
(input-gradient, parameter-gradients) on backward.  Everything is
float64 numpy; recurrent layers run both directions and concatenate.
Convolution forward, ``dW`` and ``dx`` are one BLAS GEMM per kernel row
over a frequency-only unfold of that row's input (see `ConvLayer`).
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def uniform_init(rng, shape, fan_in):
    return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in)


def named_arrays(block, kind):
    """Live ``params`` or ``buffers`` arrays of a layer, keyed by dotted path.

    A block's own arrays come first, then those of its ``fwd``, ``bwd``
    and ``bn`` sub-blocks in that order; checkpoints store them so.
    """
    out = dict(getattr(block, kind, {}))
    for child in ("fwd", "bwd", "bn"):
        sub = getattr(block, child, None)
        if sub is not None:
            out.update({f"{child}.{k}": v
                        for k, v in named_arrays(sub, kind).items()})
    return out


class BatchNorm:
    """Per-feature batch norm over axis 0 of an (N, C) matrix."""

    def __init__(self, n_features, eps=BN_EPS, momentum=BN_MOMENTUM):
        self.eps = eps
        self.momentum = momentum
        self.params = {"gamma": np.ones(n_features), "beta": np.zeros(n_features)}
        self.buffers = {"running_mean": np.zeros(n_features),
                        "running_var": np.ones(n_features)}
        self._cache = None

    def forward(self, x, train):
        gamma = self.params["gamma"]
        if train:
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            m = self.momentum
            # In place, so the model's registry keeps pointing at them.
            for name, batch in (("running_mean", mu), ("running_var", var)):
                running = self.buffers[name]
                running *= 1 - m
                running += m * batch
        else:
            mu = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv_std
        if train:
            # Cache only for backward; eval-mode forward stays mutation-free
            # so it is safe to call concurrently.
            self._cache = (xhat, inv_std, train)
        return gamma * xhat + self.params["beta"]

    def backward(self, dy):
        xhat, inv_std, train = self._cache
        gamma = self.params["gamma"]
        grads = {"gamma": (dy * xhat).sum(axis=0), "beta": dy.sum(axis=0)}
        dxhat = dy * gamma
        if train:
            dx = inv_std * (dxhat - dxhat.mean(axis=0)
                            - xhat * (dxhat * xhat).mean(axis=0))
        else:
            dx = dxhat * inv_std
        return dx, grads


class ConvLayer:
    """2-D convolution over (channels, time, freq) + optional BN + ReLU.

    Batch norm is per output channel, sequence-wise over all (t, f)
    positions of the utterance.

    Each pass is one BLAS GEMM per kernel row: the stride-selected input
    rows under kernel row i are unfolded along frequency only, to a
    (t_out*f_out, c_in*kf) matrix, and multiplied by W[:, :, i, :].  So
    is ``dW``.  ``dx`` zero-dilates the output gradient by the frequency
    stride, pads it by kf-1, unfolds it once, and adds one GEMM with the
    frequency-flipped kernel row into every st-th input row.  No full
    im2col matrix is built.  Activations are laid out (t, f, c)
    internally; the (c, t, f) arrays in and out are transposed views.
    """

    def __init__(self, spec, in_channels, rng):
        kt, kf = spec.kernel
        self.spec = spec
        self.in_channels = in_channels
        fan_in = in_channels * kt * kf
        self.params = {
            "W": uniform_init(rng, (spec.out_channels, in_channels, kt, kf), fan_in),
            "b": np.zeros(spec.out_channels),
        }
        self.bn = BatchNorm(spec.out_channels) if spec.batchnorm else None
        self._cache = None

    def _row_cols(self, xp, i, t_out, f_out, st, sf):
        """(t_out*f_out, c_in*kf) unfold of the input rows under kernel row i."""
        kf = self.spec.kernel[1]
        rows = xp[i:i + st * t_out:st]  # (t_out, Fp, c_in)
        win = np.lib.stride_tricks.sliding_window_view(rows, kf, axis=1)
        return win[:, :sf * f_out:sf].reshape(t_out * f_out, -1)

    def forward(self, x, train, stride_t=None):
        spec = self.spec
        kt, kf = spec.kernel
        st = spec.stride[0] if stride_t is None else stride_t
        sf = spec.stride[1]
        pt, pf = spec.padding
        xp = np.pad(x.transpose(1, 2, 0), ((pt, pt), (pf, pf), (0, 0)))
        if xp.shape[0] < kt or xp.shape[1] < kf:
            raise ValueError("input smaller than the convolution kernel")
        t_out = (xp.shape[0] - kt) // st + 1
        f_out = (xp.shape[1] - kf) // sf + 1
        W = self.params["W"]
        c_out = W.shape[0]
        z = np.zeros((t_out * f_out, c_out))
        for i in range(kt):
            z += (self._row_cols(xp, i, t_out, f_out, st, sf)
                  @ W[:, :, i, :].reshape(c_out, -1).T)
        z += self.params["b"]
        if self.bn is not None:
            z = self.bn.forward(z, train)
        pre = z.reshape(t_out, f_out, c_out).transpose(2, 0, 1)
        out = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
        if train:
            self._cache = (xp, pre, st, sf)
        return out, pre

    def backward(self, dout, input_grad=True):
        """Gradients for the cached train-mode forward.  With
        ``input_grad=False`` the input gradient is skipped and None."""
        xp, pre, st, sf = self._cache
        spec = self.spec
        kt, kf = spec.kernel
        pt, pf = spec.padding
        if spec.activation == "relu":
            dout = dout * (pre > 0)
        c_out, t_out, f_out = dout.shape
        dz = dout.transpose(1, 2, 0).reshape(-1, c_out)  # (t*f, c_out)
        if self.bn is not None:
            dz, bn_grads = self.bn.backward(dz)
        W = self.params["W"]
        dW = np.empty_like(W)
        for i in range(kt):
            dW[:, :, i, :] = (dz.T @ self._row_cols(xp, i, t_out, f_out, st, sf)
                              ).reshape(c_out, -1, kf)
        grads = {"W": dW, "b": dz.sum(axis=0)}
        if self.bn is not None:
            grads["bn.gamma"] = bn_grads["gamma"]
            grads["bn.beta"] = bn_grads["beta"]
        if not input_grad:
            return None, grads
        # Input position f collects output column f' through tap j = f - sf*f':
        # a correlation of the dilated, padded gradient with the flipped row.
        dil = np.zeros((t_out, sf * (f_out - 1) + 1 + 2 * (kf - 1), c_out))
        dil[:, kf - 1:kf - 1 + sf * f_out:sf] = dz.reshape(t_out, f_out, c_out)
        f_cov = dil.shape[1] - kf + 1  # input columns some output reads
        unfolded = np.lib.stride_tricks.sliding_window_view(
            dil, kf, axis=1).reshape(t_out * f_cov, c_out * kf)
        dxp = np.zeros(xp.shape)
        for i in range(kt):
            w_row = W[:, :, i, ::-1].transpose(0, 2, 1).reshape(c_out * kf, -1)
            dxp[i:i + st * t_out:st, :f_cov] += (
                unfolded @ w_row).reshape(t_out, f_cov, -1)
        dx = dxp[pt:xp.shape[0] - pt, pf:xp.shape[1] - pf]
        return dx.transpose(2, 0, 1), grads

    def output_tap(self, out):
        # (C, T, F) -> (T, C*F), channel-major then frequency.
        return out.transpose(1, 0, 2).reshape(out.shape[1], -1)


class _Direction:
    """One direction of a recurrent layer: input projection + optional
    sequence-wise BN on the input-to-hidden pre-activation, then the cell
    recurrence."""

    def __init__(self, in_size, hidden, gates, rng, batchnorm):
        self.hidden = hidden
        self.gates = gates  # 1 for simple RNN, 4 for LSTM
        self.params = {
            "Wx": uniform_init(rng, (gates * hidden, in_size), in_size),
            "Wh": uniform_init(rng, (gates * hidden, hidden), hidden),
            "b": np.zeros(gates * hidden),
        }
        self.bn = BatchNorm(gates * hidden) if batchnorm else None

    def project(self, x, train):
        z = x @ self.params["Wx"].T
        if self.bn is not None:
            z = self.bn.forward(z, train)
        return z

    def project_backward(self, dzn, x):
        if self.bn is not None:
            dz, bn_grads = self.bn.backward(dzn)
        else:
            dz, bn_grads = dzn, None
        grads = {"Wx": dz.T @ x}
        if bn_grads is not None:
            grads["bn.gamma"] = bn_grads["gamma"]
            grads["bn.beta"] = bn_grads["beta"]
        return dz @ self.params["Wx"], grads


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class RecurrentLayer:
    """Bidirectional simple-RNN (tanh cell) or LSTM.

    ``hidden_size`` is the layer's output width; each direction has
    hidden_size // 2 units and the two directions are concatenated.
    """

    def __init__(self, spec, in_size, rng):
        if spec.hidden_size % 2 != 0:
            raise ValueError("bidirectional hidden_size must be even")
        self.spec = spec
        self.in_size = in_size
        self.kind = spec.kind  # rnn_bidir | lstm_bidir
        gates = 4 if self.kind == "lstm_bidir" else 1
        h = spec.hidden_size // 2
        self.fwd = _Direction(in_size, h, gates, rng, spec.batchnorm)
        self.bwd = _Direction(in_size, h, gates, rng, spec.batchnorm)
        self._cache = None

    def forward(self, x, train):
        hf, cache_f = self._run_direction(self.fwd, x, train)
        hb_r, cache_b = self._run_direction(self.bwd, x[::-1], train)
        out = np.concatenate([hf, hb_r[::-1]], axis=1)
        pre = out
        if self.spec.activation == "relu":
            out = np.maximum(out, 0.0)
        if train:
            self._cache = (x, cache_f, cache_b, pre)
        return out, pre

    def backward(self, dout):
        x, cache_f, cache_b, pre = self._cache
        if self.spec.activation == "relu":
            dout = dout * (pre > 0)
        h = self.spec.hidden_size // 2
        dx_f, grads_f = self._direction_backward(self.fwd, dout[:, :h], x, cache_f)
        dx_b, grads_b = self._direction_backward(
            self.bwd, dout[::-1, h:], x[::-1], cache_b)
        dx = dx_f + dx_b[::-1]
        grads = {f"fwd.{k}": v for k, v in grads_f.items()}
        grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
        return dx, grads

    # -- cell recurrences (inputs already direction-ordered) --

    def _run_direction(self, d, x, train):
        zn = d.project(x, train)
        if self.kind == "rnn_bidir":
            return self._rnn_forward(d, x, zn)
        return self._lstm_forward(d, x, zn)

    def _rnn_forward(self, d, x, zn):
        T = x.shape[0]
        wh, b = d.params["Wh"], d.params["b"]
        hs = np.zeros((T, d.hidden))
        h = np.zeros(d.hidden)
        for t in range(T):
            h = np.tanh(zn[t] + wh @ h + b)
            hs[t] = h
        return hs, (x, hs)

    def _lstm_forward(self, d, x, zn):
        T = x.shape[0]
        H = d.hidden
        wh, b = d.params["Wh"], d.params["b"]
        hs = np.zeros((T, H))
        gates = np.zeros((T, 4 * H))
        cs = np.zeros((T, H))
        h = np.zeros(H)
        c = np.zeros(H)
        for t in range(T):
            pre = zn[t] + wh @ h + b
            i = _sigmoid(pre[:H])
            f = _sigmoid(pre[H:2 * H])
            g = np.tanh(pre[2 * H:3 * H])
            o = _sigmoid(pre[3 * H:])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[t] = h
            cs[t] = c
            gates[t] = np.concatenate([i, f, g, o])
        return hs, (x, hs, cs, gates)

    def _direction_backward(self, d, dh_seq, x, cache):
        if self.kind == "rnn_bidir":
            dzn, dwh, db = self._rnn_backward(d, dh_seq, cache)
        else:
            dzn, dwh, db = self._lstm_backward(d, dh_seq, cache)
        dx, grads = d.project_backward(dzn, x)
        grads["Wh"] = dwh
        grads["b"] = db
        return dx, grads

    def _rnn_backward(self, d, dh_seq, cache):
        x, hs = cache
        T = x.shape[0]
        wh = d.params["Wh"]
        dzn = np.zeros((T, d.hidden))
        dh_next = np.zeros(d.hidden)
        for t in range(T - 1, -1, -1):
            dh = dh_seq[t] + dh_next
            dq = dh * (1.0 - hs[t] ** 2)
            dzn[t] = dq
            dh_next = wh.T @ dq
        # h_{-1} = 0, so step 0 adds nothing to dWh.
        return dzn, dzn[1:].T @ hs[:-1], dzn.sum(axis=0)

    def _lstm_backward(self, d, dh_seq, cache):
        x, hs, cs, gates = cache
        T = x.shape[0]
        H = d.hidden
        wh = d.params["Wh"]
        dzn = np.zeros((T, 4 * H))
        dh_next = np.zeros(H)
        dc_next = np.zeros(H)
        for t in range(T - 1, -1, -1):
            i, f, g, o = (gates[t][:H], gates[t][H:2 * H],
                          gates[t][2 * H:3 * H], gates[t][3 * H:])
            c_prev = cs[t - 1] if t > 0 else np.zeros(H)
            tc = np.tanh(cs[t])
            dh = dh_seq[t] + dh_next
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc ** 2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dpre = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g ** 2),
                do * o * (1.0 - o),
            ])
            dzn[t] = dpre
            dh_next = wh.T @ dpre
        return dzn, dzn[1:].T @ hs[:-1], dzn.sum(axis=0)


class FCLayer:
    """Per-frame fully connected projection (logits; softmax lives in the
    model so CTC can consume pre-softmax gradients)."""

    def __init__(self, spec, in_size, rng):
        self.spec = spec
        self.in_size = in_size
        self.params = {
            "W": uniform_init(rng, (spec.hidden_size, in_size), in_size),
            "b": np.zeros(spec.hidden_size),
        }
        self._cache = None

    def forward(self, x, train):
        if train:
            self._cache = x
        return x @ self.params["W"].T + self.params["b"]

    def backward(self, dout):
        x = self._cache
        grads = {"W": dout.T @ x, "b": dout.sum(axis=0)}
        return dout @ self.params["W"], grads
