"""Network building blocks with hand-written forward and backward passes.

Each layer owns its parameters (``params``) and non-learned state
(``buffers``), updated only in place; `registry` keys them for a stack of
layers, the model's or a probe's.  Layers cache intermediates on a
train-mode forward, and ``backward(dout, input_grad=True)`` returns
(input-gradient, parameter-gradients), the input gradient None when
``input_grad`` is false.  The model's layers are float64 numpy, a probe's
take its data's dtype; recurrent layers run both directions and
concatenate.  Convolution unfolds each time-stride phase of its input along frequency
once per pass; forward and ``dx`` are one BLAS GEMM per phase and row
block, ``dW`` one per kernel row, and every output still adds its kernel
rows in ascending order (see `ConvLayer`).
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# Bytes of unfolded input plus GEMM products that one block of a
# convolution pass holds, about a core's L2 cache.  The forward and the
# input gradient work through their time rows in blocks of this size, so
# their scratch memory does not grow with the utterance.
CONV_BLOCK_BYTES = 1 << 21


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


def registry(layers, kind):
    """Live ``params`` or ``buffers`` arrays of a layer stack, keyed
    "L<i>.<path>" with ``i`` the 1-based position in ``layers``."""
    return {f"L{i}.{k}": v for i, layer in enumerate(layers, start=1)
            for k, v in named_arrays(layer, kind).items()}


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
            self._cache = (xhat, inv_std)
        return gamma * xhat + self.params["beta"]

    def backward(self, dy):
        """Gradients through the last train-mode forward's batch statistics."""
        xhat, inv_std = self._cache
        gamma = self.params["gamma"]
        grads = {"gamma": (dy * xhat).sum(axis=0), "beta": dy.sum(axis=0)}
        dxhat = dy * gamma
        dx = inv_std * (dxhat - dxhat.mean(axis=0)
                        - xhat * (dxhat * xhat).mean(axis=0))
        return dx, grads


class ConvLayer:
    """2-D convolution over (channels, time, freq) + optional BN + ReLU.

    Batch norm is per output channel, sequence-wise over all (t, f)
    positions of the utterance.

    Every pass works on time-stride phases: phase p holds the padded
    input rows p, p+st, p+2st, ..., so kernel row i = p + st*j reads
    phase rows j .. j+t_out-1.  A pass unfolds each phase row along
    frequency once, to (f_out, c_in*kf), and kernel rows read the unfold
    as free views.  The forward multiplies a block of phase rows by all
    of the phase's kernel rows, side by side, in one GEMM.  ``dx``
    zero-dilates the output gradient by the frequency stride, pads it by
    kf-1 and unfolds it, and multiplies a block of it by each phase's
    frequency-flipped kernel rows side by side.  ``dW`` is one GEMM per
    kernel row on its phase's unfold.  Every output still adds its kernel
    rows in ascending order, so the sums are those of a loop over kernel
    rows.  A block of the forward or ``dx`` holds about
    `CONV_BLOCK_BYTES` of unfold and products.  Activations are laid out
    (t, f, c) internally; the (c, t, f) arrays in and out are transposed
    views.
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

    def _phase_rows(self, xp, p, st, q0, n, sf, f_out):
        """(n*f_out, c_in*kf) frequency unfold of phase p's rows q0 ..
        q0+n-1, which are the padded input rows p + st*q."""
        kf = self.spec.kernel[1]
        rows = xp[p + st * q0::st][:n]  # (n, Fp, c_in)
        win = np.lib.stride_tricks.sliding_window_view(rows, kf, axis=1)
        return np.ascontiguousarray(win[:, :sf * f_out:sf]).reshape(
            -1, rows.shape[2] * kf)

    def _correlate(self, xp, st, sf, t_out, f_out):
        """The bias-free forward, (t_out, f_out, c_out).

        Output row t collects kernel row i = p + st*j from phase row
        q = t + j.  Phase rows go in ascending blocks, and each block adds
        its products in ascending i, so every output sums its kernel rows
        in the order i = 0 .. kt-1.
        """
        W = self.params["W"]
        c_out, c_in, kt, kf = W.shape
        # Phase p's kernel rows side by side: (c_in*kf, kt_p*c_out).
        w_ph = [W[:, :, p::st].transpose(2, 0, 1, 3).reshape(-1, c_in * kf).T
                for p in range(min(st, kt))]
        n_rows = [t_out + w.shape[1] // c_out - 1 for w in w_ph]
        z = np.zeros((t_out, f_out, c_out))
        block = max(1, CONV_BLOCK_BYTES
                    // (z.itemsize * f_out * (c_in * kf + kt * c_out)))
        for q0 in range(0, n_rows[0], block):
            prods = [(self._phase_rows(xp, p, st, q0, min(block, n - q0),
                                       sf, f_out) @ w
                      ).reshape(-1, f_out, w.shape[1] // c_out, c_out)
                     for p, (w, n) in enumerate(zip(w_ph, n_rows))]
            for i in range(kt):
                j = i // st
                lo, hi = max(q0, j), min(q0 + block, j + t_out)
                if lo < hi:
                    z[lo - j:hi - j] += prods[i % st][lo - q0:hi - q0, :, j]
            del prods  # one block's products at a time
        return z

    def _input_grad(self, dz, xp_shape, st, sf, t_out, f_out):
        """Gradient with respect to the padded input, (Tp, Fp, c_in).

        Input row p + st*q collects kernel row i = p + st*j from output
        row t = q - j.  Output rows go in descending blocks, and each block
        adds its products in ascending j, so every input row sums its
        kernel rows in ascending order.
        """
        W = self.params["W"]
        c_out, c_in, kt, kf = W.shape
        # Input position f collects output column f' through tap j = f - sf*f':
        # a correlation of the dilated, padded gradient with the flipped row.
        dil = np.zeros((t_out, sf * (f_out - 1) + 1 + 2 * (kf - 1), c_out))
        dil[:, kf - 1:kf - 1 + sf * f_out:sf] = dz.reshape(t_out, f_out, c_out)
        f_cov = dil.shape[1] - kf + 1  # input columns some output reads
        # Phase p's flipped kernel rows side by side: (c_out*kf, kt_p*c_in).
        w_ph = [W[:, :, p::st, ::-1].transpose(0, 3, 2, 1).reshape(c_out * kf, -1)
                for p in range(min(st, kt))]
        dxp = np.zeros(xp_shape)
        block = max(1, CONV_BLOCK_BYTES
                    // (dil.itemsize * f_cov * (c_out * kf + kt * c_in)))
        for t0 in reversed(range(0, t_out, block)):
            nb = min(block, t_out - t0)
            cols = np.lib.stride_tricks.sliding_window_view(
                dil[t0:t0 + nb], kf, axis=1).reshape(nb * f_cov, c_out * kf)
            for p, w in enumerate(w_ph):
                prod = (cols @ w).reshape(nb, f_cov, -1, c_in)
                for j in range(prod.shape[2]):
                    r0 = p + st * (t0 + j)
                    dxp[r0:r0 + st * nb:st, :f_cov] += prod[:, :, j]
            del cols, prod  # one block's unfold and products at a time
        return dxp

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
        z = self._correlate(xp, st, sf, t_out, f_out)
        c_out = z.shape[2]
        z = z.reshape(-1, c_out)
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
        m = t_out * f_out
        for p in range(min(st, kt)):
            rows = range(p, kt, st)
            phase = self._phase_rows(xp, p, st, 0, t_out + len(rows) - 1,
                                     sf, f_out)
            for j, i in enumerate(rows):
                dW[:, :, i] = (dz.T @ phase[j * f_out:j * f_out + m]
                               ).reshape(c_out, -1, kf)
            del phase  # before the next phase is unfolded
        grads = {"W": dW, "b": dz.sum(axis=0)}
        if self.bn is not None:
            grads["bn.gamma"] = bn_grads["gamma"]
            grads["bn.beta"] = bn_grads["beta"]
        if not input_grad:
            return None, grads
        dxp = self._input_grad(dz, xp.shape, st, sf, t_out, f_out)
        dx = dxp[pt:xp.shape[0] - pt, pf:xp.shape[1] - pf]
        return dx.transpose(2, 0, 1), grads

    def output_tap(self, out):
        # (C, T, F) -> (T, C*F), channel-major then frequency.
        return out.transpose(1, 0, 2).reshape(out.shape[1], -1)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class _Direction:
    """One direction of a recurrent layer over direction-ordered input:
    the input projection, optional sequence-wise BN on the input-to-hidden
    pre-activation, then the tanh-RNN or LSTM cell recurrence.  LSTM gate
    rows are i, f, g, o."""

    def __init__(self, in_size, hidden, lstm, rng, batchnorm):
        self.hidden = hidden
        self.lstm = lstm
        gates = 4 if lstm else 1
        self.params = {
            "Wx": uniform_init(rng, (gates * hidden, in_size), in_size),
            "Wh": uniform_init(rng, (gates * hidden, hidden), hidden),
            "b": np.zeros(gates * hidden),
        }
        self.bn = BatchNorm(gates * hidden) if batchnorm else None
        self._cache = None

    def forward(self, x, train):
        """Hidden states (T, hidden); only a train-mode pass caches."""
        zn = x @ self.params["Wx"].T
        if self.bn is not None:
            zn = self.bn.forward(zn, train)
        wh, b = self.params["Wh"], self.params["b"]
        H, lstm, T = self.hidden, self.lstm, x.shape[0]
        hs = np.zeros((T, H))
        cs = np.zeros((T, H)) if lstm else None
        acts = np.zeros((T, 4 * H)) if lstm else None
        h = c = np.zeros(H)
        for t in range(T):
            pre = zn[t] + wh @ h + b
            if lstm:
                i = _sigmoid(pre[:H])
                f = _sigmoid(pre[H:2 * H])
                g = np.tanh(pre[2 * H:3 * H])
                o = _sigmoid(pre[3 * H:])
                c = f * c + i * g
                h = o * np.tanh(c)
                cs[t] = c
                acts[t] = np.concatenate([i, f, g, o])
            else:
                h = np.tanh(pre)
            hs[t] = h
        if train:
            self._cache = (x, hs, cs, acts)
        return hs

    def backward(self, dh_seq, input_grad=True):
        """(dx, grads) for the cached forward; ``dh_seq`` is
        direction-ordered like its input."""
        x, hs, cs, acts = self._cache
        wh = self.params["Wh"]
        H, lstm, T = self.hidden, self.lstm, x.shape[0]
        dzn = np.zeros((T, wh.shape[0]))
        dh_next = np.zeros(H)
        dc_next = np.zeros(H)
        for t in range(T - 1, -1, -1):
            dh = dh_seq[t] + dh_next
            if lstm:
                i, f, g, o = (acts[t][:H], acts[t][H:2 * H],
                              acts[t][2 * H:3 * H], acts[t][3 * H:])
                c_prev = cs[t - 1] if t > 0 else np.zeros(H)
                tc = np.tanh(cs[t])
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
            else:
                dpre = dh * (1.0 - hs[t] ** 2)
            dzn[t] = dpre
            dh_next = wh.T @ dpre
        dz, bn_grads = (dzn, {}) if self.bn is None else self.bn.backward(dzn)
        grads = {"Wx": dz.T @ x,
                 **{f"bn.{k}": v for k, v in bn_grads.items()},
                 # h_{-1} = 0, so step 0 adds nothing to dWh.
                 "Wh": dzn[1:].T @ hs[:-1], "b": dzn.sum(axis=0)}
        return (dz @ self.params["Wx"] if input_grad else None), grads


class RecurrentLayer:
    """Bidirectional simple-RNN (tanh cell) or LSTM.

    ``hidden_size`` is the layer's output width; each direction has
    hidden_size // 2 units and the two directions are concatenated.
    """

    def __init__(self, spec, in_size, rng):
        if spec.hidden_size % 2 != 0:
            raise ValueError("bidirectional hidden_size must be even")
        self.spec = spec
        lstm = spec.kind == "lstm_bidir"
        h = spec.hidden_size // 2
        self.fwd = _Direction(in_size, h, lstm, rng, spec.batchnorm)
        self.bwd = _Direction(in_size, h, lstm, rng, spec.batchnorm)

    def forward(self, x, train):
        return np.concatenate([self.fwd.forward(x, train),
                               self.bwd.forward(x[::-1], train)[::-1]], axis=1)

    def backward(self, dout, input_grad=True):
        h = self.spec.hidden_size // 2
        dx_f, grads_f = self.fwd.backward(dout[:, :h], input_grad)
        dx_b, grads_b = self.bwd.backward(dout[::-1, h:], input_grad)
        grads = {f"fwd.{k}": v for k, v in grads_f.items()}
        grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
        return (dx_f + dx_b[::-1] if input_grad else None), grads


class FCLayer:
    """Per-frame fully connected projection: the model's logits (its
    softmax follows the stack, so CTC can consume pre-softmax gradients),
    and every layer of a probe."""

    def __init__(self, spec, in_size, rng):
        self.spec = spec
        self.params = {
            "W": uniform_init(rng, (spec.hidden_size, in_size), in_size),
            "b": np.zeros(spec.hidden_size),
        }
        self._cache = None

    def forward(self, x, train):
        if train:
            self._cache = x
        return x @ self.params["W"].T + self.params["b"]

    def backward(self, dout, input_grad=True):
        x = self._cache
        grads = {"W": dout.T @ x, "b": dout.sum(axis=0)}
        return (dout @ self.params["W"] if input_grad else None), grads
