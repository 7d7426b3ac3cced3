"""Network building blocks with hand-written forward and backward passes.

Each layer owns its parameters (``params``) and non-learned state
(``buffers``), updated only in place; `registry` keys them for a stack of
layers, the model's or a probe's.  A train-mode forward queues what its
backward reads, and ``backward(dout, input_grad=True)`` takes the oldest
entry and returns (input-gradient, parameter-gradients), the input
gradient None when ``input_grad`` is false; so utterances can go through
a layer one at a time and back in the same order.  A layer computes in its
parameters' dtype: every array it allocates takes that dtype, and `cast`
changes it for a whole stack.  Layers are built float64.

A recurrent layer takes a minibatch as a zero-padded, time-major
(T, B, D) array and the utterances' lengths.  Each direction's input
projection, batch norm and parameter gradients run per utterance, on
views of the batch's rows (the input's, and in the backward those of the
pre-activation gradients and states), not copies.  The cell recurrence
steps both directions and every utterance at once, along a direction
axis (the backward direction reads each utterance time-reversed),
longest utterance first, each dropping out when it ends.
A step's recurrent product is one stacked matrix-vector product
(`np.matmul` of the two directions' Wh, stacked (2, 1, G, H), and a
(2, B, H, 1) stack of states), which makes the same BLAS gemv call per
direction and utterance as the utterance alone; a (B, H) GEMM would round
differently.  The cell's elementwise equations run once per step on
(2, B, ...) arrays.  So a batch gives its utterances' outputs and
gradients bit for bit, the gradients summed in utterance order.

Convolution keeps its activations and gradients channel-major, (c, t, f)
and contiguous.  Forward, ``dx`` and ``dW`` share one loop over row
blocks of time-stride phases, each unfolded along frequency once per pass
(``dx`` walks the dilated output gradient as one phase), and make one
BLAS GEMM per phase and block.  `conv_output_len` is the one rule for a
conv's output length, the forward's and the model's geometry's.  Its
float32 eval forward is bit for bit a loop of one GEMM per kernel row;
float64 training rounds differently (see `ConvLayer`).
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# About the bytes of unfold plus products or shifted gradient that one
# block of a convolution pass holds; each block's scratch is written over
# the one before.  Fewer blocks are faster (each costs kt adds per
# channel), but at ds2-mini's widths a float64 pass on a 104-frame
# utterance must stay near one kernel row's unfold of it in memory, and
# larger scratch raised the benchmark's peak RSS.
CONV_BLOCK_BYTES = 1 << 20


def conv_output_len(in_len, kernel, stride, padding) -> int:
    if kernel < 1 or stride < 1:
        raise ValueError("kernel and stride must be >= 1")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    if in_len + 2 * padding < kernel:
        raise ValueError(
            f"input {in_len} (+2*{padding} padding) shorter than kernel {kernel}")
    return (in_len + 2 * padding - kernel) // stride + 1


def _block_rows(n, row_bytes):
    """Rows per block of ``n`` rows of ``row_bytes``, in as many even
    blocks as the rounded ratio of their bytes to `CONV_BLOCK_BYTES`."""
    return -(-n // max(1, round(n * row_bytes / CONV_BLOCK_BYTES)))


def _unfold(a, k, step, n):
    """The first ``n`` windows of ``k`` columns, every ``step``-th, along
    the last axis of a (channels, rows, columns) array: a
    (channels, k, rows, n) view, ``sliding_window_view(a, k, axis=2)[:, :,
    :step * n:step]`` with its window axis moved second."""
    s0, s1, s2 = a.strides
    return np.lib.stride_tricks.as_strided(
        a, (a.shape[0], k, a.shape[1], n), (s0, s2, s1, step * s2),
        writeable=False)


def _phase_kernels(W, st):
    """Phase p's kernel rows p, p+st, ... of a (rows, cols, kt, kf) kernel,
    stacked (kt_p*rows, cols*kf), for each phase p."""
    _, c, kt, kf = W.shape
    return [W[:, :, p::st].transpose(2, 0, 1, 3).reshape(-1, c * kf)
            for p in range(min(st, kt))]


def uniform_init(rng, shape, fan_in):
    w = rng.uniform(-1.0, 1.0, size=shape)
    w /= np.sqrt(fan_in)  # in place: no second array of the shape
    return w


def _blocks(block, prefix=""):
    """(path prefix, block) of ``block`` and, depth first, its ``fwd``,
    ``bwd`` and ``bn`` sub-blocks in that order."""
    yield prefix, block
    for child in ("fwd", "bwd", "bn"):
        sub = getattr(block, child, None)
        if sub is not None:
            yield from _blocks(sub, f"{prefix}{child}.")


def named_arrays(block, kind):
    """Live ``params`` or ``buffers`` arrays of a layer, keyed by dotted
    path in `_blocks` order, each block's own arrays before its
    sub-blocks'; checkpoints store them so."""
    return {prefix + k: v for prefix, sub in _blocks(block)
            for k, v in getattr(sub, kind, {}).items()}


def drop_caches(layers):
    """Forget what train-mode forwards of ``layers`` and their sub-blocks
    cached and no backward has taken."""
    for layer in layers:
        for _, block in _blocks(layer):
            getattr(block, "_cache", []).clear()  # a direction caches nothing


def cast(layers, dtype):
    """Give ``layers`` and their sub-blocks ``params`` and ``buffers`` of
    ``dtype``, new arrays where the dtype changes; a registry of them must
    be built again."""
    for layer in layers:
        for _, block in _blocks(layer):
            for kind in ("params", "buffers"):
                arrays = getattr(block, kind, None)
                if arrays is not None:
                    setattr(block, kind, {k: v.astype(dtype, copy=False)
                                          for k, v in arrays.items()})


def add_grads(total, grads, prefix=""):
    """Add each of ``grads`` into ``total[prefix + name]`` in place; a name
    ``total`` lacks takes the array itself.  Summing utterances' gradients
    through it in utterance order fixes how they round."""
    for name, g in grads.items():
        if prefix + name in total:
            total[prefix + name] += g
        else:
            total[prefix + name] = g


def registry(layers, kind):
    """Live ``params`` or ``buffers`` arrays of a layer stack, keyed
    "L<i>.<path>" with ``i`` the 1-based position in ``layers``."""
    return {f"L{i}.{k}": v for i, layer in enumerate(layers, start=1)
            for k, v in named_arrays(layer, kind).items()}


class BatchNorm:
    """Per-feature batch norm over axis 0 of an (N, C) matrix."""

    def __init__(self, n_features):
        self.params = {"gamma": np.ones(n_features), "beta": np.zeros(n_features)}
        self.buffers = {"running_mean": np.zeros(n_features),
                        "running_var": np.ones(n_features)}
        self._cache = []

    def forward(self, x, train):
        """``gamma * xhat + beta``, ``xhat`` normalised by the batch's
        statistics in train mode and by the running ones in eval mode.
        Every (N, C) array it makes is one it returns or caches."""
        if train:
            mu = x.mean(axis=0)
            d = x - mu
            # x.var(axis=0) without its second mean and subtraction: the
            # same sum of squares over the same divisor.  The squares'
            # array then holds the output.
            out = np.square(d)
            var = out.sum(axis=0) / len(x)
            m = BN_MOMENTUM
            # In place, so the model's registry keeps pointing at them.
            for name, batch in (("running_mean", mu), ("running_var", var)):
                running = self.buffers[name]
                running *= 1 - m
                running += m * batch
        else:
            var = self.buffers["running_var"]
            d = out = x - self.buffers["running_mean"]
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = np.multiply(d, inv_std, out=d)
        if train:
            # Cache only for backward; eval-mode forward stays mutation-free
            # so it is safe to call concurrently.
            self._cache.append((xhat, inv_std))
        np.multiply(self.params["gamma"], xhat, out=out)
        out += self.params["beta"]
        return out

    def backward(self, dy):
        """Gradients through the batch statistics of the oldest cached
        train-mode forward: ``dx = inv_std * (dxhat - mean(dxhat) - xhat *
        mean(dxhat * xhat))`` with ``dxhat = dy * gamma``, made in two
        (N, C) arrays."""
        xhat, inv_std = self._cache.pop(0)
        prod = dy * xhat
        grads = {"gamma": prod.sum(axis=0), "beta": dy.sum(axis=0)}
        dx = dy * self.params["gamma"]
        m = np.multiply(dx, xhat, out=prod).mean(axis=0)
        dx -= dx.mean(axis=0)
        dx -= np.multiply(xhat, m, out=prod)
        dx *= inv_std
        return dx, grads


class ConvLayer:
    """2-D convolution over (channels, time, freq) + optional BN + ReLU.

    Batch norm is per output channel, sequence-wise over all (t, f)
    positions of the utterance.

    Activations and their gradients are channel-major, (c, t, f) and
    contiguous, so bias, batch norm (on the (t*f, c) transposed view),
    ReLU and every add run along contiguous (t, f) rows.  A pass works on
    time-stride phases: phase p holds the padded input rows p, p+st, ...,
    so kernel row i = p + st*j reads phase rows j .. j+t_out-1.  It unfolds
    a block of phase rows along frequency once, to (c_in*kf, rows*f_out),
    and makes one GEMM per phase and block: the forward multiplies the
    phase's kernel rows, stacked (kt_p*c_out, c_in*kf), by the unfold and
    adds each kernel row's (c_out, rows*f_out) part of the product into
    the output; ``dW`` multiplies the output gradient, shifted once per
    kernel row of the phase to (kt_p*c_out, rows*f_out), by the unfold's
    transpose.  ``dx`` unfolds the output gradient, zero-dilated by the
    frequency stride and padded by kf-1, in the same loop as one phase of
    one kernel row, multiplies each phase's stacked, frequency-flipped
    kernel rows by it and adds f-rows into the padded input's gradient.
    The forward and ``dx`` add every output's kernel rows in ascending
    order.

    The float32 eval forward, which makes a checkpoint's taps, is bit for
    bit a loop of one GEMM per kernel row.  Float64 passes and float32
    training round differently: float64 GEMMs by operand order, batch
    norm's and the bias gradient's sums pairwise along contiguous rows,
    and ``dW`` by its sum over blocks.
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
        self._cache = []

    def _phase_blocks(self, src, kt, st, sf, t_out, f_out, held,
                      descending=False):
        """Each (q0, p, unit, spare) of blocks of phase rows q0 .., in
        ascending order or ``descending``, each block's phases in order,
        for ``kt`` kernel rows over the (c, rows, columns) array ``src``.
        ``unit`` is phase p's (c*kf, rows*f_out) frequency unfold of its
        rows q0 .. q0+rows-1 (rows p + st*q of ``src``; phase p's last is
        t_out + kt_p - 2), written over the one before; ``spare`` holds
        ``held`` values per column of the largest block for the caller.
        Together they take about `CONV_BLOCK_BYTES` (see `_block_rows`)."""
        c, kf = src.shape[0], self.spec.kernel[1]
        n_rows = [t_out + len(range(p, kt, st)) - 1 for p in range(min(st, kt))]
        block = _block_rows(n_rows[0], src.itemsize * f_out * (c * kf + held))
        buf = np.empty(c * kf * block * f_out, src.dtype)
        spare = np.empty(held * block * f_out, src.dtype)
        starts = range(0, n_rows[0], block)
        for q0 in reversed(starts) if descending else starts:
            for p, n in enumerate(n_rows):
                rows = src[:, p + st * q0::st][:, :min(block, n - q0)]
                unit = buf[:c * kf * rows.shape[1] * f_out]
                np.copyto(unit.reshape(c, kf, -1, f_out),
                          _unfold(rows, kf, sf, f_out))
                yield q0, p, unit.reshape(c * kf, -1), spare

    def _correlate(self, xp, st, sf, t_out, f_out):
        """The bias-free forward, (c_out, t_out, f_out).

        Output row t collects kernel row i = p + st*j from phase row
        q = t + j.  Phase rows go in ascending blocks, and each block adds
        its products in ascending i, so every output sums its kernel rows
        in the order i = 0 .. kt-1.
        """
        W = self.params["W"]
        c_out, _, kt, _ = W.shape
        w_ph = _phase_kernels(W, st)  # (kt_p*c_out, c_in*kf) each
        # A block holds every phase's products: phase p's take rows
        # first[p] .. of spare as (kt*c_out, largest block's columns).
        first = np.cumsum([0] + [len(w) for w in w_ph])
        z = np.zeros((c_out, t_out, f_out), W.dtype)
        prods = [None] * len(w_ph)
        for q0, p, unit, spare in self._phase_blocks(xp, kt, st, sf, t_out,
                                                     f_out, kt * c_out):
            w, m = w_ph[p], unit.shape[1]
            out = spare[first[p] * len(spare) // (kt * c_out):][:len(w) * m]
            prods[p] = np.matmul(w, unit, out=out.reshape(len(w), m)).reshape(
                len(w) // c_out, c_out, m // f_out, f_out)
            if p < len(w_ph) - 1:
                continue
            # Every phase of the block is in: add in ascending kernel rows.
            for i in range(kt):
                j, prod = i // st, prods[i % st]
                lo, hi = max(q0, j), min(q0 + prod.shape[2], j + t_out)
                if lo < hi:
                    dst = z[:, lo - j:hi - j]
                    src = prod[j, :, lo - q0:hi - q0]
                    # numpy buffers an add into a strided output, so a block
                    # short of all of z's rows adds channel by channel.
                    for d, s in ([(dst, src)] if dst.flags.c_contiguous
                                 else zip(dst, src)):
                        np.add(d, s, out=d)
        return z

    def _weight_grad(self, xp, dz, st, sf):
        """``dW`` from the padded input and the (c_out, t_out, f_out)
        pre-activation gradient: per phase and block of phase rows, one
        GEMM of the gradient shifted to each of the phase's kernel rows."""
        W = self.params["W"]
        c_out, c_in, kt, kf = W.shape
        _, t_out, f_out = dz.shape
        acc = [np.zeros((len(range(p, kt, st)) * c_out, c_in * kf), W.dtype)
               for p in range(min(st, kt))]
        # A block holds one phase's shifted gradient.
        for q0, p, unit, spare in self._phase_blocks(xp, kt, st, sf, t_out,
                                                     f_out, len(acc[0])):
            a = acc[p]
            # Row block j holds the gradient of output rows q - j.
            g = spare[:len(a) * unit.shape[1]].reshape(
                len(a) // c_out, c_out, -1, f_out)
            g.fill(0.0)
            for j in range(len(g)):
                lo, hi = max(q0, j), min(q0 + g.shape[2], j + t_out)
                if lo < hi:
                    g[j, :, lo - q0:hi - q0] = dz[:, lo - j:hi - j]
            a += g.reshape(len(a), -1) @ unit.T
        dW = np.empty_like(W)
        for p, a in enumerate(acc):
            dW[:, :, p::st] = a.reshape(-1, c_out, c_in, kf).transpose(1, 2, 0, 3)
        return dW

    def _input_grad(self, dz, xp_shape, st, sf):
        """Gradient with respect to the padded input, (c_in, Tp, Fp).

        Input row p + st*q collects kernel row i = p + st*j from output
        row t = q - j.  Output rows go in descending blocks, and each block
        adds its products in ascending j, so every input row sums its
        kernel rows in ascending order.
        """
        W = self.params["W"]
        c_out, c_in, _, kf = W.shape
        _, t_out, f_out = dz.shape
        # Input position f collects output column f' through tap j = f - sf*f':
        # a correlation of the dilated, padded gradient with the flipped row.
        dil = np.zeros((c_out, t_out, sf * (f_out - 1) + 1 + 2 * (kf - 1)),
                       W.dtype)
        dil[:, :, kf - 1:kf - 1 + sf * f_out:sf] = dz
        f_cov = dil.shape[2] - kf + 1  # input columns some output reads
        # Phase p's flipped kernel rows, (kt_p*c_in, c_out*kf) each.
        w_ph = _phase_kernels(W.swapaxes(0, 1)[..., ::-1], st)
        dxp = np.zeros(xp_shape, W.dtype)
        # The dilated gradient's unfold as one phase of one kernel row, and
        # one phase's products in spare, written over by the next block's.
        for t0, _, cols, spare in self._phase_blocks(
                dil, 1, 1, 1, t_out, f_cov, len(w_ph[0]), descending=True):
            nb = cols.shape[1] // f_cov
            for p, w in enumerate(w_ph):
                prod = np.matmul(w, cols, out=spare[:len(w) * cols.shape[1]]
                                 .reshape(len(w), -1)).reshape(-1, c_in, nb,
                                                               f_cov)
                for j in range(len(prod)):
                    r0 = p + st * (t0 + j)
                    dxp[:, r0:r0 + st * nb:st, :f_cov] += prod[j]
        return dxp

    def _padded(self, x):
        """The (c_in, t, f) input, zero-padded to (c_in, Tp, Fp)."""
        pt, pf = self.spec.padding
        c, t, f = x.shape
        xp = np.zeros((c, t + 2 * pt, f + 2 * pf), x.dtype)
        xp[:, pt:pt + t, pf:pf + f] = x
        return xp

    def forward(self, x, train, stride_t=None):
        spec = self.spec
        st = spec.stride[0] if stride_t is None else stride_t
        sf = spec.stride[1]
        t_out, f_out = (conv_output_len(n, k, s, pad) for n, k, s, pad in zip(
            x.shape[1:], spec.kernel, (st, sf), spec.padding))
        xp = self._padded(x)
        z = self._correlate(xp, st, sf, t_out, f_out)
        del xp
        c_out = z.shape[0]
        z = z.reshape(c_out, -1)
        z += self.params["b"][:, None]
        if self.bn is not None:
            # Batch norm's (t*f, c_out) rows, a view of contiguous columns.
            z = self.bn.forward(z.T, train).T
        pre = z.reshape(c_out, t_out, f_out)
        relu = spec.activation == "relu"
        out = np.maximum(pre, 0.0) if relu else pre
        if train:
            # The input, not its padded copy, and where the ReLU passes.
            self._cache.append((x, pre > 0 if relu else None, st, sf))
        return out, pre

    def backward(self, dout, input_grad=True):
        """Gradients for the oldest cached train-mode forward.  With
        ``input_grad=False`` the input gradient is skipped and None."""
        x, passes, st, sf = self._cache.pop(0)
        pt, pf = self.spec.padding
        xp = self._padded(x)
        del x
        if passes is not None:
            dout = np.multiply(dout, passes, order="C")
        c_out, t_out, f_out = dout.shape
        dz = dout.reshape(c_out, -1)  # (c_out, t*f)
        if self.bn is not None:
            dz, bn_grads = self.bn.backward(dz.T)
            dz = dz.T
        grads = {"W": self._weight_grad(xp, dz.reshape(c_out, t_out, f_out),
                                        st, sf),
                 "b": dz.sum(axis=1)}
        if self.bn is not None:
            grads["bn.gamma"] = bn_grads["gamma"]
            grads["bn.beta"] = bn_grads["beta"]
        xp_shape = xp.shape
        del xp  # dx needs only its shape
        if not input_grad:
            return None, grads
        dxp = self._input_grad(dz.reshape(c_out, t_out, f_out), xp_shape,
                               st, sf)
        return dxp[:, pt:xp_shape[1] - pt, pf:xp_shape[2] - pf], grads

    def output_tap(self, out):
        # (C, T, F) -> (T, C*F), channel-major then frequency.
        return out.transpose(1, 0, 2).reshape(out.shape[1], -1)


def _sigmoid(x, out=None):
    return np.divide(1.0, 1.0 + np.exp(-x), out=out)


class _Direction:
    """One direction of a recurrent layer: its input projection Wx,
    recurrent weights Wh and bias b, LSTM gate rows i, f, g, o, and the
    optional sequence-wise BN on the input-to-hidden pre-activation.  It
    projects and differentiates one utterance at a time; `RecurrentLayer`
    steps both directions' recurrences together."""

    def __init__(self, in_size, hidden, gates, rng, batchnorm):
        self.params = {
            "Wx": uniform_init(rng, (gates * hidden, in_size), in_size),
            "Wh": uniform_init(rng, (gates * hidden, hidden), hidden),
            "b": np.zeros(gates * hidden),
        }
        self.bn = BatchNorm(gates * hidden) if batchnorm else None

    def project(self, x, train):
        """The (T, gates*hidden) input-to-hidden pre-activation of one
        direction-ordered utterance ``x``."""
        z = x @ self.params["Wx"].T
        return z if self.bn is None else self.bn.forward(z, train)

    def backward(self, x, dz, hs, grads, prefix, input_grad):
        """Add one utterance's parameter gradients into ``grads`` (see
        `add_grads`) and return its input gradient, None without
        ``input_grad``, for the oldest cached projection.  ``x`` is its
        input, ``dz`` its pre-activation gradient and ``hs`` its states
        h_0 .. h_{T-2}; each may be a view of a batch's array."""
        dzx, bn_grads = (dz, {}) if self.bn is None else self.bn.backward(dz)
        add_grads(grads, {"Wx": dzx.T @ x,
                          **{f"bn.{k}": v for k, v in bn_grads.items()},
                          # h_{-1} = 0, so step 0 adds nothing to dWh.
                          "Wh": dz[1:].T @ hs, "b": dz.sum(axis=0)}, prefix)
        return dzx @ self.params["Wx"] if input_grad else None


def _gates(a, hidden):
    """The i, f, g and o columns of (..., 4*hidden) gate arrays."""
    return [a[..., k * hidden:(k + 1) * hidden] for k in range(4)]


def _columns(lengths):
    """(slot, runs) of a batch: utterance u's column ``slot[u]``, longest
    first (ties in batch order), and the (n, start, stop) runs of steps
    over which the first n columns are running, n descending."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__,
                   reverse=True)
    slot = [0] * len(lengths)
    for column, u in enumerate(order):
        slot[u] = column
    ends = [lengths[u] for u in order] + [0]
    return slot, [(n, ends[n], ends[n - 1]) for n in range(len(order), 0, -1)
                  if ends[n] < ends[n - 1]]


def _recur(wh, b, zn, hs, cs, runs):
    """Step the recurrence: fill the states ``hs`` and, for an LSTM, ``cs``
    from the input pre-activations ``zn`` and the stacked weights ``wh``
    and biases ``b``.  Step t reads only row t of ``zn`` and reads it
    first, so the row may take what the step writes: an LSTM step
    overwrites it with its gate activations, and a simple RNN's ``zn`` may
    be rows 1 .. T of ``hs``."""
    H = hs.shape[3]
    pre = np.empty(zn.shape[1:], zn.dtype)
    # b in every row, as a broadcast add is slower on a few rows.
    bias = np.empty_like(pre)
    bias[...] = b
    for n, start, stop in runs:
        z, h, p, bias_n = zn[:, :, :n], hs[:, :, :n], pre[:, :n], bias[:, :n]
        h_in, p_out = h[..., None], p[..., None]
        if cs is not None:
            c = cs[:, :, :n]
            i, f, g, o = _gates(z, H)  # activations, once a step wrote them
        for t in range(start, stop):
            np.matmul(wh, h_in[t], out=p_out)
            p += z[t]
            p += bias_n
            if cs is not None:
                _sigmoid(p, out=z[t])  # g's columns are replaced next
                np.tanh(p[..., 2 * H:3 * H], out=g[t])
                np.add(f[t] * c[t], i[t] * g[t], out=c[t + 1])
                np.multiply(o[t], np.tanh(c[t + 1]), out=h[t + 1])
            else:
                np.tanh(p, out=h[t + 1])


def _recur_grad(wh_t, dh_seq, hs, cs, acts, runs):
    """The pre-activation gradients of the recurrence, given the gradients
    ``dh_seq`` of its states.  Step t overwrites row t of an array that no
    other step reads: a simple RNN's gradients take the rows of
    ``dh_seq``, an LSTM's those of its gate activations ``acts``."""
    _, _, B, H = dh_seq.shape
    lstm = cs is not None
    dzn = acts if lstm else dh_seq
    # Gradients reaching step t from step t + 1; a column's rows stay
    # zero until its utterance's last step.
    dh_next = np.zeros((2, B, H), dh_seq.dtype)
    dc_next = np.zeros((2, B, H), dh_seq.dtype)
    # An LSTM step's upstream factor of each gate's gradient.
    ups = np.empty((2, B, dzn.shape[3]), dh_seq.dtype) if lstm else None
    for n, start, stop in reversed(runs):
        d_seq, dz, dh_n = dh_seq[:, :, :n], dzn[:, :, :n], dh_next[:, :n]
        dz_in, dh_out = dz[..., None], dh_n[..., None]
        h = hs[:, :, :n]
        if lstm:
            c, dc_n, up = cs[:, :, :n], dc_next[:, :n], ups[:, :n]
            i, f, g, o = _gates(dz, H)  # activations, until a step's own
            ui, uf, ug, uo = _gates(up, H)
        for t in range(stop - 1, start - 1, -1):
            dh = d_seq[t] + dh_n
            if lstm:
                a = dz[t]
                tc = np.tanh(c[t + 1])
                dc = dc_n + dh * o[t] * (1.0 - tc ** 2)
                np.multiply(dc, g[t], out=ui)
                np.multiply(dc, c[t], out=uf)
                np.multiply(dc, i[t], out=ug)
                np.multiply(dh, tc, out=uo)
                np.multiply(dc, f[t], out=dc_n)
                # Each gate's own derivative: a * (1 - a) for i, f and o,
                # 1 - g^2 for g; the activations are read before a[t] is
                # overwritten.
                dg = ug * (1.0 - g[t] ** 2)
                one_minus = 1.0 - a
                np.multiply(up, a, out=a)
                a *= one_minus
                g[t] = dg
            else:
                np.multiply(dh, 1.0 - h[t + 1] ** 2, out=dz[t])
            np.matmul(wh_t, dz_in[t], out=dh_out)
    return dzn


class RecurrentLayer:
    """Bidirectional simple-RNN (tanh cell) or LSTM over a minibatch.

    ``hidden_size`` is the layer's output width; each direction has
    hidden_size // 2 units and the two directions are concatenated.
    Inputs, outputs and their gradients are zero-padded, time-major
    (T, B, width) arrays: utterance b's ``lengths[b]`` frames, then zeros.

    Both directions step one recurrence, over (time, direction, column,
    unit) arrays.  Direction 0 is ``fwd``, which reads each utterance from
    its first frame; direction 1 is ``bwd``, which reads it time-reversed.
    Utterance u is in column ``slot[u]`` of both, longest first; over each
    (n, start, stop) of ``runs`` the first n columns are running.  Row
    t + 1 of the states ``hs`` and ``cs`` is the state after step t; row 0
    is zero.  A step's recurrent product is one `np.matmul` of the stacked
    (2, 1, gates*hidden, hidden) Wh and a (2, n, hidden, 1) stack of
    states, one gemv per direction and utterance, and the cell equations
    are one set of elementwise calls on (2, n, ...) arrays.
    """

    def __init__(self, spec, in_size, rng):
        if spec.hidden_size % 2 != 0:
            raise ValueError("bidirectional hidden_size must be even")
        self.spec = spec
        gates = 4 if spec.kind == "lstm_bidir" else 1
        h = spec.hidden_size // 2
        self.fwd = _Direction(in_size, h, gates, rng, spec.batchnorm)
        self.bwd = _Direction(in_size, h, gates, rng, spec.batchnorm)
        self._cache = []

    def _stacked(self, name):
        """Both directions' ``name`` parameter, stacked (2, 1, ...)."""
        return np.stack([self.fwd.params[name],
                         self.bwd.params[name]])[:, None]

    def forward(self, x, lengths, train):
        wh = self.fwd.params["Wh"]
        (G, H), dtype = wh.shape, wh.dtype
        lstm = self.spec.kind == "lstm_bidir"
        # Each utterance's rows, views of x, in each direction's order.
        xs = [x[:n, u] for u, n in enumerate(lengths)]
        inputs = (xs, [v[::-1] for v in xs])
        slot, runs = _columns(lengths)
        T, B = max(lengths, default=0), len(lengths)
        # A simple RNN's zn is rows 1 .. T of hs (see `_recur`).
        hs = None if lstm else np.zeros((T + 1, 2, B, H), dtype)
        zn = np.zeros((T, 2, B, G), dtype) if lstm else hs[1:]
        for d, direction in enumerate((self.fwd, self.bwd)):
            for u, v in enumerate(inputs[d]):
                zn[:len(v), d, slot[u]] = direction.project(v, train)
        if lstm:  # once the projection's temporaries are gone
            hs = np.zeros((T + 1, 2, B, H), dtype)
        cs = np.zeros_like(hs) if lstm else None
        _recur(self._stacked("Wh"), self._stacked("b"), zn, hs, cs, runs)
        if train:
            # An LSTM's zn now holds its gate activations.
            self._cache.append((inputs, lengths, slot, runs, hs, cs,
                                zn if lstm else None))
        del zn  # an LSTM's, before the output is allocated
        out = np.zeros(x.shape[:2] + (2 * H,), dtype)
        for u, n in enumerate(lengths):
            out[:n, u, :H] = hs[1:n + 1, 0, slot[u]]
            out[:n, u, H:] = hs[n:0:-1, 1, slot[u]]
        return out

    def backward(self, dout, input_grad=True):
        """Gradients for the oldest cached train-mode forward, each
        direction's parameter gradients summed over the utterances in
        batch order."""
        inputs, lengths, slot, runs, hs, cs, acts = self._cache.pop(0)
        H = hs.shape[3]
        dh_seq = np.zeros((hs.shape[0] - 1,) + hs.shape[1:], hs.dtype)
        for u, n in enumerate(lengths):
            dh_seq[:n, 0, slot[u]] = dout[:n, u, :H]
            dh_seq[:n, 1, slot[u]] = dout[:n, u, H:][::-1]
        dzn = _recur_grad(self._stacked("Wh").swapaxes(2, 3), dh_seq, hs, cs,
                          acts, runs)
        del dh_seq, cs, acts  # all but dzn, which is one of them
        grads, dxs = {}, []
        for u, n in enumerate(lengths):
            dx_u = [direction.backward(
                inputs[d][u], dzn[:n, d, slot[u]], hs[1:n, d, slot[u]], grads,
                ("fwd.", "bwd.")[d], input_grad)
                for d, direction in enumerate((self.fwd, self.bwd))]
            if input_grad:
                dxs.append(dx_u[0] + dx_u[1][::-1])
            dx_u = None  # its products go before the next utterance's
        if not input_grad:
            return None, grads
        del inputs, dzn, hs  # before the input gradient is allocated
        wx = self.fwd.params["Wx"]
        dx = np.zeros(dout.shape[:2] + wx.shape[1:], wx.dtype)
        for u, d in enumerate(dxs):
            dx[:len(d), u] = d
        return dx, grads


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
        self._cache = []

    def forward(self, x, train):
        """``x @ W.T + b``, computed as the transpose of ``W @ x.T``: the
        same bits in float32 (float64 can differ in the last bit), and up
        to twice as fast on OpenBLAS for the probe's short minibatches.
        The sum is C-ordered, so a row-wise reduction after it
        (`log_softmax`) adds in the same order."""
        if train:
            self._cache.append(x)
        return np.add((self.params["W"] @ x.T).T, self.params["b"], order="C")

    def backward(self, dout, input_grad=True):
        x = self._cache.pop(0)
        grads = {"W": dout.T @ x, "b": dout.sum(axis=0)}
        return (dout @ self.params["W"] if input_grad else None), grads
