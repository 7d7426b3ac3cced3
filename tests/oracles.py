"""Reference implementations that tests compare the program against, and
helpers that only tests need: CTC path collapse, brute-force path
enumeration, the textbook backward variable, the gradient from its own
forward-backward pass, greedy
decoding, the per-frame phone label, transcript decoding, TIMIT-layout
export, a convolution with one GEMM per kernel row, a recurrent layer
that steps each direction on its own, one view of a tap file and a
probe's predicted labels."""

from __future__ import annotations

import bisect
import itertools
import os
import wave
from dataclasses import dataclass

import numpy as np

from ctcprobe import acoustic, ctc, probing
from ctcprobe.layers import (BatchNorm, ConvLayer, _columns, _sigmoid,
                             add_grads, uniform_init)


# ---------------------------------------------------------------------------
# CTC
# ---------------------------------------------------------------------------

def collapse(path, blank=ctc.BLANK):
    """Merge adjacent repeats, then delete blanks (the B function)."""
    out = []
    prev = None
    for sym in path:
        if sym != prev and sym != blank:
            out.append(int(sym))
        prev = sym
    return out


def ctc_beta(log_probs, ext):
    """The textbook backward variable over the blank-extended labels
    ``ext``, one step back in time per row."""
    # beta excludes the emission at t itself (pairs with alpha, which
    # includes it), so sum_s exp(alpha[t,s] + beta[t,s]) == p(l|x) at any t.
    T = log_probs.shape[0]
    L2 = len(ext)
    beta = np.full((T, L2), ctc.NEG_INF)
    beta[T - 1, L2 - 1] = 0.0
    if L2 > 1:
        beta[T - 1, L2 - 2] = 0.0
    skip = np.zeros(L2, dtype=bool)
    skip[:-2] = (ext[:-2] != ext[2:]) & (ext[2:] != ctc.BLANK)
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + log_probs[t + 1, ext]
        cur = nxt.copy()
        cur[:-1] = np.logaddexp(cur[:-1], nxt[1:])
        cur[skip] = np.logaddexp(cur[skip], nxt[np.flatnonzero(skip) + 2])
        beta[t] = cur
    return beta


def ctc_grad(log_probs, labels) -> np.ndarray:
    """Gradient of the loss w.r.t. pre-softmax logits: softmax - posterior."""
    return ctc._grad(*ctc._alpha(log_probs, labels))


def ctc_brute_force(probs, labels, cap=10 ** 6) -> float:
    """p(l|x) by direct enumeration of all S^T paths (test oracle)."""
    probs = np.asarray(probs, dtype=np.float64)
    T, S = probs.shape
    labels = [int(v) for v in labels]
    if S ** T > cap:
        raise ValueError(f"S^T = {S ** T} exceeds enumeration cap {cap}")
    total = 0.0
    for path in itertools.product(range(S), repeat=T):
        if collapse(path) == labels:
            p = 1.0
            for t, sym in enumerate(path):
                p *= probs[t, sym]
            total += p
    return total


@dataclass
class GreedyDecode:
    path: list[int]
    collapsed: list[int]
    categories: list[str]  # per frame: blank | space | letter


def symbol_category(index, alphabet):
    if index == ctc.BLANK:
        return "blank"
    if alphabet[index] == " ":
        return "space"
    return "letter"


def greedy_decode(log_probs, alphabet=None) -> GreedyDecode:
    """Per-frame argmax (ties break to the lowest index) plus its collapse
    and blank/space/letter category per frame."""
    log_probs = np.asarray(log_probs)
    if alphabet is None:
        alphabet = ctc.default_alphabet()
    if log_probs.shape[1] != len(alphabet):
        raise ValueError("log_probs width does not match alphabet size")
    path = [int(v) for v in np.argmax(log_probs, axis=1)]
    categories = [symbol_category(v, alphabet) for v in path]
    return GreedyDecode(path, collapse(path), categories)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def decode_transcript(transcript: str, phone_to_chars: dict) -> list[str]:
    """Invert the prefix-free phone code, ignoring word boundaries."""
    by_code = {v: k for k, v in phone_to_chars.items()}
    phones = []
    for word in transcript.split(" "):
        i = 0
        while i < len(word):
            for code, phone in by_code.items():
                if word.startswith(code, i):
                    phones.append(phone)
                    i += len(code)
                    break
            else:
                raise ValueError(f"cannot decode transcript at {word[i:]!r}")
    return phones


def frame_label(utt: acoustic.Utterance, t: int, subsample_factor: int = 1,
                receptive_center_offset: int = 0) -> str:
    """Phone label of sub-sampled frame t.

    Maps t to input frame index t*subsample_factor + receptive_center_offset
    (center-of-receptive-field rule) and returns the phone of the containing
    segment.
    """
    idx = t * subsample_factor + receptive_center_offset
    n = utt.n_frames
    if not 0 <= idx < n:
        raise ValueError(f"mapped frame index {idx} outside [0, {n})")
    starts = [s.start_frame for s in utt.segments]
    return utt.segments[bisect.bisect_right(starts, idx) - 1].phone


def export_timit_dir(path, items, sample_rate_hz=acoustic.DEFAULT_SAMPLE_RATE):
    """Write (id, samples, sample_segments, transcript) tuples in TIMIT layout.

    ``samples`` are floats in [-1, 1); ``sample_segments`` are
    (start_sample, end_sample, phone) triples.
    """
    os.makedirs(path, exist_ok=True)
    for utt_id, samples, sample_segments, transcript in items:
        stem = os.path.join(path, utt_id)
        pcm = np.clip(np.asarray(samples) * 32768.0, -32768, 32767)
        with wave.open(stem + ".wav", "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(sample_rate_hz)
            wf.writeframes(pcm.astype("<i2").tobytes())
        with open(stem + ".phn", "w") as fh:
            for start_s, end_s, phone in sample_segments:
                fh.write(f"{start_s} {end_s} {phone}\n")
        with open(stem + ".txt", "w") as fh:
            fh.write(f"0 {len(pcm)} {transcript}\n")


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

class RowConvOracle(ConvLayer):
    """Reference convolution: one GEMM per kernel row over that row's own
    unfold, forward, ``dW`` and ``dx`` alike, in (t, f, c) rows, every
    array in the weights' dtype.  `layers.ConvLayer`'s float32 eval
    forward must reproduce its every bit: same products, added in the same
    order."""

    def _row_cols(self, xp, i, t_out, f_out, st, sf):
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
        t_out = (xp.shape[0] - kt) // st + 1
        f_out = (xp.shape[1] - kf) // sf + 1
        W = self.params["W"]
        c_out = W.shape[0]
        z = np.zeros((t_out * f_out, c_out), W.dtype)
        for i in range(kt):
            z += (self._row_cols(xp, i, t_out, f_out, st, sf)
                  @ W[:, :, i, :].reshape(c_out, -1).T)
        z += self.params["b"]
        if self.bn is not None:
            z = self.bn.forward(z, train)
        pre = z.reshape(t_out, f_out, c_out).transpose(2, 0, 1)
        out = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
        if train:
            self._cache.append((xp, pre, st, sf))
        return out, pre

    def backward(self, dout, input_grad=True):
        xp, pre, st, sf = self._cache.pop(0)
        spec = self.spec
        kt, kf = spec.kernel
        pt, pf = spec.padding
        if spec.activation == "relu":
            dout = dout * (pre > 0)
        c_out, t_out, f_out = dout.shape
        dz = dout.transpose(1, 2, 0).reshape(-1, c_out)
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
        dil = np.zeros((t_out, sf * (f_out - 1) + 1 + 2 * (kf - 1), c_out),
                       W.dtype)
        dil[:, kf - 1:kf - 1 + sf * f_out:sf] = dz.reshape(t_out, f_out, c_out)
        f_cov = dil.shape[1] - kf + 1
        unfolded = np.lib.stride_tricks.sliding_window_view(
            dil, kf, axis=1).reshape(t_out * f_cov, c_out * kf)
        dxp = np.zeros(xp.shape, W.dtype)
        for i in range(kt):
            w_row = W[:, :, i, ::-1].transpose(0, 2, 1).reshape(c_out * kf, -1)
            dxp[i:i + st * t_out:st, :f_cov] += (
                unfolded @ w_row).reshape(t_out, f_cov, -1)
        dx = dxp[pt:xp.shape[0] - pt, pf:xp.shape[1] - pf]
        return dx.transpose(2, 0, 1), grads


# ---------------------------------------------------------------------------
# Recurrent layers
# ---------------------------------------------------------------------------

# A recurrent layer whose directions each project, step and differentiate
# their own batch, which the layer then joins.  `layers.RecurrentLayer`
# steps both directions in one recurrence; built from the same generator,
# it draws the same parameters and must match this bit for bit.

class DirectionOracle:
    """One direction of a recurrent layer over a batch of direction-ordered
    utterances.  Per utterance, in batch order: the input projection and
    optional sequence-wise BN on the input-to-hidden pre-activation.  Then
    the tanh-RNN or LSTM cell recurrence steps all of them at once.  LSTM
    gate rows are i, f, g, o."""

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
        self._cache = []

    def _gates(self, a):
        """The i, f, g and o columns of (..., 4*hidden) gate arrays."""
        H = self.hidden
        return [a[..., k * H:(k + 1) * H] for k in range(4)]

    def forward(self, xs, train):
        """Hidden states of each utterance of ``xs``, one (T_b, hidden)
        array each; only a train-mode pass caches.

        The recurrence holds utterance u in column ``slot[u]`` of (time,
        column, unit) arrays, longest first; over each (n, start, stop) of
        ``runs`` the first n columns are running.  Row t + 1 of ``hs`` and
        ``cs`` is the state after step t; row 0 is zero.  ``hs`` has a
        trailing unit axis, so that a step's states are a (n, hidden, 1)
        stack, which ``np.matmul`` multiplies by Wh one gemv at a time.
        """
        wh = self.params["Wh"]
        H, lstm = self.hidden, self.lstm
        lengths = [len(x) for x in xs]
        B = len(xs)
        slot, runs = _columns(lengths)
        T = max(lengths, default=0)
        zn = np.zeros((T, B, wh.shape[0]), wh.dtype)
        for u, x in enumerate(xs):
            z = x @ self.params["Wx"].T
            if self.bn is not None:
                z = self.bn.forward(z, train)
            zn[:len(x), slot[u]] = z
        hs = np.zeros((T + 1, B, H, 1), wh.dtype)
        cs = np.zeros((T + 1, B, H), wh.dtype) if lstm else None
        acts = np.zeros((T, B, 4 * H), wh.dtype) if lstm else None
        pre = np.empty((B, wh.shape[0]), wh.dtype)
        # b in every row, as a broadcast add is slower on a few rows.
        bias = np.empty_like(pre)
        bias[...] = self.params["b"]
        for n, start, stop in runs:
            z, h_in, h, p, b = (zn[:, :n], hs[:, :n], hs[:, :n, :, 0],
                                pre[:n], bias[:n])
            p_out = p[:, :, None]
            if lstm:
                c, a = cs[:, :n], acts[:, :n]
                i, f, g, o = self._gates(a)
            for t in range(start, stop):
                np.matmul(wh, h_in[t], out=p_out)
                p += z[t]
                p += b
                if lstm:
                    _sigmoid(p, out=a[t])  # g's columns are replaced next
                    np.tanh(p[:, 2 * H:3 * H], out=g[t])
                    np.add(f[t] * c[t], i[t] * g[t], out=c[t + 1])
                    np.multiply(o[t], np.tanh(c[t + 1]), out=h[t + 1])
                else:
                    np.tanh(p, out=h[t + 1])
        if train:
            self._cache.append((xs, slot, runs, hs, cs, acts))
        return [hs[1:n + 1, slot[u], :, 0] for u, n in enumerate(lengths)]

    def backward(self, dhs, input_grad=True):
        """(dxs, grads) for the oldest cached forward: ``dhs`` holds each
        utterance's direction-ordered output gradient, ``dxs`` its input
        gradient (None without ``input_grad``), and ``grads`` sums the
        utterances' parameter gradients in batch order."""
        xs, slot, runs, hs, cs, acts = self._cache.pop(0)
        wh = self.params["Wh"]
        H, lstm = self.hidden, self.lstm
        T, B = hs.shape[0] - 1, hs.shape[1]
        dh_seq = np.zeros((T, B, H), wh.dtype)
        for u, d in enumerate(dhs):
            dh_seq[:len(d), slot[u]] = d
        # With a trailing unit axis, as the stack ``np.matmul`` takes.
        dzn = np.zeros((T, B, wh.shape[0], 1), wh.dtype)
        # Gradients reaching step t from step t + 1; a column's rows stay
        # zero until its utterance's last step.
        dh_next = np.zeros((B, H), wh.dtype)
        dc_next = np.zeros((B, H), wh.dtype)
        for n, start, stop in reversed(runs):
            d_seq, dz_in, dz, dh_n = (dh_seq[:, :n], dzn[:, :n],
                                      dzn[:, :n, :, 0], dh_next[:n])
            dh_out = dh_n[:, :, None]
            h = hs[:, :n, :, 0]
            if lstm:
                c, a, dc_n = cs[:, :n], acts[:, :n], dc_next[:n]
                i, f, g, o = self._gates(a)
                dzi, dzf, dzg, dzo = self._gates(dz)
            for t in range(stop - 1, start - 1, -1):
                dh = d_seq[t] + dh_n
                if lstm:
                    tc = np.tanh(c[t + 1])
                    dc = dc_n + dh * o[t] * (1.0 - tc ** 2)
                    # Each gate's upstream factor, then its own derivative:
                    # a * (1 - a) for i, f and o, 1 - g^2 for g.
                    np.multiply(dc, g[t], out=dzi[t])
                    np.multiply(dc, c[t], out=dzf[t])
                    np.multiply(dc, i[t], out=dzg[t])
                    np.multiply(dh, tc, out=dzo[t])
                    np.multiply(dc, f[t], out=dc_n)
                    dg = dzg[t] * (1.0 - g[t] ** 2)
                    dz[t] *= a[t]
                    dz[t] *= 1.0 - a[t]
                    dzg[t] = dg
                else:
                    np.multiply(dh, 1.0 - h[t + 1] ** 2, out=dz[t])
                np.matmul(wh.T, dz_in[t], out=dh_out)
        grads, dxs = {}, []
        for u, x in enumerate(xs):
            n = len(x)
            # Contiguous copies: the arrays an utterance alone would have.
            dzn_u = np.ascontiguousarray(dzn[:n, slot[u], :, 0])
            hs_u = np.ascontiguousarray(hs[1:n, slot[u], :, 0])
            dz, bn_grads = ((dzn_u, {}) if self.bn is None
                            else self.bn.backward(dzn_u))
            add_grads(grads, {
                "Wx": dz.T @ x, **{f"bn.{k}": v for k, v in bn_grads.items()},
                # h_{-1} = 0, so step 0 adds nothing to dWh.
                "Wh": dzn_u[1:].T @ hs_u, "b": dzn_u.sum(axis=0)})
            if input_grad:
                dxs.append(dz @ self.params["Wx"])
        return (dxs if input_grad else None), grads


class RecurrentOracle:
    """Bidirectional simple-RNN (tanh cell) or LSTM over a minibatch.

    ``hidden_size`` is the layer's output width; each direction has
    hidden_size // 2 units and the two directions are concatenated.
    Inputs, outputs and their gradients are zero-padded, time-major
    (T, B, width) arrays: utterance b's ``lengths[b]`` frames, then zeros.
    """

    def __init__(self, spec, in_size, rng):
        if spec.hidden_size % 2 != 0:
            raise ValueError("bidirectional hidden_size must be even")
        self.spec = spec
        lstm = spec.kind == "lstm_bidir"
        h = spec.hidden_size // 2
        self.fwd = DirectionOracle(in_size, h, lstm, rng, spec.batchnorm)
        self.bwd = DirectionOracle(in_size, h, lstm, rng, spec.batchnorm)
        self._cache = []

    def forward(self, x, lengths, train):
        xs = [np.ascontiguousarray(x[:n, u]) for u, n in enumerate(lengths)]
        fwd = self.fwd.forward(xs, train)
        bwd = self.bwd.forward([v[::-1] for v in xs], train)
        h = self.spec.hidden_size // 2
        out = np.zeros(x.shape[:2] + (2 * h,), self.fwd.params["Wx"].dtype)
        for u, n in enumerate(lengths):
            out[:n, u, :h] = fwd[u]
            out[:n, u, h:] = bwd[u][::-1]
        if train:
            self._cache.append(lengths)
        return out

    def backward(self, dout, input_grad=True):
        lengths = self._cache.pop(0)
        h = self.spec.hidden_size // 2
        dx_f, grads_f = self.fwd.backward(
            [dout[:n, u, :h] for u, n in enumerate(lengths)], input_grad)
        dx_b, grads_b = self.bwd.backward(
            [dout[:n, u, h:][::-1] for u, n in enumerate(lengths)],
            input_grad)
        grads = {}
        add_grads(grads, grads_f, "fwd.")
        add_grads(grads, grads_b, "bwd.")
        if not input_grad:
            return None, grads
        wx = self.fwd.params["Wx"]
        dx = np.zeros(dout.shape[:2] + wx.shape[1:], wx.dtype)
        for u, n in enumerate(lengths):
            dx[:n, u] = dx_f[u] + dx_b[u][::-1]
        return dx, grads


# ---------------------------------------------------------------------------
# Probing
# ---------------------------------------------------------------------------

def load_dataset(path, window=0, scheme="full", inventory=None):
    """The (``window``, ``scheme``) view of an `extract_frames` file (see
    `probing.load_views`)."""
    return next(probing.load_views(path, [(window, scheme)], inventory))


def predict(probe, x):
    """The label index a `probing.TrainedProbe` predicts for each row of
    ``x``."""
    return np.argmax(probe.logits(x), axis=1)
