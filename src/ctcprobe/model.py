"""DeepSpeech2-style network: presets, forward with per-layer taps, backward.

Layer indices are 1-based; index 0 is the input spectrogram.  The two
full presets reproduce the published layer widths (1952/1312 after the
convolutions, 1760 per simple-RNN layer or 600 per LSTM layer, 29
output symbols); the "-mini" presets keep the layer structure at desk
scale.  Temporal strides can be disabled at feature-extraction time
without retraining.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import layers as L
from .layers import conv_output_len
from .artifacts import artifact_header, atomic_write, read_artifact
from .ctc import default_alphabet

CHECKPOINT_MAGIC = b"CPCK"
CHECKPOINT_VERSION = 1

CONV_KINDS = {"conv2d"}
RECURRENT_KINDS = {"rnn_bidir", "lstm_bidir"}
ALL_KINDS = CONV_KINDS | RECURRENT_KINDS | {"fully_connected"}


@dataclass
class LayerSpec:
    kind: str
    kernel: tuple[int, int] | None = None       # (time, freq), conv only
    stride: tuple[int, int] | None = None
    padding: tuple[int, int] | None = None
    out_channels: int | None = None
    hidden_size: int | None = None              # recurrent width / fc output
    batchnorm: bool = True
    activation: str = "none"                    # relu (conv only) | none

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in (("relu", "none") if self.kind in CONV_KINDS
                                   else ("none",)):
            raise ValueError(f"activation {self.activation!r} is not one a "
                             f"{self.kind} layer has")
        if self.batchnorm and self.kind == "fully_connected":
            raise ValueError("batchnorm is not one a fully_connected layer "
                             "has")
        if self.kind in CONV_KINDS:
            for name in ("kernel", "stride", "padding", "out_channels"):
                if getattr(self, name) is None:
                    raise ValueError(f"conv2d layer needs {name}")
            if min(self.kernel) < 1 or min(self.stride) < 1:
                raise ValueError("kernel and stride must be >= 1")
            if min(self.padding) < 0:
                raise ValueError("padding must be >= 0")
        else:
            if self.hidden_size is None or self.hidden_size < 1:
                raise ValueError(f"{self.kind} layer needs hidden_size >= 1")


@dataclass
class ModelConfig:
    layers: list[LayerSpec]
    alphabet: list[str] = field(default_factory=default_alphabet)
    input_freq_bins: int = 161
    seed: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        last = self.layers[-1]
        if last.kind != "fully_connected":
            raise ValueError("last layer must be fully_connected")
        if last.hidden_size != len(self.alphabet):
            raise ValueError("fc output size must equal the alphabet size")
        phase = 0  # convs, then recurrents, then fc
        for spec in self.layers:
            if spec.kind in CONV_KINDS:
                kind_phase = 0
            elif spec.kind in RECURRENT_KINDS:
                kind_phase = 1
            else:
                kind_phase = 2
            if kind_phase < phase:
                raise ValueError(
                    "layers must be ordered conv* -> recurrent* -> fc")
            phase = kind_phase

    @property
    def n_layers(self):
        return len(self.layers)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        specs = []
        for ls in d["layers"]:
            ls = dict(ls)
            for key in ("kernel", "stride", "padding"):
                if ls.get(key) is not None:
                    ls[key] = tuple(ls[key])
            specs.append(LayerSpec(**ls))
        return cls(layers=specs, alphabet=list(d["alphabet"]),
                   input_freq_bins=d["input_freq_bins"], seed=d["seed"])

    # -- time/frequency bookkeeping -----------------------------------

    def convs(self, k, strides_enabled=True):
        """(spec, time stride) of each conv among layers 1..k, the time
        stride 1 when strides are disabled."""
        return [(spec, spec.stride[0] if strides_enabled else 1)
                for spec in self.layers[:k] if spec.kind in CONV_KINDS]

    def freq_bins_after(self, k):
        """Frequency bins after conv layer k (1-based; 0 = input)."""
        f = self.input_freq_bins
        for spec, _ in self.convs(k):
            f = conv_output_len(f, spec.kernel[1], spec.stride[1],
                                spec.padding[1])
        return f

    def tap_width(self, k):
        """Per-frame feature width of the layer-k tap."""
        if k == 0:
            return self.input_freq_bins
        spec = self.layers[k - 1]
        if spec.kind in CONV_KINDS:
            return spec.out_channels * self.freq_bins_after(k)
        return spec.hidden_size

    def time_len_after(self, k, in_len, strides_enabled=True):
        t = in_len
        for spec, st in self.convs(k, strides_enabled):
            t = conv_output_len(t, spec.kernel[0], st, spec.padding[0])
        return t

    def subsample_factor(self, k, strides_enabled=True):
        return math.prod(st for _, st in self.convs(k, strides_enabled))

    def receptive_center_offset(self, k, strides_enabled=True):
        """Input-frame offset of the receptive-field center of output frame 0
        at layer k (composes per-conv center = t*stride - pad + (kernel-1)//2)."""
        offset, factor = 0, 1
        for spec, st in self.convs(k, strides_enabled):
            offset += ((spec.kernel[0] - 1) // 2 - spec.padding[0]) * factor
            factor *= st
        return offset


def _conv_pair(channels):
    return [
        LayerSpec("conv2d", kernel=(11, 41), stride=(2, 2), padding=(5, 0),
                  out_channels=channels, batchnorm=True, activation="relu"),
        LayerSpec("conv2d", kernel=(11, 21), stride=(2, 1), padding=(5, 0),
                  out_channels=channels, batchnorm=True, activation="relu"),
    ]


def preset(name: str, seed=0) -> ModelConfig:
    """Named architecture: "ds2", "ds2-light", "ds2-mini", "ds2-light-mini"."""
    fc = LayerSpec("fully_connected", hidden_size=len(default_alphabet()),
                   batchnorm=False)
    if name == "ds2":
        specs = _conv_pair(32) + [
            LayerSpec("rnn_bidir", hidden_size=1760) for _ in range(7)] + [fc]
    elif name == "ds2-light":
        specs = _conv_pair(32) + [
            LayerSpec("lstm_bidir", hidden_size=600) for _ in range(5)] + [fc]
    elif name == "ds2-mini":
        specs = _conv_pair(8) + [
            LayerSpec("rnn_bidir", hidden_size=64) for _ in range(7)] + [fc]
    elif name == "ds2-light-mini":
        specs = _conv_pair(8) + [
            LayerSpec("lstm_bidir", hidden_size=64) for _ in range(5)] + [fc]
    else:
        raise ValueError(f"unknown preset {name!r}")
    return ModelConfig(layers=specs, seed=seed)


@dataclass
class ForwardResult:
    taps: list[np.ndarray]        # T_k x D_k per layer, input first; in
                                  # train mode None for a conv another follows
    log_probs: np.ndarray         # T_K x S


def log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class TrainedModel:
    """Network parameters bound to a ModelConfig.

    Mutable only through training (parameter updates + batchnorm running
    statistics), which writes the arrays of ``params`` and ``buffers`` in
    place; forward in eval mode is pure.  A model computes in its
    parameters' dtype, `dtype`: training's is float64, and `load` gives
    one of the checkpoint's float32 arrays.
    """

    def __init__(self, config: ModelConfig, dtype=np.float64):
        """The config's seeded initial values, drawn in float64 whatever
        ``dtype``; each layer is cast to ``dtype`` as it is built, so one
        layer's float64 arrays are alive at a time."""
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.layers = []
        c_in = 1  # a conv's input channels: the previous conv's outputs
        for k, spec in enumerate(config.layers, start=1):
            if spec.kind in CONV_KINDS:
                layer = L.ConvLayer(spec, c_in, rng)
                c_in = spec.out_channels
            else:
                make = (L.RecurrentLayer if spec.kind in RECURRENT_KINDS
                        else L.FCLayer)
                layer = make(spec, config.tap_width(k - 1), rng)
            L.cast([layer], dtype)
            self.layers.append(layer)
        # The one registry of live arrays, {"L<i>.<path>": ndarray}: every
        # write (Adam, batchnorm statistics, checkpoint load, snapshot
        # restore) goes into these arrays in place.
        self.params = L.registry(self.layers, "params")
        self.buffers = L.registry(self.layers, "buffers")
        self._n_conv = sum(spec.kind in CONV_KINDS for spec in config.layers)
        self._fwd_state = None

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    # -- forward / backward -------------------------------------------

    def forward(self, batch, strides_enabled=True,
                mode="eval") -> list[ForwardResult]:
        """One ForwardResult per utterance of ``batch``, a list of T x F
        spectrogram arrays, which it casts to the model's `dtype`; every
        layer and result is in that dtype.

        Convolutions and fc run one utterance at a time, the recurrent
        layers on the whole batch; every result is bit for bit the
        utterance's own forward.  A train-mode pass caches for `backward`
        and builds no tap of a convolution that another one follows, as
        nothing reads it.
        """
        if mode not in ("train", "eval"):
            raise ValueError("mode must be 'train' or 'eval'")
        train = mode == "train"
        if train:
            L.drop_caches(self.layers)
        n_conv = self._n_conv
        convs = self.config.convs(n_conv, strides_enabled)
        taps, shapes = [], []
        for x in batch:
            frames = np.asarray(x, dtype=self.dtype)
            if (frames.ndim != 2
                    or frames.shape[1] != self.config.input_freq_bins):
                raise ValueError(
                    f"input must be T x {self.config.input_freq_bins}, "
                    f"got {frames.shape}")
            taps.append([frames])
            cur = frames[None, :, :]  # (C=1, T, F)
            for k, ((_, stride_t), layer) in enumerate(zip(convs, self.layers),
                                                      start=1):
                cur, _pre = layer.forward(cur, train, stride_t=stride_t)
                taps[-1].append(layer.output_tap(cur)
                                if k == n_conv or not train else None)
            shapes.append(cur.shape)
        lengths = [len(utt_taps[-1]) for utt_taps in taps]
        x = np.zeros((max(lengths), len(taps), taps[0][-1].shape[1]),
                     self.dtype)
        for u, utt_taps in enumerate(taps):
            x[:lengths[u], u] = utt_taps[-1]
        for layer in self.layers[n_conv:-1]:
            x = layer.forward(x, lengths, train)
            for u, utt_taps in enumerate(taps):
                utt_taps.append(x[:lengths[u], u])
        results = []
        for utt_taps in taps:
            lp = log_softmax(self.layers[-1].forward(
                np.ascontiguousarray(utt_taps[-1]), train))
            utt_taps.append(np.exp(lp))
            results.append(ForwardResult(utt_taps, lp))
        if train:
            self._fwd_state = (lengths, shapes)
        return results

    def forward_corpus(self, utts, batch_size, strides_enabled=True,
                       threads=1):
        """Each (utterance, eval-mode ForwardResult) of ``utts``, in order,
        made as they are consumed: minibatches of ``batch_size`` utterances
        go through `forward` one at a time on this thread, or ``threads``
        > 1 at a time on a pool, so one minibatch of results per thread is
        alive at once.  Every result is the utterance's own forward, bit
        for bit, whatever the batch size or thread count.  Extract runs it
        on a loaded checkpoint, and `train_asr` its loss-only passes on a
        float32 copy of the model it trains."""
        batches = [utts[i:i + batch_size]
                   for i in range(0, len(utts), batch_size)]

        def one(batch):
            return zip(batch, self.forward(
                [utt.frames for utt in batch], strides_enabled, "eval"))

        if threads == 1:
            for batch in batches:
                yield from one(batch)
            return
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i in range(0, len(batches), threads):
                for pairs in pool.map(one, batches[i:i + threads]):
                    yield from pairs

    def backward(self, dlogits):
        """Parameter gradients for the cached train-mode forward, summed
        over its utterances in batch order; ``dlogits`` holds each
        utterance's gradient of the pre-softmax logits."""
        if self._fwd_state is None:
            raise RuntimeError("backward called without a cached forward pass")
        lengths, shapes = self._fwd_state
        self._fwd_state = None
        n, n_conv = len(self.layers), self._n_conv
        grads = {}
        ds = []
        for d in dlogits:
            d, layer_grads = self.layers[-1].backward(
                np.asarray(d, dtype=self.dtype), input_grad=n > 1)
            L.add_grads(grads, layer_grads, f"L{n}.")
            ds.append(d)
        if n - 1 > n_conv:
            d = np.zeros((max(lengths), len(ds), ds[0].shape[1]), self.dtype)
            for u, d_u in enumerate(ds):
                d[:lengths[u], u] = d_u
            del ds
            for i in range(n - 1, n_conv, -1):
                d, layer_grads = self.layers[i - 1].backward(
                    d, input_grad=i > 1)
                L.add_grads(grads, layer_grads, f"L{i}.")
            ds = [] if d is None else [d[:m, u] for u, m in enumerate(lengths)]
        if n_conv:
            # The conv stack one utterance at a time, so one input gradient
            # exists at a time.  Nothing uses the spectrogram's gradient.
            for (c, t, f), d in zip(shapes, ds):
                # (C, T, F), a view: the ReLU mask makes it channel-major.
                d = d.reshape(t, c, f).transpose(1, 0, 2)
                for i in range(n_conv, 0, -1):
                    d, layer_grads = self.layers[i - 1].backward(
                        d, input_grad=i > 1)
                    L.add_grads(grads, layer_grads, f"L{i}.")
        return grads

    # -- checkpoint io ------------------------------------------------

    def save(self, path):
        params, buffers = self.params, self.buffers
        header = {
            "config": self.config.to_dict(),
            "params": [{"name": k, "shape": list(v.shape)}
                       for k, v in params.items()],
            "buffers": [{"name": k, "shape": list(v.shape)}
                        for k, v in buffers.items()],
        }
        with atomic_write(path, "wb") as fh:
            fh.write(artifact_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                     header))
            for v in list(params.values()) + list(buffers.values()):
                fh.write(np.ascontiguousarray(v, dtype=np.float32).tobytes())

    @classmethod
    def load(cls, path):
        """The model a `save` file holds, its parameters and buffers the
        file's float32 arrays, so that it computes in float32.  Each header
        section must list the registry's (name, shape) entries in its
        order, and every value must be finite."""
        def parse(header, payload):
            model = cls(ModelConfig.from_dict(header["config"]), np.float32)
            offset = 0
            for section in ("params", "buffers"):
                live = getattr(model, section)
                for i, (got, want) in enumerate(itertools.zip_longest(
                        [(e["name"], e["shape"]) for e in header[section]],
                        [(k, list(v.shape)) for k, v in live.items()])):
                    if got != want:
                        raise ValueError(f"{section} entry {i} is {got}, "
                                         f"the model config's is {want}")
                for name, target in live.items():
                    target[...] = np.frombuffer(
                        payload, np.float32, target.size,
                        offset).reshape(target.shape)
                    offset += 4 * target.size
                    if not np.isfinite(target).all():
                        raise ValueError(f"{section} entry {name!r} holds a "
                                         f"non-finite value")
            return model

        return read_artifact(
            path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "model checkpoint",
            lambda h: 4 * sum(math.prod(e["shape"])
                              for section in ("params", "buffers")
                              for e in h[section]),
            parse)
