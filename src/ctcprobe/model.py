"""DeepSpeech2-style network: presets, forward with per-layer taps, backward.

Layer indices are 1-based; index 0 is the input spectrogram.  The two
full presets reproduce the published layer widths (1952/1312 after the
convolutions, 1760 per simple-RNN layer or 600 per LSTM layer, 29
output symbols); the "-mini" presets keep the layer structure at desk
scale.  Temporal strides can be disabled at feature-extraction time
without retraining.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import layers as L
from .acoustic import Spectrogram
from .ctc import default_alphabet

CHECKPOINT_MAGIC = b"CPCK"
CHECKPOINT_VERSION = 1

CONV_KINDS = {"conv2d"}
RECURRENT_KINDS = {"rnn_bidir", "lstm_bidir"}
ALL_KINDS = CONV_KINDS | RECURRENT_KINDS | {"fully_connected"}


def conv_output_len(in_len, kernel, stride, padding) -> int:
    if kernel < 1 or stride < 1:
        raise ValueError("kernel and stride must be >= 1")
    if padding < 0:
        raise ValueError("padding must be >= 0")
    if in_len + 2 * padding < kernel:
        raise ValueError(
            f"input {in_len} (+2*{padding} padding) shorter than kernel {kernel}")
    return (in_len + 2 * padding - kernel) // stride + 1


@dataclass
class LayerSpec:
    kind: str
    kernel: tuple[int, int] | None = None       # (time, freq), conv only
    stride: tuple[int, int] | None = None
    padding: tuple[int, int] | None = None
    out_channels: int | None = None
    hidden_size: int | None = None              # recurrent width / fc output
    batchnorm: bool = True
    activation: str = "none"                    # relu | none

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")
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

    def freq_bins_after(self, k):
        """Frequency bins after conv layer k (1-based; 0 = input)."""
        f = self.input_freq_bins
        for spec in self.layers[:k]:
            if spec.kind in CONV_KINDS:
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
        for spec in self.layers[:k]:
            if spec.kind in CONV_KINDS:
                st = spec.stride[0] if strides_enabled else 1
                t = conv_output_len(t, spec.kernel[0], st, spec.padding[0])
        return t

    def subsample_factor(self, k, strides_enabled=True):
        factor = 1
        if strides_enabled:
            for spec in self.layers[:k]:
                if spec.kind in CONV_KINDS:
                    factor *= spec.stride[0]
        return factor

    def receptive_center_offset(self, k, strides_enabled=True):
        """Input-frame offset of the receptive-field center of output frame 0
        at layer k (composes per-conv center = t*stride - pad + (kernel-1)//2)."""
        offset = 0
        factor = 1
        for spec in self.layers[:k]:
            if spec.kind in CONV_KINDS:
                offset += ((spec.kernel[0] - 1) // 2 - spec.padding[0]) * factor
                if strides_enabled:
                    factor *= spec.stride[0]
        return offset


def _conv_pair(channels):
    return [
        LayerSpec("conv2d", kernel=(11, 41), stride=(2, 2), padding=(5, 0),
                  out_channels=channels, batchnorm=True, activation="relu"),
        LayerSpec("conv2d", kernel=(11, 21), stride=(2, 1), padding=(5, 0),
                  out_channels=channels, batchnorm=True, activation="relu"),
    ]


def preset(name: str, alphabet=None, seed=0) -> ModelConfig:
    """Named architecture: "ds2", "ds2-light", "ds2-mini", "ds2-light-mini"."""
    if alphabet is None:
        alphabet = default_alphabet()
    fc = LayerSpec("fully_connected", hidden_size=len(alphabet),
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
    return ModelConfig(layers=specs, alphabet=list(alphabet), seed=seed)


@dataclass
class FeatureMatrix:
    layer_index: int
    frames: np.ndarray            # T_k x D_k
    strides_enabled: bool
    utterance_id: str = ""


@dataclass
class ForwardResult:
    taps: list[FeatureMatrix]     # one per layer, input first
    logits: np.ndarray            # T_K x S, pre-softmax
    probs: np.ndarray             # T_K x S, rows sum to 1
    log_probs: np.ndarray


def log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class TrainedModel:
    """Network parameters bound to a ModelConfig.

    Mutable only through training (parameter updates + batchnorm running
    statistics), which writes the arrays of ``params`` and ``buffers`` in
    place; forward in eval mode is pure.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.layers = []
        in_shape = ("conv", 1, config.input_freq_bins)  # channels, freq
        for spec in config.layers:
            if spec.kind in CONV_KINDS:
                _, c_in, f_in = in_shape
                self.layers.append(L.ConvLayer(spec, c_in, rng))
                f_out = conv_output_len(f_in, spec.kernel[1], spec.stride[1],
                                        spec.padding[1])
                in_shape = ("conv", spec.out_channels, f_out)
            else:
                if in_shape[0] == "conv":
                    d_in = in_shape[1] * in_shape[2]
                else:
                    d_in = in_shape[1]
                if spec.kind in RECURRENT_KINDS:
                    self.layers.append(L.RecurrentLayer(spec, d_in, rng))
                    in_shape = ("flat", spec.hidden_size)
                else:
                    self.layers.append(L.FCLayer(spec, d_in, rng))
                    in_shape = ("flat", spec.hidden_size)
        # The one registry of live arrays, {"L<i>.<path>": ndarray}: every
        # write (Adam, batchnorm statistics, checkpoint load, snapshot
        # restore) goes into these arrays in place.
        self.params, self.buffers = (
            {f"L{i}.{k}": v for i, layer in enumerate(self.layers, start=1)
             for k, v in L.named_arrays(layer, kind).items()}
            for kind in ("params", "buffers"))
        self._fwd_state = None

    # -- forward / backward -------------------------------------------

    def forward(self, x, strides_enabled=True, mode="eval",
                tap_preactivation=False, utterance_id="") -> ForwardResult:
        if mode not in ("train", "eval"):
            raise ValueError("mode must be 'train' or 'eval'")
        if isinstance(x, Spectrogram):
            utterance_id = utterance_id or ""
            frames = x.frames
        else:
            frames = np.asarray(x, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.config.input_freq_bins:
            raise ValueError(
                f"input must be T x {self.config.input_freq_bins}, "
                f"got {frames.shape}")
        train = mode == "train"
        taps = [FeatureMatrix(0, frames.copy(), strides_enabled, utterance_id)]
        cur = frames[None, :, :]  # (C=1, T, F)
        flat = None
        boundary_shape = None
        for i, (spec, layer) in enumerate(zip(self.config.layers, self.layers),
                                          start=1):
            if spec.kind in CONV_KINDS:
                stride_t = spec.stride[0] if strides_enabled else 1
                cur, pre = layer.forward(cur, train, stride_t=stride_t)
                tap_src = pre if tap_preactivation else cur
                taps.append(FeatureMatrix(i, layer.output_tap(tap_src),
                                          strides_enabled, utterance_id))
            else:
                if flat is None:
                    boundary_shape = cur.shape
                    flat = cur.transpose(1, 0, 2).reshape(cur.shape[1], -1)
                if spec.kind in RECURRENT_KINDS:
                    flat, pre = layer.forward(flat, train)
                    tap_src = pre if tap_preactivation else flat
                    taps.append(FeatureMatrix(i, tap_src.copy(),
                                              strides_enabled, utterance_id))
                else:
                    logits = layer.forward(flat, train)
                    lp = log_softmax(logits)
                    probs = np.exp(lp)
                    taps.append(FeatureMatrix(i, probs.copy(),
                                              strides_enabled, utterance_id))
                    if train:
                        self._fwd_state = (mode, boundary_shape)
                    return ForwardResult(taps, logits, probs, lp)
        raise AssertionError("unreachable: config guarantees a final fc layer")

    def backward(self, dlogits):
        """Parameter gradients for the cached train-mode forward pass."""
        if self._fwd_state is None:
            raise RuntimeError("backward called without a cached forward pass")
        mode, boundary_shape = self._fwd_state
        if mode != "train":
            raise RuntimeError("backward requires a train-mode forward pass")
        grads = {}
        d = np.asarray(dlogits, dtype=np.float64)
        for i in range(len(self.layers), 0, -1):
            spec = self.config.layers[i - 1]
            if spec.kind in CONV_KINDS and d.ndim == 2:
                # re-enter conv territory: (T, C*F) -> (C, T, F)
                c, t, f = boundary_shape
                d = d.reshape(t, c, f).transpose(1, 0, 2)
            if i == 1 and spec.kind in CONV_KINDS:
                # Nothing uses the spectrogram's gradient.
                d, layer_grads = self.layers[0].backward(d, input_grad=False)
            else:
                d, layer_grads = self.layers[i - 1].backward(d)
            for name, g in layer_grads.items():
                grads[f"L{i}.{name}"] = g
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
        write_artifact(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
                       [np.ascontiguousarray(v, dtype=np.float32)
                        for v in list(params.values()) + list(buffers.values())])

    @classmethod
    def load(cls, path):
        header, payload = read_artifact(
            path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "model checkpoint",
            lambda h: 4 * sum(math.prod(e["shape"])
                              for section in ("params", "buffers")
                              for e in h[section]))
        model = cls(ModelConfig.from_dict(header["config"]))
        offset = 0
        for section in ("params", "buffers"):
            live = getattr(model, section)
            for entry in header[section]:
                target = live.get(entry["name"])
                if target is None or list(target.shape) != entry["shape"]:
                    raise ValueError(
                        f"{path}: {section} entry {entry['name']!r} "
                        f"{entry['shape']} does not fit the model config")
                target[...] = np.frombuffer(
                    payload, np.float32, target.size, offset).reshape(target.shape)
                offset += 4 * target.size
        return model


# -- binary artifacts: magic | <BQ version, header length> | JSON | payload --

_PREFIX = struct.Struct("<BQ")


def write_artifact(path, magic, version, header, arrays):
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(_PREFIX.pack(version, len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(a.tobytes())


def read_artifact(path, magic, version, kind, payload_bytes):
    """(header, payload) of a file `write_artifact` wrote.

    ``payload_bytes(header)`` is the payload length the header implies; a
    foreign magic, another version, a short read or trailing bytes raise
    ValueError naming ``path``.
    """
    data = Path(path).read_bytes()
    if data[:len(magic)] != magic:
        raise ValueError(f"{path} is not a {kind}")
    start = len(magic) + _PREFIX.size
    if len(data) < start:
        raise ValueError(f"{path}: truncated {kind} ({len(data)} bytes)")
    found, header_len = _PREFIX.unpack_from(data, len(magic))
    if found != version:
        raise ValueError(f"{path}: unsupported {kind} version {found}")
    if len(data) < start + header_len:
        raise ValueError(f"{path}: truncated {kind} ({len(data)} bytes)")
    try:
        header = json.loads(data[start:start + header_len])
    except ValueError as exc:  # JSON or UTF-8 decoding
        raise ValueError(f"{path}: corrupt {kind} header ({exc})") from exc
    payload = memoryview(data)[start + header_len:]
    expected = payload_bytes(header)
    if len(payload) != expected:
        raise ValueError(f"{path}: {kind} payload is {len(payload)} bytes, "
                         f"its header describes {expected}")
    return header, payload
