"""Frame datasets from model taps, probe classifiers, and the analyses:
per-layer accuracy, blank/space/letter breakdown, inter/intra-class F1,
and confusion matrices.
"""

from __future__ import annotations

import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import ctc
from .layers import uniform_init
from .model import log_softmax

DATASET_MAGIC = b"CPFD"
DATASET_VERSION = 1


@dataclass
class FrameDataset:
    vectors: np.ndarray                 # N x D
    labels: np.ndarray                  # N int indices into label_names
    label_names: list[str]
    provenance: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # (utterance_id, n_rows) in order

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be N x D")
        if self.labels.shape != (self.vectors.shape[0],):
            raise ValueError("labels must align with vectors")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= len(self.label_names)):
            raise ValueError("label index outside label_names")

    @property
    def n_frames(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]

    def subset(self, mask):
        return FrameDataset(self.vectors[mask], self.labels[mask],
                            list(self.label_names), dict(self.provenance))


def extract_frames(model, corpus, layer, strides_enabled=True, window=0,
                   scheme="full", inventory=None, threads=1,
                   forwards=None) -> FrameDataset:
    """Per-frame tap vectors (optionally a +-window concatenation with
    boundary replication) with phone labels mapped through the layer's
    cumulative subsample factor and receptive-field center offset.

    ``forwards`` is a store {(utterance id, strides_enabled): ForwardResult}
    that calls on the same corpus and model can share, so that each
    utterance is forwarded once however many (layer, window, scheme)
    combos are cut from it.  Utterances missing from the store are
    forwarded on ``threads`` threads and added to it.
    """
    cfg = model.config
    if not 0 <= layer <= cfg.n_layers:
        raise ValueError(f"layer {layer} outside [0, {cfg.n_layers}]")
    if window < 0:
        raise ValueError("window must be >= 0")
    factor = cfg.subsample_factor(layer, strides_enabled)
    offset = cfg.receptive_center_offset(layer, strides_enabled)

    phones = sorted({seg.phone for utt in corpus for seg in utt.segments})
    if inventory is not None:
        label_names = inventory.labels_for_scheme(scheme)
        reduced = [inventory.reduce(phone, scheme) for phone in phones]
    else:
        if scheme != "full":
            raise ValueError("reduction schemes need a phone inventory")
        label_names = reduced = phones
    label_index = {name: i for i, name in enumerate(label_names)}
    phone_code = {phone: label_index[name]
                  for phone, name in zip(phones, reduced)}

    results = _forward_all(model, corpus, strides_enabled, forwards, threads)
    vectors, labels, spans = [], [], []
    for utt, result in zip(corpus, results):
        tap = result.taps[layer].frames
        vectors.append(_windowed(tap, window))
        labels.append(_frame_labels(utt, phone_code, tap.shape[0], factor,
                                    offset))
        spans.append((utt.id, tap.shape[0]))

    if vectors:
        vectors = np.concatenate(vectors, axis=0)
        labels = np.concatenate(labels, axis=0)
    else:
        d = cfg.tap_width(layer) * (2 * window + 1)
        vectors = np.zeros((0, d))
        labels = np.zeros(0, dtype=np.int64)
    provenance = {
        "layer": layer,
        "strides_enabled": bool(strides_enabled),
        "window": window,
        "scheme": scheme,
        "subsample_factor": factor,
        "receptive_center_offset": offset,
        "standardized": False,  # format field: vectors are raw tap values
    }
    return FrameDataset(vectors, labels, label_names, provenance, spans=spans)


def _by_id(corpus):
    by_id = {}
    for utt in corpus:
        if utt.id in by_id:
            raise ValueError(f"duplicate utterance id {utt.id!r}")
        by_id[utt.id] = utt
    return by_id


def _forward_all(model, utts, strides_enabled, forwards, threads=1):
    """Eval-mode ForwardResult of each utterance, in order: read from the
    ``forwards`` store where present, forwarded and stored otherwise."""
    _by_id(utts)
    if forwards is None:
        forwards = {}
    missing = [utt for utt in utts if (utt.id, strides_enabled) not in forwards]

    def one(utt):
        return model.forward(utt.spectrogram, strides_enabled=strides_enabled,
                             mode="eval", utterance_id=utt.id)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(one, missing))
    else:
        done = [one(utt) for utt in missing]
    for utt, result in zip(missing, done):
        forwards[(utt.id, strides_enabled)] = result
    return [forwards[(utt.id, strides_enabled)] for utt in utts]


def _frame_labels(utt, phone_code, n_rows, factor, offset):
    """Label index of each of a tap's ``n_rows`` frames: the phone at input
    frame t*factor + offset, clamped to the utterance."""
    per_input = np.repeat(
        np.array([phone_code[seg.phone] for seg in utt.segments],
                 dtype=np.int64),
        [seg.end_frame - seg.start_frame for seg in utt.segments])
    idx = np.clip(np.arange(n_rows) * factor + offset, 0, utt.n_frames - 1)
    return per_input[idx]


def _windowed(tap, w):
    if w == 0:
        return tap
    padded = np.concatenate([np.repeat(tap[:1], w, axis=0), tap,
                             np.repeat(tap[-1:], w, axis=0)], axis=0)
    T = tap.shape[0]
    return np.concatenate([padded[i:i + T] for i in range(2 * w + 1)], axis=1)


# ---------------------------------------------------------------------------
# Probe classifier (feed-forward, one 500-unit hidden layer, dropout 0.5)
# ---------------------------------------------------------------------------

class TrainedProbe:
    """Frame classifier over frozen features.

    hidden layer -> ReLU -> dropout (train only) -> softmax; or a plain
    linear softmax when ``hidden`` is None.
    """

    def __init__(self, params, label_names, hidden, dropout):
        self.params = params
        self.label_names = list(label_names)
        self.hidden = hidden
        self.dropout = dropout

    @classmethod
    def init(cls, dim, label_names, hidden=500, dropout=0.5, seed=0):
        rng = np.random.default_rng(seed)
        n_out = len(label_names)
        if hidden is None:
            params = {"W": uniform_init(rng, (n_out, dim), dim),
                      "b": np.zeros(n_out)}
        else:
            params = {"W1": uniform_init(rng, (hidden, dim), dim),
                      "b1": np.zeros(hidden),
                      "W2": uniform_init(rng, (n_out, hidden), hidden),
                      "b2": np.zeros(n_out)}
        return cls(params, label_names, hidden, dropout)

    @property
    def dim(self):
        key = "W" if self.hidden is None else "W1"
        return self.params[key].shape[1]

    def logits(self, x):
        """Deterministic eval-mode forward (no dropout)."""
        if self.hidden is None:
            return x @ self.params["W"].T + self.params["b"]
        h = np.maximum(x @ self.params["W1"].T + self.params["b1"], 0.0)
        return h @ self.params["W2"].T + self.params["b2"]

    def predict(self, x):
        return np.argmax(self.logits(x), axis=1)

    def evaluate_loss(self, x, y):
        logits = self.logits(x)
        lp = log_softmax(logits)
        loss = float(-lp[np.arange(len(y)), y].mean())
        acc = float((np.argmax(logits, axis=1) == y).mean())
        return loss, acc

    def loss_and_grads(self, x, y, rng):
        """Train-mode loss (dropout active) and parameter gradients."""
        n = x.shape[0]
        if self.hidden is None:
            logits = x @ self.params["W"].T + self.params["b"]
            lp = log_softmax(logits)
            loss = float(-lp[np.arange(n), y].mean())
            dlogits = np.exp(lp)
            dlogits[np.arange(n), y] -= 1.0
            dlogits /= n
            return loss, {"W": dlogits.T @ x, "b": dlogits.sum(axis=0)}
        h_pre = x @ self.params["W1"].T + self.params["b1"]
        h = np.maximum(h_pre, 0.0)
        if self.dropout > 0.0:
            keep = 1.0 - self.dropout
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        else:
            mask = None
        logits = h @ self.params["W2"].T + self.params["b2"]
        lp = log_softmax(logits)
        loss = float(-lp[np.arange(n), y].mean())
        dlogits = np.exp(lp)
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        dh = dlogits @ self.params["W2"]
        if mask is not None:
            dh = dh * mask
        dh_pre = dh * (h_pre > 0)
        return loss, {
            "W1": dh_pre.T @ x,
            "b1": dh_pre.sum(axis=0),
            "W2": dlogits.T @ h,
            "b2": dlogits.sum(axis=0),
        }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    accuracy: float
    precision: dict
    recall: dict
    f1: dict
    confusion: np.ndarray               # rows true, cols predicted
    label_names: list[str]
    n_frames: int
    provenance: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": self.confusion.tolist(),
            "label_names": self.label_names,
            "n_frames": self.n_frames,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["accuracy"], d["precision"], d["recall"], d["f1"],
                   np.array(d["confusion"], dtype=np.int64),
                   list(d["label_names"]), d["n_frames"],
                   dict(d.get("provenance", {})))


def confusion_matrix(y_true, y_pred, n_labels):
    cm = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def _prf(cm, label_names):
    diag = np.diag(cm).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)
    precision, recall, f1 = {}, {}, {}
    for i, name in enumerate(label_names):
        p = diag[i] / col[i] if col[i] > 0 else 0.0
        r = diag[i] / row[i] if row[i] > 0 else 0.0
        precision[name] = p
        recall[name] = r
        f1[name] = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return precision, recall, f1


def evaluate_probe(probe: TrainedProbe, dataset: FrameDataset) -> ProbeReport:
    if probe.dim != dataset.dim:
        raise ValueError(
            f"probe expects dim {probe.dim}, dataset has {dataset.dim}")
    if probe.label_names != dataset.label_names:
        raise ValueError("probe and dataset label spaces differ")
    pred = probe.predict(dataset.vectors)
    cm = confusion_matrix(dataset.labels, pred, len(dataset.label_names))
    precision, recall, f1 = _prf(cm, dataset.label_names)
    accuracy = float(np.trace(cm)) / max(1, dataset.n_frames)
    return ProbeReport(accuracy, precision, recall, f1, cm,
                       list(dataset.label_names), dataset.n_frames,
                       dict(dataset.provenance))


@dataclass
class CtcBreakdown:
    per_category: dict     # category -> {accuracy, share, n_frames}
    overall_accuracy: float

    def to_dict(self):
        return {"per_category": self.per_category,
                "overall_accuracy": self.overall_accuracy}


def breakdown_by_ctc_symbol(probe, dataset, model, corpus,
                            forwards=None) -> CtcBreakdown:
    """Partition frames by the model's own greedy CTC prediction (blank,
    space, or letter) and report probe accuracy within each category.

    ``forwards`` is a forward store as in `extract_frames`; share one
    between calls on the same corpus and model to forward each utterance
    once per strides setting."""
    cfg = model.config
    layer = dataset.provenance.get("layer")
    strides = dataset.provenance.get("strides_enabled", True)
    if layer is None or not dataset.spans:
        raise ValueError("dataset lacks extraction provenance")
    if (cfg.subsample_factor(layer, strides)
            != cfg.subsample_factor(cfg.n_layers, strides)):
        raise ValueError(
            "dataset layer and softmax output have different time "
            "resolutions; extract from a post-convolution layer")
    by_id = _by_id(corpus)
    utts = []
    for utt_id, _n_rows in dataset.spans:
        if utt_id not in by_id:
            raise ValueError(f"utterance {utt_id!r} missing from corpus")
        utts.append(by_id[utt_id])
    results = _forward_all(model, utts, strides, forwards)
    categories = []
    for (utt_id, n_rows), result in zip(dataset.spans, results):
        decode = ctc.greedy_decode(result.log_probs, cfg.alphabet)
        if len(decode.categories) != n_rows:
            raise ValueError(
                f"softmax length {len(decode.categories)} != dataset rows "
                f"{n_rows} for {utt_id!r}")
        categories.extend(decode.categories)
    categories = np.array(categories)
    correct = probe.predict(dataset.vectors) == dataset.labels
    per_category = {}
    n = dataset.n_frames
    for cat in ("blank", "space", "letter"):
        m = categories == cat
        per_category[cat] = {
            "n_frames": int(m.sum()),
            "share": float(m.sum()) / n,
            "accuracy": float(correct[m].mean()) if m.any() else 0.0,
        }
    return CtcBreakdown(per_category, float(correct.mean()))


# ---------------------------------------------------------------------------
# Inter/intra sound-class F1
# ---------------------------------------------------------------------------

def inter_intra_f1(fine_report: ProbeReport, coarse_report: ProbeReport,
                   class_map: dict) -> dict:
    """Per-class {inter_f1, intra_f1}.

    inter: one-vs-rest F1 from the coarse (direct class prediction)
    confusion matrix.  intra: micro-averaged fine-phone F1 inside the
    class, counting only within-class confusions -- equal to the accuracy
    of the class-restricted confusion submatrix.
    """
    for name in fine_report.label_names:
        if name not in class_map:
            raise ValueError(f"phone {name!r} missing from class map")
    classes = list(coarse_report.label_names)
    out = {}
    for cls_name in classes:
        inter = coarse_report.f1[cls_name]
        members = [i for i, name in enumerate(fine_report.label_names)
                   if class_map[name] == cls_name]
        sub = fine_report.confusion[np.ix_(members, members)]
        total = sub.sum()
        intra = float(np.trace(sub)) / total if total > 0 else 0.0
        out[cls_name] = {"inter_f1": inter, "intra_f1": intra}
    return out


def f1_delta(high_layer: dict, low_layer: dict) -> dict:
    """Per-class F1 change moving from one layer's features to another's."""
    return {cls_name: {
        "inter_f1": high_layer[cls_name]["inter_f1"] - low_layer[cls_name]["inter_f1"],
        "intra_f1": high_layer[cls_name]["intra_f1"] - low_layer[cls_name]["intra_f1"],
    } for cls_name in high_layer}


# ---------------------------------------------------------------------------
# Dataset serialization (header JSON + f32 rows + int32 labels)
# ---------------------------------------------------------------------------

def save_dataset(path, ds: FrameDataset):
    header = {
        "n": ds.n_frames,
        "d": ds.dim,
        "label_names": ds.label_names,
        "provenance": ds.provenance,
        "spans": [[utt_id, n] for utt_id, n in ds.spans],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<BQ", DATASET_VERSION, len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(ds.vectors, dtype=np.float32).tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype=np.int32).tobytes())


def load_dataset(path) -> FrameDataset:
    with open(path, "rb") as fh:
        if fh.read(4) != DATASET_MAGIC:
            raise ValueError(f"{path} is not a frame dataset")
        version, header_len = struct.unpack("<BQ", fh.read(9))
        if version != DATASET_VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        header = json.loads(fh.read(header_len))
        n, d = header["n"], header["d"]
        vectors = np.frombuffer(fh.read(4 * n * d),
                                dtype=np.float32).reshape(n, d)
        labels = np.frombuffer(fh.read(4 * n), dtype=np.int32)
    return FrameDataset(vectors.astype(np.float64),
                        labels.astype(np.int64),
                        list(header["label_names"]),
                        dict(header["provenance"]),
                        spans=[(s[0], s[1]) for s in header["spans"]])
