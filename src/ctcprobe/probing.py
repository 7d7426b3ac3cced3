"""Frame datasets from model taps, probe classifiers, and the analyses:
per-layer accuracy, blank/space/letter breakdown, inter/intra-class F1,
and confusion matrices.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import ctc, phoneset
from .acoustic import check_unique_ids
from .artifacts import artifact_header, atomic_write, read_artifact
from .layers import FCLayer, cast, registry
from .model import LayerSpec, log_softmax

DATASET_MAGIC = b"CPFD"
DATASET_VERSION = 2


@dataclass
class FrameDataset:
    vectors: np.ndarray                 # N x D, float32 (a tap) or float64
    labels: np.ndarray                  # N int indices into label_names
    label_names: list[str]
    provenance: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # (utterance_id, n_rows) in order
    digest: str = ""    # `_views`' sha256 of what it made the view from:
                        # equal digests, equal vectors and labels

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors)
        if self.vectors.dtype not in (np.float32, np.float64):
            self.vectors = self.vectors.astype(np.float64)
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


@dataclass
class Extraction:
    """What one `extract_frames` pass made: its rows over every tap (the
    count perfbench's traced `probing.frames_out` sums), and the model's
    greedy CTC category of each softmax frame, from the same forwards."""
    n_frames: int
    categories: dict    # utterance id -> one of "b", "s", "l" per frame


def extract_frames(model, corpus, taps, strides_enabled=True, threads=1,
                   batch_size=1) -> Extraction:
    """Forward each utterance once and append its rows for every tap to
    that tap's file, then each row's phone: its index in the sorted corpus
    phones, taken at the row's receptive-field center.

    ``taps`` lists (layer, path), any layer from 0, the input, to the
    softmax; `load_views` applies windows and label schemes.  Rows are
    float32: a loaded model's taps as they are, a float64 model's rounded.
    The forwards are `TrainedModel.forward_corpus` minibatches of
    ``batch_size`` utterances, ``threads`` of them at once; the files are
    the same bytes at any batch size and thread count.  Headers follow
    from the config and the utterance lengths, so no row waits in memory
    beyond one minibatch's results per thread, and the files replace their
    paths only when the whole pass succeeds.  The same forwards give each
    utterance's greedy CTC category per softmax frame ("b"lank, "s"pace or
    "l"etter).
    """
    cfg = model.config
    check_unique_ids(corpus)
    phones, phone_code = _phone_codes(corpus)
    headers = []
    for layer, _path in taps:
        if not 0 <= layer <= cfg.n_layers:
            raise ValueError(f"layer {layer} outside [0, {cfg.n_layers}]")
        spans = [[utt.id, cfg.time_len_after(layer, utt.n_frames,
                                             strides_enabled)]
                 for utt in corpus]
        headers.append({
            "n": sum(n_rows for _id, n_rows in spans),
            "d": cfg.tap_width(layer),
            "label_names": phones,
            "provenance": {
                "layer": layer,
                "strides_enabled": bool(strides_enabled),
                "subsample_factor": cfg.subsample_factor(layer,
                                                         strides_enabled),
                "receptive_center_offset": cfg.receptive_center_offset(
                    layer, strides_enabled),
                "standardized": False,  # format field: raw tap values
            },
            "spans": spans,
        })

    categories = {}
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(atomic_write(path, "wb"))
                 for _layer, path in taps]
        for header, fh in zip(headers, files):
            fh.write(artifact_header(DATASET_MAGIC, DATASET_VERSION, header))
        for u, (utt, result) in enumerate(model.forward_corpus(
                corpus, batch_size, strides_enabled, threads)):
            categories[utt.id] = ctc.greedy_categories(result.log_probs,
                                                       cfg.alphabet)
            for (layer, path), header, fh in zip(taps, headers, files):
                tap = result.taps[layer]
                utt_id, n_rows = header["spans"][u]
                if len(tap) != n_rows:
                    raise ValueError(f"{path}: {utt_id!r} has {len(tap)} "
                                     f"layer-{layer} rows, its header {n_rows}")
                fh.write(np.ascontiguousarray(tap, np.float32))
        for header, fh in zip(headers, files):
            prov = header["provenance"]
            for utt, (_id, n_rows) in zip(corpus, header["spans"]):
                labels = _frame_labels(utt, phone_code, n_rows,
                                       prov["subsample_factor"],
                                       prov["receptive_center_offset"])
                fh.write(labels.astype(np.int32).tobytes())
    return Extraction(sum(header["n"] for header in headers), categories)


def _phone_codes(corpus):
    """The corpus's phones, sorted, and each one's index among them."""
    phones = sorted({seg.phone for utt in corpus for seg in utt.segments})
    return phones, {phone: i for i, phone in enumerate(phones)}


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
    """Frame classifier over frozen features: a stack of `FCLayer`s with
    ReLU and dropout (train only) between them, then a softmax.  One layer
    is a linear probe.  Parameters have the dtype of the data it trains on,
    and every method computes in the dtype of its parameters and inputs.
    An eval-mode pass writes nothing on the probe or its layers.
    """

    def __init__(self, layers, label_names, dropout):
        self.layers = layers
        self.label_names = list(label_names)
        self.dropout = dropout
        self.params = registry(layers, "params")

    @classmethod
    def init(cls, dim, label_names, hidden=500, dropout=0.5, seed=0,
             dtype=np.float64):
        """A ``hidden``-unit layer then the output layer, or the output
        layer alone when ``hidden`` is None.  Weights are drawn in float64
        whatever ``dtype``, then cast, so every dtype starts from the same
        random stream."""
        rng = np.random.default_rng(seed)
        layers = []
        for n in ([] if hidden is None else [hidden]) + [len(label_names)]:
            layers.append(FCLayer(LayerSpec("fully_connected", hidden_size=n,
                                            batchnorm=False), dim, rng))
            dim = n
        cast(layers, dtype)
        return cls(layers, label_names, dropout)

    def logits(self, x):
        """Deterministic eval-mode forward (no dropout)."""
        for layer in self.layers[:-1]:
            x = np.maximum(layer.forward(x, False), 0.0)
        return self.layers[-1].forward(x, False)

    def evaluate_loss(self, x, y, pred=None):
        """Mean cross-entropy and accuracy of an eval-mode pass on (x, y);
        the predicted labels go into ``pred`` if given."""
        logits = self.logits(x)
        loss, _lp = _cross_entropy(logits, y)
        pred = np.argmax(logits, axis=1, out=pred)
        return loss, float((pred == y).mean())

    def loss_and_grads(self, x, y, rng):
        """Train-mode loss (dropout active) and parameter gradients."""
        pres, masks = [], []
        for layer in self.layers[:-1]:
            pres.append(layer.forward(x, True))
            x = np.maximum(pres[-1], 0.0)
            mask = None
            if self.dropout > 0.0:
                keep = 1.0 - self.dropout
                mask = np.multiply(rng.random(x.shape) < keep,
                                   x.dtype.type(1.0 / keep), dtype=x.dtype)
                x *= mask
            masks.append(mask)
        loss, lp = _cross_entropy(self.layers[-1].forward(x, True), y)
        n = len(y)
        d = np.exp(lp)
        d[np.arange(n), y] -= 1.0
        d /= n
        grads = {}
        for i in range(len(self.layers), 0, -1):
            d, layer_grads = self.layers[i - 1].backward(d, input_grad=i > 1)
            for name, g in layer_grads.items():
                grads[f"L{i}.{name}"] = g
            if i > 1:
                if masks[i - 2] is not None:
                    d *= masks[i - 2]
                d *= pres[i - 2] > 0
        return loss, grads


def _cross_entropy(logits, y):
    """Mean softmax cross-entropy of ``logits`` against the labels ``y``,
    and the log-softmax."""
    lp = log_softmax(logits)
    return float(-lp[np.arange(len(y)), y].mean()), lp


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

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


def evaluate_probe(pred, dataset: FrameDataset) -> dict:
    """Report of the predicted label indices ``pred`` of ``dataset``'s
    rows, as its JSON file holds it: accuracy, per-label precision, recall
    and f1, the confusion matrix (rows true, columns predicted) as nested
    lists, label_names, n_frames and provenance."""
    if len(pred) != dataset.n_frames:
        raise ValueError(f"{len(pred)} predictions for {dataset.n_frames} "
                         f"rows")
    cm = confusion_matrix(dataset.labels, pred, len(dataset.label_names))
    precision, recall, f1 = _prf(cm, dataset.label_names)
    accuracy = float(np.trace(cm)) / max(1, dataset.n_frames)
    return {"accuracy": accuracy, "precision": precision, "recall": recall,
            "f1": f1, "confusion": cm.tolist(),
            "label_names": list(dataset.label_names),
            "n_frames": dataset.n_frames,
            "provenance": dict(dataset.provenance)}


def breakdown_by_ctc_symbol(correct, spans, categories) -> dict:
    """Probe accuracy within each category of the model's own greedy CTC
    prediction: {"blank" | "space" | "letter": {n_frames, share,
    accuracy}}.

    ``correct`` marks the rows the probe got right, and ``spans`` lists
    their (utterance id, rows) in order.  ``categories`` is
    `Extraction.categories` of a pass over those utterances at the rows'
    strides setting ("b", "s" or "l" per softmax frame); the rows' layer
    must have the softmax's time resolution, so that each utterance has
    one category per row."""
    if not spans:
        raise ValueError("dataset lacks extraction provenance")
    per_row = []
    for utt_id, n_rows in spans:
        if utt_id not in categories:
            raise ValueError(f"no CTC categories for utterance {utt_id!r}")
        if len(categories[utt_id]) != n_rows:
            raise ValueError(
                f"softmax length {len(categories[utt_id])} != dataset rows "
                f"{n_rows} for {utt_id!r}; the dataset layer and softmax "
                f"output have different time resolutions")
        per_row.append(categories[utt_id])
    per_row = np.array(list("".join(per_row)))
    per_category = {}
    n = len(correct)
    for cat in ("blank", "space", "letter"):
        m = per_row == cat[0]
        per_category[cat] = {
            "n_frames": int(m.sum()),
            "share": float(m.sum()) / n,
            "accuracy": float(correct[m].mean()) if m.any() else 0.0,
        }
    return per_category


# ---------------------------------------------------------------------------
# Inter/intra sound-class F1
# ---------------------------------------------------------------------------

def inter_intra_f1(fine_report: dict, coarse_report: dict,
                   class_map: dict) -> dict:
    """Per-class {inter_f1, intra_f1} of two `evaluate_probe` reports.

    inter: one-vs-rest F1 from the coarse (direct class prediction)
    confusion matrix.  intra: micro-averaged fine-phone F1 inside the
    class, counting only within-class confusions -- equal to the accuracy
    of the class-restricted confusion submatrix.
    """
    fine_names = fine_report["label_names"]
    for name in fine_names:
        if name not in class_map:
            raise ValueError(f"phone {name!r} missing from class map")
    confusion = np.asarray(fine_report["confusion"], dtype=np.int64)
    out = {}
    for cls_name in coarse_report["label_names"]:
        inter = coarse_report["f1"][cls_name]
        members = [i for i, name in enumerate(fine_names)
                   if class_map[name] == cls_name]
        sub = confusion[np.ix_(members, members)]
        total = sub.sum()
        intra = float(np.trace(sub)) / total if total > 0 else 0.0
        out[cls_name] = {"inter_f1": inter, "intra_f1": intra}
    return out


# ---------------------------------------------------------------------------
# Views: (window, scheme) frame datasets of one split's rows of a layer, from
# a tap file (header JSON + f32 rows + int32 phone indices, written by
# extract_frames) or, for layer 0, from the corpus itself
# ---------------------------------------------------------------------------

class _Source(NamedTuple):
    """What every view of one split's layer is made from."""
    rows: list          # each utterance's float32 rows, C-contiguous
    codes: np.ndarray   # each row's phone, int32 indices into phones
    phones: list        # the split's phones, sorted
    spans: list         # (utterance id, n_rows) in order
    provenance: dict


def load_views(path, views, inventory=None):
    """The FrameDataset of each (window, scheme) of ``views``, in order,
    from one read of an `extract_frames` file, each made when it is
    consumed: its utterances' rows windowed, its phones reduced to the
    scheme's labels, and a `digest` of the file's payload and spans, the
    window and the labels (see `_views`)."""
    def parse(header, payload):
        n, d, phones = header["n"], header["d"], header["label_names"]
        spans = [(s[0], s[1]) for s in header["spans"]]
        ends = np.cumsum([0] + [n_rows for _id, n_rows in spans])
        codes = np.frombuffer(payload, np.int32, n, 4 * n * d)
        if ends[-1] != n:
            raise ValueError(f"spans cover {ends[-1]} rows, not its {n}")
        if codes.size and not 0 <= codes.min() <= codes.max() < len(phones):
            raise ValueError("phone index outside its label_names")
        tap = np.frombuffer(payload, np.float32, n * d).reshape(n, d)
        return _Source(np.split(tap, ends[1:-1]), codes, phones, spans,
                       header["provenance"])

    return _views(read_artifact(
        path, DATASET_MAGIC, DATASET_VERSION, "frame dataset",
        lambda h: 4 * h["n"] * (h["d"] + 1), parse), views, inventory)


def corpus_views(corpus, strides_enabled, views, inventory=None):
    """Layer 0's views of ``corpus``, the utterances' own frames (in
    float32, as `load_corpus` gives them): the same FrameDatasets, digests
    included, as `load_views` of the layer-0 file that `extract_frames`
    writes of ``corpus`` at ``strides_enabled``, so no stage need write
    that file."""
    check_unique_ids(corpus)
    phones, phone_code = _phone_codes(corpus)
    codes = [_frame_labels(utt, phone_code, utt.n_frames, 1, 0)
             for utt in corpus]
    return _views(_Source(
        [np.ascontiguousarray(utt.frames, np.float32) for utt in corpus],
        np.concatenate(codes).astype(np.int32), phones,
        [(utt.id, utt.n_frames) for utt in corpus],
        {"layer": 0, "strides_enabled": bool(strides_enabled),
         "subsample_factor": 1, "receptive_center_offset": 0,
         "standardized": False}), views, inventory)


def _views(source, views, inventory):
    """The FrameDataset of each (window, scheme) of ``views``, in order,
    made from ``source`` when it is consumed: each utterance's rows
    `_windowed`, and each row's phone reduced onto the ``inventory``'s
    labels for the scheme (or the source's own phones, for "full").  Its
    `digest` hashes what it is made from: the rows and phone codes as one
    byte stream (a tap file's payload), the spans, the window, and the
    view's label names and labels, but not the provenance."""
    views = list(views)
    for window, scheme in views:
        if window < 0:
            raise ValueError("window must be >= 0")
        if inventory is None and scheme != "full":
            raise ValueError("reduction schemes need a phone inventory")
    inv = inventory or phoneset.synthetic_inventory(source.phones)
    labels = {}  # scheme -> (label names, each row's label)
    for scheme in dict.fromkeys(scheme for _window, scheme in views):
        names = inv.labels_for_scheme(scheme)
        lut = [names.index(inv.reduce(phone, scheme))
               for phone in source.phones]
        labels[scheme] = names, np.array(lut, np.int64)[source.codes]
    hashed = hashlib.sha256()
    for utt_rows in source.rows:
        hashed.update(utt_rows)
    hashed.update(source.codes)
    hashed.update(json.dumps(source.spans).encode())
    for window, scheme in views:
        names, row_labels = labels[scheme]
        digest = hashed.copy()
        digest.update(json.dumps([window, names]).encode())
        digest.update(row_labels)
        yield FrameDataset(
            np.concatenate([_windowed(utt_rows, window)
                            for utt_rows in source.rows]),
            row_labels, names,
            {**source.provenance, "window": window, "scheme": scheme},
            source.spans, digest.hexdigest())
