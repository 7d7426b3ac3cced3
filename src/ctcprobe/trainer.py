"""Adam optimizer and the two training loops (CTC model, probe classifier).

Both loops are deterministic functions of (data, config, seed): shuffling
and dropout draw from generators seeded by the config, and gradient
accumulation happens in a fixed order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import ctc
from .model import ModelConfig, TrainedModel

log = logging.getLogger(__name__)

ADAM_ALPHA = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Epoch selection of both training loops: the best dev loss, or the last.
SELECTIONS = ("best_dev_loss", "last")

# Adam walks each flattened parameter in slices of this many elements, so
# its temporaries stay cache-sized (256 KiB of float64) and are reused.
ADAM_SLICE = 32768


@dataclass
class AdamState:
    t: int
    m: dict
    v: dict
    alpha: float = ADAM_ALPHA
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS
    scratch: tuple = ()   # two buffers of one slice, reused by every step

    @classmethod
    def init(cls, params, alpha=ADAM_ALPHA, beta1=ADAM_BETA1,
             beta2=ADAM_BETA2, eps=ADAM_EPS):
        return cls(t=0,
                   m={k: np.zeros_like(v) for k, v in params.items()},
                   v={k: np.zeros_like(v) for k, v in params.items()},
                   alpha=alpha, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update of `params` and `state`, in place.

    Every gradient shape is checked before anything is written, so a bad
    one leaves `params` and `state` as they were.  The arithmetic follows
    m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
    p = p - (alpha*(m/c1)) / (sqrt(v/c2) + eps)  with c = 1 - b**t,
    operation for operation, so results are bit-identical to evaluating
    those expressions on whole arrays.
    """
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise ValueError(
                f"gradient shape {grads[name].shape} != parameter shape "
                f"{p.shape} for {name!r}")
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter {name!r} is not C-contiguous, so "
                             f"it cannot be updated in place")
    n = min(ADAM_SLICE, max((p.size for p in params.values()), default=0))
    if not state.scratch or state.scratch[0].size < n:
        state.scratch = (np.empty(n), np.empty(n))
    s1, s2 = state.scratch
    state.t += 1
    b1, b2, alpha, eps = state.beta1, state.beta2, state.alpha, state.eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        pf, gf = p.reshape(-1), grads[name].reshape(-1)
        mf, vf = state.m[name].reshape(-1), state.v[name].reshape(-1)
        for lo in range(0, pf.size, ADAM_SLICE):
            ps, g = pf[lo:lo + ADAM_SLICE], gf[lo:lo + ADAM_SLICE]
            m, v = mf[lo:lo + ADAM_SLICE], vf[lo:lo + ADAM_SLICE]
            a, b = s1[:ps.size], s2[:ps.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.divide(m, c1, out=a)
            a *= alpha
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            ps -= a


@dataclass
class TrainConfig:
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0
    shuffle: bool = True
    selection: str = "best_dev_loss"
    dev_fraction: float = 0.1
    alpha: float = ADAM_ALPHA
    max_grad_norm: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection {self.selection!r}")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValueError(f"dev_fraction must be in [0, 1), not "
                             f"{self.dev_fraction!r}")


def encode_transcript(transcript, alphabet):
    index = {ch: i for i, ch in enumerate(alphabet)}
    try:
        return [index[ch] for ch in transcript]
    except KeyError as exc:
        raise ValueError(f"transcript character {exc.args[0]!r} not in alphabet")


def split_dev(items, dev_fraction, seed):
    """Deterministic by-utterance holdout split."""
    idx = np.random.default_rng(seed).permutation(len(items))
    n_dev = max(1, int(round(dev_fraction * len(items)))) if len(items) > 1 else 0
    dev_idx = set(idx[:n_dev].tolist())
    train = [items[i] for i in range(len(items)) if i not in dev_idx]
    dev = [items[i] for i in range(len(items)) if i in dev_idx]
    return train, dev


@dataclass
class AsrTrainResult:
    model: TrainedModel
    log: list            # rows: {epoch, train_loss, dev_loss}
    best_epoch: int
    n_dropped: int       # infeasible utterances skipped across training


def _clip_grads(grads, max_norm):
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        grads = {k: g * scale for k, g in grads.items()}
    return grads


def _mean_ctc_loss(model, utts, labels_by_id):
    losses = []
    for utt in utts:
        labels = labels_by_id.get(utt.id)
        if labels is None:
            continue
        result = model.forward(utt.spectrogram, mode="eval")
        try:
            losses.append(ctc.ctc_loss(result.log_probs, labels))
        except ctc.InfeasibleTranscriptError:
            continue
    if not losses:
        raise ValueError("no feasible utterances to evaluate")
    return float(np.mean(losses))


def train_asr(corpus, model_config: ModelConfig, train_config: TrainConfig,
              dev_corpus=None) -> AsrTrainResult:
    """Train the CTC model; returns the best-dev-loss (or last) snapshot.

    Utterances whose transcript cannot fit in their output length are
    dropped with a counted warning.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if dev_corpus is None:
        corpus, dev_corpus = split_dev(corpus, train_config.dev_fraction,
                                       train_config.seed)
    model = TrainedModel(model_config)

    labels_by_id = {}
    n_dropped = 0
    for utt in list(corpus) + list(dev_corpus):
        if not utt.transcript:
            n_dropped += 1
            continue
        labels = encode_transcript(utt.transcript, model_config.alphabet)
        out_len = model_config.time_len_after(model_config.n_layers,
                                              utt.n_frames)
        if out_len < ctc.min_path_length(labels):
            n_dropped += 1
            continue
        labels_by_id[utt.id] = labels
    train_utts = [u for u in corpus if u.id in labels_by_id]
    if not train_utts:
        raise ValueError("no feasible utterances in the corpus")
    if n_dropped:
        log.warning("dropped %d infeasible utterances", n_dropped)

    rng = np.random.default_rng(train_config.seed)
    opt = AdamState.init(model.params, alpha=train_config.alpha)
    live = {**model.params, **model.buffers}

    rows = []
    best = None  # (dev_loss, epoch, copies of the live arrays)

    def snapshot(epoch, dev_loss):
        return dev_loss, epoch, {k: v.copy() for k, v in live.items()}

    dev_loss = _mean_ctc_loss(model, dev_corpus, labels_by_id)
    train_loss = _mean_ctc_loss(model, train_utts, labels_by_id)
    rows.append({"epoch": 0, "train_loss": train_loss, "dev_loss": dev_loss})
    best = snapshot(0, dev_loss)

    order = np.arange(len(train_utts))
    for epoch in range(1, train_config.epochs + 1):
        if train_config.shuffle:
            rng.shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), train_config.batch_size):
            batch = [train_utts[i] for i in order[start:start + train_config.batch_size]]
            acc = None
            n_ok = 0
            for utt in batch:
                result = model.forward(utt.spectrogram, mode="train")
                try:
                    loss, dlogits = ctc.ctc_loss_and_grad(
                        result.log_probs, labels_by_id[utt.id])
                except ctc.InfeasibleTranscriptError:
                    n_dropped += 1
                    continue
                grads = model.backward(dlogits)
                epoch_losses.append(loss)
                n_ok += 1
                if acc is None:
                    acc = grads
                else:
                    for k in acc:
                        acc[k] += grads[k]
            if acc is None:
                continue
            grads = {k: g / n_ok for k, g in acc.items()}
            if train_config.max_grad_norm is not None:
                grads = _clip_grads(grads, train_config.max_grad_norm)
            adam_step(model.params, grads, opt)
        train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        dev_loss = _mean_ctc_loss(model, dev_corpus, labels_by_id)
        rows.append({"epoch": epoch, "train_loss": train_loss,
                     "dev_loss": dev_loss})
        if dev_loss < best[0]:
            best = snapshot(epoch, dev_loss)

    if train_config.selection == "best_dev_loss":
        _, best_epoch, saved = best
        for k, v in saved.items():
            live[k][...] = v
        if best_epoch == 0:
            later = min(rows[1:], key=lambda r: r["dev_loss"])
            log.warning(
                "selection kept epoch 0 (dev loss %.6g): no trained epoch "
                "beat it (best trained: epoch %d, dev loss %.6g), so later "
                "stages analyse an untrained network",
                rows[0]["dev_loss"], later["epoch"], later["dev_loss"])
    else:
        best_epoch = train_config.epochs
    return AsrTrainResult(model=model, log=rows, best_epoch=best_epoch,
                          n_dropped=n_dropped)


# ---------------------------------------------------------------------------
# Probe training
# ---------------------------------------------------------------------------

@dataclass
class ProbeConfig:
    hidden: int | None = 500     # None -> linear probe
    dropout: float = 0.5
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    alpha: float = ADAM_ALPHA
    selection: str = "best_dev_loss"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.hidden is not None and (type(self.hidden) is not int
                                        or self.hidden < 1):
            raise ValueError(f"hidden must be None or an int >= 1, not "
                             f"{self.hidden!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection {self.selection!r}")


@dataclass
class ProbeTrainResult:
    probe: "object"      # probing.TrainedProbe
    curve: list          # rows: {epoch, train_loss, dev_loss, dev_accuracy}
    best_epoch: int


def train_probe(train, dev, probe_config: ProbeConfig) -> ProbeTrainResult:
    """Train the frame classifier, selecting the best-dev-loss epoch."""
    from .probing import TrainedProbe  # probe definition lives with probing

    if train.vectors.shape[1] != dev.vectors.shape[1]:
        raise ValueError("train and dev feature dimensions differ")
    if train.label_names != dev.label_names:
        raise ValueError("train and dev label spaces differ")

    probe = TrainedProbe.init(train.vectors.shape[1], train.label_names,
                              hidden=probe_config.hidden,
                              dropout=probe_config.dropout,
                              seed=probe_config.seed)
    rng = np.random.default_rng(probe_config.seed)
    params = probe.params
    opt = AdamState.init(params, alpha=probe_config.alpha)

    def dev_eval():
        loss, acc = probe.evaluate_loss(dev.vectors, dev.labels)
        return loss, acc

    rows = []
    dev_loss, dev_acc = dev_eval()
    rows.append({"epoch": 0, "train_loss": float("nan"),
                 "dev_loss": dev_loss, "dev_accuracy": dev_acc})
    best = (dev_loss, 0, {k: v.copy() for k, v in params.items()})

    n = train.vectors.shape[0]
    order = np.arange(n)
    for epoch in range(1, probe_config.epochs + 1):
        rng.shuffle(order)
        losses = []
        for start in range(0, n, probe_config.batch_size):
            idx = order[start:start + probe_config.batch_size]
            loss, grads = probe.loss_and_grads(train.vectors[idx],
                                               train.labels[idx], rng)
            losses.append(loss)
            adam_step(params, grads, opt)
        dev_loss, dev_acc = dev_eval()
        rows.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                     "dev_loss": dev_loss, "dev_accuracy": dev_acc})
        if dev_loss < best[0]:
            best = (dev_loss, epoch, {k: v.copy() for k, v in params.items()})

    if probe_config.selection == "best_dev_loss":
        _, best_epoch, saved = best
        for k, v in saved.items():
            params[k][...] = v
    else:
        best_epoch = probe_config.epochs
    return ProbeTrainResult(probe=probe, curve=rows, best_epoch=best_epoch)
