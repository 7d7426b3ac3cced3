"""Adam optimizer and the epoch loop that trains the CTC model and the
probe classifier.

Training is a deterministic function of (data, config, seed): shuffling
and dropout draw from generators seeded by the config, and gradient
accumulation happens in a fixed order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import ctc
from .acoustic import check_int, check_number, check_unique_ids
from .model import ModelConfig, TrainedModel
from .probing import TrainedProbe

log = logging.getLogger(__name__)

ADAM_ALPHA = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Adam walks each flattened parameter in slices of this many elements, so
# its temporary stays cache-sized (256 KiB of float64, 128 KiB of
# float32) and is reused.
ADAM_SLICE = 32768


@dataclass
class AdamState:
    t: int
    u: dict   # first moments / (1 - b1), as adam_step keeps them
    w: dict   # second moments / (1 - b2)
    alpha: float = ADAM_ALPHA
    scratch: np.ndarray | None = None   # one slice in the parameters'
                                        # dtype, reused by every step

    @classmethod
    def init(cls, params, alpha=ADAM_ALPHA):
        return cls(t=0,
                   u={k: np.zeros_like(v) for k, v in params.items()},
                   w={k: np.zeros_like(v) for k, v in params.items()},
                   alpha=alpha)


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update of `params` and `state`, in place.

    Every gradient shape is checked before anything is written, so a bad
    one leaves `params` and `state` as they were.  The arithmetic follows
    u = b1*u + g;  w = b2*w + g*g;  p = p - k_t*(u / (sqrt(w) + e_t))
    with c = 1 - b**t, k_t = alpha*(1-b1)*sqrt(c2) / (c1*sqrt(1-b2)) and
    e_t = eps*sqrt(c2)/sqrt(1-b2): Kingma and Ba's efficient form (arXiv
    1412.6980, section 2) with unnormalised moments, the textbook update
    in exact arithmetic in ten elementwise passes and one scratch buffer.
    Python-float k_t and e_t keep float32 parameters in float32.  The
    order of operations is that of the expressions, so results are
    bit-identical to evaluating them on whole arrays.
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
    dtype = np.result_type(*params.values()) if params else np.float64
    if (state.scratch is None or state.scratch.size < n
            or state.scratch.dtype != dtype):
        state.scratch = np.empty(n, dtype)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    k_t = (state.alpha * (1.0 - b1) * math.sqrt(c2)
           / (c1 * math.sqrt(1.0 - b2)))
    e_t = ADAM_EPS * math.sqrt(c2) / math.sqrt(1.0 - b2)
    for name, p in params.items():
        pf, gf = p.reshape(-1), grads[name].reshape(-1)
        uf, wf = state.u[name].reshape(-1), state.w[name].reshape(-1)
        for lo in range(0, pf.size, ADAM_SLICE):
            ps, g = pf[lo:lo + ADAM_SLICE], gf[lo:lo + ADAM_SLICE]
            u, w = uf[lo:lo + ADAM_SLICE], wf[lo:lo + ADAM_SLICE]
            a = state.scratch[:ps.size]
            u *= b1
            u += g
            w *= b2
            np.multiply(g, g, out=a)
            w += a
            np.sqrt(w, out=a)
            a += e_t
            np.divide(u, a, out=a)
            a *= k_t
            ps -= a


def flush_subnormals(state: AdamState):
    """Zero the moment entries below their dtype's smallest normal, by slice.

    A moment that decays into the subnormal range (float32 ones do, on a
    unit whose gradient has stayed zero) makes every later Adam step on it
    several times slower, and moves its parameter by under 1e-30.
    """
    for moments in (state.u, state.w):
        for x in moments.values():
            flat, tiny = x.reshape(-1), np.finfo(x.dtype).tiny
            for lo in range(0, flat.size, ADAM_SLICE):
                s = flat[lo:lo + ADAM_SLICE]
                s[np.abs(s) < tiny] = 0.0


@dataclass
class FitConfig:
    """What `_fit` reads; CTC and probe training share it."""
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    alpha: float = ADAM_ALPHA

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        check_number("alpha", self.alpha)
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0: {self.alpha!r}")


@dataclass
class TrainConfig(FitConfig):
    dev_fraction: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValueError(f"dev_fraction must be in (0, 1), not "
                             f"{self.dev_fraction!r}")


def encode_transcript(transcript, alphabet):
    index = {ch: i for i, ch in enumerate(alphabet)}
    try:
        return [index[ch] for ch in transcript]
    except KeyError as exc:
        raise ValueError(f"transcript character {exc.args[0]!r} not in alphabet")


def split_dev(items, dev_fraction, seed):
    """Deterministic by-utterance holdout split: round(dev_fraction * n)
    items go to dev, clamped to [1, n - 1], so a corpus of two or more
    utterances always gives each split at least one utterance.  A single
    item stays in train."""
    n = len(items)
    idx = np.random.default_rng(seed).permutation(n)
    n_dev = min(max(1, int(round(dev_fraction * n))), n - 1) if n > 1 else 0
    dev_idx = set(idx[:n_dev].tolist())
    train = [items[i] for i in range(n) if i not in dev_idx]
    dev = [items[i] for i in range(n) if i in dev_idx]
    return train, dev


def _fit(params, live, n, config, rng, batch_grads, dev_row, train_loss0):
    """Adam over shuffled minibatches of range(n); keeps the best epoch.

    Every epoch shuffles the indices with `rng`, then for each minibatch
    `batch_grads(idx)` returns (losses, grads) for the Adam step on
    `params`; subnormal Adam moments are flushed to zero after each
    epoch.  A row is the epoch, its mean training loss
    (`train_loss0` for epoch 0) and `dev_row()`, which holds "dev_loss".
    The first epoch with the lowest dev loss is copied back into the
    arrays of `live` in place.  Returns (rows, best_epoch).
    """
    opt = AdamState.init(params, alpha=config.alpha)
    rows = [{"epoch": 0, "train_loss": train_loss0, **dev_row()}]
    best_epoch = 0
    saved = {k: v.copy() for k, v in live.items()}
    order = np.arange(n)
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        losses = []
        for start in range(0, n, config.batch_size):
            batch_losses, grads = batch_grads(
                order[start:start + config.batch_size])
            losses += batch_losses
            adam_step(params, grads, opt)
            del grads  # before the next minibatch's gradients exist
        flush_subnormals(opt)
        rows.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                     **dev_row()})
        if rows[-1]["dev_loss"] < rows[best_epoch]["dev_loss"]:
            best_epoch = epoch
            saved = {k: v.copy() for k, v in live.items()}
    for k, v in saved.items():
        live[k][...] = v
    return rows, best_epoch


@dataclass
class AsrTrainResult:
    model: TrainedModel
    log: list            # rows: {epoch, train_loss, dev_loss}
    best_epoch: int
    n_dropped: int       # utterances dropped before training: no
                         # transcript, or output too short to carry it


def _mean_ctc_loss(model, utts, labels_by_id, batch_size):
    """Mean CTC loss of ``utts``, each of which has labels in
    ``labels_by_id``, eval-mode forwarded by ``model`` in minibatches of
    ``batch_size``: in `train_asr`, the float32 checkpoint's loss."""
    return float(np.mean([
        ctc.ctc_loss(result.log_probs, labels_by_id[utt.id])
        for utt, result in model.forward_corpus(utts, batch_size)]))


def train_asr(corpus, model_config: ModelConfig, train_config: TrainConfig,
              dev_corpus) -> AsrTrainResult:
    """Train the CTC model on `corpus`; returns the snapshot of the epoch
    with the best loss on `dev_corpus`.

    Training runs in float64.  Epoch 0's train loss and every dev loss,
    and so the choice of epoch, are those of the float32 values `save`
    writes: a float32 copy of the model, refreshed from the float64 one
    before each of those loss-only passes.

    Utterances whose transcript cannot fit in their output length are
    dropped with a warning that counts them per split; each split must
    keep at least one.
    """
    if not corpus:
        raise ValueError("empty corpus")
    utts = list(corpus) + list(dev_corpus)
    check_unique_ids(utts)

    labels_by_id = {}
    for utt in utts:
        if not utt.transcript:
            continue
        labels = encode_transcript(utt.transcript, model_config.alphabet)
        out_len = model_config.time_len_after(model_config.n_layers,
                                              utt.n_frames)
        if out_len >= ctc.min_path_length(labels):
            labels_by_id[utt.id] = labels
    train_utts = [u for u in corpus if u.id in labels_by_id]
    dev_utts = [u for u in dev_corpus if u.id in labels_by_id]
    n_dropped = len(utts) - len(labels_by_id)
    if n_dropped:
        log.warning("dropped %d infeasible utterances: %d of %d in the "
                    "train split, %d of %d in the dev split", n_dropped,
                    len(corpus) - len(train_utts), len(corpus),
                    len(dev_corpus) - len(dev_utts), len(dev_corpus))
    for name, split, kept in (("corpus", corpus, train_utts),
                              ("dev split", dev_corpus, dev_utts)):
        if not kept:
            raise ValueError(f"no feasible utterances in the {name} "
                             f"(all {len(split)} dropped)")
    model = TrainedModel(model_config)
    checkpoint = TrainedModel(model_config, np.float32)

    def batch_grads(idx):
        """Mean gradient of the batch's utterances."""
        batch = [train_utts[i] for i in idx]
        losses, dlogits = [], []
        for utt, result in zip(batch, model.forward(
                [utt.frames for utt in batch], mode="train")):
            loss, d = ctc.ctc_loss_and_grad(result.log_probs,
                                            labels_by_id[utt.id])
            losses.append(loss)
            dlogits.append(d)
        grads = model.backward(dlogits)
        return losses, {k: g / len(losses) for k, g in grads.items()}

    def checkpoint_loss(utts):
        """Mean CTC loss of ``utts`` under the live values rounded to
        float32, as `save` rounds them."""
        for live, copy in ((model.params, checkpoint.params),
                           (model.buffers, checkpoint.buffers)):
            for name, v in live.items():
                np.copyto(copy[name], v, casting="same_kind")
        return _mean_ctc_loss(checkpoint, utts, labels_by_id,
                              train_config.batch_size)

    rows, best_epoch = _fit(
        model.params, {**model.params, **model.buffers}, len(train_utts),
        train_config, np.random.default_rng(train_config.seed), batch_grads,
        lambda: {"dev_loss": checkpoint_loss(dev_utts)},
        checkpoint_loss(train_utts))
    if best_epoch == 0:
        later = min(rows[1:], key=lambda r: r["dev_loss"])
        log.warning(
            "selection kept epoch 0 (dev loss %.6g): no trained epoch "
            "beat it (best trained: epoch %d, dev loss %.6g), so later "
            "stages analyse an untrained network",
            rows[0]["dev_loss"], later["epoch"], later["dev_loss"])
    return AsrTrainResult(model=model, log=rows, best_epoch=best_epoch,
                          n_dropped=n_dropped)


# ---------------------------------------------------------------------------
# Probe training
# ---------------------------------------------------------------------------

@dataclass
class ProbeConfig(FitConfig):
    hidden: int | None = 500     # None -> linear probe
    dropout: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        check_number("dropout", self.dropout)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.hidden is not None:
            check_int("hidden", self.hidden, 1)


@dataclass
class ProbeTrainResult:
    probe: TrainedProbe
    curve: list          # rows: {epoch, train_loss, dev_loss, dev_accuracy}
    best_epoch: int
    dev_pred: np.ndarray  # the selected epoch's predicted dev labels


def train_probe(train, dev, probe_config: ProbeConfig) -> ProbeTrainResult:
    """Train the frame classifier, selecting the best-dev-loss epoch.  The
    selected epoch's dev predictions come from its dev pass, and equal the
    argmax of the restored probe's `logits`."""
    if train.vectors.shape[1] != dev.vectors.shape[1]:
        raise ValueError("train and dev feature dimensions differ")
    if train.label_names != dev.label_names:
        raise ValueError("train and dev label spaces differ")

    probe = TrainedProbe.init(train.vectors.shape[1], train.label_names,
                              hidden=probe_config.hidden,
                              dropout=probe_config.dropout,
                              seed=probe_config.seed,
                              dtype=train.vectors.dtype)
    # One generator: each epoch's shuffle, then that epoch's dropout masks.
    rng = np.random.default_rng(probe_config.seed)

    def batch_grads(idx):
        loss, grads = probe.loss_and_grads(train.vectors[idx],
                                           train.labels[idx], rng)
        return [loss], grads

    # The live parameters' dev predictions, restored with them.
    pred = np.empty(dev.n_frames, np.intp)

    def dev_row():
        loss, acc = probe.evaluate_loss(dev.vectors, dev.labels, pred)
        return {"dev_loss": loss, "dev_accuracy": acc}

    rows, best_epoch = _fit(probe.params, {**probe.params, "dev_pred": pred},
                            train.vectors.shape[0], probe_config, rng,
                            batch_grads, dev_row, float("nan"))
    return ProbeTrainResult(probe=probe, curve=rows, best_epoch=best_epoch,
                            dev_pred=pred)
