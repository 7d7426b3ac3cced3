"""Reference implementations that tests compare the program against, and
helpers that only tests need: CTC path collapse, brute-force path
enumeration, the textbook backward variable, the gradient from its own
forward-backward pass, greedy
decoding, the per-frame phone label, transcript decoding, and TIMIT-layout
export."""

from __future__ import annotations

import bisect
import itertools
import os
import wave
from dataclasses import dataclass

import numpy as np

from ctcprobe import acoustic, ctc


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
