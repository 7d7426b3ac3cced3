"""CTC loss, gradient, and each frame's greedy symbol class.

All DP arithmetic is in log space with -inf as the impossible-transition
sentinel (np.logaddexp(-inf, x) == x, never NaN).  Blank is index 0 of
the alphabet throughout.
"""

from __future__ import annotations

import numpy as np

BLANK = 0
NEG_INF = -np.inf


def default_alphabet():
    """29 symbols: blank, 26 letters, space, apostrophe."""
    return ["_"] + [chr(c) for c in range(ord("a"), ord("z") + 1)] + [" ", "'"]


class InfeasibleTranscriptError(ValueError):
    """Label sequence needs more frames than the model emitted."""


def _check_labels(labels, n_symbols):
    labels = [int(v) for v in labels]
    if not labels:
        raise ValueError("label sequence must be non-empty")
    for v in labels:
        if not 1 <= v < n_symbols:
            raise ValueError(f"label {v} outside [1, {n_symbols})")
    return labels


def min_path_length(labels):
    """Frames needed: one per label plus a blank between adjacent repeats."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _extended(labels):
    ext = [BLANK]
    for v in labels:
        ext.append(v)
        ext.append(BLANK)
    return np.array(ext)


def _forward(log_probs, ext):
    T = log_probs.shape[0]
    L2 = len(ext)
    alpha = np.full((T, L2), NEG_INF)
    alpha[0, 0] = log_probs[0, ext[0]]
    if L2 > 1:
        alpha[0, 1] = log_probs[0, ext[1]]
    skip = np.zeros(L2, dtype=bool)
    skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    for t in range(1, T):
        prev = alpha[t - 1]
        cur = prev.copy()
        cur[1:] = np.logaddexp(cur[1:], prev[:-1])
        cur[skip] = np.logaddexp(cur[skip], prev[np.flatnonzero(skip) - 2])
        alpha[t] = cur + log_probs[t, ext]
    return alpha


def _backward(log_probs, ext):
    # beta excludes the emission at t itself (pairs with alpha, which
    # includes it), so sum_s exp(alpha[t,s] + beta[t,s]) == p(l|x) at any t.
    T = log_probs.shape[0]
    L2 = len(ext)
    beta = np.full((T, L2), NEG_INF)
    beta[T - 1, L2 - 1] = 0.0
    if L2 > 1:
        beta[T - 1, L2 - 2] = 0.0
    skip = np.zeros(L2, dtype=bool)
    skip[:-2] = (ext[:-2] != ext[2:]) & (ext[2:] != BLANK)
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + log_probs[t + 1, ext]
        cur = nxt.copy()
        cur[:-1] = np.logaddexp(cur[:-1], nxt[1:])
        cur[skip] = np.logaddexp(cur[skip], nxt[np.flatnonzero(skip) + 2])
        beta[t] = cur
    return beta


def _alpha(log_probs, labels):
    """Check the inputs and run the forward DP once.  Returns the log
    probabilities as float64, the blank-extended labels, alpha and
    log p(l|x)."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    T, S = log_probs.shape
    labels = _check_labels(labels, S)
    if T < min_path_length(labels):
        raise InfeasibleTranscriptError(
            f"{T} frames cannot carry a label sequence needing "
            f"{min_path_length(labels)}")
    ext = _extended(labels)
    alpha = _forward(log_probs, ext)
    return log_probs, ext, alpha, np.logaddexp(alpha[T - 1, -1],
                                               alpha[T - 1, -2])


def _grad(log_probs, ext, alpha, log_p):
    beta = _backward(log_probs, ext)
    occ = alpha + beta  # log alpha*beta, per extended position
    gamma = np.zeros(log_probs.shape)
    for s, sym in enumerate(ext):
        gamma[:, sym] += np.exp(occ[:, s] - log_p)
    return np.exp(log_probs) - gamma


def ctc_loss(log_probs, labels) -> float:
    """-log p(l|x) by the forward DP over the blank-extended labels."""
    return float(-_alpha(log_probs, labels)[3])


def ctc_loss_and_grad(log_probs, labels):
    """(ctc_loss, gradient w.r.t. the pre-softmax logits: softmax -
    posterior) from one forward DP."""
    lattice = _alpha(log_probs, labels)
    return float(-lattice[3]), _grad(*lattice)


def greedy_categories(log_probs, alphabet) -> str:
    """Each frame's greedy CTC symbol class: "b"lank (index 0), "s"pace or
    "l"etter, for its argmax symbol (ties break to the lowest index)."""
    table = ["b"] + ["s" if ch == " " else "l" for ch in alphabet[1:]]
    return "".join(table[i] for i in np.argmax(log_probs, axis=1))
