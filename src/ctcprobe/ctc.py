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


def _lattice(log_probs, ext):
    """Log-sum of the paths over the blank-extended labels ``ext`` that
    reach (t, s), before frame t's emission: (T, len(ext)), with every
    path starting at s = 0 or 1.  Also returns the emissions
    ``log_probs[:, ext]``."""
    emit = log_probs[:, ext]
    lattice = np.full(emit.shape, NEG_INF)
    lattice[0, :2] = 0.0
    skip = np.flatnonzero((ext[2:] != BLANK) & (ext[2:] != ext[:-2])) + 2
    for t in range(1, len(emit)):
        prev = lattice[t - 1] + emit[t - 1]
        cur = prev.copy()
        cur[1:] = np.logaddexp(cur[1:], prev[:-1])
        cur[skip] = np.logaddexp(cur[skip], prev[skip - 2])
        lattice[t] = cur
    return lattice, emit


def _beta(log_probs, ext):
    """The backward variable: the lattice on reversed time and labels.
    ``ext`` alternates blank and label, so its skip rule reads the same
    reversed.  beta excludes the emission at t itself (pairs with alpha,
    which includes it), so sum_s exp(alpha[t,s] + beta[t,s]) == p(l|x)
    at any t."""
    return _lattice(log_probs[::-1], ext[::-1])[0][::-1, ::-1]


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
    lattice, emit = _lattice(log_probs, ext)
    alpha = lattice + emit
    return log_probs, ext, alpha, np.logaddexp(alpha[T - 1, -1],
                                               alpha[T - 1, -2])


def _grad(log_probs, ext, alpha, log_p):
    beta = _beta(log_probs, ext)
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
