"""The three benchmark workloads, each a ctcprobe config made from a seed.

The program sees only the generated config.  The seed sets the corpus
content (phones, noise, transcripts, word boundaries), the dev split, the
initial weights, shuffling and dropout.  Every workload fixes the number
of phones per utterance and keeps segments within 12-14 frames, so the
total frame count, and with it the work, moves by under 1% between
seeds.  With the synthetic defaults (4-7 phones of 10-16 frames) it moved
by about 4% (IQR/median of artifact_mb over five seeds), which adds to
the spread between runs that a regression has to exceed.
"""

from __future__ import annotations

STAGES = ("synth", "train-asr", "extract", "probe", "cluster", "report")

# ds2-mini has 10 layers (2 conv, 7 bidirectional RNN, fc); 10 is the
# softmax tap.  ds2-light-mini has 8 (2 conv, 5 bidirectional LSTM, fc).
SOFTMAX_DS2_MINI = 10
SEGMENT_FRAMES = [12, 14]


def asr_train(seed):
    """ASR training dominates: long utterances, several epochs, one cheap
    probe on the softmax tap and no clustering."""
    return {
        "seed": seed,
        "out_dir": "out",
        "threads": 1,
        "corpus": {"synthetic": {"n_utterances": 10,
                                 "phones_per_utterance": [8, 8],
                                 "segment_frames": SEGMENT_FRAMES}},
        "model": {"preset": "ds2-mini"},
        "train": {"epochs": 4, "batch_size": 4, "dev_fraction": 0.3},
        "probe": {"layers": [SOFTMAX_DS2_MINI], "strides": [True],
                  "windows": [0], "schemes": ["full"], "epochs": 2},
        "clustering": {"enabled": False},
    }


def probe_sweep(seed):
    """Extraction and probe training dominate: the README probe grid on
    both strides settings (24 combos) and t-SNE clustering, after a single
    ASR epoch.  One extract thread, since the host-speed calibration cannot
    follow a thread pool (README, Environment)."""
    return {
        "seed": seed,
        "out_dir": "out",
        "threads": 1,
        "corpus": {"synthetic": {"n_utterances": 10,
                                 "phones_per_utterance": [3, 3],
                                 "segment_frames": SEGMENT_FRAMES}},
        "model": {"preset": "ds2-mini"},
        "train": {"epochs": 1},
        "probe": {"layers": [0, 1, 2, 3, 5, 9], "strides": [True, False],
                  "windows": [0], "schemes": ["full", "sound_class"],
                  "epochs": 2},
        "clustering": {"enabled": True, "layer": 5, "k": 40,
                       "method": "tsne"},
    }


def staged_lstm(seed):
    """LSTM cells, run one subcommand at a time so every stage reloads its
    inputs from disk; windows of +-2 frames widen probe inputs 5x."""
    return {
        "seed": seed,
        "out_dir": "out",
        "threads": 1,
        "corpus": {"synthetic": {"n_utterances": 10,
                                 "phones_per_utterance": [3, 3],
                                 "segment_frames": SEGMENT_FRAMES}},
        "model": {"preset": "ds2-light-mini"},
        "train": {"epochs": 2, "dev_fraction": 0.3},
        "probe": {"layers": [0, 2, 4, 7], "strides": [True],
                  "windows": [0, 2], "schemes": ["full", "sound_class"],
                  "epochs": 2},
        "clustering": {"enabled": False},
    }


# name -> (config factory, staged?)
WORKLOADS = {
    "asr-train": (asr_train, False),
    "probe-sweep": (probe_sweep, False),
    "staged-lstm": (staged_lstm, True),
}
