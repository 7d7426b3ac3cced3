"""Spectrogram front-end and frame-labelled corpora.

Produces the model input (161-bin magnitude spectrograms, 20ms Hamming
window, 10ms hop) plus two corpus sources: a deterministic synthetic
corpus with known per-frame phone labels, and an importer for TIMIT-layout
data (paired PCM audio + "start end phone" segmentation files).
"""

from __future__ import annotations

import math
import os
import wave
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .artifacts import artifact_header, atomic_write, read_artifact

DEFAULT_SAMPLE_RATE = 16000
DEFAULT_WINDOW_MS = 20.0
DEFAULT_HOP_MS = 10.0
# Samples per analysis window (320) and per hop (160) at that rate.
WINDOW_SAMPLES = round(DEFAULT_SAMPLE_RATE * DEFAULT_WINDOW_MS / 1000)
HOP_SAMPLES = round(DEFAULT_SAMPLE_RATE * DEFAULT_HOP_MS / 1000)
N_BINS = WINDOW_SAMPLES // 2 + 1  # frequency bins per frame (161)

CORPUS_MAGIC = b"CPCO"
CORPUS_VERSION = 2


@dataclass(frozen=True)
class PhoneSegment:
    """Half-open frame range [start_frame, end_frame) labelled with one phone."""

    phone: str
    start_frame: int
    end_frame: int

    def __post_init__(self):
        if not self.start_frame < self.end_frame:
            raise ValueError(
                f"empty segment for phone {self.phone!r}: "
                f"[{self.start_frame}, {self.end_frame})"
            )


@dataclass
class Utterance:
    """``frames``: a T x F spectrogram of finite, non-negative magnitudes,
    kept in the dtype it arrives in (float32 from `load_corpus`)."""

    frames: np.ndarray
    segments: list[PhoneSegment]
    transcript: str
    id: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2:
            raise ValueError("spectrogram frames must be 2-D (T x F)")
        if not (np.isfinite(self.frames).all() and (self.frames >= 0).all()):
            raise ValueError(f"utterance {self.id!r}: spectrogram magnitudes "
                             f"must be finite and non-negative")
        check_segments(self.segments, self.n_frames)

    @property
    def n_frames(self):
        return self.frames.shape[0]


def check_segments(segments, n_frames):
    """Segments must be sorted, non-overlapping and cover exactly [0, n_frames)."""
    if not segments:
        raise ValueError("utterance has no segments")
    if segments[0].start_frame != 0:
        raise ValueError("segments must start at frame 0")
    for prev, cur in zip(segments, segments[1:]):
        if cur.start_frame != prev.end_frame:
            raise ValueError(
                f"segments not contiguous at frame {prev.end_frame}/{cur.start_frame}"
            )
    if segments[-1].end_frame != n_frames:
        raise ValueError(
            f"segments end at {segments[-1].end_frame}, expected {n_frames}"
        )


def check_unique_ids(utterances):
    """Utterance ids must be unique: stages key each utterance's data by id."""
    for utt_id, count in Counter(utt.id for utt in utterances).items():
        if count > 1:
            raise ValueError(f"duplicate utterance id {utt_id!r}")


def hamming_window(n: int) -> np.ndarray:
    """Hamming coefficients 0.54 - 0.46*cos(2*pi*i/(n-1)); w = [1.0] for n == 1."""
    if n < 1:
        raise ValueError("window length must be >= 1")
    if n == 1:
        return np.ones(1)
    i = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * i / (n - 1))


def spectrogram(samples) -> np.ndarray:
    """T x F linear magnitude spectrogram of Hamming-windowed frames of
    16 kHz ``samples``.

    T = floor((len - win) / hop) + 1, F = win/2 + 1 = N_BINS = 161 with the
    320-sample (20ms) window and 160-sample (10ms) hop.
    """
    samples = np.asarray(samples, dtype=np.float64)
    win, hop = WINDOW_SAMPLES, HOP_SAMPLES
    if len(samples) < win:
        raise ValueError(
            f"need at least {win} samples for one window, got {len(samples)}"
        )
    n_frames = (len(samples) - win) // hop + 1
    w = hamming_window(win)
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    return np.abs(np.fft.rfft(samples[idx] * w[None, :], axis=1))


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

def default_formant_table(n_phones):
    """Distinct 3-formant signature per phone, spread over the bins."""
    table = {}
    for i in range(n_phones):
        pid = phone_id(i)
        b1 = 8 + (i * 37) % (N_BINS - 40)
        b2 = 20 + (i * 71) % (N_BINS - 50)
        b3 = 30 + (i * 113) % (N_BINS - 60)
        table[pid] = [(b1, 3.0, 1.0), (b2, 4.0, 0.7), (b3, 5.0, 0.5)]
    return table


def phone_id(i):
    return f"p{i:02d}"


def default_phone_to_chars(n_phones):
    """One distinct letter per phone; trivially prefix-free."""
    if n_phones > 26:
        raise ValueError("default character code supports at most 26 phones")
    return {phone_id(i): chr(ord("a") + i) for i in range(n_phones)}


@dataclass
class SynthConfig:
    phone_inventory_size: int = 20
    phones_per_utterance: tuple[int, int] = (4, 7)
    segment_frames: tuple[int, int] = (10, 16)
    noise_stddev: float = 0.05
    formant_table: dict | None = None
    phone_to_chars: dict | None = None
    word_phones: tuple[int, int] = (2, 4)
    seed: int = 0

    def __post_init__(self):
        if self.phone_inventory_size < 1:
            raise ValueError("need at least one phone")
        for key in ("phones_per_utterance", "segment_frames", "word_phones"):
            lo, hi = getattr(self, key)
            if not 1 <= lo <= hi:
                raise ValueError(f"bad {key} range")
        if self.noise_stddev < 0:
            raise ValueError("noise_stddev must be >= 0")
        if self.formant_table is None:
            self.formant_table = default_formant_table(
                self.phone_inventory_size)
        if self.phone_to_chars is None:
            self.phone_to_chars = default_phone_to_chars(self.phone_inventory_size)
        for name in ("formant_table", "phone_to_chars"):
            for phone in self.phones:
                if phone not in getattr(self, name):
                    raise ValueError(f"{name} lacks phone {phone!r}")
        for phone in self.phones:
            entry = self.formant_table[phone]
            if type(entry) not in (list, tuple) or not all(map(_is_formant,
                                                               entry)):
                raise ValueError(
                    f"formant_table[{phone!r}] must be a list of [center, "
                    f"bandwidth > 0, amplitude] finite numbers, not {entry!r}")
        _check_prefix_free(self.phone_to_chars)

    @property
    def phones(self):
        return [phone_id(i) for i in range(self.phone_inventory_size)]


def _is_formant(f):
    """[center, bandwidth, amplitude]: finite numbers, a positive bandwidth
    (zero would put NaN in the spectrum)."""
    return (type(f) in (list, tuple) and len(f) == 3
            and all(type(v) in (int, float) and math.isfinite(v) for v in f)
            and f[1] > 0)


def _check_prefix_free(code):
    codes = list(code.values())
    if len(set(codes)) != len(codes):
        raise ValueError("phone_to_chars must be injective")
    for a in codes:
        for b in codes:
            if a is not b and b.startswith(a):
                raise ValueError(f"phone code {a!r} is a prefix of {b!r}")
    for c in codes:
        if " " in c:
            raise ValueError("phone codes may not contain spaces")


def phone_template(cfg: SynthConfig, phone: str) -> np.ndarray:
    """Noise-free magnitude spectrum of one phone."""
    bins = np.arange(N_BINS, dtype=np.float64)
    spec = np.zeros(N_BINS)
    for center, bandwidth, amplitude in cfg.formant_table[phone]:
        spec += amplitude * np.exp(-0.5 * ((bins - center) / bandwidth) ** 2)
    return spec


def synthesize_corpus(cfg: SynthConfig, n_utterances: int) -> list[Utterance]:
    """Deterministic corpus: each phone rendered as its formant template
    plus Gaussian noise (clamped at 0) directly in spectrogram space."""
    if n_utterances < 0:
        raise ValueError("n_utterances must be >= 0")
    rng = np.random.default_rng(cfg.seed)
    templates = {p: phone_template(cfg, p) for p in cfg.phones}
    utts = []
    for u in range(n_utterances):
        n_phones = rng.integers(cfg.phones_per_utterance[0],
                                cfg.phones_per_utterance[1] + 1)
        phones = [cfg.phones[rng.integers(cfg.phone_inventory_size)]
                  for _ in range(n_phones)]
        seg_lens = [int(rng.integers(cfg.segment_frames[0],
                                     cfg.segment_frames[1] + 1))
                    for _ in range(n_phones)]
        frames = []
        segments = []
        t = 0
        for phone, seg_len in zip(phones, seg_lens):
            block = templates[phone][None, :] + rng.normal(
                0.0, cfg.noise_stddev, size=(seg_len, N_BINS))
            frames.append(np.maximum(block, 0.0))
            segments.append(PhoneSegment(phone, t, t + seg_len))
            t += seg_len
        transcript = _phones_to_transcript(cfg, phones, rng)
        utts.append(Utterance(np.concatenate(frames, axis=0), segments,
                              transcript, f"synth-{u:05d}"))
    return utts


def _phones_to_transcript(cfg, phones, rng):
    """Concatenate phone codes, with single spaces between word groups."""
    words = []
    i = 0
    while i < len(phones):
        size = int(rng.integers(cfg.word_phones[0], cfg.word_phones[1] + 1))
        words.append("".join(cfg.phone_to_chars[p] for p in phones[i:i + size]))
        i += size
    return " ".join(words)


# ---------------------------------------------------------------------------
# Corpus files: one artifact whose header lists each utterance's id,
# transcript, segments and frame shape, and whose payload is their f32 frames
# ---------------------------------------------------------------------------

def save_corpus(path, utterances):
    header = {"utterances": [
        {"id": utt.id, "transcript": utt.transcript,
         "segments": [[s.phone, s.start_frame, s.end_frame]
                      for s in utt.segments],
         "shape": list(utt.frames.shape)}
        for utt in utterances]}
    with atomic_write(path, "wb") as fh:
        fh.write(artifact_header(CORPUS_MAGIC, CORPUS_VERSION, header))
        for utt in utterances:
            fh.write(np.ascontiguousarray(
                utt.frames, dtype=np.float32).tobytes())


def load_corpus(path):
    """The utterances of a `save_corpus` file, read by `read_artifact`;
    their frames are float32 views of the file's payload."""
    def parse(header, payload):
        utts = []
        offset = 0
        for entry in header["utterances"]:
            size = math.prod(entry["shape"])
            frames = np.frombuffer(payload, np.float32, size, offset)
            offset += 4 * size
            segs = [PhoneSegment(p, a, b) for p, a, b in entry["segments"]]
            utts.append(Utterance(frames.reshape(entry["shape"]), segs,
                                  entry["transcript"], entry["id"]))
        return utts

    return read_artifact(
        path, CORPUS_MAGIC, CORPUS_VERSION, "corpus",
        lambda h: 4 * sum(math.prod(e["shape"]) for e in h["utterances"]),
        parse)


# ---------------------------------------------------------------------------
# TIMIT-layout import
# ---------------------------------------------------------------------------

SILENCE_PHONE = "h#"


def _frame_for_sample(sample):
    # Frame i's slot is [i*hop, (i+1)*hop); containment is by slot center.
    return int(sample) // HOP_SAMPLES


def import_timit_dir(path):
    """Import paired .wav/.phn (optionally .txt) files under ``path``.

    Returns (utterances, errors); a failing file is reported and skipped.
    An utterance's id is its path relative to ``path``, without extension
    and with "/" separators (TIMIT reuses file names such as SA1 in every
    speaker directory).
    Leading/trailing silence (h#) is trimmed and the utterance cropped to
    the labelled span.  Segment sample times become frame indices by
    center containment of each 10ms frame slot.
    """
    utterances = []
    errors = []
    wavs = []
    for root, _dirs, files in os.walk(path):
        for name in sorted(files):
            if name.lower().endswith(".wav"):
                wavs.append(os.path.join(root, name))
    for wav_path in sorted(wavs):
        stem = os.path.splitext(wav_path)[0]
        utt_id = os.path.relpath(stem, path).replace(os.sep, "/")
        phn_path = _sibling(stem, ".phn")
        if phn_path is None:
            errors.append((wav_path, "missing .phn file"))
            continue
        try:
            utt = _import_one(wav_path, phn_path, _sibling(stem, ".txt"),
                              utt_id)
            utterances.append(utt)
        except Exception as exc:  # per-file error, keep going
            errors.append((wav_path, str(exc)))
    return utterances, errors


def _sibling(stem, ext):
    for candidate in (stem + ext, stem + ext.upper()):
        if os.path.exists(candidate):
            return candidate
    return None


def _read_wav(path):
    with wave.open(path, "rb") as wf:
        if wf.getsampwidth() != 2:
            raise ValueError("expected 16-bit PCM audio")
        if wf.getnchannels() != 1:
            raise ValueError("expected mono audio")
        if wf.getframerate() != DEFAULT_SAMPLE_RATE:
            raise ValueError(f"sample rate {wf.getframerate()} != expected "
                             f"{DEFAULT_SAMPLE_RATE}")
        data = wf.readframes(wf.getnframes())
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0


def _import_one(wav_path, phn_path, txt_path, utt_id):
    spec = spectrogram(_read_wav(wav_path))

    raw_segments = []
    with open(phn_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            start_s, end_s, phone = line.split()
            raw_segments.append((int(start_s), int(end_s), phone))
    if not raw_segments:
        raise ValueError("empty segmentation file")

    # Trim edge silence, then convert sample ranges to frame ranges.
    while raw_segments and raw_segments[0][2] == SILENCE_PHONE:
        raw_segments.pop(0)
    while raw_segments and raw_segments[-1][2] == SILENCE_PHONE:
        raw_segments.pop()
    if not raw_segments:
        raise ValueError("only silence in segmentation file")

    frame_segs = []
    for start_s, end_s, phone in raw_segments:
        f0 = _frame_for_sample(start_s)
        f1 = _frame_for_sample(end_s)
        if f1 > f0:
            frame_segs.append([phone, f0, f1])
    if not frame_segs:
        raise ValueError("no segment spans a full frame")

    lo = frame_segs[0][1]
    hi = min(frame_segs[-1][2], len(spec))
    if hi <= lo:
        raise ValueError("labelled span outside the spectrogram")

    # Crop to the labelled span and force contiguity (gaps split midway).
    frames = spec[lo:hi]
    segments = []
    prev_end = 0
    for i, (phone, f0, f1) in enumerate(frame_segs):
        f0, f1 = f0 - lo, min(f1 - lo, hi - lo)
        if f1 <= prev_end:
            continue
        f0 = max(f0, prev_end)
        if f0 > prev_end:
            mid = (prev_end + f0 + 1) // 2
            segments[-1] = PhoneSegment(segments[-1].phone,
                                        segments[-1].start_frame, mid)
            f0 = mid
        segments.append(PhoneSegment(phone, f0, f1))
        prev_end = f1
    if segments[-1].end_frame < hi - lo:
        segments[-1] = PhoneSegment(segments[-1].phone,
                                    segments[-1].start_frame, hi - lo)

    transcript = ""
    if txt_path is not None:
        with open(txt_path) as fh:
            parts = fh.read().strip().split(None, 2)
        if len(parts) == 3:
            transcript = _clean_transcript(parts[2])
    return Utterance(frames, segments, transcript, utt_id)


def _clean_transcript(text):
    keep = []
    for ch in text.lower():
        if ch.isalpha() and ch.isascii() or ch in " '":
            keep.append(ch)
    return " ".join("".join(keep).split())
