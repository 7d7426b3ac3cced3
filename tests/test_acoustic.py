import re

import numpy as np
import pytest
from conftest import DAMAGE, drop_header_key, key_id
from oracles import decode_transcript, export_timit_dir, frame_label

from ctcprobe import acoustic
from ctcprobe.acoustic import (N_BINS, PhoneSegment, SynthConfig, Utterance,
                               hamming_window, spectrogram, synthesize_corpus)


class TestHammingWindow:
    def test_single_point_convention(self):
        assert hamming_window(1).tolist() == [1.0]

    def test_three_points(self):
        np.testing.assert_allclose(hamming_window(3), [0.08, 1.0, 0.08],
                                   atol=1e-12)

    def test_symmetry(self):
        w = hamming_window(320)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            hamming_window(0)


class TestSpectrogram:
    def test_one_second_shape(self):
        assert spectrogram(np.zeros(16000)).shape == (99, 161)
        assert N_BINS == 161

    def test_length_formula(self):
        # T = floor((len - win)/hop) + 1 for assorted lengths
        for n in (320, 321, 479, 480, 481, 5000):
            assert len(spectrogram(np.zeros(n))) == (n - 320) // 160 + 1

    def test_all_zero_samples(self):
        assert np.all(spectrogram(np.zeros(1600)) == 0.0)

    def test_sinusoid_peaks_at_its_bin(self):
        # Bin k of a 320-point window sits at k * 16000/320 = 50k Hz.
        freq_bin = 40
        t = np.arange(16000) / 16000.0
        samples = np.sin(2 * np.pi * (freq_bin * 50.0) * t)
        assert np.all(np.argmax(spectrogram(samples), axis=1) == freq_bin)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            spectrogram(np.zeros(100))

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError, match="must be finite and non-neg"):
            _utterance([("p00", 0, 1)], np.array([[-1.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_magnitudes_rejected(self, value):
        with pytest.raises(ValueError, match="'u0': spectrogram magnitudes "
                                             "must be finite"):
            _utterance([("p00", 0, 1)], np.array([[value, 0.0]]))


class TestSynthesizeCorpus:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(seed=42)
        a = synthesize_corpus(cfg, 5)
        b = synthesize_corpus(SynthConfig(seed=42), 5)
        assert len(a) == len(b) == 5
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.frames, ub.frames)
            assert ua.transcript == ub.transcript
            assert ua.segments == ub.segments

    def test_zero_noise_equals_template(self):
        cfg = SynthConfig(phone_inventory_size=2, noise_stddev=0.0, seed=3)
        for utt in synthesize_corpus(cfg, 4):
            for seg in utt.segments:
                template = acoustic.phone_template(cfg, seg.phone)
                block = utt.frames[seg.start_frame:seg.end_frame]
                np.testing.assert_array_equal(
                    block, np.broadcast_to(block[0], block.shape))
                np.testing.assert_allclose(block[0], template)

    def test_phone_frequencies_roughly_uniform(self):
        cfg = SynthConfig(seed=0)
        corpus = synthesize_corpus(cfg, 100)
        counts = {p: 0 for p in cfg.phones}
        total = 0
        for utt in corpus:
            for seg in utt.segments:
                counts[seg.phone] += 1
                total += 1
        expected = total / len(cfg.phones)
        for phone, n in counts.items():
            assert abs(n - expected) <= 0.2 * total, phone

    def test_transcripts_decode_to_phone_sequence(self):
        cfg = SynthConfig(seed=9)
        for utt in synthesize_corpus(cfg, 20):
            phones = [seg.phone for seg in utt.segments]
            assert decode_transcript(utt.transcript, cfg.phone_to_chars) == phones

    def test_segments_tile_the_utterance(self):
        for utt in synthesize_corpus(SynthConfig(seed=1), 10):
            acoustic.check_segments(utt.segments, utt.n_frames)

    def test_prefix_code_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(phone_inventory_size=2,
                        phone_to_chars={"p00": "a", "p01": "ab"})

    def test_magnitudes_clamped_non_negative(self):
        cfg = SynthConfig(noise_stddev=5.0, seed=2)
        for utt in synthesize_corpus(cfg, 3):
            assert np.all(utt.frames >= 0.0)


def _utterance(segment_spec, frames=None):
    if frames is None:
        frames = np.zeros((segment_spec[-1][2], 4))
    segs = [PhoneSegment(p, a, b) for p, a, b in segment_spec]
    return Utterance(frames, segs, "", "u0")


class TestFrameLabel:
    def test_identity_mapping(self):
        utt = _utterance([("p00", 0, 3), ("p01", 3, 7)])
        got = [frame_label(utt, t) for t in range(7)]
        assert got == ["p00"] * 3 + ["p01"] * 4

    def test_single_segment_any_factor(self):
        utt = _utterance([("p05", 0, 12)])
        for factor in (1, 2, 3):
            for t in range(12 // factor):
                assert frame_label(utt, t, factor) == "p05"

    def test_factor_two_matches_brute_force(self):
        utt = _utterance([("p00", 0, 6), ("p01", 6, 12)])
        for t in range(6):
            direct = next(s.phone for s in utt.segments
                          if s.start_frame <= 2 * t < s.end_frame)
            assert frame_label(utt, t, subsample_factor=2) == direct

    def test_offset_applies_before_lookup(self):
        utt = _utterance([("p00", 0, 2), ("p01", 2, 4)])
        assert frame_label(utt, 0, 2, receptive_center_offset=2) == "p01"

    def test_out_of_range(self):
        utt = _utterance([("p00", 0, 4)])
        with pytest.raises(ValueError):
            frame_label(utt, 4)
        with pytest.raises(ValueError):
            frame_label(utt, 2, subsample_factor=3)


class TestCorpusSerialization:
    def test_round_trip(self, tmp_path):
        corpus = synthesize_corpus(SynthConfig(seed=5), 6)
        path = tmp_path / "corpus.bin"
        acoustic.save_corpus(path, corpus)
        loaded = acoustic.load_corpus(path)
        assert len(loaded) == len(corpus)
        for orig, got in zip(corpus, loaded):
            assert got.id == orig.id
            assert got.transcript == orig.transcript
            assert got.segments == orig.segments
            # The file's float32 frames, as stored: not widened.
            assert got.frames.dtype == np.float32
            np.testing.assert_array_equal(got.frames,
                                          orig.frames.astype(np.float32))

    def test_failed_save_leaves_no_partial_or_temp_file(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "corpus.bin"
        corpus = synthesize_corpus(SynthConfig(seed=5), 3)
        acoustic.save_corpus(path, corpus[:1])
        before = path.read_bytes()
        convert = np.ascontiguousarray
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # after two utterances' frames are written
                raise RuntimeError("conversion failed")
            return convert(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", failing)
        for target in (path, tmp_path / "fresh.bin"):
            calls.clear()
            with pytest.raises(RuntimeError, match="conversion failed"):
                acoustic.save_corpus(target, corpus)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("key_path", [
        ("utterances",), ("utterances", 1, "id"),
        ("utterances", 1, "transcript"), ("utterances", 1, "segments"),
        ("utterances", 1, "shape")], ids=key_id)
    def test_header_lacking_a_key_names_file_and_key(self, tmp_path,
                                                     key_path):
        path = tmp_path / "corpus.bin"
        acoustic.save_corpus(path, synthesize_corpus(SynthConfig(seed=5), 2))
        drop_header_key(path, acoustic.CORPUS_MAGIC, key_path)
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            acoustic.load_corpus(path)
        assert "malformed corpus header" in str(err.value)
        assert repr(key_path[-1]) in str(err.value)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            acoustic.load_corpus(path)

    @pytest.mark.parametrize("damage", [*DAMAGE, "cut_after_two_records"])
    def test_rejects_damaged_file(self, tmp_path, damage):
        corpus = synthesize_corpus(SynthConfig(seed=5), 10)
        path = tmp_path / "corpus.bin"
        acoustic.save_corpus(path, corpus)
        data = path.read_bytes()
        if damage == "cut_after_two_records":  # ends after utterance 2
            rest = sum(utt.frames.size for utt in corpus[2:])
            data = data[:-4 * rest]
        else:
            data = DAMAGE[damage](data)
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            acoustic.load_corpus(path)


class TestTimitImport:
    def test_empty_directory(self, tmp_path):
        utts, errors = acoustic.import_timit_dir(tmp_path)
        assert utts == [] and errors == []

    def test_sample_range_to_frames(self, tmp_path):
        # [0, 1600) at 16 kHz with hop 160 covers frame slots 0..9.
        rng = np.random.default_rng(0)
        samples = 0.1 * rng.standard_normal(3200)
        export_timit_dir(
            tmp_path, [("u0", samples,
                        [(0, 1600, "aa"), (1600, 3200, "iy")], "hi")])
        utts, errors = acoustic.import_timit_dir(tmp_path)
        assert errors == []
        (utt,) = utts
        assert utt.segments[0] == PhoneSegment("aa", 0, 10)
        assert utt.segments[0].end_frame - utt.segments[0].start_frame == 10

    def test_round_trip_against_direct_spectrogram(self, tmp_path):
        rng = np.random.default_rng(7)
        samples = 0.2 * rng.standard_normal(16000)
        segs = [(0, 8000, "aa"), (8000, 16000, "iy")]
        export_timit_dir(tmp_path, [("u1", samples, segs, "a b")])
        utts, errors = acoustic.import_timit_dir(tmp_path)
        assert errors == []
        (utt,) = utts
        # Compare against the spectrogram of the quantized waveform.
        pcm = np.clip(samples * 32768.0, -32768, 32767).astype("<i2")
        direct = spectrogram(pcm.astype(np.float64) / 32768.0)
        n = utt.n_frames
        np.testing.assert_allclose(utt.frames, direct[:n], atol=1e-12)
        assert utt.segments[0].phone == "aa"
        assert utt.segments[0].start_frame == 0
        assert utt.segments[0].end_frame == 50
        assert utt.segments[1].phone == "iy"
        assert utt.segments[1].end_frame == n
        assert utt.transcript == "a b"

    def test_edge_silence_trimmed(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = 0.1 * rng.standard_normal(9600)
        segs = [(0, 3200, "h#"), (3200, 6400, "aa"), (6400, 9600, "h#")]
        export_timit_dir(tmp_path, [("u2", samples, segs, "")])
        utts, errors = acoustic.import_timit_dir(tmp_path)
        assert errors == []
        (utt,) = utts
        assert [s.phone for s in utt.segments] == ["aa"]

    def test_missing_phn_reported_not_fatal(self, tmp_path):
        rng = np.random.default_rng(2)
        export_timit_dir(
            tmp_path, [("ok", 0.1 * rng.standard_normal(3200),
                        [(0, 3200, "aa")], "")])
        (tmp_path / "broken.wav").write_bytes(b"not audio")
        utts, errors = acoustic.import_timit_dir(tmp_path)
        assert len(utts) == 1 and utts[0].id == "ok"
        assert len(errors) == 1 and "broken" in errors[0][0]

    def test_speaker_dirs_sharing_a_basename_get_distinct_ids(self, tmp_path):
        rng = np.random.default_rng(3)
        for speaker in ("dr1/fcjf0", "dr1/mdab0"):
            export_timit_dir(
                tmp_path / speaker, [("sa1", 0.1 * rng.standard_normal(3200),
                                      [(0, 3200, "aa")], "")])
        utts, errors = acoustic.import_timit_dir(tmp_path)
        assert errors == []
        assert [u.id for u in utts] == ["dr1/fcjf0/sa1", "dr1/mdab0/sa1"]
