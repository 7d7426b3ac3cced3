import re

import numpy as np
import pytest

from ctcprobe import phoneset, probing
from ctcprobe.acoustic import (SynthConfig, Utterance, frame_label,
                               synthesize_corpus)
from ctcprobe.model import LayerSpec, ModelConfig, TrainedModel, preset
from ctcprobe.probing import (FrameDataset, ProbeReport, TrainedProbe,
                              breakdown_by_ctc_symbol, confusion_matrix,
                              evaluate_probe, extract_frames, inter_intra_f1)


@pytest.fixture(scope="module")
def corpus():
    cfg = SynthConfig(phone_inventory_size=5, phones_per_utterance=(3, 4),
                      segment_frames=(8, 10), seed=11)
    return cfg, synthesize_corpus(cfg, 6)


@pytest.fixture(scope="module")
def mini_model():
    return TrainedModel(preset("ds2-light-mini", seed=1))


class TestExtractFrames:
    def test_layer_zero_is_raw_spectrogram(self, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        ds = extract_frames(mini_model, utts, 0, inventory=inv)
        assert ds.dim == 161
        stacked = np.concatenate([u.spectrogram.frames for u in utts])
        np.testing.assert_array_equal(ds.vectors, stacked)
        # labels match direct segment lookup
        i = 0
        for utt in utts:
            for t in range(utt.n_frames):
                phone = next(s.phone for s in utt.segments
                             if s.start_frame <= t < s.end_frame)
                assert ds.label_names[ds.labels[i]] == phone
                i += 1

    def test_window_center_block_equals_plain_tap(self, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        plain = extract_frames(mini_model, utts, 1, window=0, inventory=inv)
        wide = extract_frames(mini_model, utts, 1, window=2, inventory=inv)
        d = plain.dim
        assert wide.dim == 5 * d
        np.testing.assert_array_equal(wide.vectors[:, 2 * d:3 * d],
                                      plain.vectors)
        np.testing.assert_array_equal(wide.labels, plain.labels)

    def test_strided_sizes_halve_per_conv(self, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        mcfg = mini_model.config
        n0 = sum(u.n_frames for u in utts)
        for k in (1, 2):
            ds = extract_frames(mini_model, utts, k, inventory=inv)
            expected = sum(mcfg.time_len_after(k, u.n_frames) for u in utts)
            assert ds.n_frames == expected
            # ceil-halving per strided conv, up to per-utterance rounding
            assert abs(ds.n_frames - n0 / 2 ** k) <= len(utts)

    def test_stride_free_keeps_all_frames(self, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        ds = extract_frames(mini_model, utts, 3, strides_enabled=False,
                            inventory=inv)
        assert ds.n_frames == sum(u.n_frames for u in utts)

    def test_threaded_extraction_matches_serial(self, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        serial = extract_frames(mini_model, utts, 2, inventory=inv)
        threaded = extract_frames(mini_model, utts, 2, inventory=inv,
                                  threads=4)
        np.testing.assert_array_equal(serial.vectors, threaded.vectors)
        np.testing.assert_array_equal(serial.labels, threaded.labels)
        assert serial.spans == threaded.spans

    def test_scheme_reduces_labels(self, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        ds = extract_frames(mini_model, utts, 0, scheme="sound_class",
                            inventory=inv)
        assert set(ds.label_names) <= set(phoneset.SOUND_CLASSES)

    def test_layer_out_of_range(self, corpus, mini_model):
        cfg, utts = corpus
        with pytest.raises(ValueError):
            extract_frames(mini_model, utts, 99)

    def test_labels_match_frame_label_reference(self, corpus):
        # Convs padded beyond their half-kernel put the receptive-field
        # center of the first and last frames outside the utterance, so
        # the labels there come from the clamped index.
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        model = TrainedModel(ModelConfig(
            layers=[
                LayerSpec("conv2d", kernel=(3, 5), stride=(2, 2),
                          padding=(2, 0), out_channels=2),
                LayerSpec("conv2d", kernel=(3, 5), stride=(2, 1),
                          padding=(2, 0), out_channels=2),
                LayerSpec("rnn_bidir", hidden_size=4),
                LayerSpec("fully_connected", hidden_size=29,
                          batchnorm=False),
            ], seed=0))
        clamped = 0
        for layer in range(4):
            for strides in (True, False):
                factor = model.config.subsample_factor(layer, strides)
                offset = model.config.receptive_center_offset(layer, strides)
                for window in (0, 2):
                    for scheme in ("full", "sound_class"):
                        ds = extract_frames(model, utts, layer,
                                            strides_enabled=strides,
                                            window=window, scheme=scheme,
                                            inventory=inv)
                        expected = []
                        for utt, (_id, n_rows) in zip(utts, ds.spans):
                            for t in range(n_rows):
                                idx = t * factor + offset
                                clamped += not 0 <= idx < utt.n_frames
                                idx = min(max(idx, 0), utt.n_frames - 1)
                                expected.append(inv.reduce(
                                    frame_label(utt, idx), scheme))
                        got = [ds.label_names[i] for i in ds.labels]
                        assert got == expected, (layer, strides, window,
                                                 scheme)
        assert clamped > 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_shared_store_matches_fresh_extraction(self, corpus, mini_model,
                                                   threads):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        forwards = {}
        for strides in (True, False):
            for layer in (0, 2, 3):
                for window in (0, 2):
                    kw = dict(strides_enabled=strides, window=window,
                              scheme="sound_class", inventory=inv,
                              threads=threads)
                    shared = extract_frames(mini_model, utts, layer,
                                            forwards=forwards, **kw)
                    fresh = extract_frames(mini_model, utts, layer, **kw)
                    np.testing.assert_array_equal(shared.vectors,
                                                  fresh.vectors)
                    np.testing.assert_array_equal(shared.labels, fresh.labels)
                    assert shared.spans == fresh.spans
                    assert shared.provenance == fresh.provenance
        assert sorted(forwards) == sorted((u.id, s) for u in utts
                                          for s in (True, False))

    def test_duplicate_ids_rejected(self, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        twin = Utterance(utts[1].spectrogram, utts[1].segments,
                         utts[1].transcript, utts[0].id)
        with pytest.raises(ValueError, match=utts[0].id):
            extract_frames(mini_model, [utts[0], twin], 2, inventory=inv)
        ds = extract_frames(mini_model, utts[:1], 2, inventory=inv)
        probe = TrainedProbe.init(ds.dim, ds.label_names, hidden=None)
        with pytest.raises(ValueError, match=utts[0].id):
            breakdown_by_ctc_symbol(probe, ds, mini_model, [utts[0], twin])


class TestTrainedProbe:
    def test_linear_probe_when_hidden_none(self):
        probe = TrainedProbe.init(4, ["a", "b"], hidden=None)
        assert set(probe.params) == {"W", "b"}
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert probe.logits(x).shape == (5, 2)

    def test_loss_and_grads_finite_differences(self):
        rng = np.random.default_rng(1)
        probe = TrainedProbe.init(5, ["a", "b", "c"], hidden=7, dropout=0.0,
                                  seed=2)
        x = rng.normal(size=(6, 5))
        y = np.array([0, 1, 2, 1, 0, 2])
        _, grads = probe.loss_and_grads(x, y, rng)
        h = 1e-6
        for name, p in probe.params.items():
            flat = p.reshape(-1)
            g = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = probe.loss_and_grads(x, y, rng)[0]
                flat[i] = orig - h
                fm = probe.loss_and_grads(x, y, rng)[0]
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                assert abs(fd - g[i]) < 1e-6 * max(1.0, abs(fd)), name

    def test_dropout_changes_training_loss_only(self):
        rng = np.random.default_rng(3)
        probe = TrainedProbe.init(4, ["a", "b"], hidden=8, dropout=0.5, seed=0)
        x = rng.normal(size=(10, 4))
        y = np.array([0, 1] * 5)
        l1 = probe.loss_and_grads(x, y, np.random.default_rng(1))[0]
        l2 = probe.loss_and_grads(x, y, np.random.default_rng(2))[0]
        assert l1 != l2
        assert (probe.evaluate_loss(x, y) == probe.evaluate_loss(x, y))


class TestEvaluateProbe:
    def test_constant_predictor_matches_majority_baseline(self):
        rng = np.random.default_rng(4)
        labels = np.array([0, 0, 0, 1, 2])
        ds = FrameDataset(rng.normal(size=(5, 3)), labels, ["a", "b", "c"])
        probe = TrainedProbe.init(3, ds.label_names, hidden=None)
        probe.params["W"][:] = 0.0
        probe.params["b"][:] = [1.0, 0.0, 0.0]  # always predict "a"
        report = evaluate_probe(probe, ds)
        _, baseline = phoneset.majority_baseline(ds)
        assert report.accuracy == baseline == 0.6

    def test_hand_built_confusion(self):
        # predictions [a, b, b, b] against labels [a, a, b, b]
        ds = FrameDataset(np.array([[5.0], [-1.0], [-3.0], [-4.0]]),
                          np.array([0, 0, 1, 1]), ["a", "b"])
        probe = TrainedProbe.init(1, ds.label_names, hidden=None)
        probe.params["W"][:] = np.array([[1.0], [-1.0]])
        probe.params["b"][:] = 0.0
        report = evaluate_probe(probe, ds)
        np.testing.assert_array_equal(report.confusion, [[1, 1], [0, 2]])
        assert report.accuracy == pytest.approx(0.75)
        assert report.precision["b"] == pytest.approx(2.0 / 3.0)
        assert report.recall["a"] == pytest.approx(0.5)

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(5)
        ds = FrameDataset(rng.normal(size=(40, 4)),
                          rng.integers(0, 3, size=40), ["a", "b", "c"])
        probe = TrainedProbe.init(4, ds.label_names, hidden=6, seed=1)
        report = evaluate_probe(probe, ds)
        assert report.accuracy == np.trace(report.confusion) / 40
        assert report.confusion.sum() == 40

    def test_report_round_trips_through_dict(self):
        rng = np.random.default_rng(6)
        ds = FrameDataset(rng.normal(size=(10, 3)),
                          rng.integers(0, 2, size=10), ["a", "b"])
        probe = TrainedProbe.init(3, ds.label_names, hidden=4, seed=0)
        report = evaluate_probe(probe, ds)
        again = ProbeReport.from_dict(report.to_dict())
        assert again.accuracy == report.accuracy
        np.testing.assert_array_equal(again.confusion, report.confusion)

    def test_dimension_mismatch(self):
        ds = FrameDataset(np.zeros((2, 3)), np.zeros(2, dtype=int), ["a"])
        probe = TrainedProbe.init(4, ["a"], hidden=None)
        with pytest.raises(ValueError):
            evaluate_probe(probe, ds)


def all_blank_model():
    cfg = ModelConfig(
        layers=[
            LayerSpec("conv2d", kernel=(3, 5), stride=(2, 2), padding=(1, 0),
                      out_channels=2, batchnorm=True, activation="relu"),
            LayerSpec("rnn_bidir", hidden_size=8),
            LayerSpec("fully_connected", hidden_size=29, batchnorm=False),
        ],
        input_freq_bins=161, seed=0)
    model = TrainedModel(cfg)
    model.layers[-1].params["W"][:] = 0.0  # uniform softmax, argmax -> blank
    model.layers[-1].params["b"][:] = 0.0
    return model


class TestBreakdown:
    def make_dataset(self, model, utts, cfg, layer=2):
        inv = phoneset.synthetic_inventory(cfg.phones)
        return extract_frames(model, utts, layer, inventory=inv), inv

    def test_all_blank_model_single_category(self, corpus):
        cfg, utts = corpus
        model = all_blank_model()
        ds, _ = self.make_dataset(model, utts, cfg)
        probe = TrainedProbe.init(ds.dim, ds.label_names, hidden=None, seed=0)
        bd = breakdown_by_ctc_symbol(probe, ds, model, utts)
        assert bd.per_category["blank"]["share"] == 1.0
        assert bd.per_category["space"]["n_frames"] == 0
        assert bd.per_category["letter"]["n_frames"] == 0

    def test_shares_sum_to_one_and_recombine(self, corpus, mini_model):
        cfg, utts = corpus
        ds, _ = self.make_dataset(mini_model, utts, cfg)
        probe = TrainedProbe.init(ds.dim, ds.label_names, hidden=6, seed=3)
        bd = breakdown_by_ctc_symbol(probe, ds, mini_model, utts)
        shares = [v["share"] for v in bd.per_category.values()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)
        recombined = sum(v["share"] * v["accuracy"]
                         for v in bd.per_category.values())
        assert recombined == pytest.approx(bd.overall_accuracy, abs=1e-9)

    def test_resolution_mismatch_rejected(self, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        ds = extract_frames(mini_model, utts, 0, inventory=inv)
        probe = TrainedProbe.init(ds.dim, ds.label_names, hidden=None)
        with pytest.raises(ValueError):
            breakdown_by_ctc_symbol(probe, ds, mini_model, utts)


def report_from_confusion(cm, names):
    cm = np.asarray(cm, dtype=np.int64)
    precision, recall, f1 = probing._prf(cm, names)
    return ProbeReport(float(np.trace(cm)) / cm.sum(), precision, recall, f1,
                       cm, list(names), int(cm.sum()))


def coarse_from_fine(cm, fine_names, class_map, class_names):
    coarse = np.zeros((len(class_names), len(class_names)), dtype=np.int64)
    idx = {c: i for i, c in enumerate(class_names)}
    for i, ni in enumerate(fine_names):
        for j, nj in enumerate(fine_names):
            coarse[idx[class_map[ni]], idx[class_map[nj]]] += cm[i][j]
    return report_from_confusion(coarse, class_names)


class TestInterIntraF1:
    CLASS_MAP = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
    FINE_NAMES = ["a1", "a2", "b1", "b2"]

    def test_perfect_classifier_all_ones(self):
        cm = np.diag([5, 6, 7, 8])
        fine = report_from_confusion(cm, self.FINE_NAMES)
        coarse = coarse_from_fine(cm, self.FINE_NAMES, self.CLASS_MAP,
                                  ["A", "B"])
        out = inter_intra_f1(fine, coarse, self.CLASS_MAP)
        for cls in ("A", "B"):
            assert out[cls]["inter_f1"] == 1.0
            assert out[cls]["intra_f1"] == 1.0

    def test_within_class_permutation(self):
        # Classes always right; a1 and a2 swapped with each other.
        cm = [[0, 5, 0, 0],
              [5, 0, 0, 0],
              [0, 0, 7, 0],
              [0, 0, 0, 8]]
        fine = report_from_confusion(cm, self.FINE_NAMES)
        coarse = coarse_from_fine(cm, self.FINE_NAMES, self.CLASS_MAP,
                                  ["A", "B"])
        out = inter_intra_f1(fine, coarse, self.CLASS_MAP)
        assert out["A"]["inter_f1"] == 1.0
        assert out["A"]["intra_f1"] == 0.0
        assert out["B"]["intra_f1"] == 1.0

    def test_two_class_two_phone_hand_case(self):
        cm = [[5, 3, 2, 0],
              [1, 7, 0, 2],
              [0, 0, 8, 2],
              [0, 0, 4, 6]]
        fine = report_from_confusion(cm, self.FINE_NAMES)
        coarse = coarse_from_fine(cm, self.FINE_NAMES, self.CLASS_MAP,
                                  ["A", "B"])
        out = inter_intra_f1(fine, coarse, self.CLASS_MAP)
        # Coarse: A->A 16, A->B 4, B->A 0, B->B 20.
        assert out["A"]["inter_f1"] == pytest.approx(2 * 0.8 / 1.8)
        assert out["B"]["inter_f1"] == pytest.approx(40.0 / 44.0)
        # Intra: class-restricted submatrix accuracies.
        assert out["A"]["intra_f1"] == pytest.approx(12.0 / 16.0)
        assert out["B"]["intra_f1"] == pytest.approx(14.0 / 20.0)

    def test_single_phone_class_intra_is_one(self):
        class_map = {"a1": "A", "b1": "B", "b2": "B"}
        cm = [[3, 1, 0], [0, 4, 1], [0, 2, 2]]
        fine = report_from_confusion(cm, ["a1", "b1", "b2"])
        coarse = coarse_from_fine(cm, ["a1", "b1", "b2"], class_map,
                                  ["A", "B"])
        out = inter_intra_f1(fine, coarse, class_map)
        assert out["A"]["intra_f1"] == 1.0

    def test_unmapped_label_rejected(self):
        cm = np.diag([1, 1])
        fine = report_from_confusion(cm, ["a1", "zz"])
        coarse = report_from_confusion(np.diag([2]), ["A"])
        with pytest.raises(ValueError):
            inter_intra_f1(fine, coarse, {"a1": "A"})

    def test_f1_delta(self):
        high = {"A": {"inter_f1": 0.9, "intra_f1": 0.8}}
        low = {"A": {"inter_f1": 0.5, "intra_f1": 0.9}}
        delta = probing.f1_delta(high, low)
        assert delta["A"]["inter_f1"] == pytest.approx(0.4)
        assert delta["A"]["intra_f1"] == pytest.approx(-0.1)


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 0]), 3)
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [1, 0, 0]])


# A cut inside the payload or the header, and junk appended to the payload.
DAMAGE = {
    "short_payload": lambda data: data[:-100],
    "short_header": lambda data: data[:40],
    "trailing_bytes": lambda data: data + b"junk",
}


class TestDatasetSerialization:
    def test_round_trip(self, tmp_path, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        ds = extract_frames(mini_model, utts, 1, window=1, inventory=inv)
        path = tmp_path / "frames.fds"
        probing.save_dataset(path, ds)
        loaded = probing.load_dataset(path)
        np.testing.assert_array_equal(
            loaded.vectors, ds.vectors.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.label_names == ds.label_names
        assert loaded.provenance == ds.provenance
        assert loaded.spans == ds.spans

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.fds"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            probing.load_dataset(path)

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_rejects_damaged_file(self, tmp_path, corpus, mini_model, damage):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        path = tmp_path / "frames.fds"
        probing.save_dataset(path, extract_frames(mini_model, utts, 1,
                                                  inventory=inv))
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            probing.load_dataset(path)
