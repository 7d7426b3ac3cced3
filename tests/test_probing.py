import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from conftest import DAMAGE, drop_header_key
from oracles import frame_label, greedy_decode, load_dataset, predict

from ctcprobe import phoneset, probing
from ctcprobe.artifacts import artifact_header, read_artifact
from ctcprobe.acoustic import (PhoneSegment, SynthConfig, Utterance,
                               load_corpus, save_corpus, synthesize_corpus)
from ctcprobe.model import LayerSpec, ModelConfig, TrainedModel, preset
from ctcprobe.probing import (FrameDataset, TrainedProbe,
                              breakdown_by_ctc_symbol, confusion_matrix,
                              evaluate_probe, extract_frames, inter_intra_f1)
from ctcprobe.trainer import ProbeConfig, train_probe

# Largest float32-vs-float64 difference of a probe's loss and gradients,
# relative to the largest entry (float32's unit roundoff is 6e-8; over 150
# random probes of width 10-600 the worst seen was 1.3e-6).
FLOAT32_AGREEMENT = 1e-5


@pytest.fixture(scope="module")
def corpus():
    cfg = SynthConfig(phone_inventory_size=5, phones_per_utterance=(3, 4),
                      segment_frames=(8, 10), seed=11)
    return cfg, synthesize_corpus(cfg, 6)


@pytest.fixture(scope="module")
def mini_model():
    return TrainedModel(preset("ds2-light-mini", seed=1))


def extract(tmp_path, model, utts, layer, strides_enabled=True, window=0,
            scheme="full", inventory=None, threads=1):
    """One tap's (window, scheme) view: the tap file written by
    extract_frames, read back through `load_dataset`."""
    path = tmp_path / f"tap{len(list(tmp_path.iterdir()))}.fds"
    extract_frames(model, utts, [(layer, path)], strides_enabled, threads)
    return load_dataset(path, window, scheme, inventory)


def greedy_categories(model, utts, strides_enabled=True):
    """Oracle for `Extraction.categories`: the initial of each frame's
    greedy CTC category, from a fresh eval forward per utterance."""
    return {utt.id: "".join(cat[0] for cat in greedy_decode(
                model.forward([utt.frames],
                              strides_enabled=strides_enabled)[0].log_probs,
                model.config.alphabet).categories)
            for utt in utts}


def rounded(x):
    """What a frame-dataset file keeps of float64 rows."""
    return np.asarray(x).astype(np.float32).astype(np.float64)


@pytest.fixture(scope="module")
def timit_splits(tmp_path_factory, corpus):
    """`corpus` relabelled with TIMIT phones (reduced48 folds ax-h into ax)
    and split into train and dev corpus files, as `load_corpus` reads them
    back: float32 frames."""
    cfg, utts = corpus
    rename = dict(zip(cfg.phones, ["ax", "ax-h", "bcl", "s", "z"]))
    tmp = tmp_path_factory.mktemp("timit")
    splits = {}
    for split, group in (("train", utts[:4]), ("dev", utts[4:])):
        path = tmp / f"corpus_{split}.bin"
        save_corpus(path, [Utterance(
            u.frames, [PhoneSegment(rename[s.phone], s.start_frame,
                                    s.end_frame) for s in u.segments],
            u.transcript, u.id) for u in group])
        splits[split] = load_corpus(path)
    return splits


@pytest.fixture(scope="module")
def loaded_model(tmp_path_factory, mini_model):
    """`mini_model` as its checkpoint loads it: float32."""
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    mini_model.save(path)
    return TrainedModel.load(path)


class TestCorpusViews:
    VIEWS = [(window, scheme) for window in (0, 2)
             for scheme in ("full", "sound_class", "reduced48")]

    @pytest.mark.parametrize("strides", [True, False])
    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_views_are_those_of_the_layer_zero_file(
            self, tmp_path, timit_splits, loaded_model, split, strides):
        utts = timit_splits[split]
        inv = phoneset.timit_inventory()
        path = tmp_path / "layer0.fds"
        extract_frames(loaded_model, utts, [(0, path)], strides)
        want = list(probing.load_views(path, self.VIEWS, inv))
        got = list(probing.corpus_views(utts, strides, self.VIEWS, inv))
        for a, b in zip(got, want, strict=True):
            assert a.vectors.dtype == b.vectors.dtype == np.float32
            np.testing.assert_array_equal(a.vectors, b.vectors)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert (a.label_names, a.spans, a.provenance, a.digest) == (
                b.label_names, b.spans, b.provenance, b.digest)
        # Three schemes with three label sets, each at two windows.
        assert len({view.digest for view in got}) == 6
        assert got[0].label_names != got[2].label_names

    def test_digest_hashes_the_tap_payload(self, tmp_path, timit_splits,
                                           loaded_model):
        # The bytes a layer-0 file's payload holds, its spans, then the
        # view's window, label names and labels.
        utts = timit_splits["dev"]
        path = tmp_path / "layer0.fds"
        extract_frames(loaded_model, utts, [(0, path)], True)
        _header, payload = read_artifact(
            path, probing.DATASET_MAGIC, probing.DATASET_VERSION,
            "frame dataset", lambda h: 4 * h["n"] * (h["d"] + 1),
            lambda h, p: (h, bytes(p)))
        view, = probing.corpus_views(utts, True, [(2, "full")])
        want = hashlib.sha256(payload)
        for part in (view.spans, [2, view.label_names]):
            want.update(json.dumps(part).encode())
        want.update(view.labels)
        assert view.digest == want.hexdigest()

    def test_float64_frames_are_the_rounded_tap(self, tmp_path, corpus,
                                                mini_model):
        # A float64 model's file holds its input rounded to float32, and so
        # do the views of float64 frames.
        _cfg, utts = corpus
        path = tmp_path / "layer0.fds"
        extract_frames(mini_model, utts, [(0, path)], True)
        want = load_dataset(path, 1)
        got, = probing.corpus_views(utts, True, [(1, "full")])
        np.testing.assert_array_equal(got.vectors, want.vectors)
        assert got.vectors.dtype == np.float32
        assert got.digest == want.digest

    def test_duplicate_ids_rejected(self, corpus):
        _cfg, utts = corpus
        twin = Utterance(utts[1].frames, utts[1].segments,
                         utts[1].transcript, utts[0].id)
        with pytest.raises(ValueError, match=utts[0].id):
            probing.corpus_views([utts[0], twin], True, [(0, "full")])

    def test_layer_zero_views_are_the_same_at_either_strides_setting(
            self, timit_splits):
        # The input does not depend on strides, so the probe stage shares
        # one fit between the two settings' layer-0 views.
        inv = phoneset.timit_inventory()
        on, off = [list(probing.corpus_views(timit_splits["train"], strides,
                                             self.VIEWS, inv))
                   for strides in (True, False)]
        for a, b in zip(on, off, strict=True):
            np.testing.assert_array_equal(a.vectors, b.vectors)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert (a.label_names, a.spans, a.digest) == (
                b.label_names, b.spans, b.digest)
            assert b.provenance["strides_enabled"] is False
            assert a.provenance == {**b.provenance, "strides_enabled": True}


class TestExtractFrames:
    def test_layer_zero_is_raw_spectrogram(self, tmp_path, corpus,
                                           mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        ds = extract(tmp_path, mini_model, utts, 0, inventory=inv)
        assert ds.vectors.shape[1] == 161
        stacked = np.concatenate([u.frames for u in utts])
        np.testing.assert_array_equal(ds.vectors, rounded(stacked))
        # labels match direct segment lookup
        i = 0
        for utt in utts:
            for t in range(utt.n_frames):
                phone = next(s.phone for s in utt.segments
                             if s.start_frame <= t < s.end_frame)
                assert ds.label_names[ds.labels[i]] == phone
                i += 1

    def test_window_center_block_equals_plain_tap(self, tmp_path, corpus,
                                                  mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        plain = extract(tmp_path, mini_model, utts, 1, window=0,
                        inventory=inv)
        wide = extract(tmp_path, mini_model, utts, 1, window=2,
                       inventory=inv)
        d = plain.vectors.shape[1]
        assert wide.vectors.shape[1] == 5 * d
        np.testing.assert_array_equal(wide.vectors[:, 2 * d:3 * d],
                                      plain.vectors)
        np.testing.assert_array_equal(wide.labels, plain.labels)

    def test_strided_sizes_halve_per_conv(self, tmp_path, corpus,
                                          mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        mcfg = mini_model.config
        n0 = sum(u.n_frames for u in utts)
        for k in (1, 2):
            ds = extract(tmp_path, mini_model, utts, k, inventory=inv)
            expected = sum(mcfg.time_len_after(k, u.n_frames) for u in utts)
            assert ds.n_frames == expected
            # ceil-halving per strided conv, up to per-utterance rounding
            assert abs(ds.n_frames - n0 / 2 ** k) <= len(utts)

    def test_stride_free_keeps_all_frames(self, tmp_path, corpus,
                                          mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        ds = extract(tmp_path, mini_model, utts, 3, strides_enabled=False,
                     inventory=inv)
        assert ds.n_frames == sum(u.n_frames for u in utts)

    @pytest.mark.parametrize("strides", [True, False])
    def test_view_is_windowed_tap_with_scheme_labels(self, tmp_path, corpus,
                                                     mini_model, strides):
        # Each (window, scheme) view of a tap file equals `_windowed` of its
        # window-0 rows, utterance by utterance, with the phones reduced.
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        for split, group in (("train", utts[:4]), ("dev", utts[4:])):
            taps = [(layer, tmp_path / f"layer{layer}_{strides}.{split}.fds")
                    for layer in (0, 2)]
            extract_frames(mini_model, group, taps, strides)
            for layer, path in taps:
                base = load_dataset(path)
                forwards = [mini_model.forward(
                    [u.frames], strides_enabled=strides)[0].taps[layer]
                    for u in group]
                np.testing.assert_array_equal(
                    base.vectors, rounded(np.concatenate(forwards)))
                rows = np.split(base.vectors,
                                np.cumsum([n for _id, n in base.spans])[:-1])
                phones = [base.label_names[i] for i in base.labels]
                for window in (0, 1, 2):
                    for scheme in phoneset.SCHEMES:
                        view = load_dataset(path, window, scheme, inv)
                        np.testing.assert_array_equal(
                            view.vectors, np.concatenate(
                                [probing._windowed(r, window) for r in rows]))
                        assert view.label_names == \
                            inv.labels_for_scheme(scheme)
                        assert [view.label_names[i] for i in view.labels] == \
                            [inv.reduce(p, scheme) for p in phones]
                        assert view.spans == base.spans
                        assert view.provenance == dict(
                            base.provenance, window=window, scheme=scheme)

    def test_threaded_extraction_matches_serial(self, tmp_path, corpus,
                                                mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        serial = extract(tmp_path, mini_model, utts, 2, inventory=inv)
        threaded = extract(tmp_path, mini_model, utts, 2, inventory=inv,
                           threads=4)
        np.testing.assert_array_equal(serial.vectors, threaded.vectors)
        np.testing.assert_array_equal(serial.labels, threaded.labels)
        assert serial.spans == threaded.spans

    def test_scheme_reduces_labels(self, tmp_path, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        ds = extract(tmp_path, mini_model, utts, 0, scheme="sound_class",
                     inventory=inv)
        assert set(ds.label_names) <= set(phoneset.SOUND_CLASSES)

    def test_layer_out_of_range(self, tmp_path, corpus, mini_model):
        cfg, utts = corpus
        with pytest.raises(ValueError):
            extract(tmp_path, mini_model, utts, 99)
        assert list(tmp_path.iterdir()) == []

    def test_labels_match_frame_label_reference(self, tmp_path, corpus):
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
                path = tmp_path / f"layer{layer}_{strides}.fds"
                extract_frames(model, utts, [(layer, path)], strides)
                for window in (0, 2):
                    for scheme in ("full", "sound_class"):
                        ds = load_dataset(path, window, scheme, inv)
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
    def test_multi_cut_pass_matches_one_cut_per_call(self, tmp_path, corpus,
                                                     mini_model, threads):
        # A pass over several taps writes each file as a pass over it alone.
        cfg, utts = corpus
        for strides in (True, False):
            taps = [(layer, tmp_path / f"pass_{strides}_{layer}.fds")
                    for layer in (0, 2, 3)]
            written = extract_frames(mini_model, utts, taps, strides, threads)
            rows = 0
            for layer, path in taps:
                one = tmp_path / "one.fds"
                extract_frames(mini_model, utts, [(layer, one)], strides,
                               threads)
                assert path.read_bytes() == one.read_bytes(), path.name
                rows += load_dataset(path).n_frames
            assert written.n_frames == rows

    @pytest.mark.parametrize("name, loaded", [
        pytest.param(name, loaded, id=name + ("-loaded" if loaded else ""))
        for name in ("ds2-mini", "ds2-light-mini")
        for loaded in (False, True)])
    def test_files_and_categories_match_at_any_batch_size_and_threads(
            self, tmp_path, corpus, name, loaded):
        # Ragged utterances, so a minibatch of two or more pads; the model
        # as built (float64) or loaded from its checkpoint (float32).
        cfg, utts = corpus
        assert len({utt.n_frames for utt in utts}) > 1
        model = TrainedModel(preset(name, seed=2))
        if loaded:
            model.save(tmp_path / "m.ckpt")
            model = TrainedModel.load(tmp_path / "m.ckpt")
        layers = range(model.config.n_layers + 1)
        for strides in (True, False):
            written = {}
            for batch_size in (1, 2, len(utts) + 1):
                for threads in (1, 2):
                    taps = [(layer, tmp_path / f"{batch_size}_{threads}_"
                                               f"{layer}.fds")
                            for layer in layers]
                    categories = extract_frames(
                        model, utts, taps, strides, threads,
                        batch_size).categories
                    written[batch_size, threads] = (
                        [path.read_bytes() for _layer, path in taps],
                        categories)
            files, categories = written[1, 1]
            for key, (got_files, got_categories) in written.items():
                assert got_files == files, (strides, key)
                assert got_categories == categories, (strides, key)

    def test_duplicate_ids_rejected(self, tmp_path, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        twin = Utterance(utts[1].frames, utts[1].segments,
                         utts[1].transcript, utts[0].id)
        with pytest.raises(ValueError, match=utts[0].id):
            extract(tmp_path, mini_model, [utts[0], twin], 2, inventory=inv)

    @pytest.mark.parametrize("strides", [True, False])
    def test_categories_match_greedy_decode_at_any_thread_count(
            self, tmp_path, corpus, mini_model, strides):
        cfg, utts = corpus
        expected = greedy_categories(mini_model, utts, strides)
        for threads in (1, 2):
            got = extract_frames(mini_model, utts, [(2, tmp_path / "c.fds")],
                                 strides, threads).categories
            assert got == expected, threads
        n_softmax = mini_model.config.n_layers
        assert [len(expected[u.id]) for u in utts] == [
            mini_model.config.time_len_after(n_softmax, u.n_frames, strides)
            for u in utts]
        assert set("".join(expected.values())) <= set("bsl")

    def test_row_count_checked_against_header(self, tmp_path, corpus,
                                              mini_model, monkeypatch):
        cfg, utts = corpus
        # Headers that expect every input frame at a strided layer.
        monkeypatch.setattr(ModelConfig, "time_len_after",
                            lambda self, k, in_len, strides=True: in_len)
        taps = [(0, tmp_path / "layer0.fds"), (2, tmp_path / "layer2.fds")]
        with pytest.raises(ValueError, match="layer-2 rows"):
            extract_frames(mini_model, utts, taps, True)
        assert list(tmp_path.iterdir()) == []

    def test_peak_memory_does_not_grow_with_corpus(self, tmp_path, corpus,
                                                   mini_model):
        # Rows stream to disk, so only one minibatch's forwards are held,
        # whatever the corpus size; twins keep the utterance lengths.
        cfg, utts = corpus
        doubled = utts + [Utterance(u.frames, u.segments, u.transcript,
                                    u.id + "-twin") for u in utts]
        peaks = []
        for n, group in enumerate((utts, doubled)):
            taps = [(layer, tmp_path / f"{n}_{layer}")
                    for layer in range(mini_model.config.n_layers + 1)]
            tracemalloc.start()
            try:
                extract_frames(mini_model, group, taps, True, batch_size=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks


class TestTrainedProbe:
    def test_linear_probe_when_hidden_none(self):
        probe = TrainedProbe.init(4, ["a", "b"], hidden=None)
        assert set(probe.params) == {"L1.W", "L1.b"}
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert probe.logits(x).shape == (5, 2)

    @pytest.mark.parametrize("hidden", [None, 7])
    def test_eval_pass_writes_no_attribute(self, hidden):
        rng = np.random.default_rng(2)
        probe = TrainedProbe.init(5, ["a", "b", "c"], hidden=hidden, seed=1)
        x = rng.normal(size=(6, 5))
        y = np.array([0, 1, 2, 1, 0, 2])
        probe.loss_and_grads(x, y, rng)  # leaves a train-mode cache
        objects = [probe, *probe.layers]
        before = [dict(vars(obj)) for obj in objects]
        params = {k: v.copy() for k, v in probe.params.items()}
        x_dev = rng.normal(size=(4, 5))
        probe.logits(x_dev)
        predict(probe, x_dev)
        probe.evaluate_loss(x_dev, y[:4])
        for obj, attrs in zip(objects, before):
            assert vars(obj).keys() == attrs.keys()
            for name, value in vars(obj).items():
                assert value is attrs[name], name
        for k, v in params.items():
            np.testing.assert_array_equal(probe.params[k], v, err_msg=k)

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

    @pytest.mark.parametrize("given, kept", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float64), (np.int64, np.float64)])
    def test_frame_dataset_widens_all_but_float32_and_64(self, given, kept):
        ds = FrameDataset(np.ones((2, 3), given), [0, 1], ["a", "b"])
        assert ds.vectors.dtype == kept

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arithmetic_follows_the_dataset_dtype(self, dtype):
        rng = np.random.default_rng(4)
        train = FrameDataset(rng.normal(size=(40, 6)).astype(dtype),
                             rng.integers(0, 3, 40), ["a", "b", "c"])
        want = {np.dtype(dtype)}
        assert {train.vectors.dtype} == want
        for hidden in (None, 5):
            probe = train_probe(train, train, ProbeConfig(
                hidden=hidden, epochs=2, seed=1)).probe
            assert {p.dtype for p in probe.params.values()} == want
            _, grads = probe.loss_and_grads(train.vectors, train.labels, rng)
            assert {g.dtype for g in grads.values()} == want
            assert {probe.logits(train.vectors).dtype} == want
            # The same random stream draws every dtype's initial weights.
            fresh = TrainedProbe.init(6, train.label_names, hidden=hidden,
                                      seed=1, dtype=dtype)
            for k, p in TrainedProbe.init(6, train.label_names, hidden=hidden,
                                          seed=1).params.items():
                np.testing.assert_array_equal(fresh.params[k], p.astype(dtype))

    @pytest.mark.parametrize("hidden", [None, 9])
    def test_float64_keeps_the_whole_expression_bits(self, hidden):
        # The dtype-generic forward and backward, on float64 data, equal
        # the float64 expressions written out whole, bit for bit.
        rng = np.random.default_rng(5)
        probe = TrainedProbe.init(6, ["a", "b", "c"], hidden=hidden,
                                  dropout=0.5, seed=3)
        x = rng.normal(size=(11, 6))
        y = rng.integers(0, 3, 11)
        loss, grads = probe.loss_and_grads(x, y, np.random.default_rng(7))
        P = probe.params
        if hidden is None:
            h = x
        else:
            h_pre = x @ P["L1.W"].T + P["L1.b"]
            mask = (np.random.default_rng(7).random(h_pre.shape) < 0.5) / 0.5
            h = np.maximum(h_pre, 0.0) * mask
        out = "L1" if hidden is None else "L2"
        z = h @ P[f"{out}.W"].T + P[f"{out}.b"]
        z = z - z.max(axis=1, keepdims=True)
        lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        assert loss == float(-lp[np.arange(11), y].mean())
        dz = np.exp(lp)
        dz[np.arange(11), y] -= 1.0
        dz /= 11
        want = {f"{out}.W": dz.T @ h, f"{out}.b": dz.sum(axis=0)}
        if hidden is None:
            want_logits = x @ P["L1.W"].T + P["L1.b"]
        else:
            dh_pre = dz @ P["L2.W"] * mask * (h_pre > 0)
            want.update({"L1.W": dh_pre.T @ x, "L1.b": dh_pre.sum(axis=0)})
            want_logits = (np.maximum(h_pre, 0.0) @ P["L2.W"].T
                           + P["L2.b"])
        assert set(grads) == set(want)
        for k in want:
            np.testing.assert_array_equal(grads[k], want[k], err_msg=k)
        np.testing.assert_array_equal(probe.logits(x), want_logits)

    @pytest.mark.parametrize("hidden", [None, 50])
    def test_float32_agrees_with_float64(self, hidden):
        # On float32-representable data and weights, float32 arithmetic
        # stays within FLOAT32_AGREEMENT of float64, relative to the
        # largest entry of each result.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(64, 40)).astype(np.float32)
        y = rng.integers(0, 8, 64)
        names = [f"p{i}" for i in range(8)]
        narrow = TrainedProbe.init(40, names, hidden=hidden, seed=2,
                                   dtype=np.float32)
        wide = TrainedProbe.init(40, names, hidden=hidden, seed=2)
        for k, p in wide.params.items():
            p[...] = narrow.params[k]  # the float32 weights, in float64
        loss64, g64 = wide.loss_and_grads(x.astype(np.float64), y,
                                          np.random.default_rng(8))
        loss32, g32 = narrow.loss_and_grads(x, y, np.random.default_rng(8))
        assert abs(loss32 - loss64) <= FLOAT32_AGREEMENT * abs(loss64)
        for k in g64:
            assert g32[k].dtype == np.float32
            err = np.abs(g32[k] - g64[k]).max() / np.abs(g64[k]).max()
            assert err <= FLOAT32_AGREEMENT, (k, err)

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
        probe.params["L1.W"][:] = 0.0
        probe.params["L1.b"][:] = [1.0, 0.0, 0.0]  # always predict "a"
        report = evaluate_probe(predict(probe, ds.vectors), ds)
        _, baseline = phoneset.majority_baseline(
            ds.label_names[i] for i in ds.labels)
        assert report["accuracy"] == baseline == 0.6

    def test_hand_built_confusion(self):
        # predictions [a, b, b, b] against labels [a, a, b, b]
        ds = FrameDataset(np.array([[5.0], [-1.0], [-3.0], [-4.0]]),
                          np.array([0, 0, 1, 1]), ["a", "b"])
        probe = TrainedProbe.init(1, ds.label_names, hidden=None)
        probe.params["L1.W"][:] = np.array([[1.0], [-1.0]])
        probe.params["L1.b"][:] = 0.0
        report = evaluate_probe(predict(probe, ds.vectors), ds)
        assert report["confusion"] == [[1, 1], [0, 2]]
        assert report["accuracy"] == pytest.approx(0.75)
        assert report["precision"]["b"] == pytest.approx(2.0 / 3.0)
        assert report["recall"]["a"] == pytest.approx(0.5)

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(5)
        ds = FrameDataset(rng.normal(size=(40, 4)),
                          rng.integers(0, 3, size=40), ["a", "b", "c"])
        probe = TrainedProbe.init(4, ds.label_names, hidden=6, seed=1)
        report = evaluate_probe(predict(probe, ds.vectors), ds)
        assert report["accuracy"] == np.trace(report["confusion"]) / 40
        assert np.sum(report["confusion"]) == 40

    def test_report_round_trips_through_json(self):
        rng = np.random.default_rng(6)
        ds = FrameDataset(rng.normal(size=(10, 3)),
                          rng.integers(0, 2, size=10), ["a", "b"])
        probe = TrainedProbe.init(3, ds.label_names, hidden=4, seed=0)
        report = evaluate_probe(predict(probe, ds.vectors), ds)
        assert json.loads(json.dumps(report)) == report

    def test_dimension_mismatch(self):
        ds = FrameDataset(np.zeros((2, 3)), np.zeros(2, dtype=int), ["a"])
        probe = TrainedProbe.init(4, ["a"], hidden=None)
        with pytest.raises(ValueError):
            predict(probe, ds.vectors)
        with pytest.raises(ValueError, match="3 predictions for 2 rows"):
            evaluate_probe(np.zeros(3, dtype=int), ds)


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
    def make_dataset(self, tmp_path, model, utts, cfg, layer=2):
        """The layer's frame dataset and its pass's greedy CTC categories."""
        inv = phoneset.synthetic_inventory(cfg.phones)
        path = tmp_path / f"layer{layer}.fds"
        extraction = extract_frames(model, utts, [(layer, path)], True)
        return load_dataset(path, inventory=inv), extraction.categories

    def test_all_blank_model_single_category(self, tmp_path, corpus):
        cfg, utts = corpus
        model = all_blank_model()
        ds, categories = self.make_dataset(tmp_path, model, utts, cfg)
        probe = TrainedProbe.init(ds.vectors.shape[1], ds.label_names,
                                  hidden=None, seed=0)
        bd = breakdown_by_ctc_symbol(predict(probe, ds.vectors) == ds.labels,
                                     ds.spans, categories)
        assert bd["blank"]["share"] == 1.0
        assert bd["space"]["n_frames"] == 0
        assert bd["letter"]["n_frames"] == 0

    def test_shares_sum_to_one_and_recombine(self, tmp_path, corpus,
                                             mini_model):
        cfg, utts = corpus
        ds, categories = self.make_dataset(tmp_path, mini_model, utts, cfg)
        probe = TrainedProbe.init(ds.vectors.shape[1], ds.label_names,
                                  hidden=6, seed=3)
        pred = predict(probe, ds.vectors)
        bd = breakdown_by_ctc_symbol(pred == ds.labels, ds.spans, categories)
        shares = [v["share"] for v in bd.values()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)
        recombined = sum(v["share"] * v["accuracy"] for v in bd.values())
        assert recombined == pytest.approx(
            evaluate_probe(pred, ds)["accuracy"], abs=1e-9)

    def test_resolution_mismatch_rejected(self, tmp_path, corpus, mini_model):
        cfg, utts = corpus
        ds, categories = self.make_dataset(tmp_path, mini_model, utts, cfg,
                                           layer=0)
        probe = TrainedProbe.init(ds.vectors.shape[1], ds.label_names,
                                  hidden=None)
        with pytest.raises(ValueError, match="time resolutions"):
            breakdown_by_ctc_symbol(predict(probe, ds.vectors) == ds.labels,
                                    ds.spans, categories)


def report_from_confusion(cm, names):
    cm = np.asarray(cm, dtype=np.int64)
    precision, recall, f1 = probing._prf(cm, names)
    return {"accuracy": float(np.trace(cm)) / cm.sum(), "precision": precision,
            "recall": recall, "f1": f1, "confusion": cm.tolist(),
            "label_names": list(names), "n_frames": int(cm.sum()),
            "provenance": {}}


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


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 0]), 3)
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 1, 0], [1, 0, 0]])


class TestDatasetSerialization:
    def test_round_trip(self, tmp_path, corpus, mini_model):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        path = tmp_path / "frames.fds"
        extract_frames(mini_model, utts, [(1, path)], True)
        loaded = load_dataset(path, 1, "full", inv)
        taps = [mini_model.forward([u.frames])[0].taps[1] for u in utts]
        np.testing.assert_array_equal(
            loaded.vectors,
            rounded(np.concatenate([probing._windowed(t, 1) for t in taps])))
        assert loaded.vectors.dtype == np.float32   # the file's own width
        assert loaded.label_names == inv.labels_for_scheme("full")
        assert loaded.provenance == {
            "layer": 1, "strides_enabled": True, "window": 1,
            "scheme": "full", "subsample_factor": 2,
            "receptive_center_offset": 0, "standardized": False}
        assert loaded.spans == [(u.id, len(t)) for u, t in zip(utts, taps)]

    def test_views_of_one_read_are_each_views_own(self, tmp_path, corpus,
                                                  mini_model, monkeypatch):
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        path = tmp_path / "frames.fds"
        extract_frames(mini_model, utts, [(1, path)], True)
        views = [(0, "full"), (2, "sound_class"), (1, "full"),
                 (0, "sound_class")]
        want = [load_dataset(path, window, scheme, inv)
                for window, scheme in views]
        reads = []
        monkeypatch.setattr(probing, "read_artifact",
                            lambda *args: reads.append(1) or read_artifact(
                                *args))
        got = list(probing.load_views(path, views, inv))
        assert len(reads) == 1
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a.vectors, b.vectors)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert (a.label_names, a.provenance, a.spans) == (
                b.label_names, b.provenance, b.spans)

    def test_reduced48_of_a_synthetic_inventory_is_the_full_view(
            self, tmp_path, corpus, mini_model):
        # A synthetic inventory maps each phone to itself, so the probe
        # stage shares one fit between a reduced48 view and its full view.
        cfg, utts = corpus
        inv = phoneset.synthetic_inventory(cfg.phones)
        assert inv.labels_for_scheme("reduced48") == \
            inv.labels_for_scheme("full")
        assert [inv.reduce(p, "reduced48") for p in inv.phones] == inv.phones
        path = tmp_path / "frames.fds"
        extract_frames(mini_model, utts, [(1, path)], True)
        full, reduced, classes, wide = probing.load_views(
            path, [(0, "full"), (0, "reduced48"), (0, "sound_class"),
                   (1, "full")], inv)
        assert reduced.label_names == full.label_names
        np.testing.assert_array_equal(reduced.labels, full.labels)
        assert reduced.digest == full.digest
        assert len({full.digest, classes.digest, wide.digest}) == 3

    def test_file_holds_the_raw_tap_and_corpus_phones(self, tmp_path, corpus,
                                                      mini_model):
        cfg, utts = corpus
        path = tmp_path / "frames.fds"
        extract_frames(mini_model, utts, [(1, path)], True)
        header, _payload = read_artifact(
            path, probing.DATASET_MAGIC, probing.DATASET_VERSION,
            "frame dataset", lambda h: 4 * h["n"] * (h["d"] + 1),
            lambda h, p: (h, p))
        assert header["d"] == mini_model.config.tap_width(1)
        assert header["label_names"] == sorted(
            {seg.phone for u in utts for seg in u.segments})
        assert "window" not in header["provenance"]
        assert "scheme" not in header["provenance"]
        # With no inventory the view's labels are the file's phones.
        plain = load_dataset(path)
        assert plain.label_names == header["label_names"]
        assert plain.vectors.shape[1] == header["d"]
        assert plain.provenance["window"] == 0
        assert plain.provenance["scheme"] == "full"
        with pytest.raises(ValueError, match="need a phone inventory"):
            load_dataset(path, scheme="sound_class")
        with pytest.raises(ValueError, match="window"):
            load_dataset(path, window=-1)

    @pytest.mark.parametrize("key", ["n", "d", "label_names", "spans",
                                     "provenance"])
    def test_header_lacking_a_key_names_file_and_key(self, tmp_path, corpus,
                                                     mini_model, key):
        _cfg, utts = corpus
        path = tmp_path / "frames.fds"
        extract_frames(mini_model, utts, [(1, path)], True)
        drop_header_key(path, probing.DATASET_MAGIC, (key,))
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            load_dataset(path)
        assert "malformed frame dataset header" in str(err.value)
        assert repr(key) in str(err.value)

    @pytest.mark.parametrize("field", ["spans", "phone_index"])
    def test_rejects_header_that_disagrees_with_rows(self, tmp_path, corpus,
                                                     mini_model, field):
        cfg, utts = corpus
        path = tmp_path / "frames.fds"
        extract_frames(mini_model, utts, [(1, path)], True)
        header, payload = read_artifact(
            path, probing.DATASET_MAGIC, probing.DATASET_VERSION,
            "frame dataset", lambda h: 4 * h["n"] * (h["d"] + 1),
            lambda h, p: (h, p))
        payload = bytearray(payload)
        if field == "spans":
            header["spans"][0][1] += 1
            header["spans"][1][1] -= 2
        else:  # the last row's phone index, one past the file's phones
            payload[-4:] = np.int32(len(header["label_names"])).tobytes()
        path.write_bytes(artifact_header(probing.DATASET_MAGIC,
                                         probing.DATASET_VERSION, header)
                         + bytes(payload))
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            load_dataset(path)
        assert str(err.value).count(str(path)) == 1

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.fds"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_rejects_damaged_file(self, tmp_path, corpus, mini_model, damage):
        cfg, utts = corpus
        path = tmp_path / "frames.fds"
        extract_frames(mini_model, utts, [(1, path)], True)
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_dataset(path)
