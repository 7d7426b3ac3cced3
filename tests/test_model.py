import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import DAMAGE, drop_header_key, edit_header, key_id
from oracles import RecurrentOracle, RowConvOracle

from ctcprobe import ctc
from ctcprobe import layers as L
from ctcprobe.acoustic import (SynthConfig, load_corpus, save_corpus,
                               synthesize_corpus)
from ctcprobe.artifacts import artifact_header, read_artifact
from ctcprobe.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, LayerSpec,
                            ModelConfig, TrainedModel, conv_output_len,
                            preset)

# Largest difference of a loaded (float32) model's eval taps and log-probs
# from the float64 model on the same weights, relative to each array's
# largest entry (float32's unit roundoff is 6e-8; on the two mini presets
# the worst seen was 5.7e-7).
MODEL_FLOAT32_AGREEMENT = 1e-5


class TestConvOutputLen:
    def test_time_halving(self):
        assert conv_output_len(100, 11, 2, 5) == 50

    def test_first_conv_freq(self):
        assert conv_output_len(161, 41, 2, 0) == 61

    def test_second_conv_freq(self):
        assert conv_output_len(61, 21, 1, 0) == 41

    def test_precondition(self):
        with pytest.raises(ValueError):
            conv_output_len(5, 11, 2, 0)
        with pytest.raises(ValueError):
            conv_output_len(10, 3, 0, 0)


class TestPresets:
    def test_ds2_structure(self):
        cfg = preset("ds2")
        kinds = [s.kind for s in cfg.layers]
        assert kinds == (["conv2d"] * 2 + ["rnn_bidir"] * 7
                         + ["fully_connected"])
        assert all(s.hidden_size == 1760 for s in cfg.layers[2:9])

    def test_ds2_light_structure(self):
        cfg = preset("ds2-light")
        kinds = [s.kind for s in cfg.layers]
        assert kinds == (["conv2d"] * 2 + ["lstm_bidir"] * 5
                         + ["fully_connected"])
        assert all(s.hidden_size == 600 for s in cfg.layers[2:7])

    def test_mini_keeps_structure(self):
        full, mini = preset("ds2"), preset("ds2-mini")
        assert [s.kind for s in full.layers] == [s.kind for s in mini.layers]
        assert all(s.hidden_size == 64 for s in mini.layers[2:9])
        assert all(s.out_channels == 8 for s in mini.layers[:2])

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("ds3")

    def test_tap_widths_ds2(self):
        cfg = preset("ds2")
        assert cfg.tap_width(0) == 161
        assert cfg.tap_width(1) == 1952
        assert cfg.tap_width(2) == 1312
        assert all(cfg.tap_width(k) == 1760 for k in range(3, 10))
        assert cfg.tap_width(10) == 29

    def test_tap_widths_ds2_light(self):
        cfg = preset("ds2-light")
        assert [cfg.tap_width(k) for k in (1, 2, 3, 8)] == [1952, 1312, 600, 29]

    def test_time_lengths(self):
        cfg = preset("ds2")
        for T in (40, 41, 100, 137):
            strided = cfg.time_len_after(cfg.n_layers, T)
            # halving per strided conv: ceil with time pad 5, kernel 11
            t1 = (T + 10 - 11) // 2 + 1
            t2 = (t1 + 10 - 11) // 2 + 1
            assert strided == t2
            assert cfg.time_len_after(cfg.n_layers, T,
                                      strides_enabled=False) == T

    def test_subsample_and_offset(self):
        cfg = preset("ds2")
        assert cfg.subsample_factor(0) == 1
        assert cfg.subsample_factor(1) == 2
        assert cfg.subsample_factor(cfg.n_layers) == 4
        assert cfg.subsample_factor(cfg.n_layers, strides_enabled=False) == 1
        # kernel 11 with time pad 5 centers the receptive field at t*stride
        assert cfg.receptive_center_offset(cfg.n_layers) == 0

    @pytest.mark.parametrize("strides", [True, False])
    @pytest.mark.parametrize("name", ["ds2", "ds2-light", "ds2-mini",
                                      "ds2-light-mini", "uncentred"])
    def test_subsample_and_offset_compose_the_per_conv_rule(self, name,
                                                            strides):
        # A conv's output frame t centres on its input frame
        # t*stride - pad + (kernel-1)//2.  Mapped down from layer k to the
        # input, frame 0 lands on the offset and frame 1 a factor later.
        if name == "uncentred":  # the presets' offsets are all 0
            convs = [LayerSpec("conv2d", kernel=(5, 3), stride=(2, 1),
                               padding=(0, 0), out_channels=2),
                     LayerSpec("conv2d", kernel=(4, 3), stride=(3, 1),
                               padding=(1, 0), out_channels=2)]
            cfg = ModelConfig(convs + [LayerSpec(
                "fully_connected", hidden_size=29, batchnorm=False)])
        else:
            cfg = preset(name)

        def centre(k, t):
            for spec in reversed(cfg.layers[:k]):
                if spec.kind == "conv2d":
                    t = (t * (spec.stride[0] if strides else 1)
                         - spec.padding[0] + (spec.kernel[0] - 1) // 2)
            return t

        for k in range(cfg.n_layers + 1):
            assert cfg.receptive_center_offset(k, strides) == centre(k, 0)
            assert cfg.subsample_factor(k, strides) == \
                centre(k, 1) - centre(k, 0)

    @pytest.mark.parametrize("strides", [True, False])
    @pytest.mark.parametrize("name", ["ds2-mini", "ds2-light-mini"])
    def test_eval_taps_have_the_configs_geometry(self, name, strides):
        # Tap k of a T-frame utterance is time_len_after(k, T) x tap_width(k).
        model = TrainedModel(preset(name, seed=1))
        cfg, lengths = model.config, (40, 61, 104)
        rng = np.random.default_rng(0)
        results = model.forward([rng.random((T, cfg.input_freq_bins))
                                 for T in lengths], strides)
        for T, result in zip(lengths, results):
            assert [tap.shape for tap in result.taps] == [
                (cfg.time_len_after(k, T, strides), cfg.tap_width(k))
                for k in range(cfg.n_layers + 1)]


class TestModelConfigValidation:
    def test_last_layer_must_be_fc_with_alphabet_size(self):
        with pytest.raises(ValueError):
            ModelConfig([LayerSpec("rnn_bidir", hidden_size=8)])
        with pytest.raises(ValueError):
            ModelConfig([LayerSpec("fully_connected", hidden_size=7,
                                   batchnorm=False)])

    def test_layer_ordering_enforced(self):
        fc = LayerSpec("fully_connected", hidden_size=29, batchnorm=False)
        conv = LayerSpec("conv2d", kernel=(3, 3), stride=(1, 1),
                         padding=(1, 1), out_channels=2)
        rnn = LayerSpec("rnn_bidir", hidden_size=8)
        with pytest.raises(ValueError):
            ModelConfig([rnn, conv, fc])

    def test_relu_only_on_conv(self):
        for kind in ("rnn_bidir", "lstm_bidir", "fully_connected"):
            with pytest.raises(ValueError, match="activation 'relu'"):
                LayerSpec(kind, hidden_size=8, activation="relu")
        # A checkpoint config carrying one fails to load.
        d = preset("ds2-light-mini").to_dict()
        d["layers"][2]["activation"] = "relu"
        with pytest.raises(ValueError, match="activation 'relu'"):
            ModelConfig.from_dict(d)

    def test_batchnorm_not_on_fc(self):
        # A fully connected layer has no batch norm to claim.
        with pytest.raises(ValueError, match="batchnorm is not one a "
                                             "fully_connected layer has"):
            LayerSpec("fully_connected", hidden_size=8)
        LayerSpec("fully_connected", hidden_size=8, batchnorm=False)

    def test_round_trip_dict(self):
        cfg = preset("ds2-light-mini", seed=5)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg


def tiny_config(alphabet_size=5, seed=0):
    alphabet = ["_"] + [chr(ord("a") + i) for i in range(alphabet_size - 1)]
    return ModelConfig(
        layers=[
            LayerSpec("conv2d", kernel=(3, 5), stride=(2, 2), padding=(1, 0),
                      out_channels=2, batchnorm=True, activation="relu"),
            LayerSpec("rnn_bidir", hidden_size=8),
            LayerSpec("lstm_bidir", hidden_size=8),
            LayerSpec("fully_connected", hidden_size=alphabet_size,
                      batchnorm=False),
        ],
        alphabet=alphabet, input_freq_bins=13, seed=seed)


class TestForward:
    def test_softmax_rows_sum_to_one(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(0).normal(size=(12, 13)))
        result = model.forward([x])[0]
        np.testing.assert_allclose(result.taps[-1].sum(axis=1), 1.0,
                                   atol=1e-6)

    def test_tap_shapes_follow_config(self):
        cfg = tiny_config()
        model = TrainedModel(cfg)
        x = np.abs(np.random.default_rng(1).normal(size=(12, 13)))
        for strides in (True, False):
            result = model.forward([x], strides_enabled=strides)[0]
            assert len(result.taps) == cfg.n_layers + 1
            for k, tap in enumerate(result.taps):
                assert tap.shape == (
                    cfg.time_len_after(k, 12, strides),
                    cfg.tap_width(k)), k

    def test_stride_free_keeps_length(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(2).normal(size=(17, 13)))
        result = model.forward([x], strides_enabled=False)[0]
        assert all(t.shape[0] == 17 for t in result.taps)

    def test_zero_fc_weights_give_uniform_softmax(self):
        model = TrainedModel(tiny_config())
        model.layers[-1].params["W"][:] = 0.0
        model.layers[-1].params["b"][:] = 0.0
        x = np.abs(np.random.default_rng(3).normal(size=(10, 13)))
        result = model.forward([x])[0]
        np.testing.assert_allclose(result.taps[-1], 1.0 / 5.0, atol=1e-12)

    def test_eval_forward_bit_identical(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(4).normal(size=(11, 13)))
        a = model.forward([x])[0]
        b = model.forward([x])[0]
        assert np.array_equal(a.log_probs, b.log_probs)
        for ta, tb in zip(a.taps, b.taps):
            assert np.array_equal(ta, tb)

    def test_shape_mismatch_rejected(self):
        model = TrainedModel(tiny_config())
        with pytest.raises(ValueError):
            model.forward([np.zeros((10, 12))])


class TestBackward:
    def test_requires_train_forward(self):
        model = TrainedModel(tiny_config())
        with pytest.raises(RuntimeError):
            model.backward([np.zeros((6, 5))])
        # A backward takes its forward's caches: a second one has none.
        x = np.abs(np.random.default_rng(5).normal(size=(12, 13)))
        model.backward([np.zeros_like(model.forward([x], mode="train")[0]
                                      .log_probs)])
        with pytest.raises(RuntimeError):
            model.backward([np.zeros((6, 5))])

    def test_zero_upstream_gives_zero_grads(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(6).normal(size=(12, 13)))
        result = model.forward([x], mode="train")[0]
        grads = model.backward([np.zeros_like(result.log_probs)])
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    def test_grad_shapes_match_params(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(7).normal(size=(12, 13)))
        result = model.forward([x], mode="train")[0]
        grads = model.backward([np.random.default_rng(8).normal(
            size=result.log_probs.shape)])
        for name, p in model.params.items():
            assert grads[name].shape == p.shape, name

    def test_full_model_finite_differences(self):
        # End-to-end CTC loss gradcheck of a ragged minibatch (the summed
        # loss of its utterances) on one seed; the acceptance suite sweeps
        # many seeds of one utterance.
        model = TrainedModel(tiny_config(seed=3))
        xs, labels = ragged_batch(9)

        def loss():
            return sum(ctc.ctc_loss(result.log_probs, utt_labels)
                       for result, utt_labels in zip(
                           model.forward(xs, mode="train"), labels))

        grads = model.backward([
            ctc.ctc_loss_and_grad(result.log_probs, utt_labels)[1]
            for result, utt_labels in zip(model.forward(xs, mode="train"),
                                          labels)])
        h = 1e-5
        rng = np.random.default_rng(10)
        for name, p in model.params.items():
            flat = p.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size),
                                replace=False):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss()
                flat[i] = orig - h
                fm = loss()
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                g = grads[name].reshape(-1)[i]
                assert abs(fd - g) / max(abs(fd), abs(g), 1.0) < 1e-4, name


def ragged_batch(seed):
    """Three inputs for `tiny_config` that are 7, 5 and 6 frames long after
    its strided convolution, and a transcript for each."""
    rng = np.random.default_rng(seed)
    return ([np.abs(rng.normal(size=(n, 13))) for n in (14, 10, 12)],
            [[1, 2], [3], [4, 4]])


class TestMinibatch:
    """A minibatch forward and backward are its utterances' own, one at a
    time, bit for bit: taps, log-probs, the gradients summed in batch
    order, and the batch-norm statistics.  The model has a simple-RNN and
    an LSTM layer."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_ragged_batch_is_its_utterances_one_at_a_time(self, mode):
        xs, labels = ragged_batch(11)
        batched, single = (TrainedModel(tiny_config(seed=4))
                           for _ in range(2))
        got = batched.forward(xs, mode=mode)
        want, want_grads = [], {}
        for x, utt_labels in zip(xs, labels):
            want.append(single.forward([x], mode=mode)[0])
            if mode == "train":
                for name, g in single.backward([ctc.ctc_loss_and_grad(
                        want[-1].log_probs, utt_labels)[1]]).items():
                    want_grads[name] = (want_grads[name] + g
                                        if name in want_grads else g)
        for result, expected in zip(got, want, strict=True):
            np.testing.assert_array_equal(result.log_probs,
                                          expected.log_probs)
            assert len(result.taps) == len(expected.taps)
            for k, (tap, tap_want) in enumerate(zip(result.taps,
                                                    expected.taps)):
                assert (tap is None) == (tap_want is None), k
                if tap is not None:
                    np.testing.assert_array_equal(tap, tap_want, err_msg=k)
        if mode == "train":
            grads = batched.backward([
                ctc.ctc_loss_and_grad(result.log_probs, utt_labels)[1]
                for result, utt_labels in zip(got, labels)])
            assert list(grads) == list(want_grads)
            for name, g in grads.items():
                np.testing.assert_array_equal(g, want_grads[name],
                                              err_msg=name)
        for name, v in batched.buffers.items():
            np.testing.assert_array_equal(v, single.buffers[name],
                                          err_msg=name)

    def test_train_forward_skips_only_unread_conv_taps(self):
        cfg = preset("ds2-mini")
        model = TrainedModel(cfg)
        x = np.abs(np.random.default_rng(12).normal(size=(30, 161)))
        taps = model.forward([x], mode="train")[0].taps
        assert [k for k, tap in enumerate(taps) if tap is None] == [1]


class TestDtype:
    """A model computes in its parameters' dtype, float64 as built and
    float32 as loaded, whatever the dtype of its inputs and logit
    gradients: every array it returns or allocates has that dtype."""

    @staticmethod
    def dtypes(model, inputs_dtype, monkeypatch):
        """Dtype names of ``model``'s parameters and buffers and of every
        array that its eval forwards (both strides settings), a train
        forward and its backward of a ragged batch of ``inputs_dtype``
        return, or make through numpy's array constructors.  The logit
        gradients, from the CTC's own float64, are cast to
        ``inputs_dtype`` and not recorded."""
        rng = np.random.default_rng(15)
        xs = [np.abs(rng.normal(size=(n, 161))).astype(inputs_dtype)
              for n in (30, 22, 26)]
        made = set()
        for name in ("zeros", "empty", "ones", "full", "zeros_like",
                     "empty_like"):
            def record(*args, make=getattr(np, name), **kwargs):
                out = make(*args, **kwargs)
                made.add(out.dtype.name)
                return out

            monkeypatch.setattr(np, name, record)
        train = model.forward(xs, mode="train")
        results = [*train, *model.forward(xs, True),
                   *model.forward(xs, False)]
        seen = set(made)
        dlogits = [ctc.ctc_loss_and_grad(r.log_probs, y)[1].astype(
            inputs_dtype) for r, y in zip(train, [[1, 2], [3], [4, 4]])]
        made.clear()
        grads = model.backward(dlogits)
        return seen | made | {a.dtype.name for a in [
            *(a for r in results for a in [*r.taps, r.log_probs]
              if a is not None),
            *grads.values(), *model.params.values(),
            *model.buffers.values()]}

    @pytest.mark.parametrize("name", ["ds2-mini", "ds2-light-mini"])
    def test_loaded_model_computes_in_float32(self, tmp_path, monkeypatch,
                                              name):
        TrainedModel(preset(name, seed=6)).save(tmp_path / "m.ckpt")
        model = TrainedModel.load(tmp_path / "m.ckpt")
        assert self.dtypes(model, np.float64, monkeypatch) == {"float32"}

    @pytest.mark.parametrize("name", ["ds2-mini", "ds2-light-mini"])
    def test_built_model_stays_float64(self, monkeypatch, name):
        model = TrainedModel(preset(name, seed=6))
        assert self.dtypes(model, np.float32, monkeypatch) == {"float64"}

    @pytest.mark.parametrize("name", ["ds2-mini", "ds2-light-mini"])
    def test_corpus_frames_train_as_their_float64_widening(self, tmp_path,
                                                           name):
        # A corpus file's frames reach a float64 model as the float32 they
        # are stored in; its input cast widens them exactly, so a train
        # forward and backward equal those of the widened copies.
        path = tmp_path / "corpus.bin"
        save_corpus(path, synthesize_corpus(SynthConfig(seed=4), 3))
        frames = [utt.frames for utt in load_corpus(path)]
        assert {x.dtype.name for x in frames} == {"float32"}
        passes = []
        for xs in (frames, [x.astype(np.float64) for x in frames]):
            model = TrainedModel(preset(name, seed=2))
            results = model.forward(xs, mode="train")
            rng = np.random.default_rng(3)
            grads = model.backward([rng.normal(size=r.log_probs.shape)
                                    for r in results])
            passes.append((results, grads, model.buffers))
        (got, got_grads, got_buffers), (want, want_grads, want_buffers) = \
            passes
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.log_probs, b.log_probs)
            for k, (ta, tb) in enumerate(zip(a.taps, b.taps, strict=True)):
                assert (ta is tb is None) or np.array_equal(ta, tb), k
        for mine, theirs in ((got_grads, want_grads),
                             (got_buffers, want_buffers)):
            assert mine.keys() == theirs.keys()
            for key in mine:
                assert np.array_equal(mine[key], theirs[key]), key


class TestCheckpoint:
    @pytest.mark.parametrize("name", ["ds2-mini", "ds2-light-mini"])
    def test_built_in_float32_is_the_float64_build_rounded(self, name):
        # The same seeded draws, each layer cast as it is built.
        want = TrainedModel(preset(name, seed=3))
        got = TrainedModel(preset(name, seed=3), np.float32)
        assert got.dtype == np.float32
        for section in ("params", "buffers"):
            mine, theirs = getattr(got, section), getattr(want, section)
            live = L.registry(got.layers, section)
            assert list(mine) == list(theirs) == list(live)
            for key, v in mine.items():
                assert v is live[key], key
                np.testing.assert_array_equal(
                    v, theirs[key].astype(np.float32), err_msg=key)

    def test_load_peak_memory(self, tmp_path):
        # A load holds the file's payload and the float32 model, but at no
        # time the float64 initial values of the whole model.
        path = tmp_path / "m.ckpt"
        TrainedModel(preset("ds2-mini", seed=1)).save(path)
        tracemalloc.start()
        try:
            model = TrainedModel.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = sum(v.nbytes for section in (model.params, model.buffers)
                     for v in section.values())
        assert peak <= 2.5 * values, (peak, values)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = TrainedModel(tiny_config(seed=7))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        model.save(p1)
        TrainedModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_arrays_are_the_saved_float32(self, tmp_path):
        model = TrainedModel(tiny_config(seed=8))
        model.forward(ragged_batch(12)[0], mode="train")  # moves the stats
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = TrainedModel.load(path)
        assert loaded.config == model.config
        for section in ("params", "buffers"):
            saved, live = getattr(model, section), getattr(loaded, section)
            layers_own = L.registry(loaded.layers, section)
            assert list(live) == list(saved)
            for name, v in live.items():
                assert v.dtype == np.float32, name
                assert v is layers_own[name], name
                np.testing.assert_array_equal(
                    v, saved[name].astype(np.float32), err_msg=name)

    def test_per_direction_layers_checkpoint_loads(self, tmp_path,
                                                   monkeypatch):
        # A model whose recurrent layers each step their directions on
        # their own writes the checkpoint; the model with the merged
        # recurrence loads it into the same arrays and computes the same
        # eval forward, bit for bit.
        xs = ragged_batch(14)[0]
        with monkeypatch.context() as m:
            m.setattr(L, "RecurrentLayer", RecurrentOracle)
            written = TrainedModel(tiny_config(seed=9))
            written.forward(xs, mode="train")  # moves the stats
            written.save(tmp_path / "m.ckpt")
            want = TrainedModel.load(tmp_path / "m.ckpt").forward(xs)
        loaded = TrainedModel.load(tmp_path / "m.ckpt")
        assert not any(isinstance(layer, RecurrentOracle)
                       for layer in loaded.layers)
        for section in ("params", "buffers"):
            saved, live = getattr(written, section), getattr(loaded, section)
            assert list(live) == list(saved)
            for name, v in live.items():
                np.testing.assert_array_equal(
                    v, saved[name].astype(np.float32), err_msg=name)
        for got, expected in zip(loaded.forward(xs), want, strict=True):
            np.testing.assert_array_equal(got.log_probs, expected.log_probs)
            for tap, tap_want in zip(got.taps, expected.taps, strict=True):
                np.testing.assert_array_equal(tap, tap_want)

    @pytest.mark.parametrize("strides", [True, False])
    def test_loaded_taps_are_the_per_row_convolutions(self, tmp_path,
                                                      monkeypatch, strides):
        # A checkpoint's taps come from its float32 eval forward: with
        # convolutions that make one GEMM per kernel row in their place,
        # every tap and log-prob of a ragged batch is the same bit for bit.
        rng = np.random.default_rng(27)
        xs = [np.abs(rng.normal(size=(n, 161))).astype(np.float32)
              for n in (40, 31, 35)]
        written = TrainedModel(preset("ds2-mini", seed=6))
        written.forward(xs, mode="train")  # moves the batch-norm statistics
        written.save(tmp_path / "m.ckpt")
        loaded = TrainedModel.load(tmp_path / "m.ckpt")
        with monkeypatch.context() as m:
            m.setattr(L, "ConvLayer", RowConvOracle)
            oracle = TrainedModel.load(tmp_path / "m.ckpt")
        assert [type(layer) for layer in oracle.layers[:2]] == [
            RowConvOracle] * 2
        for got, want in zip(loaded.forward(xs, strides),
                             oracle.forward(xs, strides), strict=True):
            np.testing.assert_array_equal(got.log_probs, want.log_probs)
            for tap, tap_want in zip(got.taps, want.taps, strict=True):
                assert tap.dtype == np.float32
                np.testing.assert_array_equal(tap, tap_want)

    @pytest.mark.parametrize("strides", [True, False])
    @pytest.mark.parametrize("name", ["ds2-mini", "ds2-light-mini"])
    def test_loaded_model_agrees_with_float64_on_its_weights(
            self, tmp_path, name, strides):
        # A ragged batch of float32-representable frames, as a corpus file
        # holds them.
        rng = np.random.default_rng(13)
        xs = [np.abs(rng.normal(size=(n, 161))).astype(np.float32)
              .astype(np.float64) for n in (40, 31, 35)]
        model = TrainedModel(preset(name, seed=5))
        model.forward(xs, mode="train")  # moves the batch-norm statistics
        model.save(tmp_path / "m.ckpt")
        loaded = TrainedModel.load(tmp_path / "m.ckpt")
        for section in ("params", "buffers"):
            for key, v in getattr(model, section).items():
                v[...] = getattr(loaded, section)[key]
        for got, want in zip(loaded.forward(xs, strides),
                             model.forward(xs, strides), strict=True):
            assert len(got.taps) == len(want.taps)
            for what, a, b in [*((f"tap {k}", a, b) for k, (a, b) in
                                 enumerate(zip(got.taps, want.taps))),
                               ("log_probs", got.log_probs, want.log_probs)]:
                err = np.abs(a - b).max() / np.abs(b).max()
                assert err <= MODEL_FLOAT32_AGREEMENT, (what, err)

    def test_failed_save_leaves_no_partial_or_temp_file(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "model.ckpt"
        TrainedModel(tiny_config(seed=7)).save(path)
        before = path.read_bytes()
        other = TrainedModel(tiny_config(seed=8))
        convert = np.ascontiguousarray
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) % 3 == 0:  # the third array of each save
                raise RuntimeError("conversion failed")
            return convert(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", failing)
        for target in (path, tmp_path / "fresh.ckpt"):
            calls.clear()
            with pytest.raises(RuntimeError, match="conversion failed"):
                other.save(target)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() == before

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(ValueError):
            TrainedModel.load(path)

    @pytest.mark.parametrize("key_path", [
        ("config",), ("params",), ("buffers",), ("params", 0, "name"),
        ("params", 0, "shape"), ("buffers", 0, "name"),
        ("buffers", 0, "shape"), ("config", "layers"), ("config", "alphabet"),
        ("config", "input_freq_bins"), ("config", "seed"),
        ("config", "layers", 0, "kind")], ids=key_id)
    def test_header_lacking_a_key_names_file_and_key(self, tmp_path,
                                                     key_path):
        path = tmp_path / "m.ckpt"
        TrainedModel(tiny_config(seed=7)).save(path)
        drop_header_key(path, CHECKPOINT_MAGIC, key_path)
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            TrainedModel.load(path)
        assert "model checkpoint" in str(err.value)
        assert repr(key_path[-1]) in str(err.value)

    @staticmethod
    def rewrite_params(path, edit):
        """Rewrite the checkpoint at ``path`` with ``edit`` applied to its
        list of (params entry, that entry's payload bytes)."""
        header, payload = read_artifact(
            path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "model checkpoint",
            lambda h: 4 * sum(math.prod(e["shape"])
                              for section in ("params", "buffers")
                              for e in h[section]),
            lambda h, p: (h, bytes(p)))
        params, offset = [], 0
        for entry in header["params"]:
            size = 4 * math.prod(entry["shape"])
            params.append((entry, payload[offset:offset + size]))
            offset += size
        params = edit(params)
        header["params"] = [entry for entry, _chunk in params]
        path.write_bytes(
            artifact_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header)
            + b"".join(chunk for _entry, chunk in params) + payload[offset:])

    @pytest.mark.parametrize("edit, found, want", [
        (lambda params: [p for p in params if p[0]["name"] != "L10.b"],
         None, ("L10.b", [29])),
        (lambda params: params[:1] + params, ("L1.W", [8, 1, 11, 41]),
         ("L1.b", [8]))],
        ids=["dropped_entry", "repeated_entry"])
    def test_header_names_must_be_the_registry(self, tmp_path, edit, found,
                                               want):
        # Each rewritten file is whole: its payload matches its header.
        path = tmp_path / "m.ckpt"
        TrainedModel(preset("ds2-mini", seed=1)).save(path)
        self.rewrite_params(path, edit)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: params entry ")) as err:
            TrainedModel.load(path)
        assert f"is {found}, the model config's is {want}" in str(err.value)
        assert str(err.value).count(str(path)) == 1

    def test_config_failing_validation_names_file(self, tmp_path):
        # Layer 3 of ds2-light-mini is an LSTM, which has no activation.
        path = tmp_path / "m.ckpt"
        TrainedModel(preset("ds2-light-mini", seed=1)).save(path)
        edit_header(path, CHECKPOINT_MAGIC, lambda header: header["config"][
            "layers"][3].update(activation="relu"))
        with pytest.raises(ValueError) as err:
            TrainedModel.load(path)
        assert str(err.value) == \
            f"{path}: activation 'relu' is not one a lstm_bidir layer has"

    def test_fc_batchnorm_in_header_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        TrainedModel(preset("ds2-mini", seed=1)).save(path)
        edit_header(path, CHECKPOINT_MAGIC, lambda header: header["config"][
            "layers"][-1].update(batchnorm=True))
        with pytest.raises(ValueError) as err:
            TrainedModel.load(path)
        assert str(err.value) == \
            f"{path}: batchnorm is not one a fully_connected layer has"

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_rejects_damaged_file(self, tmp_path, damage):
        path = tmp_path / "m.ckpt"
        TrainedModel(tiny_config(seed=7)).save(path)
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            TrainedModel.load(path)
