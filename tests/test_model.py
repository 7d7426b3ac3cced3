import re

import numpy as np
import pytest

from ctcprobe import ctc
from ctcprobe.model import (LayerSpec, ModelConfig, TrainedModel,
                            conv_output_len, preset)


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


class TestModelConfigValidation:
    def test_last_layer_must_be_fc_with_alphabet_size(self):
        with pytest.raises(ValueError):
            ModelConfig([LayerSpec("rnn_bidir", hidden_size=8)])
        with pytest.raises(ValueError):
            ModelConfig([LayerSpec("fully_connected", hidden_size=7)])

    def test_layer_ordering_enforced(self):
        fc = LayerSpec("fully_connected", hidden_size=29, batchnorm=False)
        conv = LayerSpec("conv2d", kernel=(3, 3), stride=(1, 1),
                         padding=(1, 1), out_channels=2)
        rnn = LayerSpec("rnn_bidir", hidden_size=8)
        with pytest.raises(ValueError):
            ModelConfig([rnn, conv, fc])

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
        result = model.forward(x)
        np.testing.assert_allclose(result.probs.sum(axis=1), 1.0, atol=1e-6)

    def test_tap_shapes_follow_config(self):
        cfg = tiny_config()
        model = TrainedModel(cfg)
        x = np.abs(np.random.default_rng(1).normal(size=(12, 13)))
        for strides in (True, False):
            result = model.forward(x, strides_enabled=strides)
            assert len(result.taps) == cfg.n_layers + 1
            for k, tap in enumerate(result.taps):
                assert tap.frames.shape == (
                    cfg.time_len_after(k, 12, strides),
                    cfg.tap_width(k)), k

    def test_stride_free_keeps_length(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(2).normal(size=(17, 13)))
        result = model.forward(x, strides_enabled=False)
        assert all(t.frames.shape[0] == 17 for t in result.taps)

    def test_zero_fc_weights_give_uniform_softmax(self):
        model = TrainedModel(tiny_config())
        model.layers[-1].params["W"][:] = 0.0
        model.layers[-1].params["b"][:] = 0.0
        x = np.abs(np.random.default_rng(3).normal(size=(10, 13)))
        result = model.forward(x)
        np.testing.assert_allclose(result.probs, 1.0 / 5.0, atol=1e-12)

    def test_eval_forward_bit_identical(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(4).normal(size=(11, 13)))
        a = model.forward(x)
        b = model.forward(x)
        assert np.array_equal(a.logits, b.logits)
        for ta, tb in zip(a.taps, b.taps):
            assert np.array_equal(ta.frames, tb.frames)

    def test_shape_mismatch_rejected(self):
        model = TrainedModel(tiny_config())
        with pytest.raises(ValueError):
            model.forward(np.zeros((10, 12)))

    def test_preactivation_taps_differ_after_relu_layers(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(5).normal(size=(12, 13)))
        post = model.forward(x).taps[1].frames
        pre = model.forward(x, tap_preactivation=True).taps[1].frames
        assert np.all(post >= 0.0)
        assert np.any(pre < 0.0)
        np.testing.assert_allclose(np.maximum(pre, 0.0), post, atol=1e-12)


class TestBackward:
    def test_requires_train_forward(self):
        model = TrainedModel(tiny_config())
        with pytest.raises(RuntimeError):
            model.backward(np.zeros((6, 5)))

    def test_zero_upstream_gives_zero_grads(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(6).normal(size=(12, 13)))
        result = model.forward(x, mode="train")
        grads = model.backward(np.zeros_like(result.logits))
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    def test_grad_shapes_match_params(self):
        model = TrainedModel(tiny_config())
        x = np.abs(np.random.default_rng(7).normal(size=(12, 13)))
        result = model.forward(x, mode="train")
        grads = model.backward(np.random.default_rng(8).normal(
            size=result.logits.shape))
        for name, p in model.params.items():
            assert grads[name].shape == p.shape, name

    def test_full_model_finite_differences(self):
        # End-to-end CTC loss gradcheck on one seed; the acceptance suite
        # sweeps many seeds.
        model = TrainedModel(tiny_config(seed=3))
        x = np.abs(np.random.default_rng(9).normal(size=(12, 13)))
        labels = [1, 2]

        def loss():
            result = model.forward(x, mode="train")
            return ctc.ctc_loss(result.log_probs, labels)

        result = model.forward(x, mode="train")
        _, dlogits = ctc.ctc_loss_and_grad(result.log_probs, labels)
        grads = model.backward(dlogits)
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


# A cut inside the payload or the header, and junk appended to the payload.
DAMAGE = {
    "short_payload": lambda data: data[:-100],
    "short_header": lambda data: data[:40],
    "trailing_bytes": lambda data: data + b"junk",
}


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = TrainedModel(tiny_config(seed=7))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        model.save(p1)
        TrainedModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_forward_matches_f32_cast(self, tmp_path):
        model = TrainedModel(tiny_config(seed=8))
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = TrainedModel.load(path)
        assert loaded.config == model.config
        x = np.abs(np.random.default_rng(11).normal(size=(10, 13)))
        got = loaded.forward(x).logits
        for v in model.params.values():
            v[...] = v.astype(np.float32).astype(np.float64)
        expected = model.forward(x).logits
        np.testing.assert_array_equal(got, expected)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(ValueError):
            TrainedModel.load(path)

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_rejects_damaged_file(self, tmp_path, damage):
        path = tmp_path / "m.ckpt"
        TrainedModel(tiny_config(seed=7)).save(path)
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            TrainedModel.load(path)
