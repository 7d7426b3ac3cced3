import logging

import numpy as np
import pytest

from ctcprobe import trainer
from ctcprobe.acoustic import SynthConfig, synthesize_corpus
from ctcprobe.model import LayerSpec, ModelConfig
from ctcprobe.probing import FrameDataset
from ctcprobe.trainer import (AdamState, ProbeConfig, TrainConfig, adam_step,
                              encode_transcript, split_dev, train_asr,
                              train_probe)


def reference_adam_step(params, grads, state: AdamState):
    """The functional Adam that adam_step replaced, kept as its bit-exact
    reference: one bias-corrected update; returns (new_params, new_state)
    and leaves its inputs alone."""
    t = state.t + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape {p.shape} "
                f"for {name!r}")
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        new_params[name] = p - state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(t=t, m=new_m, v=new_v, alpha=state.alpha,
                                 beta1=state.beta1, beta2=state.beta2,
                                 eps=state.eps)


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        before = params["w"].copy()
        grads = {"w": np.zeros(3)}
        state = AdamState.init(params)
        adam_step(params, grads, state)
        np.testing.assert_array_equal(params["w"], before)
        assert state.t == 1

    def test_first_step_hand_computed(self):
        # m̂ = v̂ = 1 after bias correction, so the step is α/(1+ε) ≈ α.
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([1.0])}
        adam_step(params, grads, AdamState.init(params))
        expected = 1.0 - 0.001 / (1.0 + 1e-8)
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)
        assert params["w"][0] == pytest.approx(0.999, abs=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        start = rng.normal(size=(3, 4))
        grads = {"w": rng.normal(size=(3, 4))}
        a = {"w": start.copy()}
        b = {"w": start.copy()}
        adam_step(a, grads, AdamState.init(a))
        adam_step(b, grads, AdamState.init(b))
        assert not np.array_equal(a["w"], start)
        np.testing.assert_array_equal(a["w"], b["w"])

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(4)}, AdamState.init(params))

    def test_non_contiguous_parameter_rejected(self):
        # An in-place update through a copy would be lost silently.
        params = {"w": np.zeros((4, 3)).T}
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(params, {"w": np.ones((3, 4))}, AdamState.init(params))

    def test_shape_mismatch_on_a_later_tensor_writes_nothing(self):
        rng = np.random.default_rng(2)
        params = {"a": rng.normal(size=5), "b": rng.normal(size=(2, 3))}
        state = AdamState.init(params)
        adam_step(params, {k: rng.normal(size=p.shape)
                           for k, p in params.items()}, state)
        before = ({k: p.copy() for k, p in params.items()},
                  {k: m.copy() for k, m in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()})
        bad = {"a": rng.normal(size=5), "b": rng.normal(size=(3, 2))}
        with pytest.raises(ValueError, match="'b'"):
            adam_step(params, bad, state)
        assert state.t == 1
        for live, saved in zip((params, state.m, state.v), before):
            for k in saved:
                np.testing.assert_array_equal(live[k], saved[k])

    def test_first_step_magnitude_bounded_by_alpha(self):
        # From a fresh state, |update| = α·|ĝ|/(√ĝ² + ε) ≤ α.
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = {"w": rng.normal(size=8)}
            before = params["w"].copy()
            grads = {"w": rng.normal(size=8) * 10.0 ** rng.integers(-6, 6)}
            state = AdamState.init(params)
            adam_step(params, grads, state)
            assert np.any(params["w"] != before)
            assert np.all(np.abs(params["w"] - before)
                          <= state.alpha * (1.0 + 1e-9))

    def test_constant_gradient_keeps_steps_near_alpha(self):
        # With a constant gradient, every bias-corrected step stays at
        # α·1/(1+ε·…) ≈ α regardless of magnitude.
        params = {"w": np.array([0.0])}
        state = AdamState.init(params)
        for _ in range(10):
            prev = params["w"].copy()
            adam_step(params, {"w": np.array([42.0])}, state)
            assert params["w"][0] != prev[0]
            assert abs(params["w"][0] - prev[0]) <= 0.001 * (1.0 + 1e-6)

    @pytest.mark.parametrize("size", [
        1, 1000, trainer.ADAM_SLICE, 3 * trainer.ADAM_SLICE + 123])
    def test_bit_identical_to_whole_array_reference(self, size):
        # Sizes below one slice, exactly one, and several plus a remainder;
        # gradients from zero through magnitudes 1e-6 .. 1e6, and one
        # non-contiguous gradient per step.
        rng = np.random.default_rng(size)
        params = {"w": rng.normal(size=size),
                  "m": rng.normal(size=(7, 5)),
                  "z": rng.normal(size=size)}
        ref = {k: p.copy() for k, p in params.items()}
        ref_state = AdamState.init(ref)
        state = AdamState.init(params)
        for step in range(24):
            scale = 10.0 ** rng.integers(-6, 7, size=size)
            grads = {"w": rng.normal(size=size) * scale,
                     "m": rng.normal(size=(5, 7)).T,
                     "z": (np.zeros(size) if step % 3 == 0 else
                           rng.normal(size=size) * 10.0 ** (step % 13 - 6))}
            assert not grads["m"].flags.c_contiguous
            ref, ref_state = reference_adam_step(ref, grads, ref_state)
            adam_step(params, grads, state)
            assert state.t == ref_state.t
            for k in params:
                np.testing.assert_array_equal(params[k], ref[k])
                np.testing.assert_array_equal(state.m[k], ref_state.m[k])
                np.testing.assert_array_equal(state.v[k], ref_state.v[k])


class TestSplitDev:
    def test_sizes_and_determinism(self):
        items = list(range(50))
        train, dev = split_dev(items, 0.1, seed=3)
        assert len(dev) == 5 and len(train) == 45
        assert sorted(train + dev) == items
        train2, dev2 = split_dev(items, 0.1, seed=3)
        assert (train, dev) == (train2, dev2)

    def test_single_item(self):
        train, dev = split_dev([42], 0.1, seed=0)
        assert train == [42] and dev == []


def tiny_model_config(seed=0):
    return ModelConfig(
        layers=[
            LayerSpec("conv2d", kernel=(3, 5), stride=(2, 2), padding=(1, 0),
                      out_channels=2, batchnorm=True, activation="relu"),
            LayerSpec("rnn_bidir", hidden_size=8),
            LayerSpec("fully_connected", hidden_size=29, batchnorm=False),
        ],
        input_freq_bins=161, seed=seed)


class TestTrainAsr:
    def make_corpus(self, n=12, seed=0):
        cfg = SynthConfig(phone_inventory_size=4, phones_per_utterance=(3, 4),
                          segment_frames=(8, 10), seed=seed)
        return synthesize_corpus(cfg, n)

    def test_loss_log_and_selection(self):
        corpus = self.make_corpus()
        result = train_asr(corpus, tiny_model_config(),
                           TrainConfig(epochs=3, batch_size=4, seed=1))
        assert [r["epoch"] for r in result.log] == [0, 1, 2, 3]
        dev_losses = [r["dev_loss"] for r in result.log]
        assert result.best_epoch == int(np.argmin(dev_losses))
        assert dev_losses[result.best_epoch] <= dev_losses[0]

    def test_warns_only_when_selection_keeps_epoch_zero(self, caplog):
        corpus = self.make_corpus()

        def epoch_zero_warnings(**overrides):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="ctcprobe.trainer"):
                result = train_asr(corpus, tiny_model_config(), TrainConfig(
                    **{"epochs": 2, "batch_size": 4, "seed": 1, **overrides}))
            return result, [r.getMessage() for r in caplog.records
                            if "epoch 0" in r.getMessage()]

        # A huge step size wrecks the network, so no epoch beats epoch 0.
        result, warnings = epoch_zero_warnings(alpha=50.0)
        assert result.best_epoch == 0
        later = min(result.log[1:], key=lambda r: r["dev_loss"])
        assert len(warnings) == 1
        assert f"dev loss {result.log[0]['dev_loss']:.6g}" in warnings[0]
        assert f"epoch {later['epoch']}, dev loss {later['dev_loss']:.6g}" \
            in warnings[0]

        result, warnings = epoch_zero_warnings(epochs=3)
        assert result.best_epoch > 0
        assert warnings == []

    def test_same_seed_identical_logs(self):
        corpus = self.make_corpus()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=7)
        a = train_asr(corpus, tiny_model_config(), cfg)
        b = train_asr(corpus, tiny_model_config(), cfg)
        assert a.log == b.log

    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_asr([], tiny_model_config(), TrainConfig(epochs=1))

    def test_infeasible_utterances_dropped_with_count(self):
        corpus = self.make_corpus(8)
        # Short utterances whose transcript cannot fit the strided output.
        short_cfg = SynthConfig(phone_inventory_size=4,
                                phones_per_utterance=(6, 6),
                                segment_frames=(1, 1), seed=5)
        short = synthesize_corpus(short_cfg, 3)
        result = train_asr(corpus + short, tiny_model_config(),
                           TrainConfig(epochs=1, batch_size=4, seed=0))
        assert result.n_dropped >= 3

    def test_encode_transcript(self):
        alphabet = ["_", "a", "b", " "]
        assert encode_transcript("ab a", alphabet) == [1, 2, 3, 1]
        with pytest.raises(ValueError):
            encode_transcript("xyz", alphabet)


def separable_datasets(n=120, d=6, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate([rng.normal(-4.0, 0.5, size=(half, d)),
                        rng.normal(4.0, 0.5, size=(half, d))])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    order = rng.permutation(n)
    x, y = x[order], y[order]
    names = ["p00", "p01"]
    return (FrameDataset(x[: 3 * n // 4], y[: 3 * n // 4], names),
            FrameDataset(x[3 * n // 4:], y[3 * n // 4:], names))


class TestTrainProbe:
    def test_separable_data_reaches_perfect_dev_accuracy(self):
        train, dev = separable_datasets()
        result = train_probe(train, dev, ProbeConfig(hidden=16, epochs=30,
                                                     seed=0))
        assert result.curve[-1]["dev_accuracy"] == 1.0 or any(
            r["dev_accuracy"] == 1.0 for r in result.curve)
        loss, acc = result.probe.evaluate_loss(dev.vectors, dev.labels)
        assert acc == 1.0

    def test_shuffled_labels_stay_near_chance(self):
        rng = np.random.default_rng(4)
        train, dev = separable_datasets(n=400, seed=4)
        train = FrameDataset(train.vectors,
                             rng.permutation(train.labels),
                             train.label_names)
        dev = FrameDataset(dev.vectors, rng.permutation(dev.labels),
                           dev.label_names)
        result = train_probe(train, dev, ProbeConfig(hidden=16, epochs=10,
                                                     seed=0))
        _loss, acc = result.probe.evaluate_loss(dev.vectors, dev.labels)
        assert abs(acc - 0.5) <= 0.15

    def test_best_dev_loss_selection_is_curve_argmin(self):
        train, dev = separable_datasets(seed=2)
        result = train_probe(train, dev, ProbeConfig(hidden=8, epochs=8,
                                                     seed=1))
        dev_losses = [r["dev_loss"] for r in result.curve]
        assert result.best_epoch == int(np.argmin(dev_losses))

    def test_evaluation_applies_no_dropout(self):
        train, dev = separable_datasets(seed=3)
        result = train_probe(train, dev, ProbeConfig(hidden=8, epochs=2,
                                                     dropout=0.5, seed=0))
        a = result.probe.evaluate_loss(dev.vectors, dev.labels)
        b = result.probe.evaluate_loss(dev.vectors, dev.labels)
        assert a == b

    def test_label_space_mismatch_rejected(self):
        train, dev = separable_datasets()
        bad_dev = FrameDataset(dev.vectors, dev.labels, ["x", "y"])
        with pytest.raises(ValueError):
            train_probe(train, bad_dev, ProbeConfig(epochs=1))

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(dropout=1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("selection", "bset_dev_loss", "unknown selection 'bset_dev_loss'"),
        ("batch_size", 0, "batch_size must be >= 1"),
    ])
    def test_config_fields_validated(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ProbeConfig(**{field: value})
