import logging
import math
import re

import numpy as np
import pytest
from oracles import predict

from ctcprobe import trainer
from ctcprobe.acoustic import SynthConfig, Utterance, synthesize_corpus
from ctcprobe.model import LayerSpec, ModelConfig, TrainedModel
from ctcprobe.probing import FrameDataset
from ctcprobe.trainer import (AdamState, ProbeConfig, TrainConfig, adam_step,
                              encode_transcript, split_dev, train_asr,
                              train_probe)


def reference_adam_step(params, grads, state: AdamState):
    """`adam_step`'s update on whole arrays, with Python-float scalars as
    `adam_step` must use, so it is `adam_step`'s bit-exact reference.
    Returns (new_params, new_state) and leaves its inputs alone."""
    t = state.t + 1
    b1, b2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    k_t = (state.alpha * (1.0 - b1) * math.sqrt(c2)
           / (c1 * math.sqrt(1.0 - b2)))
    e_t = trainer.ADAM_EPS * math.sqrt(c2) / math.sqrt(1.0 - b2)
    new_params, new_u, new_w = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        new_u[name] = b1 * state.u[name] + g
        new_w[name] = b2 * state.w[name] + g * g
        new_params[name] = p - k_t * (new_u[name]
                                      / (np.sqrt(new_w[name]) + e_t))
    return new_params, AdamState(t=t, u=new_u, w=new_w, alpha=state.alpha)


def textbook_adam_step(params, m, v, grads, t):
    """Step ``t`` of textbook bias-corrected Adam (Kingma and Ba,
    Algorithm 1) in float64 on whole arrays: replaces the entries of the
    dicts ``params``, ``m`` and ``v``.  `adam_step` agrees with it to
    rounding."""
    b1, b2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name].astype(np.float64)
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        params[name] = p - (trainer.ADAM_ALPHA * (m[name] / c1)
                            / (np.sqrt(v[name] / c2) + trainer.ADAM_EPS))


def float64_zeros(params):
    return {k: np.zeros(p.shape) for k, p in params.items()}


def adam_case(size, dtype, steps):
    """(params, [grads of each step]) in ``dtype``: gradients from zero
    through magnitudes 1e-6 .. 1e6, and one non-contiguous gradient per
    step."""
    rng = np.random.default_rng(size)
    params = {"w": rng.normal(size=size).astype(dtype),
              "m": rng.normal(size=(7, 5)).astype(dtype),
              "z": rng.normal(size=size).astype(dtype)}
    steps_grads = []
    for step in range(steps):
        scale = 10.0 ** rng.integers(-6, 7, size=size)
        steps_grads.append({
            "w": (rng.normal(size=size) * scale).astype(dtype),
            "m": rng.normal(size=(5, 7)).T.astype(dtype),
            "z": (np.zeros(size) if step % 3 == 0 else
                  rng.normal(size=size) * 10.0 ** (step % 13 - 6)
                  ).astype(dtype)})
        assert not steps_grads[-1]["m"].flags.c_contiguous
    return params, steps_grads


# Largest |adam_step - textbook| of a float64 parameter over
# `test_float64_agrees_with_textbook_form`'s 48 steps, as a fraction of the
# parameter's largest entry.  Measured worst 1.1e-16 (48 steps, three
# gradient seeds, each of ADAM_SIZES; 2.1e-16 when the moments kept their
# (1 - b) factors); the bound is two float64 epsilons.  Per step, it also
# bounds how far rounding moves a moment times (1 - b) from the textbook
# moment, as a fraction of the moment's sum of absolute terms: measured
# worst 1.6 float64 epsilons a step (five gradient seeds).
ADAM_TEXTBOOK_AGREEMENT = 2 * np.finfo(np.float64).eps

# Largest |adam_step - textbook| of a float32 parameter over 48 steps, as
# a fraction of the float64 textbook parameter's largest entry: float32
# rounds the parameter once a step.  Measured worst 6.2e-7 (5.2 float32
# epsilons) on `adam_case`'s gradients and 9.5e-7 over ten gradient seeds,
# each of ADAM_SIZES, the same with moments scaled by (1 - b) and without;
# the bound is sixteen float32 epsilons.
ADAM_FLOAT32_AGREEMENT = 16 * np.finfo(np.float32).eps


# Below one Adam slice, exactly one, and several plus a remainder.
ADAM_SIZES = (1, 1000, trainer.ADAM_SLICE, 3 * trainer.ADAM_SLICE + 123)
ADAM_SIZE_DTYPES = [
    *[pytest.param(n, np.float64, id=str(n)) for n in ADAM_SIZES],
    *[pytest.param(n, np.float32, id=f"{n}-float32") for n in ADAM_SIZES]]


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
                  {k: u.copy() for k, u in state.u.items()},
                  {k: w.copy() for k, w in state.w.items()})
        bad = {"a": rng.normal(size=5), "b": rng.normal(size=(3, 2))}
        with pytest.raises(ValueError, match="'b'"):
            adam_step(params, bad, state)
        assert state.t == 1
        for live, saved in zip((params, state.u, state.w), before):
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

    @pytest.mark.parametrize("size, dtype", ADAM_SIZE_DTYPES)
    def test_bit_identical_to_whole_array_reference(self, size, dtype):
        # Slicing changes no bit: the whole-array form with unnormalised
        # moments, parameters and gradients in one dtype, which the
        # reference computes in too.  Its scalars are Python floats, so an
        # np.float64 scalar in adam_step, which takes float32 arithmetic
        # through float64 under NEP 50, fails the float32 cases.
        params, steps_grads = adam_case(size, dtype, 24)
        ref = {k: p.copy() for k, p in params.items()}
        ref_state = AdamState.init(ref)
        state = AdamState.init(params)
        for grads in steps_grads:
            ref, ref_state = reference_adam_step(ref, grads, ref_state)
            adam_step(params, grads, state)
            assert state.t == ref_state.t
            assert state.scratch.dtype == dtype
            for k in params:
                assert params[k].dtype == ref[k].dtype == dtype
                np.testing.assert_array_equal(params[k], ref[k])
                np.testing.assert_array_equal(state.u[k], ref_state.u[k])
                np.testing.assert_array_equal(state.w[k], ref_state.w[k])

    @pytest.mark.parametrize("size", ADAM_SIZES)
    def test_float64_agrees_with_textbook_form(self, size):
        # Moments kept without their (1 - b) factors, with the bias
        # corrections folded into k_t and e_t, are the textbook update in
        # exact arithmetic.  The parameters agree to rounding, and each
        # step's rounding moves a moment times (1 - b) from the textbook
        # one by at most ADAM_TEXTBOOK_AGREEMENT of the moment's sum of
        # absolute terms (v's terms are all >= 0).
        b1, b2 = trainer.ADAM_BETA1, trainer.ADAM_BETA2
        params, steps_grads = adam_case(size, np.float64, 48)
        ref = {k: p.copy() for k, p in params.items()}
        m, v, m_abs = (float64_zeros(params) for _ in range(3))
        state = AdamState.init(params)
        for t, grads in enumerate(steps_grads, 1):
            textbook_adam_step(ref, m, v, grads, t)
            adam_step(params, grads, state)
            for k in params:
                m_abs[k] = b1 * m_abs[k] + (1.0 - b1) * np.abs(grads[k])
                bound = t * ADAM_TEXTBOOK_AGREEMENT
                assert np.all(np.abs(state.u[k] * (1.0 - b1) - m[k])
                              <= bound * m_abs[k]), k
                assert np.all(np.abs(state.w[k] * (1.0 - b2) - v[k])
                              <= bound * v[k]), k
                worst = np.abs(params[k] - ref[k]).max()
                assert worst <= (ADAM_TEXTBOOK_AGREEMENT
                                 * np.abs(ref[k]).max()), k

    @pytest.mark.parametrize("size", ADAM_SIZES)
    def test_float32_agrees_with_float64_textbook_form(self, size):
        # Every probe trains in float32: its parameters stay within
        # ADAM_FLOAT32_AGREEMENT of the float64 textbook update run on the
        # same float32 start and gradients.
        params, steps_grads = adam_case(size, np.float32, 48)
        ref = {k: p.astype(np.float64) for k, p in params.items()}
        m, v = float64_zeros(params), float64_zeros(params)
        state = AdamState.init(params)
        for t, grads in enumerate(steps_grads, 1):
            textbook_adam_step(ref, m, v, grads, t)
            adam_step(params, grads, state)
            for k in params:
                assert params[k].dtype == np.float32
                worst = np.abs(params[k] - ref[k]).max()
                assert worst <= (ADAM_FLOAT32_AGREEMENT
                                 * np.abs(ref[k]).max()), k


def subnormal(x):
    """Nonzero entries below the smallest normal of x's dtype."""
    return (x != 0) & (np.abs(x) < np.finfo(x.dtype).tiny)


def capture_adam_states(monkeypatch):
    """The AdamState of every later `_fit`, in order of creation."""
    states = []
    init = AdamState.init.__func__

    def spy(cls, params, alpha=trainer.ADAM_ALPHA):
        states.append(init(cls, params, alpha))
        return states[-1]

    monkeypatch.setattr(AdamState, "init", classmethod(spy))
    return states


class TestFlushSubnormals:
    def test_float32_moments_gone_subnormal_become_zero(self):
        # One step, then zero gradients: u decays by b1 and w by b2 a
        # step.  From these gradients u[3] and w[2] (from 1.1e-19 squared,
        # just above float32's smallest normal) sink below that normal
        # while the rest stay normal or, as (1e-36)**2 does, zero.
        params = {"w": np.zeros(4, np.float32)}
        state = AdamState.init(params)
        adam_step(params, {"w": np.array([1.0, -1e-3, 1.1e-19, -1e-36],
                                         np.float32)}, state)
        assert not subnormal(state.u["w"]).any()
        assert not subnormal(state.w["w"]).any()
        for _ in range(60):
            adam_step(params, {"w": np.zeros(4, np.float32)}, state)
        u, w = state.u["w"].copy(), state.w["w"].copy()
        assert subnormal(u).tolist() == [False, False, False, True]
        assert subnormal(w).tolist() == [False, False, True, False]
        trainer.flush_subnormals(state)
        for before, after in ((u, state.u["w"]), (w, state.w["w"])):
            assert after.dtype == np.float32
            np.testing.assert_array_equal(
                after.view(np.uint32),
                np.where(subnormal(before), 0, before).view(np.uint32))

    @pytest.mark.parametrize("size, dtype", ADAM_SIZE_DTYPES)
    def test_sliced_flush_matches_whole_array(self, size, dtype):
        # Moments drawn from subnormals and zeros of both signs, the
        # smallest normal and larger values, with subnormals planted on
        # both sides of every slice boundary: the same bits as flushing
        # each moment whole.
        tiny = np.finfo(dtype).tiny
        pool = np.array([tiny / 2, -tiny / 3, np.nextafter(tiny, 0),
                         tiny, -tiny, 0.0, -0.0, 1.0, -1e-20], dtype)
        rng = np.random.default_rng(size)
        params, _ = adam_case(size, dtype, 0)
        state = AdamState.init(params)
        for moments in (state.u, state.w):
            for x in moments.values():
                flat = x.reshape(-1)
                flat[...] = rng.choice(pool, size=flat.size)
                for edge in range(trainer.ADAM_SLICE, flat.size,
                                  trainer.ADAM_SLICE):
                    flat[edge - 1], flat[edge] = tiny / 2, -tiny / 4
                    assert subnormal(flat[edge - 1:edge + 1]).all()
        want = [{k: x.copy() for k, x in moments.items()}
                for moments in (state.u, state.w)]
        for moments in want:
            for x in moments.values():
                x[np.abs(x) < tiny] = 0.0
        trainer.flush_subnormals(state)
        for moments, expected in zip((state.u, state.w), want):
            for k, x in moments.items():
                bits = f"u{x.itemsize}"
                np.testing.assert_array_equal(x.view(bits),
                                              expected[k].view(bits))

    @staticmethod
    def fit_one_pulse(monkeypatch):
        """Two epochs of 100 `_fit` steps on a float32 vector whose
        gradient is nonzero on the first step only; (u, w) after each."""
        states = capture_adam_states(monkeypatch)
        params = {"w": np.zeros(3, np.float32)}
        pulse = iter([np.array([1.0, 1.1e-19, 1e-34], np.float32)])
        seen = []

        def batch_grads(_idx):
            return [0.0], {"w": next(pulse, np.zeros(3, np.float32))}

        def dev_row():
            seen.append((states[-1].u["w"].copy(), states[-1].w["w"].copy()))
            return {"dev_loss": 0.0}

        trainer._fit(params, params, 100, ProbeConfig(epochs=2, batch_size=1),
                     np.random.default_rng(0), batch_grads, dev_row, 0.0)
        return seen[1:]

    def test_fit_leaves_no_subnormal_moment_after_any_epoch(self,
                                                           monkeypatch):
        # 100 steps take u[2] (from 1e-34) and w[1] (from 1.1e-19 squared)
        # into the subnormal range by the end of epoch 1.
        flushed = self.fit_one_pulse(monkeypatch)
        for u, w in flushed:
            assert not subnormal(u).any() and not subnormal(w).any()
        assert flushed[0][0][2] == 0 and flushed[0][1][1] == 0
        monkeypatch.setattr(trainer, "flush_subnormals", lambda state: None)
        kept = self.fit_one_pulse(monkeypatch)
        assert subnormal(kept[0][0])[2] and subnormal(kept[0][1])[1]

    def test_float64_fit_is_bit_identical_without_the_flush(self,
                                                            monkeypatch):
        def run():
            states = capture_adam_states(monkeypatch)
            train, dev = shuffled_label_datasets()
            probe = train_probe(train, dev, ProbeConfig(
                hidden=16, epochs=4, seed=2, alpha=0.03)).probe
            return probe.params, states[-1]

        params, state = run()
        monkeypatch.setattr(trainer, "flush_subnormals", lambda state: None)
        bare_params, bare_state = run()
        for live, bare in ((params, bare_params), (state.u, bare_state.u),
                           (state.w, bare_state.w)):
            assert set(live) == set(bare)
            for k in live:
                assert live[k].dtype == np.float64
                np.testing.assert_array_equal(live[k].view(np.uint64),
                                              bare[k].view(np.uint64))


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

    def test_two_or_more_items_give_a_dev_item(self):
        for n in (2, 3, 19):
            train, dev = split_dev(list(range(n)), 0.01, seed=0)
            assert len(dev) == 1 and len(train) == n - 1

    @pytest.mark.parametrize("n, fraction", [(10, 0.96), (2, 0.9)])
    def test_a_fraction_near_one_keeps_a_train_item(self, n, fraction):
        train, dev = split_dev(list(range(n)), fraction, seed=0)
        assert len(train) == 1 and len(dev) == n - 1


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

    def short_utterances(self, n):
        """``n`` utterances too short for their transcripts."""
        cfg = SynthConfig(phone_inventory_size=4, phones_per_utterance=(6, 6),
                          segment_frames=(1, 1), seed=5)
        return [Utterance(u.frames, u.segments, u.transcript, f"short-{i}")
                for i, u in enumerate(synthesize_corpus(cfg, n))]

    def train(self, corpus, **config):
        """train_asr on the default 10% dev split of `corpus`."""
        cfg = TrainConfig(**config)
        train, dev = split_dev(corpus, 0.1, cfg.seed)
        return train_asr(train, tiny_model_config(), cfg, dev_corpus=dev)

    def test_loss_log_and_selection(self):
        result = self.train(self.make_corpus(), epochs=3, batch_size=4, seed=1)
        assert [r["epoch"] for r in result.log] == [0, 1, 2, 3]
        dev_losses = [r["dev_loss"] for r in result.log]
        assert result.best_epoch == int(np.argmin(dev_losses))
        assert dev_losses[result.best_epoch] <= dev_losses[0]

    def test_warns_only_when_selection_keeps_epoch_zero(self, caplog):
        corpus = self.make_corpus()

        def epoch_zero_warnings(**overrides):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="ctcprobe.trainer"):
                result = self.train(corpus, **{"epochs": 2, "batch_size": 4,
                                               "seed": 1, **overrides})
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
        a = self.train(corpus, epochs=2, batch_size=4, seed=7)
        b = self.train(corpus, epochs=2, batch_size=4, seed=7)
        assert a.log == b.log

    def test_selected_epoch_restored_bit_for_bit(self):
        # A large step makes the dev loss rise again after epoch 5 of 6.
        # Training stops there in the second run, so its arrays (batch-norm
        # running statistics too) are epoch 5's; the first run must
        # restore the same.
        corpus = self.make_corpus()
        full = self.train(corpus, epochs=6, batch_size=4, seed=2, alpha=0.3)
        b = full.best_epoch
        assert 0 < b < 6
        short = self.train(corpus, epochs=b, batch_size=4, seed=2, alpha=0.3)
        assert short.best_epoch == b
        for live in ("params", "buffers"):
            want = getattr(short.model, live)
            got = getattr(full.model, live)
            assert want and set(got) == set(want)
            for k in want:
                np.testing.assert_array_equal(got[k], want[k], err_msg=k)

    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            self.train([], epochs=1)

    def test_infeasible_utterances_dropped_with_count(self):
        result = self.train(self.make_corpus(8) + self.short_utterances(3),
                            epochs=1, batch_size=4, seed=0)
        assert result.n_dropped == 3

    def test_infeasible_dev_split_fails_before_training(self, caplog,
                                                        monkeypatch):
        monkeypatch.setattr(TrainedModel, "forward",
                            lambda *args, **kwargs: pytest.fail("forwarded"))
        with caplog.at_level(logging.WARNING, logger="ctcprobe.trainer"), \
                pytest.raises(ValueError, match=re.escape(
                    "no feasible utterances in the dev split (all 2 "
                    "dropped)")):
            train_asr(self.make_corpus(6), tiny_model_config(),
                      TrainConfig(epochs=1),
                      dev_corpus=self.short_utterances(2))
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 2 infeasible utterances: 0 of 6 in the train split, "
            "2 of 2 in the dev split"]

    def test_loss_only_passes_run_on_float32_training_on_float64(
            self, monkeypatch):
        calls = []
        forward = TrainedModel.forward

        def record(model, batch, strides_enabled=True, mode="eval"):
            calls.append((mode, model.dtype.name))
            return forward(model, batch, strides_enabled, mode)

        monkeypatch.setattr(TrainedModel, "forward", record)
        self.train(self.make_corpus(), epochs=2, batch_size=4, seed=1)
        # 11 train utterances in batches of 4; epoch 0's train loss and
        # three dev losses.
        assert sorted(set(calls)) == [("eval", "float32"),
                                      ("train", "float64")]
        assert calls.count(("train", "float64")) == 2 * 3
        assert calls.count(("eval", "float32")) == 3 + 3

    def test_selected_dev_loss_is_the_checkpoints(self, tmp_path):
        corpus = self.make_corpus()
        _train, dev = split_dev(corpus, 0.1, 1)  # `train`'s split at seed 1
        result = self.train(corpus, epochs=3, batch_size=4, seed=1)
        assert result.best_epoch > 0
        result.model.save(tmp_path / "m.ckpt")
        loaded = TrainedModel.load(tmp_path / "m.ckpt")
        labels = {u.id: encode_transcript(u.transcript,
                                          loaded.config.alphabet)
                  for u in dev}
        assert trainer._mean_ctc_loss(loaded, dev, labels, 4) == \
            result.log[result.best_epoch]["dev_loss"]

    def test_duplicate_ids_rejected(self):
        # Labels are looked up by id, so a repeated id would pair one
        # utterance with another's transcript.
        corpus = self.make_corpus(4)
        with pytest.raises(ValueError, match=corpus[0].id):
            self.train(corpus + corpus[:1], epochs=1)

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


def shuffled_label_datasets():
    """separable_datasets with the labels permuted: no signal to learn."""
    rng = np.random.default_rng(4)
    train, dev = separable_datasets(n=400, seed=4)
    return (FrameDataset(train.vectors, rng.permutation(train.labels),
                         train.label_names),
            FrameDataset(dev.vectors, rng.permutation(dev.labels),
                         dev.label_names))


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
        train, dev = shuffled_label_datasets()
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

    def test_selected_epoch_restored_bit_for_bit(self):
        # On labels with no signal the dev loss is lowest at epoch 4 of 6.
        # Training stops there in the second run, so its arrays are epoch
        # 4's; the first run must restore the same.
        train, dev = shuffled_label_datasets()
        full = train_probe(train, dev, ProbeConfig(hidden=16, epochs=6,
                                                   seed=2, alpha=0.03))
        b = full.best_epoch
        assert 0 < b < 6
        short = train_probe(train, dev, ProbeConfig(hidden=16, epochs=b,
                                                    seed=2, alpha=0.03))
        assert short.best_epoch == b
        assert set(full.probe.params) == set(short.probe.params)
        for k, want in short.probe.params.items():
            np.testing.assert_array_equal(full.probe.params[k], want,
                                          err_msg=k)

    @pytest.mark.parametrize("alpha, best_epoch", [(0.5, 0), (0.05, 2)])
    def test_dev_predictions_are_the_restored_probe_s(self, alpha,
                                                      best_epoch):
        # The selected epoch's predictions come from its own dev pass; a
        # later epoch's pass must not leave its predictions in their place.
        train, dev = shuffled_label_datasets()
        result = train_probe(train, dev, ProbeConfig(hidden=16, epochs=3,
                                                     seed=0, alpha=alpha))
        assert result.best_epoch == best_epoch
        want = predict(result.probe, dev.vectors)
        assert result.dev_pred.dtype == want.dtype
        np.testing.assert_array_equal(result.dev_pred, want)
        assert float((want == dev.labels).mean()) == \
            result.curve[best_epoch]["dev_accuracy"]

    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", 0, "batch_size must be >= 1"),
    ])
    def test_config_fields_validated(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ProbeConfig(**{field: value})
