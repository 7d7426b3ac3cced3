import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (collapse, ctc_beta, ctc_brute_force, ctc_grad,
                     greedy_decode)

from ctcprobe import ctc


def random_log_probs(rng, T, S):
    logits = rng.normal(size=(T, S))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


class TestCollapse:
    def test_merge_then_delete(self):
        # a a _ a b -> a a b
        assert collapse([1, 1, 0, 1, 2]) == [1, 1, 2]

    def test_all_blank(self):
        assert collapse([0, 0, 0]) == []

    def test_cat(self):
        # _ c _ a a _ t
        c, a, t = 3, 1, 20
        assert collapse([0, c, 0, a, a, 0, t]) == [c, a, t]

    @given(st.lists(st.integers(min_value=1, max_value=5), max_size=8))
    def test_idempotent_on_collapsed_output(self, path):
        once = collapse(path)
        assert collapse(once) == once


class TestCtcLoss:
    def test_single_frame_uniform(self):
        lp = np.log(np.full((1, 3), 1.0 / 3.0))
        assert ctc.ctc_loss(lp, [1]) == pytest.approx(np.log(3.0))

    def test_two_frame_closed_form(self):
        rng = np.random.default_rng(0)
        lp = random_log_probs(rng, 2, 3)
        p = np.exp(lp)
        a = 1
        expected = (p[0, a] * p[1, a] + p[0, 0] * p[1, a]
                    + p[0, a] * p[1, 0])
        assert np.exp(-ctc.ctc_loss(lp, [a])) == pytest.approx(expected)

    def test_infeasible_raises_typed_error(self):
        lp = random_log_probs(np.random.default_rng(1), 2, 4)
        with pytest.raises(ctc.InfeasibleTranscriptError):
            ctc.ctc_loss(lp, [1, 2, 3])
        with pytest.raises(ctc.InfeasibleTranscriptError):
            ctc.ctc_loss(lp, [1, 1])  # repeat needs an intermediate blank

    def test_empty_labels_rejected(self):
        lp = random_log_probs(np.random.default_rng(2), 3, 4)
        with pytest.raises(ValueError):
            ctc.ctc_loss(lp, [])

    def test_blank_label_rejected(self):
        lp = random_log_probs(np.random.default_rng(3), 3, 4)
        with pytest.raises(ValueError):
            ctc.ctc_loss(lp, [0, 1])

    def test_pure_blank_frame_appended_keeps_probability(self):
        rng = np.random.default_rng(4)
        lp = random_log_probs(rng, 4, 4)
        blank_frame = np.full((1, 4), -np.inf)
        blank_frame[0, 0] = 0.0
        extended = np.concatenate([lp, blank_frame])
        for labels in ([1], [2, 3], [1, 1]):
            assert ctc.ctc_loss(extended, labels) == pytest.approx(
                ctc.ctc_loss(lp, labels), abs=1e-12)

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            T = int(rng.integers(2, 7))
            lp = random_log_probs(rng, T, 4)
            labels = [int(v) for v in rng.integers(1, 4, size=rng.integers(1, 3))]
            if T < ctc.min_path_length(labels):
                continue
            p = np.exp(-ctc.ctc_loss(lp, labels))
            assert 0.0 < p <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dp_matches_brute_force(self, data):
        T = data.draw(st.integers(1, 6))
        S = data.draw(st.integers(2, 4))
        L = data.draw(st.integers(1, 3))
        labels = data.draw(st.lists(st.integers(1, S - 1),
                                    min_size=L, max_size=L))
        seed = data.draw(st.integers(0, 2 ** 16))
        lp = random_log_probs(np.random.default_rng(seed), T, S)
        oracle = ctc_brute_force(np.exp(lp), labels)
        if T < ctc.min_path_length(labels):
            assert oracle == 0.0
            with pytest.raises(ctc.InfeasibleTranscriptError):
                ctc.ctc_loss(lp, labels)
        else:
            assert np.exp(-ctc.ctc_loss(lp, labels)) == pytest.approx(
                oracle, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reversed_lattice_is_the_textbook_beta(self, data):
        # Bit for bit: the brute-force and finite-difference oracles only
        # check beta to a tolerance, through the loss and the gradient.
        T = data.draw(st.integers(1, 6))
        S = data.draw(st.integers(2, 4))
        L = data.draw(st.integers(1, 3))
        labels = data.draw(st.lists(st.integers(1, S - 1),
                                    min_size=L, max_size=L))
        seed = data.draw(st.integers(0, 2 ** 16))
        lp = random_log_probs(np.random.default_rng(seed), T, S)
        ext = ctc._extended(labels)
        assert np.array_equal(ctc._beta(lp, ext), ctc_beta(lp, ext))

    def test_no_nan_with_peaked_distributions(self):
        lp = np.log(np.array([[1e-300, 1.0 - 2e-300, 1e-300]] * 5))
        loss = ctc.ctc_loss(lp, [1])
        assert np.isfinite(loss)
        grad = ctc_grad(lp, [1])
        assert np.all(np.isfinite(grad))


class TestCtcGrad:
    def test_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(5, 4))
        labels = [1, 3]

        def loss_of(z):
            lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return ctc.ctc_loss(lp, labels)

        lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        analytic = ctc_grad(lp, labels)
        h = 1e-6
        for t in range(5):
            for s in range(4):
                zp, zm = logits.copy(), logits.copy()
                zp[t, s] += h
                zm[t, s] -= h
                fd = (loss_of(zp) - loss_of(zm)) / (2 * h)
                denom = abs(fd) + abs(analytic[t, s]) + 1e-8
                assert abs(fd - analytic[t, s]) / denom < 1e-4

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(11)
        lp = random_log_probs(rng, 6, 5)
        grad = ctc_grad(lp, [2, 4, 1])
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-8)

    def test_single_frame_closed_form(self):
        rng = np.random.default_rng(12)
        lp = random_log_probs(rng, 1, 4)
        grad = ctc_grad(lp, [2])
        onehot = np.zeros(4)
        onehot[2] = 1.0
        np.testing.assert_allclose(grad[0], np.exp(lp[0]) - onehot, atol=1e-12)

    def test_loss_and_grad_equal_separate_calls(self):
        rng = np.random.default_rng(13)
        n_checked = 0
        for _ in range(60):
            T = int(rng.integers(1, 12))
            S = int(rng.integers(2, 6))
            labels = [int(v) for v in
                      rng.integers(1, S, size=rng.integers(1, 5))]
            if T < ctc.min_path_length(labels):
                continue
            lp = random_log_probs(rng, T, S)
            loss, grad = ctc.ctc_loss_and_grad(lp, labels)
            assert loss == ctc.ctc_loss(lp, labels)
            assert np.array_equal(grad, ctc_grad(lp, labels))
            n_checked += 1
        assert n_checked >= 20


class TestBruteForce:
    def test_label_longer_than_t(self):
        probs = np.full((2, 3), 1.0 / 3.0)
        assert ctc_brute_force(probs, [1, 2, 1]) == 0.0

    def test_single_frame(self):
        probs = np.array([[0.2, 0.5, 0.3]])
        assert ctc_brute_force(probs, [1]) == pytest.approx(0.5)

    def test_cap(self):
        probs = np.full((8, 10), 0.1)
        with pytest.raises(ValueError):
            ctc_brute_force(probs, [1], cap=10 ** 6)


class TestGreedyDecode:
    def test_uniform_ties_to_blank(self):
        lp = np.log(np.full((4, 29), 1.0 / 29.0))
        decode = greedy_decode(lp)
        assert decode.path == [0, 0, 0, 0]
        assert decode.categories == ["blank"] * 4
        assert decode.collapsed == []

    def test_one_hot_cat(self):
        alphabet = ctc.default_alphabet()
        idx = {ch: i for i, ch in enumerate(alphabet)}
        rows = np.full((4, 29), -50.0)
        for t, ch in enumerate(["_", "c", "a", "t"]):
            rows[t, idx[ch]] = 0.0
        decode = greedy_decode(rows)
        assert [alphabet[i] for i in decode.collapsed] == ["c", "a", "t"]
        assert decode.categories == ["blank", "letter", "letter", "letter"]

    def test_category_shares(self):
        alphabet = ctc.default_alphabet()
        rows = np.full((4, 29), -50.0)
        rows[0, 0] = 0.0          # blank
        rows[1, 27] = 0.0         # space
        rows[2, 1] = 0.0          # letter
        rows[3, 1] = 0.0
        assert ctc.greedy_categories(rows, alphabet) == "bsll"

    @pytest.mark.parametrize("alphabet", [
        ctc.default_alphabet(), ["_", " ", "a", "b", "'"], ["_", "a", "b"]])
    def test_greedy_categories_match_oracle_decode(self, alphabet):
        # Log-probs drawn from a few levels, so most rows hold ties; the
        # space sits at index 27, at index 1, or is absent.
        rng = np.random.default_rng(14)
        for _ in range(100):
            T = int(rng.integers(1, 60))
            lp = rng.integers(-3, 1, size=(T, len(alphabet))).astype(float)
            expected = "".join(cat[0] for cat in
                               greedy_decode(lp, alphabet).categories)
            assert ctc.greedy_categories(lp, alphabet) == expected

    def test_default_alphabet(self):
        alphabet = ctc.default_alphabet()
        assert len(alphabet) == 29
        assert alphabet[0] == "_"
        assert alphabet[27] == " " and alphabet[28] == "'"
