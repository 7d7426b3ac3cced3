"""Acceptance suite: one test per advertised guarantee of the toolkit.

 1. CTC dynamic program matches brute-force path enumeration.
 2. Analytic gradients (CTC and full model) match finite differences.
 3. Architecture arithmetic of the "ds2" preset (tap widths, halving).
 4. Pipeline sanity on a 200-utterance synthetic corpus.
 5. Recurrent layers beat cnn2 on a context-dependent corpus, matching
    the golden report shipped in tests/data/trend_golden.json.
 6. Blank/space/letter breakdown recombines to overall accuracy.
 7. k-means invariants and brute-force coverage pruning recount.
 8. PCA planted-plane exactness; t-SNE KL improvement.
 9. Inter/intra-class F1 on hand-computed confusion matrices.
10. Byte-identical CSV/JSON tables across runner reruns.

Regenerate the golden report (after an intentional change) with:
    python3 tests/test_acceptance.py --write-golden
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import ctc_brute_force, ctc_grad, load_dataset, predict

from ctcprobe import ctc, probing
from ctcprobe.acoustic import (N_BINS, PhoneSegment, SynthConfig,
                               Utterance, phone_template, synthesize_corpus)
from ctcprobe.clustering import kmeans, majority_clusters, pca_2d, tsne_2d
from ctcprobe.model import (LayerSpec, ModelConfig, TrainedModel, log_softmax,
                            preset)
from ctcprobe.phoneset import majority_baseline, synthetic_inventory
from ctcprobe.probing import (breakdown_by_ctc_symbol, evaluate_probe,
                              extract_frames, inter_intra_f1)
from ctcprobe.trainer import (ProbeConfig, TrainConfig, split_dev, train_asr,
                              train_probe)

GOLDEN_PATH = Path(__file__).parent / "data" / "trend_golden.json"


# ---------------------------------------------------------------------------
# 1. CTC oracle equivalence
# ---------------------------------------------------------------------------

def test_ctc_loss_matches_brute_force_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(12345)
    n_checked = 0
    while n_checked < 1000:
        T = int(rng.integers(1, 7))
        S = int(rng.integers(2, 5))
        L = int(rng.integers(1, 4))
        labels = [int(v) for v in rng.integers(1, S, size=L)]
        probs = rng.random((T, S)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        oracle = ctc_brute_force(probs, labels)
        if T < ctc.min_path_length(labels):
            assert oracle == 0.0
            with pytest.raises(ctc.InfeasibleTranscriptError):
                ctc.ctc_loss(np.log(probs), labels)
        else:
            dp = float(np.exp(-ctc.ctc_loss(np.log(probs), labels)))
            assert abs(dp - oracle) < 1e-6, (T, S, labels)
        n_checked += 1
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 2. Gradient checks
# ---------------------------------------------------------------------------

def gradcheck_model_config(seed):
    """One conv, one bidirectional RNN, one bidirectional LSTM, one fc."""
    return ModelConfig(
        layers=[
            LayerSpec("conv2d", kernel=(3, 5), stride=(2, 2), padding=(1, 0),
                      out_channels=2, batchnorm=True, activation="relu"),
            LayerSpec("rnn_bidir", hidden_size=8),
            LayerSpec("lstm_bidir", hidden_size=8),
            LayerSpec("fully_connected", hidden_size=5, batchnorm=False),
        ],
        alphabet=["_", "a", "b", "c", "d"],
        input_freq_bins=13,
        seed=seed,
    )


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def test_gradients_match_finite_differences():
    start = time.monotonic()
    h = 1e-5

    # CTC gradient w.r.t. pre-softmax logits.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        T, S = 8, 5
        logits = rng.normal(size=(T, S))
        labels = [int(v) for v in rng.integers(1, S, size=int(rng.integers(1, 4)))]
        grad = ctc_grad(log_softmax(logits), labels)
        for t in range(T):
            for s in range(S):
                orig = logits[t, s]
                logits[t, s] = orig + h
                fp = ctc.ctc_loss(log_softmax(logits), labels)
                logits[t, s] = orig - h
                fm = ctc.ctc_loss(log_softmax(logits), labels)
                logits[t, s] = orig
                assert _rel_err((fp - fm) / (2 * h), grad[t, s]) < 1e-4

    # Full-model backward, every parameter coordinate.
    for seed in range(20):
        model = TrainedModel(gradcheck_model_config(seed))
        rng = np.random.default_rng(1000 + seed)
        x = np.abs(rng.normal(size=(12, 13)))
        labels = [int(v) for v in rng.integers(1, 5, size=3)]

        def loss():
            result = model.forward([x], mode="train")[0]
            return ctc.ctc_loss(result.log_probs, labels)

        result = model.forward([x], mode="train")[0]
        _, dlogits = ctc.ctc_loss_and_grad(result.log_probs, labels)
        grads = model.backward([dlogits])
        for name, param in model.params.items():
            flat = param.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss()
                flat[i] = orig - h
                fm = loss()
                flat[i] = orig
                assert _rel_err((fp - fm) / (2 * h), gflat[i]) < 1e-4, \
                    (seed, name, i)

    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 3. Architecture arithmetic
# ---------------------------------------------------------------------------

def test_ds2_tap_widths_and_time_halving():
    cfg = preset("ds2")
    widths = [cfg.tap_width(k) for k in range(cfg.n_layers + 1)]
    assert widths == [161, 1952, 1312] + [1760] * 7 + [29]
    for T in (50, 100, 101, 257):
        t1 = (T + 2 * 5 - 11) // 2 + 1
        t2 = (t1 + 2 * 5 - 11) // 2 + 1
        assert cfg.time_len_after(1, T) == t1
        assert cfg.time_len_after(2, T) == t2
        assert cfg.time_len_after(cfg.n_layers, T) == t2
        assert cfg.time_len_after(cfg.n_layers, T, strides_enabled=False) == T
    assert cfg.subsample_factor(cfg.n_layers) == 4
    assert cfg.subsample_factor(cfg.n_layers, strides_enabled=False) == 1


# ---------------------------------------------------------------------------
# 4 & 6. Pipeline sanity + breakdown consistency (shared training run)
# ---------------------------------------------------------------------------

def extract_all(model, train, dev, layers, inventory, out_dir):
    """({layer: (train, dev) frame datasets}, the dev pass's greedy CTC
    categories), each split forwarded once for every layer, written to
    `out_dir` and read back."""
    paths = {}
    for split, corpus in (("train", train), ("dev", dev)):
        taps = [(layer, out_dir / f"layer{layer}.{split}.fds")
                for layer in layers]
        extraction = extract_frames(model, corpus, taps)
        for layer, path in taps:
            paths.setdefault(layer, []).append(
                load_dataset(path, inventory=inventory))
    return ({layer: tuple(pair) for layer, pair in paths.items()},
            extraction.categories)


@pytest.fixture(scope="module")
def sanity_pipeline(tmp_path_factory):
    synth = SynthConfig(seed=0)
    corpus = synthesize_corpus(synth, 200)
    train, dev = split_dev(corpus, 0.1, 0)
    cfg = preset("ds2-mini", seed=0)
    asr = train_asr(train, cfg, TrainConfig(epochs=4, batch_size=16, seed=0),
                    dev_corpus=dev)
    inventory = synthetic_inventory(synth.phones)
    probe_cfg = ProbeConfig(hidden=500, epochs=8, seed=0)
    layers = {}
    frames, categories = extract_all(asr.model, train, dev,
                                     range(cfg.n_layers + 1), inventory,
                                     tmp_path_factory.mktemp("frames"))
    for layer, (ds_train, ds_dev) in frames.items():
        fit = train_probe(ds_train, ds_dev, probe_cfg)
        pred = predict(fit.probe, ds_dev.vectors)
        report = evaluate_probe(pred, ds_dev)
        _, baseline = majority_baseline(ds_dev.label_names[i]
                                        for i in ds_dev.labels)
        layers[layer] = {"pred": pred, "dataset": ds_dev,
                         "report": report, "baseline": baseline}
    return {"asr": asr, "categories": categories, "layers": layers}


@pytest.mark.slow
def test_pipeline_sanity_on_synthetic_corpus(sanity_pipeline):
    asr = sanity_pipeline["asr"]
    untrained = asr.log[0]["dev_loss"]
    trained = min(row["dev_loss"] for row in asr.log)
    assert trained < untrained
    layers = sanity_pipeline["layers"]
    assert layers[0]["report"]["accuracy"] >= 0.90
    for layer, entry in layers.items():
        assert entry["report"]["accuracy"] >= entry["baseline"] + 0.20, layer


@pytest.mark.slow
def test_breakdown_shares_and_recombination(sanity_pipeline):
    entry = sanity_pipeline["layers"][4]
    ds = entry["dataset"]
    cats = breakdown_by_ctc_symbol(entry["pred"] == ds.labels, ds.spans,
                                   sanity_pipeline["categories"])
    assert sum(c["share"] for c in cats.values()) == pytest.approx(1.0,
                                                                   abs=1e-12)
    recombined = sum(c["share"] * c["accuracy"] for c in cats.values())
    assert abs(recombined - entry["report"]["accuracy"]) < 1e-9


# ---------------------------------------------------------------------------
# 5. Layer trend on a context-dependent corpus (golden report)
# ---------------------------------------------------------------------------

TREND_SEED = 0
TREND_NOISE = 0.3
TREND_UTTERANCES = 120


def make_context_corpus(n_utterances, noise, seed):
    """Corpus where two phones share one spectral template.

    p00 and p01 are rendered identically; only word context ("ac" vs
    "bd") disambiguates them.  Segments of 36-44 frames exceed the
    convolutional receptive field, so convolution taps cannot resolve
    the ambiguity but recurrent taps can.
    """
    base = SynthConfig(phone_inventory_size=4, noise_stddev=noise, seed=seed)
    table = dict(base.formant_table)
    table["p01"] = table["p00"]
    cfg = SynthConfig(phone_inventory_size=4, noise_stddev=noise, seed=seed,
                      formant_table=table)
    words = {"ac": ["p00", "p02"], "bd": ["p01", "p03"]}
    templates = {p: phone_template(cfg, p) for p in cfg.phones}
    rng = np.random.default_rng(seed)
    utts = []
    for u in range(n_utterances):
        names = [("ac", "bd")[int(rng.integers(2))]
                 for _ in range(int(rng.integers(2, 4)))]
        frames, segments, t = [], [], 0
        for name in names:
            for phone in words[name]:
                seg_len = int(rng.integers(36, 45))
                block = templates[phone][None, :] + rng.normal(
                    0.0, noise, size=(seg_len, N_BINS))
                frames.append(np.maximum(block, 0.0))
                segments.append(PhoneSegment(phone, t, t + seg_len))
                t += seg_len
        utts.append(Utterance(np.concatenate(frames, axis=0), segments,
                              " ".join(names), f"ctx-{u:05d}"))
    return cfg, utts


def run_trend_experiment(out_dir):
    """Train on the context corpus; return per-layer dev probe accuracy.
    The frame datasets go to `out_dir`."""
    synth, corpus = make_context_corpus(TREND_UTTERANCES, TREND_NOISE,
                                        TREND_SEED)
    train, dev = split_dev(corpus, 0.15, TREND_SEED)
    base = preset("ds2-mini", seed=0)
    cfg = ModelConfig(
        layers=base.layers[:2]
        + [LayerSpec("rnn_bidir", hidden_size=128) for _ in range(3)]
        + [base.layers[-1]],
        alphabet=list(base.alphabet), seed=0)
    asr = train_asr(train, cfg, TrainConfig(epochs=6, batch_size=16, seed=0),
                    dev_corpus=dev)
    inventory = synthetic_inventory(synth.phones)
    probe_cfg = ProbeConfig(hidden=500, epochs=8, seed=0)
    accuracies = {}
    frames, _categories = extract_all(asr.model, train, dev,
                                      range(1, cfg.n_layers + 1), inventory,
                                      out_dir)
    for layer, (ds_train, ds_dev) in frames.items():
        fit = train_probe(ds_train, ds_dev, probe_cfg)
        accuracies[layer] = evaluate_probe(predict(fit.probe, ds_dev.vectors),
                                           ds_dev)["accuracy"]
    return accuracies


@pytest.mark.slow
def test_recurrent_probe_beats_cnn2_on_context_corpus(tmp_path):
    accuracies = run_trend_experiment(tmp_path)
    cnn2 = accuracies[2]
    recurrent = [accuracies[k] for k in (3, 4, 5)]
    assert max(recurrent) > cnn2

    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["seed"] == TREND_SEED
    assert golden["noise_stddev"] == TREND_NOISE
    for layer, expected in golden["layer_accuracy"].items():
        assert abs(accuracies[int(layer)] - expected) <= 0.02, layer


def write_golden():
    with tempfile.TemporaryDirectory() as out_dir:
        accuracies = run_trend_experiment(Path(out_dir))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({
        "seed": TREND_SEED,
        "noise_stddev": TREND_NOISE,
        "n_utterances": TREND_UTTERANCES,
        "layer_accuracy": {str(k): v for k, v in sorted(accuracies.items())},
    }, indent=1, sort_keys=True) + "\n")
    return accuracies


# ---------------------------------------------------------------------------
# 7. k-means invariants and coverage pruning recount
# ---------------------------------------------------------------------------

def test_kmeans_invariants_and_pruning_recount():
    rng = np.random.default_rng(7)

    x = rng.normal(size=(60, 5))
    summary = kmeans(x, 8, seed=0)
    hist = summary.inertia_history
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    exact = kmeans(x, 60, seed=0)
    assert np.sum((x - exact.centroids[exact.assignments]) ** 2) == \
        pytest.approx(0.0, abs=1e-12)

    for trial in range(100):
        n = int(rng.integers(20, 50))
        k = int(rng.integers(2, 7))
        points = rng.normal(size=(n, 3))
        labels = np.array([f"p{int(v)}" for v in rng.integers(0, 3, size=n)])
        summary = kmeans(points, k, seed=trial)
        threshold = float(rng.uniform(0.05, 0.95))
        kept = majority_clusters(summary.assignments, labels, threshold)
        expected = []
        for j in range(k):
            members = labels[summary.assignments == j]
            if len(members) == 0:
                continue
            counts = {}
            for lbl in members:
                counts[lbl] = counts.get(lbl, 0) + 1
            top = max(counts.values())
            coverage = top / len(members)
            if coverage >= threshold:
                label = min(lbl for lbl, c in counts.items() if c == top)
                expected.append((j, label, coverage))
        assert [(j, label) for j, label, _c in kept] == \
            [(j, label) for j, label, _c in expected], trial
        assert [c for _j, _l, c in kept] == \
            pytest.approx([c for _j, _l, c in expected]), trial


# ---------------------------------------------------------------------------
# 8. PCA exactness and t-SNE KL improvement
# ---------------------------------------------------------------------------

def test_pca_planted_plane_and_tsne_kl():
    rng = np.random.default_rng(8)
    basis, _ = np.linalg.qr(rng.normal(size=(24, 2)))
    coords = rng.normal(size=(100, 2)) @ np.diag([6.0, 2.0])
    points = coords @ basis.T
    proj = pca_2d(points)
    centered = points - points.mean(axis=0)
    assert np.abs(centered @ centered.T - proj @ proj.T).max() < 1e-8

    result = tsne_2d(rng.normal(size=(100, 32)), seed=0, perplexity=20.0,
                     iters=300)
    assert result.kl_final < result.kl_initial


# ---------------------------------------------------------------------------
# 9. Inter/intra-class F1 on hand-computed cases
# ---------------------------------------------------------------------------

FINE_NAMES = ["a1", "a2", "b1", "b2"]
CLASS_MAP = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}


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


def _inter_intra(cm):
    fine = report_from_confusion(cm, FINE_NAMES)
    coarse = coarse_from_fine(cm, FINE_NAMES, CLASS_MAP, ["A", "B"])
    return inter_intra_f1(fine, coarse, CLASS_MAP)


def test_inter_intra_f1_hand_computed_cases():
    # Perfect classifier: every F1 is 1.
    out = _inter_intra(np.diag([5, 6, 7, 8]))
    for cls in ("A", "B"):
        assert out[cls]["inter_f1"] == 1.0
        assert out[cls]["intra_f1"] == 1.0

    # Classes always right, a1/a2 swapped: inter stays 1, intra(A) drops to 0.
    out = _inter_intra([[0, 5, 0, 0],
                        [5, 0, 0, 0],
                        [0, 0, 7, 0],
                        [0, 0, 0, 8]])
    assert out["A"]["inter_f1"] == 1.0
    assert out["A"]["intra_f1"] == 0.0
    assert out["B"]["intra_f1"] == 1.0

    # Mixed confusions; coarse matrix is A->A 16, A->B 4, B->A 0, B->B 20.
    out = _inter_intra([[5, 3, 2, 0],
                        [1, 7, 0, 2],
                        [0, 0, 8, 2],
                        [0, 0, 4, 6]])
    assert out["A"]["inter_f1"] == pytest.approx(2 * 0.8 / 1.8)
    assert out["B"]["inter_f1"] == pytest.approx(40.0 / 44.0)
    assert out["A"]["intra_f1"] == pytest.approx(12.0 / 16.0)
    assert out["B"]["intra_f1"] == pytest.approx(14.0 / 20.0)


# ---------------------------------------------------------------------------
# 10. Runner determinism
# ---------------------------------------------------------------------------

def test_runner_reruns_are_byte_identical(tmp_path):
    from ctcprobe.cli import main

    def run(out_dir):
        cfg = {
            "seed": 5,
            "out_dir": str(out_dir),
            "corpus": {"synthetic": {"n_utterances": 16,
                                     "phone_inventory_size": 4,
                                     "phones_per_utterance": [3, 4],
                                     "segment_frames": [8, 10]}},
            "model": {"preset": "ds2-light-mini"},
            "train": {"epochs": 1, "batch_size": 8},
            "probe": {"layers": [0, 2], "strides": [True], "windows": [0],
                      "schemes": ["full", "sound_class"], "epochs": 2},
            "clustering": {"enabled": True, "layer": 2, "k": 6,
                           "method": "pca"},
        }
        path = tmp_path / f"{out_dir.name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0

    run(tmp_path / "first")
    run(tmp_path / "second")
    compared = 0
    for first in sorted((tmp_path / "first").iterdir()):
        if first.suffix not in (".csv", ".json"):
            continue
        if first.name in ("config.json", "manifest.json"):
            continue  # both embed the differing out_dir path
        second = tmp_path / "second" / first.name
        assert first.read_bytes() == second.read_bytes(), first.name
        compared += 1
    assert compared > 0


if __name__ == "__main__":
    import sys
    if "--write-golden" in sys.argv:
        for layer, acc in sorted(write_golden().items()):
            print(f"layer {layer}: {acc:.4f}")
    else:
        sys.exit("usage: python3 tests/test_acceptance.py --write-golden")
