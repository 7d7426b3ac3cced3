import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import DAMAGE
from oracles import export_timit_dir, load_dataset

from ctcprobe import acoustic, cli, model, plots, probing, trainer
from ctcprobe.artifacts import _PREFIX, artifact_header, read_artifact
from ctcprobe.cli import ExperimentConfig, load_config, main
from ctcprobe.model import TrainedModel, preset


def small_config(out_dir, **overrides):
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
        "clustering": {"enabled": True, "layer": 2, "k": 6, "method": "pca"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def load_benchmark_workloads():
    """The `WORKLOADS` table of `perfbench/workloads.py`: name ->
    (config factory of a seed, staged?)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(
            os.path.dirname(__file__), os.pardir, "perfbench",
            "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


class TestConfigValidation:
    def test_bad_layer_rejected_before_work(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["probe"]["layers"] = [99]
        rc = main(["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_scheme_rejected(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["probe"]["schemes"] = ["phonemes"]
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2

    def test_corpus_source_must_be_exactly_one(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["corpus"] = {}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2

    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["extra"] = 1
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("section, key", [
        ("clustering", "mehtod"), ("model", "prest"),
        ("corpus", "imprt_path")])
    def test_unknown_section_key_rejected(self, tmp_path, capsys, section,
                                          key):
        cfg = small_config(tmp_path / "out")
        cfg[section][key] = "pca"
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"'{section}.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("key, value", [("selection", "bset_dev_loss"),
                                            ("batch_size", 0)])
    def test_bad_probe_training_setting_rejected(self, tmp_path, key, value):
        cfg = small_config(tmp_path / "out")
        cfg["probe"][key] = value
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("probe", "hidden", 0), ("probe", "hidden", -3),
        ("probe", "hidden", "big"), ("probe", "hidden", True),
        ("probe", "hidden", 2.0), ("train", "dev_fraction", -0.2),
        ("train", "dev_fraction", 0.0), ("train", "dev_fraction", 1.0)])
    def test_bad_size_or_fraction_rejected_at_load(self, tmp_path, section,
                                                   key, value):
        cfg = small_config(tmp_path / "out")
        cfg[section][key] = value
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("probe", "hidden", None), ("probe", "hidden", 1)])
    def test_edge_sizes_and_fractions_accepted(self, tmp_path, section, key,
                                               value):
        cfg = small_config(tmp_path / "out")
        cfg[section][key] = value
        loaded = load_config(write_config(tmp_path, cfg))
        assert getattr(loaded, section)[key] == value

    @pytest.mark.parametrize("section, key, value", [
        ("train", "selection", "last"), ("probe", "selection", "last"),
        ("train", "shuffle", False), ("train", "max_grad_norm", 1.0)])
    def test_removed_training_option_rejected(self, tmp_path, section, key,
                                              value):
        cfg = small_config(tmp_path / "out")
        cfg[section][key] = value
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", [1.5, True, "2"])
    def test_threads_must_be_an_int(self, tmp_path, threads):
        cfg = small_config(tmp_path / "out", threads=threads)
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_clustering_method_rejected(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["clustering"]["method"] = "tsnee"
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("window", -1), ("window", 1.5), ("window", True),
        ("scheme", "phonemes"), ("k", 0), ("k", True), ("k", 2.0),
        ("k", 1)])
    def test_bad_clustering_view_or_k_rejected_at_load(self, tmp_path,
                                                       capsys, key, value):
        cfg = small_config(tmp_path / "out")
        cfg["clustering"][key] = value
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert "clustering" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, k", [("pca", 1), ("tsne", 2)])
    def test_k_below_the_projection_minimum_rejected_at_load(
            self, tmp_path, capsys, method, k):
        cfg = small_config(tmp_path / "out")
        cfg["clustering"].update(method=method, k=k + 1)
        assert load_config(write_config(tmp_path, cfg)).clustering_cfg.k == k + 1
        cfg["clustering"]["k"] = k
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"k={k} is below the {k + 1} clusters that {method} needs" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, named", [
        ('probe.windows=[1.5]', "window"),
        ('probe.layers=[1.5]', "layer"),
        ('probe.layers=[true, 1]', "layer"),
        ('probe.strides=["no"]', "strides"),
        ('probe.strides=[]', "strides"),
        ('train.batch_size=2.5', "batch_size"),
        ('train.epochs=2.5', "epochs"),
        ('train.alpha="big"', "alpha"),
        ('seed="x"', "seed"),
        ('model.seed="a"', "model"),
        ('corpus.synthetic=5', "corpus.synthetic"),
        ('corpus.synthetic.noise_stddev=-1', "noise_stddev"),
        ('corpus.synthetic.n_utterance=3', "corpus.synthetic.n_utterance"),
        ('corpus.synthetic.n_utterances=-2', "n_utterances"),
        ('corpus.synthetic.n_utterances=0', "n_utterances"),
        ('corpus.synthetic.n_utterances=1', "n_utterances"),
        ('corpus.synthetic.n_bins=100', "n_bins"),
        ('corpus.synthetic.n_bins=161', "corpus.synthetic.n_bins"),
        ('corpus.synthetic.sample_rate_hz=16000',
         "corpus.synthetic.sample_rate_hz"),
        ('corpus.synthetic.phone_to_chars='
         '{"p00": "A", "p01": "b", "p02": "c", "p03": "d"}', "alphabet"),
        ('clustering.layer=1.5', "clustering"),
        ('clustering.min_coverage=0', "min_coverage"),
        ('probe=[1]', "probe"),
        ('probe.layers.x.y=1', "probe.layers.x.y"),
        ('seed.x=1', "seed.x"),
        # JSON's NaN, Infinity and booleans are no config numbers, and a
        # count's float is no int.
        ('corpus.synthetic.noise_stddev=NaN', "noise_stddev"),
        ('corpus.synthetic.noise_stddev=Infinity', "noise_stddev"),
        ('corpus.synthetic.noise_stddev=true', "noise_stddev"),
        ('corpus.synthetic.phone_inventory_size=true', "phone_inventory_size"),
        ('corpus.synthetic.phones_per_utterance=[1.5, 2]',
         "phones_per_utterance"),
        ('corpus.synthetic.segment_frames=[2.5, 3]', "segment_frames"),
        ('corpus.synthetic.word_phones=[1.5, 2]', "word_phones"),
        ('probe.dropout=false', "dropout"),
        ('clustering.min_coverage=true', "min_coverage"),
        ('clustering.perplexity=true', "perplexity"),
        ('clustering.tol=false', "tol"),
        ('clustering.tol=Infinity', "tol"),
        ('train.alpha=NaN', "alpha"),
    ])
    def test_bad_config_rejected_at_load(self, tmp_path, capsys, override,
                                         named):
        cfg_path = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["run", "--config", cfg_path, "--set", override]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("synthetic, named", [
        ({"formant_table": {"p00": [[10, 3.0, 1.0]]}},
         "formant_table lacks phone 'p01'"),
        ({"phone_to_chars": {"p00": "a"}}, "phone_to_chars lacks phone 'p01'"),
        ({"formant_table": {"p00": [[10, 3.0]], "p01": [[20, 3.0, 1.0]]}},
         "formant_table['p00']"),
        ({"formant_table": {"p00": [[10, "3", 1.0]], "p01": [[20, 3, 1]]}},
         "formant_table['p00']"),
        ({"formant_table": {"p00": [[10, 3.0, 1.0]], "p01": [[20, True, 1]]}},
         "formant_table['p01']"),
        ({"formant_table": {"p00": [10, 3.0, 1.0], "p01": [[20, 3, 1]]}},
         "formant_table['p00']"),
        ({"formant_table": {"p00": 10, "p01": [[20, 3, 1]]}},
         "formant_table['p00']"),
        ({"formant_table": {"p00": [[10, 0, 1.0]], "p01": [[20, 3, 1]]}},
         "formant_table['p00']"),
        ({"formant_table": {"p00": [[10, 3.0, 1.0]],
                            "p01": [[float("inf"), 3, 1]]}},
         "formant_table['p01']"),
    ])
    def test_synthetic_table_lacking_a_phone_or_malformed_rejected(
            self, tmp_path, capsys, synthetic, named):
        cfg = small_config(tmp_path / "out")
        cfg["corpus"]["synthetic"].update(phone_inventory_size=2, **synthetic)
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_probe_grid_defaults_per_key(self):
        cfg = ExperimentConfig(probe={"epochs": 1})
        assert cli.probe_combos(cfg) == [(0, True, 0, "full"),
                                         (1, True, 0, "full"),
                                         (2, True, 0, "full")]
        assert cli.probe_combos(cfg) == cli.probe_combos(ExperimentConfig())

    @pytest.mark.parametrize("view", [{"layer": 1}, {"strides": False}])
    def test_clustering_a_tap_the_grid_does_not_extract_rejected(
            self, tmp_path, capsys, view):
        cfg = small_config(tmp_path / "out")
        cfg["clustering"].update(view)
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
        layer, strides = view.get("layer", 2), view.get("strides", True)
        assert f"config error: clustering needs the layer-{layer} tap with " \
            f"strides={strides}, which the probe grid does not extract" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg["clustering"]["enabled"] = False  # a disabled view is not read
        assert not load_config(write_config(tmp_path, cfg)) \
            .clustering_cfg.enabled

    def test_directly_built_config_is_checked(self):
        with pytest.raises(cli.ConfigError, match="strides"):
            ExperimentConfig(probe={"strides": []})
        with pytest.raises(cli.ConfigError, match="clustering"):
            ExperimentConfig(clustering={"enabled": False, "k": 0})

    @pytest.mark.parametrize("seed", [3, 7919])
    def test_benchmark_workload_configs_load(self, seed):
        # The benchmark runs these configs: a key the program no longer
        # takes would fail every benchmark repetition.
        workloads = load_benchmark_workloads()
        assert sorted(workloads) == ["asr-train", "probe-sweep",
                                     "staged-lstm"]
        for factory, _staged in workloads.values():
            ExperimentConfig.from_dict(factory(seed))

    def test_set_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config(tmp_path / "out"))
        cfg = load_config(cfg_path, ["seed=9", "train.epochs=3"])
        assert cfg.seed == 9
        assert cfg.train["epochs"] == 3


def test_failed_artifact_write_leaves_no_partial_or_temp_file(tmp_path):
    art = cli.ArtifactDir(str(tmp_path))
    art.write_text("table.csv", "old\n")
    for rel in ("table.csv", "fresh.csv"):
        with pytest.raises(UnicodeEncodeError):
            art.write_text(rel, "new\n\udc80")
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    assert (tmp_path / "table.csv").read_text() == "old\n"


class TestStageFailure:
    def test_import_failure_reports_stage(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = small_config(tmp_path / "out")
        cfg["corpus"] = {"import_path": str(empty)}
        rc = main(["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 3
        assert "corpus" in capsys.readouterr().err
        # The subcommand runs the same stage and names it the same way.
        rc = main(["synth", "--config", write_config(tmp_path, cfg)])
        assert rc == 3
        assert "stage 'corpus' failed: import produced 0 utterances" in \
            capsys.readouterr().err

    def test_import_too_small_to_split_fails_in_corpus(self, tmp_path,
                                                       capsys):
        export_timit_dir(tmp_path / "timit", [
            ("u0", 0.1 * np.random.default_rng(0).standard_normal(3200),
             [(0, 1600, "aa"), (1600, 3200, "iy")], "hi")])
        cfg = small_config(tmp_path / "out")
        cfg["corpus"] = {"import_path": str(tmp_path / "timit")}
        assert main(["synth", "--config", write_config(tmp_path, cfg)]) == 3
        assert "stage 'corpus' failed: import produced 1 utterances; a " \
            "train/dev split needs at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "corpus_train.bin").exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "out"
    cfg = small_config(out)
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 0
    return out, cfg, str(cfg_path)


class TestRunArtifacts:
    def test_expected_files_exist(self, finished_run):
        out, _cfg, _path = finished_run
        for name in ("corpus_train.bin", "corpus_dev.bin", "model.ckpt",
                     "asr_loss.csv", "layer_accuracy.csv", "clusters.csv",
                     "manifest.json", "accuracy_strides_on.svg",
                     "centroids.svg", "inter_intra_f1.csv"):
            assert (out / name).exists(), name

    def test_every_binary_artifact_opens_through_read_artifact(
            self, finished_run, monkeypatch):
        out, _cfg, _path = finished_run
        loaders = {".bin": acoustic.load_corpus, ".ckpt": TrainedModel.load,
                   ".fds": load_dataset}
        opened = []

        def spy(path, *args):
            opened.append(path)
            return read_artifact(path, *args)

        for module in (acoustic, model, probing):
            monkeypatch.setattr(module, "read_artifact", spy)
        binary = sorted(str(path) for path in out.iterdir()
                        if path.suffix not in (".csv", ".json", ".svg"))
        assert len(binary) > 3
        for path in binary:
            loaders[os.path.splitext(path)[1]](path)
        assert opened == binary

    def test_manifest_hashes_are_correct(self, finished_run):
        out, _cfg, _path = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"]
        for rel, digest in manifest["files"].items():
            actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            assert actual == digest, rel

    def test_rerun_is_byte_identical(self, finished_run, tmp_path):
        out, cfg, _path = finished_run
        cfg2 = dict(cfg, out_dir=str(tmp_path / "out2"))
        rc = main(["run", "--config", write_config(tmp_path, cfg2)])
        assert rc == 0
        for rel in sorted(p.name for p in out.iterdir()):
            if rel in ("config.json", "manifest.json"):
                continue
            assert (out / rel).read_bytes() == \
                (tmp_path / "out2" / rel).read_bytes(), rel

    def test_config_json_is_the_config_as_given(self, finished_run):
        # Only the top-level defaults are filled in (small_config gives
        # every key but `threads`); no built section reaches a hashed file.
        out, cfg, _path = finished_run
        expected = {"threads": 1, **cfg}
        assert json.loads((out / "config.json").read_text()) == expected
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == expected

    def test_clusters_csv_columns(self, finished_run):
        out, _cfg, _path = finished_run
        rows = list(csv.reader(io.StringIO((out / "clusters.csv").read_text())))
        assert rows[0] == ["cluster_id", "majority_label", "coverage", "x", "y"]
        for row in rows[1:]:
            assert 0.0 < float(row[2]) <= 1.0

    def test_csv_round_trip(self, finished_run):
        out, _cfg, _path = finished_run
        text = (out / "layer_accuracy.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == text

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(target))
        cfg = small_config(tmp_path / "ignored")
        cfg["probe"] = {"layers": [0], "strides": [True], "windows": [0],
                        "schemes": ["full"], "epochs": 1}
        cfg["clustering"] = {"enabled": False}
        rc = main(["run", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        assert target.exists()
        assert not (tmp_path / "ignored").exists()


def report_with_accuracy(acc, layer, strides=True):
    return {"accuracy": acc, "precision": {}, "recall": {}, "f1": {},
            "confusion": [[0, 0], [0, 0]], "label_names": ["a", "b"],
            "n_frames": 4,
            "provenance": {"layer": layer, "strides_enabled": strides}}


def parse_svg_data(svg):
    body = svg.split("<!--data\n")[1].split("\n-->")[0]
    return [line.split(",") for line in body.splitlines()]


class TestPlots:
    def test_layer_accuracy_ordering_and_heights(self):
        cfg = preset("ds2-mini")
        reports = {(k, True, 0, "full"): report_with_accuracy(0.1 * k, k)
                   for k in (0, 1, 2, 3)}
        charts = cli.plot_layer_accuracy(reports, cfg)
        data = parse_svg_data(charts[True])
        assert [row[0] for row in data[1:]] == ["input", "cnn1", "cnn2",
                                                "rnn1"]
        assert [float(row[1]) for row in data[1:]] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3])

    def test_bars_of_two_windows_name_their_window(self):
        cfg = preset("ds2-mini")
        reports = {(k, True, w, "full"): report_with_accuracy(0.5, k)
                   for k in (0, 2) for w in (0, 2)}
        svg = cli.plot_layer_accuracy(reports, cfg)[True]
        labels = ["input w0", "input w2", "cnn2 w0", "cnn2 w2"]
        assert [row[0] for row in parse_svg_data(svg)[1:]] == labels
        texts = re.findall(r'font-size="11">([^<]*)</text>', svg)
        assert texts == labels

    def test_single_report_single_bar(self):
        cfg = preset("ds2-mini")
        charts = cli.plot_layer_accuracy(
            {(0, True, 0, "full"): report_with_accuracy(0.5, 0)}, cfg)
        assert len(parse_svg_data(charts[True])) == 2

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            cli.plot_layer_accuracy({}, preset("ds2-mini"))

    def test_heatmap_cell_shades_follow_row_shares(self):
        svg = plots.svg_heatmap([[3, 1], [0, 2]], ["a", "b"], ["a", "b"])
        rects = [line for line in svg.splitlines()
                 if line.startswith("<rect") and "rgb" in line]
        shades = [int(r.split("rgb(")[1].split(",")[0]) for r in rects]
        # row shares 0.75, 0.25, 0.0, 1.0 -> darker cell = higher share
        assert shades[0] < shades[1]
        assert shades[2] > shades[3]
        assert shades[3] == 0 and shades[2] == 255

    def test_identity_heatmap_diagonal_only(self):
        svg = plots.svg_heatmap(np.eye(3, dtype=int), list("abc"),
                                list("abc"))
        data = parse_svg_data(svg)
        matrix = np.array([[float(v) for v in row[1:]] for row in data[1:]])
        np.testing.assert_array_equal(matrix, np.eye(3))

    def test_scatter_point_count(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(7, 2))
        svg = plots.svg_scatter(coords, [f"c{i}" for i in range(7)])
        assert svg.count("<circle") == 7

    def test_bar_chart_requires_matching_labels(self):
        with pytest.raises(ValueError):
            plots.svg_bar_chart(["a"], [1.0, 2.0])


COMMANDS = ("synth", "train-asr", "extract", "probe", "cluster", "report")

# A binary file that a stage reads, for the damaged-input tests: probe
# reads layer 0's rows from each split's corpus and layer 2's from its tap
# files, and cluster, at clustering.layer 0, the dev corpus.
DAMAGED_INPUTS = [
    ("train-asr", "corpus_train.bin"), ("extract", "model.ckpt"),
    ("probe", cli.tap_file(2, True, "train")), ("probe", "corpus_train.bin"),
    ("probe", "corpus_dev.bin"), ("cluster", "corpus_dev.bin")]


def damaged_input_config(cfg, staged, command):
    """finished_run's config on the copy ``staged``; `cluster` views layer
    0, so that it reads the corpus."""
    cfg = dict(cfg, out_dir=str(staged))
    if command == "cluster":
        cfg["clustering"] = dict(cfg["clustering"], layer=0)
    return cfg


@pytest.fixture(scope="module")
def staged_run(finished_run, tmp_path_factory):
    """finished_run's config run one subcommand at a time, with the
    checkpoint, `.fds` and corpus loads counted per subcommand."""
    _out, cfg, _ = finished_run
    tmp = tmp_path_factory.mktemp("staged")
    cfg_path = write_config(tmp, dict(cfg, out_dir=str(tmp / "out")))
    loads = {(command, kind): 0 for command in COMMANDS
             for kind in ("ckpt", "fds", "corpus")}
    current = [None]

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            loads[current[0], kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TrainedModel, "load",
                   classmethod(counted("ckpt", TrainedModel.load.__func__)))
        mp.setattr(probing, "load_views",
                   counted("fds", probing.load_views))
        mp.setattr(acoustic, "load_corpus",
                   counted("corpus", acoustic.load_corpus))
        for command in COMMANDS:
            current[0] = command
            assert main([command, "--config", cfg_path]) == 0, command
    return tmp / "out", loads


class TestSubcommands:
    def test_staged_pipeline_matches_run(self, finished_run, staged_run):
        out, _cfg, _ = finished_run
        staged, _loads = staged_run
        names = {p.name for p in out.iterdir()} - {"config.json",
                                                   "manifest.json"}
        assert {p.name for p in staged.iterdir()} == names | {"manifest.json"}
        for rel in sorted(names):
            assert (staged / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_each_subcommand_loads_only_what_it_reads(self, finished_run,
                                                      staged_run):
        _out, cfg, _ = finished_run
        _staged, loads = staged_run
        # probe reads each split's rows of a (layer, strides) pair once,
        # for every combo of the pair: layer 0's from the corpus, a deeper
        # layer's from its tap file.
        pairs = {combo[:2] for combo in cli.probe_combos(
            ExperimentConfig.from_dict(cfg))}
        n_input = sum(layer == 0 for layer, _strides in pairs)
        assert 0 < n_input < len(pairs)
        expected = {"synth": (0, 0, 0), "train-asr": (0, 0, 2),
                    "extract": (1, 0, 2),
                    "probe": (0, 2 * (len(pairs) - n_input), 2 * n_input),
                    "cluster": (0, 1, 0), "report": (0, 0, 0)}
        assert {command: tuple(loads[command, kind]
                               for kind in ("ckpt", "fds", "corpus"))
                for command in COMMANDS} == expected

    def test_probe_combos_are_unique(self):
        cfg = ExperimentConfig(probe={"layers": [2, 0, 2],
                                      "strides": [True, False, True],
                                      "windows": [0], "schemes": ["full"]})
        assert cli.probe_combos(cfg) == [
            (2, True, 0, "full"), (0, True, 0, "full"),
            (2, False, 0, "full"), (0, False, 0, "full")]

    def test_probe_reads_no_model(self, finished_run, tmp_path):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        made = [path.name for path in sorted(staged.iterdir())
                if path.name.startswith("probe_") or path.name in (
                    "layer_accuracy.csv", "ctc_breakdown.csv",
                    "inter_intra_f1.csv")]
        assert "ctc_breakdown.csv" in made and "inter_intra_f1.csv" in made
        away = tmp_path / "away"
        away.mkdir()
        for path in staged.iterdir():
            if path.name in made:
                path.unlink()
            elif path.name == "model.ckpt":
                path.rename(away / path.name)
        cfg_path = write_config(tmp_path, dict(cfg, out_dir=str(staged)))
        assert main(["probe", "--config", cfg_path]) == 0
        for rel in made:
            assert (staged / rel).read_bytes() == (out / rel).read_bytes(), rel

    @pytest.mark.parametrize("override, field", [
        ('model.preset="ds2-mini"',
         "model.layers[2].kind is 'lstm_bidir', the config's 'rnn_bidir'"),
        ("model.seed=6", "model.seed is 5, the config's 6")])
    def test_extract_refuses_a_checkpoint_of_another_model_config(
            self, finished_run, tmp_path, capsys, override, field):
        # The checkpoint header holds the config it was trained with; an
        # extract whose config asks for another model fails before it
        # writes anything.
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        staged.mkdir()
        for name in ("corpus_train.bin", "corpus_dev.bin", "model.ckpt"):
            shutil.copy(out / name, staged / name)
        cfg_path = write_config(tmp_path, dict(cfg, out_dir=str(staged)))
        capsys.readouterr()
        assert main(["extract", "--config", cfg_path, "--set", override]) == 3
        err = capsys.readouterr().err
        assert "stage 'extract' failed" in err
        assert f"{staged / 'model.ckpt'} holds a model of another config" in err
        assert field in err
        assert sorted(p.name for p in staged.iterdir()) == [
            "corpus_dev.bin", "corpus_train.bin", "model.ckpt"]

    @pytest.mark.parametrize("damage", ["missing", "truncated",
                                        "other_strides"])
    def test_bad_categories_file_names_stage_and_file(
            self, finished_run, tmp_path, capsys, damage):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        path = staged / cli.CATEGORIES_FILE
        if damage == "missing":
            path.unlink()
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-10])
        else:  # written by an extract of the other strides setting only
            recorded = json.loads(path.read_text())
            path.write_text(json.dumps(
                {"strides_off": recorded.pop("strides_on")}))
        cfg_path = write_config(tmp_path, dict(cfg, out_dir=str(staged)))
        capsys.readouterr()
        assert main(["probe", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "stage 'probe' failed" in err
        assert str(staged / cli.CATEGORIES_FILE) in err

    @pytest.mark.parametrize("command, name, key_path", [
        ("report", f"probe_{cli.combo_name(0, True, 0, 'full')}.json",
         ("accuracy",)),
        ("report", f"probe_{cli.combo_name(2, True, 0, 'sound_class')}.json",
         ("confusion",)),
        ("probe", cli.CATEGORIES_FILE, ("strides_on", "subsample_factor")),
        ("probe", cli.CATEGORIES_FILE, ("strides_on", "categories"))],
        ids=lambda v: v[-1] if isinstance(v, tuple) else v)
    def test_json_lacking_a_key_names_stage_and_file(
            self, finished_run, tmp_path, capsys, command, name, key_path):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        path = staged / name
        data = json.loads(path.read_text())
        node = data
        for key in key_path[:-1]:
            node = node[key]
        del node[key_path[-1]]
        path.write_text(json.dumps(data))
        cfg_path = write_config(tmp_path, dict(cfg, out_dir=str(staged)))
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert f"stage {command!r} failed: {path}: malformed JSON " \
            f"(KeyError({key_path[-1]!r}))" in err

    @pytest.mark.parametrize("command", ["train-asr", "extract"])
    def test_cut_corpus_names_stage_and_file(self, finished_run, tmp_path,
                                             capsys, command):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        path = staged / "corpus_dev.bin"
        path.write_bytes(path.read_bytes()[:-100])
        cfg_path = write_config(tmp_path, dict(cfg, out_dir=str(staged)))
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert f"stage {command!r} failed" in err
        assert str(path) in err

    def test_cluster_and_report_read_only_their_inputs(self, finished_run,
                                                       tmp_path):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        keep = cli.tap_file(2, True, "dev")
        remade = []
        for path in sorted(staged.iterdir()):
            if path.suffix == ".svg" or path.name == "clusters.csv":
                remade.append(path.name)
            elif not (path.suffix == ".fds" or path.name == "model.ckpt"
                      or path.name.startswith("corpus_")):
                continue
            if path.name != keep:
                path.unlink()
        assert "clusters.csv" in remade and "centroids.svg" in remade
        cfg_path = write_config(tmp_path, dict(cfg, out_dir=str(staged)))
        for command in ("cluster", "report"):
            assert main([command, "--config", cfg_path]) == 0, command
        for rel in remade:
            assert (staged / rel).read_bytes() == (out / rel).read_bytes(), rel

        (staged / keep).unlink()
        off = dict(cfg, out_dir=str(staged), clustering={"enabled": False})
        assert main(["cluster", "--config", write_config(tmp_path, off)]) == 0

    def test_cluster_views_any_window_and_scheme_of_an_extracted_tap(
            self, finished_run, tmp_path):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        (staged / "clusters.csv").unlink()
        # Neither window 1 nor reduced48 is in the probe grid.
        wide = dict(cfg, out_dir=str(staged), clustering=dict(
            cfg["clustering"], window=1, scheme="reduced48"))
        assert main(["cluster", "--config", write_config(tmp_path, wide)]) == 0
        assert (staged / "clusters.csv").exists()

    def test_too_few_clusters_left_by_pruning_named(self, finished_run,
                                                    tmp_path, capsys):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        (staged / "clusters.csv").unlink()
        strict = dict(cfg, out_dir=str(staged), clustering=dict(
            cfg["clustering"], method="tsne", k=3, min_coverage=1.0))
        assert main(["cluster", "--config", write_config(tmp_path, strict)]) \
            == 3
        assert "stage 'cluster' failed: only 1 of k=3 clusters (ids [1]) " \
            "survive pruning at min_coverage=1.0; tsne needs at least 3" in \
            capsys.readouterr().err
        assert not (staged / "clusters.csv").exists()

    def test_tap_files_do_not_depend_on_windows_or_schemes(
            self, finished_run, tmp_path):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        for path in staged.glob("*.fds"):
            path.unlink()
        other = dict(cfg, out_dir=str(staged), probe=dict(
            cfg["probe"], windows=[2, 0], schemes=["reduced48"]))
        assert main(["extract", "--config", write_config(tmp_path, other)]) \
            == 0
        names = sorted(path.name for path in out.glob("*.fds"))
        assert names == sorted(
            cli.tap_file(layer, True, split) for layer in cfg["probe"]["layers"]
            for split in ("train", "dev") if layer > 0)
        assert sorted(path.name for path in staged.glob("*.fds")) == names
        for name in names:
            assert (staged / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("command, name", DAMAGED_INPUTS)
    def test_header_lacking_a_key_names_stage_and_file(
            self, finished_run, tmp_path, capsys, command, name):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        path = staged / name
        data = path.read_bytes()  # keep the file's magic and version
        path.write_bytes(artifact_header(data[:4], data[4], {}))
        cfg_path = write_config(tmp_path, damaged_input_config(
            cfg, staged, command))
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert f"stage {command!r} failed: {path}: malformed" in err

    @pytest.mark.parametrize("command, name", DAMAGED_INPUTS)
    def test_non_finite_payload_names_stage_and_file(
            self, finished_run, tmp_path, capsys, command, name):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        path = staged / name
        path.write_bytes(DAMAGE["non_finite_payload"](path.read_bytes()))
        cfg_path = write_config(tmp_path, damaged_input_config(
            cfg, staged, command))
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 3
        assert f"stage {command!r} failed: {path}: " in \
            capsys.readouterr().err


def test_run_forwards_each_utterance_once_per_strides_setting(tmp_path,
                                                              monkeypatch):
    cfg = small_config(tmp_path / "out")
    cfg["probe"].update(layers=[2, 8], strides=[True, False])
    cfg["clustering"] = {"enabled": False}
    stage = [None]
    counts = {}

    def attributed(name, fn):
        def wrapper(*args, **kwargs):
            stage[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                stage[0] = None
        return wrapper

    def counting_forward(self, x, strides_enabled=True, mode="eval",
                         **kwargs):
        # A call forwards a minibatch: count its utterances.
        key = (stage[0], strides_enabled, mode)
        counts[key] = counts.get(key, 0) + len(x)
        return forward(self, x, strides_enabled, mode, **kwargs)

    forward = TrainedModel.forward
    monkeypatch.setattr(TrainedModel, "forward", counting_forward)
    for name in cli.STAGES.values():
        fn_name = "stage_" + name.replace("-", "_")
        monkeypatch.setattr(cli, fn_name,
                            attributed(name, getattr(cli, fn_name)))
    out = cli.run(ExperimentConfig.from_dict(cfg))

    train, dev = cli.load_split(cli.ArtifactDir(out))
    rows = (tmp_path / "out" / "ctc_breakdown.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2 * 3  # layers x schemes x strides x cats
    for strides in (True, False):
        assert counts.pop(("extract", strides, "eval")) == \
            len(train) + len(dev)
    # Only train-asr forwards besides: probe, cluster and report make none.
    assert {key[0] for key in counts} <= {"train-asr"}


def test_no_stage_writes_a_copy_of_the_corpus(tmp_path, monkeypatch):
    # Layer 0 probed at both strides settings and clustered: its views come
    # from the corpus files, and no tap file holds its rows.
    cfg = small_config("out")
    cfg["probe"].update(strides=[True, False])
    cfg["clustering"].update(layer=0, strides=False)
    cfg_path = write_config(tmp_path, cfg)
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "run"))
    assert main(["run", "--config", cfg_path]) == 0
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "staged"))
    for command in COMMANDS:
        assert main([command, "--config", cfg_path]) == 0, command
    run, staged = (json.loads((tmp_path / out / "manifest.json").read_text())
                   for out in ("run", "staged"))
    del run["files"]["config.json"]  # which only `run` writes
    assert run == staged
    listed = run["files"]
    assert "clusters.csv" in listed
    assert [rel for rel in listed if rel.startswith("frames_layer0_")] == []
    for out in ("run", "staged"):
        out = tmp_path / out
        assert list(out.glob("frames_layer0_*")) == []
        taps = [path.read_bytes() for path in out.glob("*.fds")]
        assert len(taps) == 4
        for split in ("train", "dev"):
            corpus = acoustic.load_corpus(out / f"corpus_{split}.bin")
            frames = b"".join(utt.frames.tobytes() for utt in corpus)
            assert not any(frames in tap for tap in taps)


def counted_fits(monkeypatch):
    """A list that grows by one at each `train_probe` call."""
    fits, train_probe = [], trainer.train_probe
    monkeypatch.setattr(trainer, "train_probe", lambda *args: (
        fits.append(None) or train_probe(*args)))
    return fits


# What the probe stage reads: the tap files, the corpus (layer 0's rows)
# and the CTC categories.
PROBE_INPUTS = shutil.ignore_patterns("probe_*", "*.csv", "model.ckpt")


@pytest.fixture(scope="module")
def shared_grid(tmp_path_factory):
    """A 12-combo grid extracted at both strides settings and probed, with
    its `train_probe` calls counted."""
    tmp = tmp_path_factory.mktemp("shared")
    cfg = small_config(tmp / "out", clustering={"enabled": False})
    cfg["probe"].update(layers=[0, 2], strides=[True, False],
                        schemes=["full", "reduced48", "sound_class"])
    cfg_path = write_config(tmp, cfg)
    for command in ("synth", "train-asr", "extract"):
        assert main([command, "--config", cfg_path]) == 0, command
    with pytest.MonkeyPatch.context() as mp:
        fits = counted_fits(mp)
        assert main(["probe", "--config", cfg_path]) == 0
    return tmp / "out", cfg, len(fits)


def combo_files(out, combo):
    name = cli.combo_name(*combo)
    return {rel: (out / rel).read_bytes() for rel in (
        f"probe_{name}.json", f"probe_{name}_curve.csv",
        f"probe_{name}_confusion.csv")}


class TestSharedFits:
    def test_combos_with_equal_views_share_one_fit(self, shared_grid):
        out, cfg, n_fits = shared_grid
        combos = cli.probe_combos(ExperimentConfig.from_dict(cfg))
        # Layer 0 is one tap at either strides setting, and a synthetic
        # inventory gives reduced48 the full labels: 2 fits for layer 0's
        # 6 combos, and 2 for each strides setting's 3 of layer 2.
        assert (len(combos), n_fits) == (12, 6)
        for combo in combos:
            assert len(combo_files(out, combo)) == 3

    @pytest.mark.parametrize("strides", [True, False])
    @pytest.mark.parametrize("scheme", ["full", "reduced48", "sound_class"])
    def test_shared_fits_write_what_separate_fits_write(
            self, shared_grid, tmp_path, monkeypatch, strides, scheme):
        out, cfg, _ = shared_grid
        alone = tmp_path / "alone"
        shutil.copytree(out, alone, ignore=PROBE_INPUTS)
        one = dict(cfg, out_dir=str(alone), probe=dict(
            cfg["probe"], strides=[strides], schemes=[scheme]))
        fits = counted_fits(monkeypatch)
        assert main(["probe", "--config", write_config(tmp_path, one)]) == 0
        assert len(fits) == 2
        for combo in cli.probe_combos(ExperimentConfig.from_dict(one)):
            assert combo_files(alone, combo) == combo_files(out, combo)
        for rel in ("layer_accuracy.csv", "ctc_breakdown.csv"):
            rows = (alone / rel).read_text().splitlines()
            assert set(rows) <= set((out / rel).read_text().splitlines())

    def test_report_figures_tell_windows_and_strides_apart(
            self, shared_grid, tmp_path):
        out, cfg, _ = shared_grid
        staged = tmp_path / "staged"
        shutil.copytree(out, staged, ignore=PROBE_INPUTS)
        wide = dict(cfg, out_dir=str(staged),
                    probe=dict(cfg["probe"], windows=[0, 1]))
        cfg_path = write_config(tmp_path, wide)
        for command in ("probe", "report"):
            assert main([command, "--config", cfg_path]) == 0, command
        for strides in ("on", "off"):
            svg = (staged / f"accuracy_strides_{strides}.svg").read_text()
            labels = [row[0] for row in parse_svg_data(svg)[1:]]
            assert labels == ["input w0", "input w1", "cnn2 w0", "cnn2 w1"]
            assert re.findall(r'font-size="11">([^<]*)</text>', svg) == labels
        titles = [re.search(r'font-size="14">([^<]*)</text>',
                            path.read_text()).group(1)
                  for path in sorted(staged.glob("confusion_*.svg"))]
        assert len(titles) == 8 == len(set(titles))
        assert "sound classes, layer 2 (without strides, window 1)" in titles

    def test_fits_key_on_the_views_content_not_the_layer(
            self, shared_grid, tmp_path, monkeypatch):
        out, cfg, n_fits = shared_grid
        staged = tmp_path / "staged"
        shutil.copytree(out, staged, ignore=PROBE_INPUTS)
        cfg_path = write_config(tmp_path, dict(cfg, out_dir=str(staged)))
        # Layer 2's nostr files made to hold its str files' rows: its two
        # nostr fits (full and reduced48; sound_class) are the str ones.
        for split in ("train", "dev"):
            shutil.copyfile(staged / cli.tap_file(2, True, split),
                            staged / cli.tap_file(2, False, split))
        fits = counted_fits(monkeypatch)
        assert main(["probe", "--config", cfg_path]) == 0
        assert len(fits) == n_fits - 2
        # Flipping the lowest mantissa bit of the first row's first value
        # parts them again.
        path = staged / cli.tap_file(2, False, "train")
        data = bytearray(path.read_bytes())
        start = len(probing.DATASET_MAGIC)
        _version, header_len = _PREFIX.unpack_from(data, start)
        data[start + _PREFIX.size + header_len] ^= 1
        path.write_bytes(bytes(data))
        fits.clear()
        assert main(["probe", "--config", cfg_path]) == 0
        assert len(fits) == n_fits

    def test_benchmark_probe_sweep_fits_22_probes_for_24_combos(
            self, tmp_path, monkeypatch):
        factory, _staged = load_benchmark_workloads()["probe-sweep"]
        cfg = ExperimentConfig.from_dict(dict(factory(3),
                                              out_dir=str(tmp_path / "out")))
        art = cli.ArtifactDir(cfg.out_dir)
        for stage in ("corpus", "train-asr", "extract"):
            cli.run_stage(stage, cfg, art)
        fits = counted_fits(monkeypatch)
        cli.run_stage("probe", cfg, art)
        # Its full and sound_class probes of layer 0 each fit once for
        # both strides settings.
        assert (len(cli.probe_combos(cfg)), len(fits)) == (24, 22)


def test_failed_extract_removes_its_partial_files(tmp_path, monkeypatch,
                                                  capsys):
    cfg_path = write_config(tmp_path, small_config(tmp_path / "out"))
    for command in ("synth", "train-asr"):
        assert main([command, "--config", cfg_path]) == 0
    forward = TrainedModel.forward
    calls = []

    def failing_forward(self, *args, **kwargs):
        calls.append(1)
        # The second minibatch of 8 of the 14 train utterances: inside the
        # first pass, after it has written the first minibatch's rows.
        if len(calls) == 2:
            raise RuntimeError("forward failed")
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(TrainedModel, "forward", failing_forward)
    capsys.readouterr()
    assert main(["extract", "--config", cfg_path]) == 3
    assert "stage 'extract' failed: forward failed" in capsys.readouterr().err
    out = tmp_path / "out"
    assert list(out.glob("frames_*.fds")) == []
    assert list(out.glob("*.tmp")) == []

    # A failed rerun leaves the files of a complete extract as they were.
    monkeypatch.undo()
    assert main(["extract", "--config", cfg_path]) == 0
    before = {path.name: path.read_bytes() for path in out.glob("*.fds")}
    assert before
    calls.clear()
    monkeypatch.setattr(TrainedModel, "forward", failing_forward)
    assert main(["extract", "--config", cfg_path]) == 3
    assert {path.name: path.read_bytes()
            for path in out.glob("*.fds")} == before
    assert list(out.glob("*.tmp")) == []


def test_killed_extract_leaves_nothing_a_later_stage_hashes(finished_run,
                                                           tmp_path,
                                                           monkeypatch):
    # A SIGKILL runs no handler, so `atomic_write` cannot remove its temp
    # file; the next stage must, or `report` hashes it into the manifest.
    out, cfg, cfg_path = finished_run
    killed = tmp_path / "killed"
    shutil.copytree(out, killed)
    clean = (out / "manifest.json").read_bytes()
    first_layer = min(layer for layer in cfg["probe"]["layers"] if layer)
    first_tap = killed / (cli.tap_file(first_layer, cfg["probe"]["strides"][0],
                                       "train") + ".tmp")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, **{cli.OUT_ROOT_ENV: str(killed)})
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctcprobe.cli", "extract", "--config",
         cfg_path], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        while not first_tap.exists():
            assert proc.poll() is None, "extract ended before its first write"
            assert time.monotonic() < deadline, "no temp file within 120 s"
            time.sleep(0.001)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    assert list(killed.glob("*.tmp"))

    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(killed))
    assert main(["report", "--config", cfg_path]) == 0
    assert list(killed.glob("*.tmp")) == []
    assert (killed / "manifest.json").read_bytes() == clean


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="on one core no BLAS thread count runs two")
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Run on two OpenBLAS threads, this config wrote another checkpoint,
    # other layer-2 taps, probe curves and clusters, until importing
    # ctcprobe set every BLAS thread count to one.
    cfg_path = write_config(tmp_path, small_config("out"))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    files = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   **{cli.OUT_ROOT_ENV: str(tmp_path / threads)})
        subprocess.run([sys.executable, "-m", "ctcprobe.cli", "run",
                        "--config", cfg_path], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        files.append(json.loads(
            (tmp_path / threads / "manifest.json").read_text())["files"])
    assert files[0] == files[1]
