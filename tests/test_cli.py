import csv
import hashlib
import io
import json
import shutil

import numpy as np
import pytest

from ctcprobe import cli, plots, probing
from ctcprobe.cli import ExperimentConfig, load_config, main
from ctcprobe.model import TrainedModel, preset
from ctcprobe.probing import ProbeReport


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

    def test_set_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config(tmp_path / "out"))
        cfg = load_config(cfg_path, ["seed=9", "train.epochs=3"])
        assert cfg.seed == 9
        assert cfg.train["epochs"] == 3


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
        assert "stage 'corpus' failed: import produced no utterances" in \
            capsys.readouterr().err


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
        for name in ("corpus_train.jsonl", "corpus_dev.jsonl", "model.ckpt",
                     "asr_loss.csv", "layer_accuracy.csv", "clusters.csv",
                     "manifest.json", "accuracy_strides_on.svg",
                     "centroids.svg", "inter_intra_f1.csv"):
            assert (out / name).exists(), name

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
    return ProbeReport(acc, {}, {}, {}, np.zeros((2, 2), dtype=np.int64),
                       ["a", "b"], 4,
                       {"layer": layer, "strides_enabled": strides})


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
        svg = plots.svg_heatmap(np.eye(3, dtype=int))
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


@pytest.fixture(scope="module")
def staged_run(finished_run, tmp_path_factory):
    """finished_run's config run one subcommand at a time, with the
    checkpoint and `.fds` loads counted per subcommand."""
    _out, cfg, _ = finished_run
    tmp = tmp_path_factory.mktemp("staged")
    cfg_path = write_config(tmp, dict(cfg, out_dir=str(tmp / "out")))
    loads = {(command, kind): 0 for command in COMMANDS
             for kind in ("ckpt", "fds")}
    current = [None]

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            loads[current[0], kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TrainedModel, "load",
                   classmethod(counted("ckpt", TrainedModel.load.__func__)))
        mp.setattr(probing, "load_dataset",
                   counted("fds", probing.load_dataset))
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
        n_combos = len(cli.probe_combos(ExperimentConfig.from_dict(cfg)))
        expected = {"synth": (0, 0), "train-asr": (0, 0), "extract": (1, 0),
                    "probe": (1, 2 * n_combos), "cluster": (0, 1),
                    "report": (0, 0)}
        assert {command: (loads[command, "ckpt"], loads[command, "fds"])
                for command in COMMANDS} == expected

    def test_probe_combos_are_unique(self):
        cfg = ExperimentConfig(probe={"layers": [2, 0, 2],
                                      "strides": [True, False, True],
                                      "windows": [0], "schemes": ["full"]})
        assert cli.probe_combos(cfg) == [
            (2, True, 0, "full"), (0, True, 0, "full"),
            (2, False, 0, "full"), (0, False, 0, "full")]

    def test_cluster_and_report_read_only_their_inputs(self, finished_run,
                                                       tmp_path, capsys):
        out, cfg, _ = finished_run
        staged = tmp_path / "staged"
        shutil.copytree(out, staged)
        keep = f"frames_{cli.combo_name(2, True, 0, 'full')}.dev.fds"
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
        unprobed = dict(cfg, out_dir=str(staged),
                        clustering=dict(cfg["clustering"], layer=1))
        capsys.readouterr()
        rc = main(["cluster", "--config", write_config(tmp_path, unprobed)])
        assert rc == 3
        assert "clustering needs probe combo (1, True, 0, 'full')" in \
            capsys.readouterr().err


def test_run_forwards_each_utterance_once_per_strides_setting(tmp_path,
                                                              monkeypatch):
    cfg = small_config(tmp_path / "out")
    cfg["probe"].update(layers=[2, 8], strides=[True, False])
    cfg["clustering"] = {"enabled": False}
    caller = [None]
    counts = {}

    def attributed(name, fn):
        def wrapper(*args, **kwargs):
            caller[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                caller[0] = None
        return wrapper

    def counting_forward(self, x, strides_enabled=True, mode="eval",
                         **kwargs):
        key = (caller[0], strides_enabled, mode)
        counts[key] = counts.get(key, 0) + 1
        return forward(self, x, strides_enabled, mode, **kwargs)

    forward = TrainedModel.forward
    monkeypatch.setattr(TrainedModel, "forward", counting_forward)
    for name in ("extract_frames", "breakdown_by_ctc_symbol"):
        monkeypatch.setattr(probing, name,
                            attributed(name, getattr(probing, name)))
    out = cli.run(ExperimentConfig.from_dict(cfg))

    train, dev = cli.load_split(cli.ArtifactDir(out))
    rows = (tmp_path / "out" / "ctc_breakdown.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2 * 3  # layers x schemes x strides x cats
    for strides in (True, False):
        assert counts[("extract_frames", strides, "eval")] == \
            len(train) + len(dev)
        assert counts[("breakdown_by_ctc_symbol", strides, "eval")] == \
            len(dev)
