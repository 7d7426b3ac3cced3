"""Experiment orchestration and command-line interface.

Stages: corpus (synth/import) -> train-asr -> extract -> probe ->
cluster -> report.  Each subcommand runs one stage, which reads its
inputs from the experiment directory and writes its artifacts there;
report ends with a hash manifest, so re-running the same config + seed
can be verified byte-for-byte.  `run` is the six subcommands in order,
after writing config.json.

Exit codes: 0 success, 2 config error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import acoustic, clustering, phoneset, probing, trainer
from .model import ModelConfig, TrainedModel, preset
from .plots import svg_bar_chart, svg_heatmap, svg_scatter

OUT_ROOT_ENV = "CTCPROBE_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

# The `probe` config keys that choose which combos to probe; the rest are
# ProbeConfig fields.
PROBE_GRID = ("layers", "strides", "windows", "schemes")


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "ctcprobe-out"
    threads: int = 1
    corpus: dict = field(default_factory=lambda: {
        "synthetic": {"n_utterances": 100}})
    model: dict = field(default_factory=lambda: {"preset": "ds2-mini"})
    train: dict = field(default_factory=dict)
    probe: dict = field(default_factory=lambda: {
        "layers": [0, 1, 2], "strides": [True], "windows": [0],
        "schemes": ["full"]})
    clustering: dict = field(default_factory=lambda: {"enabled": False})

    @classmethod
    def from_dict(cls, d):
        known = {"seed", "out_dir", "threads", "corpus", "model", "train",
                 "probe", "clustering"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**{k: d[k] for k in d})
        cfg.validate()
        return cfg

    def validate(self):
        """Reject bad configs before any work happens."""
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        model_cfg = self.model_config()
        n_layers = model_cfg.n_layers
        for k in self.probe.get("layers", []):
            if not 0 <= k <= n_layers:
                raise ConfigError(
                    f"probe layer {k} outside [0, {n_layers}]")
        for w in self.probe.get("windows", [0]):
            if w < 0:
                raise ConfigError("window widths must be >= 0")
        for scheme in self.probe.get("schemes", ["full"]):
            if scheme not in phoneset.SCHEMES:
                raise ConfigError(f"unknown reduction scheme {scheme!r}")
        if self.clustering.get("enabled"):
            k = self.clustering.get("layer", 0)
            if not 0 <= k <= n_layers:
                raise ConfigError(
                    f"clustering layer {k} outside [0, {n_layers}]")
        has_synth = self.corpus.get("synthetic") is not None
        has_import = self.corpus.get("import_path") is not None
        if has_synth == has_import:
            raise ConfigError(
                "corpus needs exactly one of 'synthetic' or 'import_path'")
        self.train_config()
        self.probe_config()

    def model_config(self) -> ModelConfig:
        try:
            return preset(self.model.get("preset", "ds2-mini"),
                          seed=self.model.get("seed", self.seed))
        except ValueError as exc:
            raise ConfigError(str(exc))

    def train_config(self) -> trainer.TrainConfig:
        return trainer.TrainConfig(**{"seed": self.seed, **self.train})

    def probe_config(self) -> trainer.ProbeConfig:
        """The probe training settings: `probe` minus the grid keys."""
        return trainer.ProbeConfig(**{
            "seed": self.seed,
            **{k: v for k, v in self.probe.items() if k not in PROBE_GRID}})

    def resolved_out_dir(self):
        return os.environ.get(OUT_ROOT_ENV, self.out_dir)


def load_config(path, overrides=()):
    with open(path) as fh:
        data = json.load(fh)
    for item in overrides:
        key, _, raw = item.partition("=")
        if not _:
            raise ConfigError(f"override {item!r} is not key=value")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Artifact bookkeeping
# ---------------------------------------------------------------------------

class ArtifactDir:
    def __init__(self, base):
        self.base = base
        os.makedirs(base, exist_ok=True)

    def path(self, rel):
        full = os.path.join(self.base, rel)
        os.makedirs(os.path.dirname(full) or ".", exist_ok=True)
        return full

    def write_text(self, rel, text):
        with open(self.path(rel), "w", newline="") as fh:
            fh.write(text)
        return rel

    def write_json(self, rel, obj):
        return self.write_text(rel, json.dumps(obj, sort_keys=True, indent=1)
                               + "\n")

    def write_csv(self, rel, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return self.write_text(rel, buf.getvalue())

    def write_manifest(self, config):
        files = {}
        for root, _dirs, names in os.walk(self.base):
            for name in sorted(names):
                if name == "manifest.json":
                    continue
                full = os.path.join(root, name)
                rel = os.path.relpath(full, self.base)
                with open(full, "rb") as fh:
                    files[rel] = hashlib.sha256(fh.read()).hexdigest()
        self.write_json("manifest.json", {
            "seed": config.seed,
            "config": config.__dict__,
            "files": files,
        })


def _fnum(x):
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def _synth_config(cfg: ExperimentConfig):
    """The corpus's SynthConfig, or None when the corpus is imported."""
    synth = cfg.corpus.get("synthetic")
    if synth is None:
        return None
    params = {k: v for k, v in synth.items() if k != "n_utterances"}
    for key in ("phones_per_utterance", "segment_frames", "word_phones"):
        if key in params:
            params[key] = tuple(params[key])
    params.setdefault("seed", cfg.seed)
    return acoustic.SynthConfig(**params)


def _inventory_for(cfg: ExperimentConfig):
    synth_cfg = _synth_config(cfg)
    if synth_cfg is None:
        return phoneset.timit_inventory()
    return phoneset.synthetic_inventory(synth_cfg.phones)


def stage_corpus(cfg: ExperimentConfig, art: ArtifactDir):
    synth_cfg = _synth_config(cfg)
    if synth_cfg is not None:
        corpus = acoustic.synthesize_corpus(
            synth_cfg, cfg.corpus["synthetic"].get("n_utterances", 100))
    else:
        corpus, errors = acoustic.import_timit_dir(cfg.corpus["import_path"])
        if errors:
            art.write_csv("import_errors.csv",
                          [("file", "error")] + list(errors))
        if not corpus:
            raise ValueError("import produced no utterances")
    train, dev = trainer.split_dev(corpus, cfg.train_config().dev_fraction,
                                   cfg.seed)
    acoustic.save_corpus(art.path("corpus_train.jsonl"), train)
    acoustic.save_corpus(art.path("corpus_dev.jsonl"), dev)


def load_split(art):
    return (acoustic.load_corpus(art.path("corpus_train.jsonl")),
            acoustic.load_corpus(art.path("corpus_dev.jsonl")))


def stage_train_asr(cfg: ExperimentConfig, art: ArtifactDir):
    train, dev = load_split(art)
    result = trainer.train_asr(train, cfg.model_config(), cfg.train_config(),
                               dev_corpus=dev)
    result.model.save(art.path("model.ckpt"))
    art.write_csv("asr_loss.csv",
                  [("epoch", "train_loss", "dev_loss")] +
                  [(r["epoch"], _fnum(r["train_loss"]), _fnum(r["dev_loss"]))
                   for r in result.log])


def probe_combos(cfg: ExperimentConfig):
    """Every (layer, strides, window, scheme) the config probes, once
    each, with the strides settings outermost."""
    probe = cfg.probe
    return list(dict.fromkeys(
        (layer, bool(strides), window, scheme)
        for strides in probe.get("strides", [True])
        for window in probe.get("windows", [0])
        for scheme in probe.get("schemes", ["full"])
        for layer in probe.get("layers", [0])))


def combo_name(layer, strides, window, scheme):
    return (f"layer{layer}_{'str' if strides else 'nostr'}"
            f"_w{window}_{scheme.replace('/', '-')}")


def stage_extract(cfg, art):
    model = TrainedModel.load(art.path("model.ckpt"))
    train, dev = load_split(art)
    inventory = _inventory_for(cfg)
    # Each utterance is forwarded once per strides setting; every layer,
    # window and scheme of that setting is cut from the stored passes.
    # probe_combos lists the strides settings outermost, so each store is
    # dropped as soon as its setting is done.
    for _strides, combos in itertools.groupby(probe_combos(cfg),
                                              key=lambda combo: combo[1]):
        forwards = {"train": {}, "dev": {}}
        for layer, strides, window, scheme in combos:
            name = combo_name(layer, strides, window, scheme)
            for split, corpus in (("train", train), ("dev", dev)):
                ds = probing.extract_frames(
                    model, corpus, layer, strides_enabled=strides,
                    window=window, scheme=scheme, inventory=inventory,
                    threads=cfg.threads, forwards=forwards[split])
                probing.save_dataset(art.path(f"frames_{name}.{split}.fds"),
                                     ds)


def stage_probe(cfg, art):
    model = TrainedModel.load(art.path("model.ckpt"))
    dev_corpus = acoustic.load_corpus(art.path("corpus_dev.jsonl"))
    probe_cfg = cfg.probe_config()
    reports = {}
    summary = [("layer", "strides", "window", "scheme", "dev_accuracy",
                "majority_baseline", "best_epoch")]
    breakdown_rows = [("layer", "strides", "window", "scheme", "category",
                       "share", "accuracy")]
    model_cfg = model.config
    dev_forwards = {}  # one forward per dev utterance and strides setting
    for combo in probe_combos(cfg):
        layer, strides, window, scheme = combo
        name = combo_name(*combo)
        ds_train = probing.load_dataset(art.path(f"frames_{name}.train.fds"))
        ds_dev = probing.load_dataset(art.path(f"frames_{name}.dev.fds"))
        result = trainer.train_probe(ds_train, ds_dev, probe_cfg)
        report = probing.evaluate_probe(result.probe, ds_dev)
        reports[combo] = report
        art.write_json(f"probe_{name}.json", report.to_dict())
        art.write_csv(f"probe_{name}_curve.csv",
                      [("epoch", "train_loss", "dev_loss", "dev_accuracy")] +
                      [(r["epoch"], _fnum(r["train_loss"]),
                        _fnum(r["dev_loss"]), _fnum(r["dev_accuracy"]))
                       for r in result.curve])
        art.write_csv(f"probe_{name}_confusion.csv",
                      [[""] + report.label_names] +
                      [[report.label_names[i]] + report.confusion[i].tolist()
                       for i in range(len(report.label_names))])
        _base_label, base_acc = phoneset.majority_baseline(ds_dev)
        summary.append((layer, int(strides), window, scheme,
                        _fnum(report.accuracy), _fnum(base_acc),
                        result.best_epoch))
        same_resolution = (model_cfg.subsample_factor(layer, strides)
                           == model_cfg.subsample_factor(model_cfg.n_layers,
                                                         strides))
        if same_resolution:
            bd = probing.breakdown_by_ctc_symbol(result.probe, ds_dev, model,
                                                 dev_corpus, dev_forwards)
            for cat, stats in sorted(bd.per_category.items()):
                breakdown_rows.append(
                    (layer, int(strides), window, scheme, cat,
                     _fnum(stats["share"]), _fnum(stats["accuracy"])))
    art.write_csv("layer_accuracy.csv", summary)
    if len(breakdown_rows) > 1:
        art.write_csv("ctc_breakdown.csv", breakdown_rows)
    _write_inter_intra(art, reports, _inventory_for(cfg))


def _write_inter_intra(art, reports, inventory):
    rows = [("layer", "strides", "window", "class", "inter_f1", "intra_f1")]
    class_map = {p: inventory.reduce(p, "sound_class")
                 for p in inventory.phones}
    for (layer, strides, window, scheme), fine in reports.items():
        if scheme != "full":
            continue
        coarse = reports.get((layer, strides, window, "sound_class"))
        if coarse is None:
            continue
        per_class = probing.inter_intra_f1(fine, coarse, class_map)
        for cls_name in sorted(per_class):
            rows.append((layer, int(strides), window, cls_name,
                         _fnum(per_class[cls_name]["inter_f1"]),
                         _fnum(per_class[cls_name]["intra_f1"])))
    if len(rows) > 1:
        art.write_csv("inter_intra_f1.csv", rows)


def stage_cluster(cfg, art):
    """Cluster the dev frames of the configured combo, if enabled."""
    spec = cfg.clustering
    if not spec.get("enabled"):
        return
    layer = spec.get("layer", 0)
    strides = bool(spec.get("strides", True))
    window = spec.get("window", 0)
    scheme = spec.get("scheme", "full")
    key = (layer, strides, window, scheme)
    if key not in probe_combos(cfg):
        raise ValueError(
            f"clustering needs probe combo {key} to be extracted")
    ds_dev = probing.load_dataset(
        art.path(f"frames_{combo_name(*key)}.dev.fds"))
    labels = np.array([ds_dev.label_names[i] for i in ds_dev.labels])
    k = min(spec.get("k", 50), ds_dev.n_frames)
    summary = clustering.kmeans(ds_dev.vectors, k, labels=labels,
                                seed=cfg.seed,
                                max_iter=spec.get("max_iter", 100),
                                tol=spec.get("tol", 1e-6))
    pruned = clustering.prune_clusters(summary,
                                       spec.get("min_coverage", 0.15))
    method = spec.get("method", "tsne")
    coords = clustering.project_2d(
        pruned.centroids, method=method, seed=cfg.seed,
        perplexity=min(spec.get("perplexity", 30.0),
                       max(pruned.k - 1, 2) - 1e-9),
        iters=spec.get("iters", 1000))
    rows = [("cluster_id", "majority_label", "coverage", "x", "y")]
    for i in range(pruned.k):
        rows.append((pruned.cluster_ids[i], pruned.majority_label[i],
                     _fnum(pruned.coverage[i]), _fnum(coords[i, 0]),
                     _fnum(coords[i, 1])))
    art.write_csv("clusters.csv", rows)
    art.write_text("centroids.svg",
                   svg_scatter(coords, pruned.majority_label,
                               title=f"cluster centroids ({method}, "
                                     f"layer {layer})"))


def layer_display_names(model_cfg: ModelConfig):
    names = ["input"]
    counters = {"conv2d": 0, "rnn_bidir": 0, "lstm_bidir": 0}
    for spec in model_cfg.layers:
        if spec.kind == "conv2d":
            counters["conv2d"] += 1
            names.append(f"cnn{counters['conv2d']}")
        elif spec.kind == "rnn_bidir":
            counters["rnn_bidir"] += 1
            names.append(f"rnn{counters['rnn_bidir']}")
        elif spec.kind == "lstm_bidir":
            counters["lstm_bidir"] += 1
            names.append(f"lstm{counters['lstm_bidir']}")
        else:
            names.append("fc")
    return names


def plot_layer_accuracy(reports, model_cfg: ModelConfig):
    """One accuracy bar chart per strides setting, bars in layer order."""
    if not reports:
        raise ValueError("no probe reports to plot")
    names = layer_display_names(model_cfg)
    panels = {}
    for (layer, strides, _window, _scheme), report in sorted(reports.items()):
        panels.setdefault(strides, []).append((names[layer], report.accuracy))
    return {strides: svg_bar_chart(
        [n for n, _ in bars], [v for _, v in bars], y_max=1.0,
        title=f"frame accuracy by layer ({'with' if strides else 'without'} "
              f"strides)")
        for strides, bars in panels.items()}


def stage_report(cfg, art):
    """Figures from the probe reports, then the manifest of every file."""
    reports = {}
    for combo in probe_combos(cfg):
        with open(art.path(f"probe_{combo_name(*combo)}.json")) as fh:
            reports[combo] = probing.ProbeReport.from_dict(json.load(fh))
    fine = {k: v for k, v in reports.items() if k[3] == reports_main_scheme(reports)}
    charts = plot_layer_accuracy(fine, cfg.model_config())
    for strides, svg in charts.items():
        art.write_text(
            f"accuracy_{'strides_on' if strides else 'strides_off'}.svg", svg)
    for combo, report in reports.items():
        if combo[3] == "sound_class":
            art.write_text(f"confusion_{combo_name(*combo)}.svg",
                           svg_heatmap(report.confusion, report.label_names,
                                       report.label_names,
                                       title=f"sound classes, layer {combo[0]}"))
    art.write_manifest(cfg)


def reports_main_scheme(reports):
    schemes = {combo[3] for combo in reports}
    return "full" if "full" in schemes else sorted(schemes)[0]


# Subcommand -> stage, in pipeline order.  Each stage reads the artifacts
# it needs from the experiment directory and writes its own; stage `s` is
# the module function stage_<s>, looked up when it runs, so a replaced
# module attribute (the benchmark's stage timers) is the one called.
STAGES = {"synth": "corpus", "train-asr": "train-asr", "extract": "extract",
          "probe": "probe", "cluster": "cluster", "report": "report"}


def run_stage(stage, cfg, art):
    try:
        globals()["stage_" + stage.replace("-", "_")](cfg, art)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def run(cfg: ExperimentConfig) -> str:
    """Run every stage in order; returns the artifact directory."""
    art = ArtifactDir(cfg.resolved_out_dir())
    art.write_json("config.json", cfg.__dict__)
    for stage in STAGES.values():
        run_stage(stage, cfg, art)
    return art.base


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     help="override a config key (dotted path, JSON value)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ctcprobe",
        description="Train a small CTC speech model and probe its layers "
                    "for phonetic information.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *STAGES):
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.set)
    except (ConfigError, OSError, json.JSONDecodeError, TypeError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            print(run(cfg))
        else:
            run_stage(STAGES[args.command], cfg,
                      ArtifactDir(cfg.resolved_out_dir()))
    except Exception as exc:
        # Stage failures name their stage; a failure outside one (making
        # the output directory, writing config.json) names the command.
        if not isinstance(exc, StageError):
            exc = StageError(args.command, exc)
        print(exc, file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
