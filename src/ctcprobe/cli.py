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
import inspect
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import acoustic, clustering, model, phoneset, probing, trainer
from .artifacts import atomic_write
from .model import ModelConfig, TrainedModel
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

def _build(section, make, raw, other=None, **inherited):
    """`make` (a dataclass or function) called with `raw`, the config's
    `section`, over `inherited`; keys that `other` takes are left to it.
    A non-object, an unknown key or a bad value is a ConfigError."""
    if type(raw) is not dict:
        raise ConfigError(f"{section} must be an object, not {raw!r}")
    known = inspect.signature(make).parameters.keys()
    left = inspect.signature(other).parameters.keys() if other else set()
    unknown = sorted(f"{section}.{k}" for k in raw.keys() - known - left)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    try:
        return make(**{**inherited, **{k: raw[k] for k in raw.keys() & known}})
    except ConfigError:  # a section's, from ExperimentConfig
        raise
    except (TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _model(preset="ds2-mini", seed=0):
    """The `model` section: a preset architecture and its init seed."""
    trainer.check_int("seed", seed, 0)
    return model.preset(preset, seed=seed)


def _corpus(synthetic=None, import_path=None):
    """The `corpus` section: SyntheticCorpus keys or a TIMIT-layout dir."""
    if (synthetic is None) == (import_path is None) or \
            type(import_path) not in (str, type(None)):
        raise ValueError("needs one of 'synthetic' or 'import_path' (a str)")
    return synthetic, import_path


@dataclass
class SyntheticCorpus(acoustic.SynthConfig):
    """`corpus.synthetic`: a SynthConfig and how many utterances."""
    n_utterances: int = 100

    def __post_init__(self):
        trainer.check_int("phone_inventory_size", self.phone_inventory_size, 1)
        for key in ("phones_per_utterance", "segment_frames", "word_phones"):
            for end in getattr(self, key):
                trainer.check_int(f"each end of {key}", end, 1)
        trainer.check_number("noise_stddev", self.noise_stddev)
        super().__post_init__()
        trainer.check_int("n_utterances", self.n_utterances, 2)
        trainer.check_int("seed", self.seed, 0)


@dataclass
class ProbeGrid:
    """The `probe` keys that choose the combos; the rest are ProbeConfig's."""
    layers: list = field(default_factory=lambda: [0, 1, 2])
    strides: list = field(default_factory=lambda: [True])
    windows: list = field(default_factory=lambda: [0])
    schemes: list = field(default_factory=lambda: ["full"])

    def __post_init__(self):
        for key, values in vars(self).items():
            if type(values) is not list or not values:
                raise ValueError(f"{key} must be a non-empty list")
        for value in self.layers + self.windows:
            trainer.check_int("each layer and window", value, 0)
        if {type(s) for s in self.strides} != {bool} or \
                not set(self.schemes) <= set(phoneset.SCHEMES):
            raise ValueError(f"needs strides true or false and schemes in "
                             f"{sorted(phoneset.SCHEMES)}")


@dataclass
class ClusteringConfig:
    """`clustering`, checked even when not `enabled` (its tap view as a
    one-combo ProbeGrid): k-means, coverage pruning, a 2-D projection."""
    enabled: bool = False
    layer: int = 0
    strides: bool = True
    window: int = 0
    scheme: str = "full"
    k: int = 50
    max_iter: int = 100
    tol: float = 1e-6
    min_coverage: float = 0.15
    method: str = "tsne"
    perplexity: float = 30.0
    iters: int = 1000

    def __post_init__(self):
        ProbeGrid([self.layer], [self.strides], [self.window], [self.scheme])
        for name in ("k", "max_iter", "iters"):
            trainer.check_int(name, getattr(self, name), 1)
        for name in ("tol", "min_coverage", "perplexity"):
            trainer.check_number(name, getattr(self, name))
        if not (type(self.enabled) is bool and self.tol >= 0
                and self.method in clustering.PROJECTIONS
                and 0 < self.min_coverage <= 1 and self.perplexity > 0):
            raise ValueError(f"needs enabled true or false, a method in "
                             f"{sorted(clustering.PROJECTIONS)}, tol >= 0, "
                             f"min_coverage in (0, 1] and perplexity > 0")
        if self.k < clustering.PROJECTIONS[self.method]:
            raise ValueError(f"k={self.k} is below the "
                             f"{clustering.PROJECTIONS[self.method]} clusters "
                             f"that {self.method} needs")


@dataclass
class ExperimentConfig:
    """The config as given, which is what config.json and the manifest
    record.  `__post_init__` builds and checks each section once into what
    the stages read: `model_cfg`, `train_cfg`, `probe_cfg`, `probe_grid`,
    `clustering_cfg`, and `synth_cfg` or `import_path`."""
    seed: int = 0
    out_dir: str = "ctcprobe-out"
    threads: int = 1
    corpus: dict = field(default_factory=lambda: {"synthetic": {}})
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    probe: dict = field(default_factory=dict)
    clustering: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d):
        return _build("config", cls, d)

    def __post_init__(self):
        trainer.check_int("seed", self.seed, 0)
        trainer.check_int("threads", self.threads, 1)
        model_cfg = self.model_cfg = _build("model", _model, self.model,
                                            seed=self.seed)
        self.train_cfg = _build("train", trainer.TrainConfig, self.train,
                                seed=self.seed)
        self.probe_grid = _build("probe", ProbeGrid, self.probe,
                                 other=trainer.ProbeConfig)
        self.probe_cfg = _build("probe", trainer.ProbeConfig, self.probe,
                                other=ProbeGrid, seed=self.seed)
        self.clustering_cfg = _build("clustering", ClusteringConfig,
                                     self.clustering)
        synthetic, self.import_path = _build("corpus", _corpus, self.corpus)
        self.synth_cfg = synth = None if synthetic is None else _build(
            "corpus.synthetic", SyntheticCorpus, synthetic, seed=self.seed)
        top = max(self.probe_grid.layers + [self.clustering_cfg.layer])
        if top > model_cfg.n_layers:
            raise ConfigError(f"probe or clustering layer {top} outside "
                              f"[0, {model_cfg.n_layers}]")
        view, grid = self.clustering_cfg, self.probe_grid
        if view.enabled and (view.layer not in grid.layers
                             or view.strides not in grid.strides):
            raise ConfigError(f"clustering needs the layer-{view.layer} tap "
                              f"with strides={view.strides}, which the probe "
                              f"grid does not extract")
        codes = "".join(synth.phone_to_chars.values()) if synth else ""
        if not set(codes) <= set(model_cfg.alphabet):
            raise ConfigError("corpus.synthetic needs phone codes in the "
                              "model alphabet")

    def resolved_out_dir(self):
        return os.environ.get(OUT_ROOT_ENV, self.out_dir)


def load_config(path, overrides=()):
    with open(path) as fh:
        data = json.load(fh)
    for item in overrides:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"override {item!r} is not key=value")
        node, parts = data, key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {}) if type(node) is dict else None
        if type(node) is not dict:
            raise ConfigError(f"override {key!r} runs through a non-object")
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
        with atomic_write(self.path(rel), newline="") as fh:
            fh.write(text)
        return rel

    def write_json(self, rel, obj):
        return self.write_text(rel, json.dumps(obj, sort_keys=True, indent=1)
                               + "\n")

    def read_json(self, rel, parse):
        """``parse`` of a JSON artifact.  A corrupt one, or one lacking a key
        (or holding a mistyped one) that ``parse`` reads, is a ValueError
        naming its path."""
        path = self.path(rel)
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSON or UTF-8 decoding
                raise ValueError(f"{path}: corrupt JSON ({exc})") from exc
        try:
            return parse(data)
        except (KeyError, TypeError) as exc:  # a missing or mistyped key
            raise ValueError(f"{path}: malformed JSON ({exc!r})") from exc

    def write_csv(self, rel, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return self.write_text(rel, buf.getvalue())

    def remove_temps(self):
        """Remove every ``*.tmp`` file under the directory.  `atomic_write`
        removes its temp file when its block raises, but a killed process
        runs no handler; one process writes a directory at a time, so a
        temp file present between stages is a killed stage's."""
        for root, _dirs, names in os.walk(self.base):
            for name in names:
                if name.endswith(".tmp"):
                    os.remove(os.path.join(root, name))

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
            "seed": config.seed, "config": asdict(config), "files": files})


def _fnum(x):
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def _inventory_for(cfg: ExperimentConfig):
    if cfg.synth_cfg is None:
        return phoneset.timit_inventory()
    return phoneset.synthetic_inventory(cfg.synth_cfg.phones)


def stage_corpus(cfg: ExperimentConfig, art: ArtifactDir):
    if cfg.synth_cfg is not None:
        corpus = acoustic.synthesize_corpus(cfg.synth_cfg,
                                            cfg.synth_cfg.n_utterances)
    else:
        corpus, errors = acoustic.import_timit_dir(cfg.import_path)
        if errors:
            art.write_csv("import_errors.csv",
                          [("file", "error")] + list(errors))
        if len(corpus) < 2:
            raise ValueError(f"import produced {len(corpus)} utterances; "
                             f"a train/dev split needs at least 2")
    train, dev = trainer.split_dev(corpus, cfg.train_cfg.dev_fraction,
                                   cfg.seed)
    acoustic.save_corpus(art.path("corpus_train.bin"), train)
    acoustic.save_corpus(art.path("corpus_dev.bin"), dev)


def load_split(art):
    return (acoustic.load_corpus(art.path("corpus_train.bin")),
            acoustic.load_corpus(art.path("corpus_dev.bin")))


def stage_train_asr(cfg: ExperimentConfig, art: ArtifactDir):
    train, dev = load_split(art)
    result = trainer.train_asr(train, cfg.model_cfg, cfg.train_cfg,
                               dev_corpus=dev)
    result.model.save(art.path("model.ckpt"))
    art.write_csv("asr_loss.csv",
                  [("epoch", "train_loss", "dev_loss")] +
                  [(r["epoch"], _fnum(r["train_loss"]), _fnum(r["dev_loss"]))
                   for r in result.log])


def probe_combos(cfg: ExperimentConfig):
    """Every (layer, strides, window, scheme) the config probes, once
    each, with the strides settings outermost."""
    grid = cfg.probe_grid
    return list(dict.fromkeys(
        (layer, strides, window, scheme) for strides in grid.strides
        for window in grid.windows for scheme in grid.schemes
        for layer in grid.layers))


def combo_name(layer, strides, window, scheme):
    return (f"layer{layer}_{'str' if strides else 'nostr'}"
            f"_w{window}_{scheme.replace('/', '-')}")


# The dev split's greedy CTC categories, written by extract for the probe
# stage's blank/space/letter breakdown: {strides key: {"subsample_factor":
# the softmax's, "categories": {utterance id: "b"/"s"/"l" per frame}}}.
CATEGORIES_FILE = "ctc_categories.dev.json"


def strides_key(strides):
    return "strides_on" if strides else "strides_off"


def tap_file(layer, strides, split):
    return f"frames_layer{layer}_{'str' if strides else 'nostr'}.{split}.fds"


def layer_views(art, layer, strides, split, views, inventory):
    """The (window, scheme) ``views`` of one split's rows of ``layer`` at a
    strides setting, from one read: layer 0, the input, is the split's
    corpus, of which extract writes no copy; a deeper layer is its tap
    file."""
    if layer == 0:
        return probing.corpus_views(
            acoustic.load_corpus(art.path(f"corpus_{split}.bin")), strides,
            views, inventory)
    return probing.load_views(art.path(tap_file(layer, strides, split)),
                              views, inventory)


def _first_difference(got, want, path="model"):
    """(path, got's value, want's) where two `ModelConfig.to_dict` values
    first differ, depth first, or None: a list's common entries come
    before its length."""
    if isinstance(got, dict):  # the same dataclass's fields
        pairs = [(f"{path}.{k}", got[k], want[k]) for k in got]
    elif isinstance(got, (list, tuple)) and isinstance(want, (list, tuple)):
        pairs = [(f"{path}[{i}]", a, b)
                 for i, (a, b) in enumerate(zip(got, want))]
        pairs.append((f"len({path})", len(got), len(want)))
    else:
        return None if got == want else (path, got, want)
    return next(filter(None, (_first_difference(a, b, p)
                              for p, a, b in pairs)), None)


def stage_extract(cfg, art):
    path = art.path("model.ckpt")
    model = TrainedModel.load(path)
    diff = _first_difference(model.config.to_dict(), cfg.model_cfg.to_dict())
    if diff is not None:
        raise ValueError(f"{path} holds a model of another config: its "
                         f"{diff[0]} is {diff[1]!r}, the config's {diff[2]!r}")
    train, dev = load_split(art)
    # One pass per strides setting and split: each utterance is forwarded
    # once, in minibatches of train.batch_size, and its rows for every
    # probed layer of that setting go straight to their files.  Layer 0,
    # the input, gets none: its views come from the corpus.
    combos = probe_combos(cfg)
    dev_categories = {}
    for strides in dict.fromkeys(combo[1] for combo in combos):
        layers = dict.fromkeys(combo[0] for combo in combos
                               if combo[1] == strides and combo[0] > 0)
        for split, corpus in (("train", train), ("dev", dev)):
            taps = [(layer, art.path(tap_file(layer, strides, split)))
                    for layer in layers]
            extraction = probing.extract_frames(
                model, corpus, taps, strides, cfg.threads,
                cfg.train_cfg.batch_size)
        # `extraction` is now the dev pass's
        dev_categories[strides_key(strides)] = {
            "subsample_factor": model.config.subsample_factor(
                model.config.n_layers, strides),
            "categories": extraction.categories}
    art.write_json(CATEGORIES_FILE, dev_categories)


def stage_probe(cfg, art):
    # The breakdown's categories come from extract's forwards: this stage
    # reads no model and forwards nothing.  Layer 0's views come from the
    # corpus, every other layer's from its tap files.
    dev_categories = art.read_json(CATEGORIES_FILE, lambda d: {
        key: (d[key]["subsample_factor"], d[key]["categories"])
        for key in map(strides_key, cfg.probe_grid.strides)})
    inventory = _inventory_for(cfg)
    combos = probe_combos(cfg)
    # Each split's rows of a (layer, strides) pair are read once: every
    # (window, scheme) view of the pair comes from the same arrays.
    views = {}
    for layer, strides, window, scheme in combos:
        views.setdefault((layer, strides), []).append((window, scheme))
    # Combos whose train and dev views hold the same rows and labels share
    # one fit (layer 0 at either strides setting; reduced48 on a synthetic
    # inventory), of which this keeps what their files need, not the probe.
    fits = {}
    reports, summary, breakdown = {}, {}, {}
    for (layer, strides), pair_views in views.items():
        for (window, scheme), ds_train, ds_dev in zip(pair_views, *(
                layer_views(art, layer, strides, split, pair_views,
                            inventory)
                for split in ("train", "dev"))):
            key = ds_train.digest, ds_dev.digest
            if key not in fits:
                result = trainer.train_probe(ds_train, ds_dev, cfg.probe_cfg)
                fits[key] = result.curve, result.best_epoch, result.dev_pred
                del result
            combo = (layer, strides, window, scheme)
            reports[combo], summary[combo], breakdown[combo] = _probe_combo(
                art, combo, ds_dev, *fits[key], dev_categories)
    art.write_csv("layer_accuracy.csv", [
        ("layer", "strides", "window", "scheme", "dev_accuracy",
         "majority_baseline", "best_epoch")] + [summary[c] for c in combos])
    breakdown_rows = [row for combo in combos for row in breakdown[combo]]
    if breakdown_rows:
        art.write_csv("ctc_breakdown.csv", [
            ("layer", "strides", "window", "scheme", "category", "share",
             "accuracy")] + breakdown_rows)
    _write_inter_intra(art, {c: reports[c] for c in combos}, inventory)


def _probe_combo(art, combo, ds_dev, curve, best_epoch, pred,
                 dev_categories):
    """Evaluate one combo's fit (its `train_probe` curve, selected epoch and
    dev predictions) and write its own files.  Returns its report, its
    `layer_accuracy.csv` row and its `ctc_breakdown.csv` rows."""
    layer, strides, window, scheme = combo
    name = combo_name(*combo)
    report = probing.evaluate_probe(pred, ds_dev)
    art.write_json(f"probe_{name}.json", report)
    art.write_csv(f"probe_{name}_curve.csv",
                  [("epoch", "train_loss", "dev_loss", "dev_accuracy")] +
                  [(r["epoch"], _fnum(r["train_loss"]),
                    _fnum(r["dev_loss"]), _fnum(r["dev_accuracy"]))
                   for r in curve])
    names = report["label_names"]
    art.write_csv(f"probe_{name}_confusion.csv",
                  [[""] + names] + [[label] + row for label, row in
                                    zip(names, report["confusion"])])
    _base_label, base_acc = phoneset.majority_baseline(
        ds_dev.label_names[i] for i in ds_dev.labels)
    summary = (layer, int(strides), window, scheme, _fnum(report["accuracy"]),
               _fnum(base_acc), best_epoch)
    breakdown = []
    # A layer at the softmax's time resolution gets the breakdown.
    factor, categories = dev_categories[strides_key(strides)]
    if ds_dev.provenance["subsample_factor"] == factor:
        per_category = probing.breakdown_by_ctc_symbol(
            pred == ds_dev.labels, ds_dev.spans, categories)
        for cat, stats in sorted(per_category.items()):
            breakdown.append((layer, int(strides), window, scheme, cat,
                              _fnum(stats["share"]), _fnum(stats["accuracy"])))
    return report, summary, breakdown


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
    spec = cfg.clustering_cfg
    if not spec.enabled:
        return
    ds_dev, = layer_views(art, spec.layer, spec.strides, "dev",
                          [(spec.window, spec.scheme)], _inventory_for(cfg))
    result = clustering.kmeans(ds_dev.vectors, min(spec.k, ds_dev.n_frames),
                               seed=cfg.seed, max_iter=spec.max_iter,
                               tol=spec.tol)
    kept = clustering.majority_clusters(
        result.assignments,
        np.array([ds_dev.label_names[i] for i in ds_dev.labels]),
        spec.min_coverage)
    ids = [j for j, _label, _coverage in kept]
    if len(ids) < clustering.PROJECTIONS[spec.method]:
        raise ValueError(
            f"only {len(ids)} of k={spec.k} clusters (ids {ids}) "
            f"survive pruning at min_coverage={spec.min_coverage}; "
            f"{spec.method} needs at least "
            f"{clustering.PROJECTIONS[spec.method]}")
    coords = clustering.project_2d(
        result.centroids[ids], method=spec.method, seed=cfg.seed,
        perplexity=min(spec.perplexity, len(ids) - 1 - 1e-9),
        iters=spec.iters)
    art.write_csv("clusters.csv",
                  [("cluster_id", "majority_label", "coverage", "x", "y")] +
                  [(j, label, _fnum(coverage), _fnum(x), _fnum(y))
                   for (j, label, coverage), (x, y) in zip(kept, coords)])
    art.write_text("centroids.svg",
                   svg_scatter(coords, [label for _j, label, _c in kept],
                               title=f"cluster centroids ({spec.method}, "
                                     f"layer {spec.layer})"))


def layer_display_names(model_cfg: ModelConfig):
    names, counts = ["input"], {}
    short = {"conv2d": "cnn", "rnn_bidir": "rnn", "lstm_bidir": "lstm"}
    for spec in model_cfg.layers:
        counts[spec.kind] = counts.get(spec.kind, 0) + 1
        names.append(f"{short[spec.kind]}{counts[spec.kind]}"
                     if spec.kind in short else "fc")
    return names


def plot_layer_accuracy(reports, model_cfg: ModelConfig):
    """One accuracy bar chart per strides setting, bars in layer order;
    when the reports span more than one window, each label names its
    window ("cnn2 w2")."""
    if not reports:
        raise ValueError("no probe reports to plot")
    names = layer_display_names(model_cfg)
    windowed = len({combo[2] for combo in reports}) > 1
    panels = {}
    for (layer, strides, window, _scheme), report in sorted(reports.items()):
        label = f"{names[layer]} w{window}" if windowed else names[layer]
        panels.setdefault(strides, []).append((label, report["accuracy"]))
    return {strides: svg_bar_chart(
        [n for n, _ in bars], [v for _, v in bars],
        title=f"frame accuracy by layer ({'with' if strides else 'without'} "
              f"strides)")
        for strides, bars in panels.items()}


def stage_report(cfg, art):
    """Figures from the probe reports, then the manifest of every file."""
    keys = ("accuracy", "confusion", "label_names")  # what the figures read
    reports = {combo: art.read_json(f"probe_{combo_name(*combo)}.json",
                                    lambda d: {k: d[k] for k in keys})
               for combo in probe_combos(cfg)}
    schemes = {combo[3] for combo in reports}
    main_scheme = "full" if "full" in schemes else min(schemes)
    fine = {k: v for k, v in reports.items() if k[3] == main_scheme}
    charts = plot_layer_accuracy(fine, cfg.model_cfg)
    for strides, svg in charts.items():
        art.write_text(f"accuracy_{strides_key(strides)}.svg", svg)
    for (layer, strides, window, scheme), report in reports.items():
        if scheme == "sound_class":
            art.write_text(
                f"confusion_{combo_name(layer, strides, window, scheme)}.svg",
                svg_heatmap(report["confusion"], report["label_names"],
                            report["label_names"],
                            title=f"sound classes, layer {layer} "
                                  f"({'with' if strides else 'without'} "
                                  f"strides, window {window})"))
    art.write_manifest(cfg)


# Subcommand -> stage, in pipeline order.  Each stage reads the artifacts
# it needs from the experiment directory and writes its own; stage `s` is
# the module function stage_<s>, looked up when it runs, so a replaced
# module attribute (the benchmark's stage timers) is the one called.
STAGES = {"synth": "corpus", "train-asr": "train-asr", "extract": "extract",
          "probe": "probe", "cluster": "cluster", "report": "report"}


def run_stage(stage, cfg, art):
    try:
        art.remove_temps()
        globals()["stage_" + stage.replace("-", "_")](cfg, art)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def run(cfg: ExperimentConfig) -> str:
    """Run every stage in order; returns the artifact directory."""
    art = ArtifactDir(cfg.resolved_out_dir())
    art.write_json("config.json", asdict(cfg))
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
    except (OSError, ValueError) as exc:
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
