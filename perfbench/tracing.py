"""Spans around ctcprobe's public functions and methods, recorded from
outside the package, and the per-module metrics derived from them.

`Tracer.install` replaces every public function and public method of a
public class in each ctcprobe module with a wrapper that records one
span: (id, name, start, end, parent id, thread id, extra).  `extra`
holds the counts read from a call's arguments or result, such as conv
MACs or CTC lattice cells.  Spans stay in memory until the benchmark
writes them out.  `uninstall` restores the originals.

Self time of a span is its duration minus the union of its children's
intervals.  Children are tracked per thread; a span that opens on a pool
thread with nothing open on that thread is a child of the span open on
the main thread (the one that started the pool), so work that
`extract_frames` hands to its thread pool is not counted as its own.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
import types

MODULES = ("acoustic", "clustering", "cli", "ctc", "layers", "model",
           "phoneset", "plots", "probing", "trainer")


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _conv_tag(layer):
    # Every preset has two convs; only the first reads the 1-channel input.
    return "cnn1" if layer.in_channels == 1 else "cnn2"


def _conv_forward(args, kwargs, result):
    layer = args[0]
    out = result[0]
    c_out, t_out, f_out = out.shape
    kt, kf = layer.spec.kernel
    macs = c_out * t_out * f_out * layer.in_channels * kt * kf
    return _conv_tag(layer), t_out, macs


def _conv_backward(args, kwargs, result):
    return _conv_tag(args[0]), args[1].shape[1]


def _frames_of(tag):
    return lambda args, kwargs, result: (tag, args[1].shape[0])


def _ctc_cells(args, kwargs, result):
    log_probs = _arg(args, kwargs, 0, "log_probs", None)
    labels = _arg(args, kwargs, 1, "labels", None)
    return len(log_probs) * (2 * len(labels) + 1)


# span name -> extra(args, kwargs, result), evaluated after the call returns
EXTRA = {
    "layers.ConvLayer.forward": _conv_forward,
    "layers.ConvLayer.backward": _conv_backward,
    "layers.RecurrentLayer.forward": _frames_of("recurrent"),
    "layers.RecurrentLayer.backward": _frames_of("recurrent"),
    "layers.FCLayer.forward": _frames_of("fc"),
    "layers.FCLayer.backward": _frames_of("fc"),
    "model.TrainedModel.forward":
        lambda a, k, r: _arg(a, k, 3, "mode", "eval"),
    "ctc.ctc_loss": _ctc_cells,
    "ctc.ctc_grad": _ctc_cells,
    "ctc.ctc_loss_and_grad": _ctc_cells,
    "trainer.adam_step":
        lambda a, k, r: sum(int(p.size) for p in a[0].values()),
    "probing.extract_frames": lambda a, k, r: r.n_frames,
    "probing.TrainedProbe.loss_and_grads": lambda a, k, r: a[1].shape[0],
    "probing.save_dataset": lambda a, k, r: os.path.getsize(a[0]),
    "clustering.kmeans": lambda a, k, r: len(r.inertia_history),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._patches = []

    def _wrap(self, name, fn):
        spans, ids, stacks = self.spans, self._ids, self._stacks
        extra_fn = EXTRA.get(name)
        main = threading.main_thread().ident
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if tid != main and main_stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tid, None))
                raise
            end = clock()
            stack.pop()
            extra = extra_fn(args, kwargs, result) if extra_fn else None
            spans.append((sid, name, start, end, parent, tid, extra))
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [getattr(self.package, m) for m in MODULES]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[obj] = self._wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type):
                    self._wrap_class(f"{short}.{attr}", obj)
        # Rebind every module-level reference, including names imported
        # with `from .x import f`, so callers in other modules are traced.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    self._patch(mod, attr, replaced[obj])

    def _wrap_class(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr,
                            classmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._patch(cls, attr,
                            staticmethod(self._wrap(name, obj.__func__)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Spans recorded since the last call, in closing order."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(path, reps):
    """One JSON line per span: rep, id, name, start, end, parent, thread."""
    with open(path, "w") as fh:
        for rep, spans in reps:
            for sid, name, start, end, parent, tid, _extra in spans:
                fh.write(json.dumps([rep, sid, name, round(start, 9),
                                     round(end, 9), parent, tid]) + "\n")


# ---------------------------------------------------------------------------
# Per-module metrics
# ---------------------------------------------------------------------------

# (name, unit, better).  A unit in COUNT_UNITS marks an exact count: it
# must repeat exactly across the traced repetitions of one seed.
PER_LAYER = (
    [(f"layers.{layer}.{m}", unit, "lower")
     for layer in ("cnn1", "cnn2", "recurrent", "fc")
     for m, unit in (("fwd_s", "s"), ("bwd_s", "s"),
                     ("fwd_us_per_frame", "us/frame"),
                     ("bwd_us_per_frame", "us/frame"))]
    + [(f"layers.{layer}.fwd_gmac", "GMAC", "lower")
       for layer in ("cnn1", "cnn2")]
    + [
        ("model.forward_train_calls", "count", "lower"),
        ("model.forward_train_s", "s", "lower"),
        ("model.forward_eval_calls", "count", "lower"),
        ("model.forward_eval_s", "s", "lower"),
        ("model.backward_s", "s", "lower"),
        ("model.checkpoint_io_s", "s", "lower"),
        ("ctc.loss_grad_calls", "count", "lower"),
        ("ctc.loss_grad_s", "s", "lower"),
        ("ctc.loss_s", "s", "lower"),
        ("ctc.dp_cells", "count", "lower"),
        ("ctc.decode_s", "s", "lower"),
        ("trainer.adam_calls", "count", "lower"),
        ("trainer.adam_s", "s", "lower"),
        ("trainer.adam_ns_per_param", "ns/param", "lower"),
        ("trainer.asr_self_s", "s", "lower"),
        ("trainer.probe_self_s", "s", "lower"),
        ("probing.extract_calls", "count", "lower"),
        ("probing.extract_s", "s", "lower"),
        ("probing.extract_self_s", "s", "lower"),
        ("probing.frames_out", "count", "higher"),
        ("probing.forwards_per_utt", "forwards/utt", "lower"),
        ("probing.probe_step_calls", "count", "lower"),
        ("probing.probe_step_s", "s", "lower"),
        ("probing.probe_step_us_per_frame", "us/frame", "lower"),
        ("probing.evaluate_s", "s", "lower"),
        ("probing.breakdown_s", "s", "lower"),
        ("probing.dataset_io_s", "s", "lower"),
        ("probing.dataset_mb", "MB", "lower"),
        ("acoustic.synthesize_s", "s", "lower"),
        ("acoustic.corpus_io_s", "s", "lower"),
        ("acoustic.frame_label_calls", "count", "lower"),
        ("phoneset.reduce_calls", "count", "lower"),
        ("clustering.kmeans_s", "s", "lower"),
        ("clustering.kmeans_iters", "count", "lower"),
        ("clustering.project_s", "s", "lower"),
        ("cli.manifest_s", "s", "lower"),
        ("cli.artifact_files", "count", "lower"),
        ("plots.svg_s", "s", "lower"),
        ("quality.probe_acc_mean", "fraction", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
COUNT_UNITS = {"count", "GMAC", "MB", "forwards/utt"}
SELF_TIMED = ("probing.extract_frames", "trainer.train_asr",
              "trainer.train_probe")
FORWARD_CALLERS = ("probing.extract_frames", "probing.breakdown_by_ctc_symbol")
CTC_DP = ("ctc.ctc_loss", "ctc.ctc_grad", "ctc.ctc_loss_and_grad")


def _union_length(intervals, lo, hi):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, names):
    """Total self time of the spans with each of `names`."""
    wanted = {s[0]: s for s in spans if s[1] in names}
    children = {sid: [] for sid in wanted}
    for s in spans:
        if s[4] in children:
            children[s[4]].append((s[2], s[3]))
    out = {name: 0.0 for name in names}
    for sid, (_, name, start, end, *_rest) in wanted.items():
        out[name] += (end - start) - _union_length(children[sid], start, end)
    return out


def module_metrics(spans, n_utterances, n_strides, artifact_files):
    """Per-module metrics of one traced repetition, keyed as PER_LAYER
    (all but trace.overhead_s, which compares repetitions)."""
    time_of, calls_of, extras = {}, {}, {}
    for _sid, name, start, end, _parent, _tid, extra in spans:
        time_of[name] = time_of.get(name, 0.0) + (end - start)
        calls_of[name] = calls_of.get(name, 0) + 1
        extras.setdefault(name, []).append((extra, end - start))
    t = lambda *names: sum(time_of.get(n, 0.0) for n in names)
    calls = lambda *names: sum(calls_of.get(n, 0) for n in names)
    per = lambda seconds, n, scale: seconds / n * scale if n else 0.0
    total = lambda name: sum(e for e, _ in extras.get(name, []) if e)
    m = {}

    for kind in ("forward", "backward"):
        per_tag = {}
        for cls in ("ConvLayer", "RecurrentLayer", "FCLayer"):
            for extra, dur in extras.get(f"layers.{cls}.{kind}", []):
                if extra is None:
                    continue
                row = per_tag.setdefault(extra[0], [0.0, 0, 0])
                row[0] += dur
                row[1] += extra[1]
                if kind == "forward" and len(extra) > 2:
                    row[2] += extra[2]
        short = "fwd" if kind == "forward" else "bwd"
        for tag in ("cnn1", "cnn2", "recurrent", "fc"):
            seconds, frames, macs = per_tag.get(tag, (0.0, 0, 0))
            m[f"layers.{tag}.{short}_s"] = seconds
            m[f"layers.{tag}.{short}_us_per_frame"] = per(seconds, frames, 1e6)
            if kind == "forward" and tag.startswith("cnn"):
                m[f"layers.{tag}.fwd_gmac"] = macs / 1e9

    by_id = {s[0]: (s[1], s[4]) for s in spans}
    fwd = {"train": [0, 0.0], "eval": [0, 0.0]}
    eval_in_callers = 0
    for sid, name, start, end, parent, _tid, mode in spans:
        if name != "model.TrainedModel.forward" or mode not in fwd:
            continue
        fwd[mode][0] += 1
        fwd[mode][1] += end - start
        while parent and mode == "eval":
            pname, parent = by_id[parent]
            if pname in FORWARD_CALLERS:
                eval_in_callers += 1
                break
    m["model.forward_train_calls"] = fwd["train"][0]
    m["model.forward_train_s"] = fwd["train"][1]
    m["model.forward_eval_calls"] = fwd["eval"][0]
    m["model.forward_eval_s"] = fwd["eval"][1]
    m["model.backward_s"] = t("model.TrainedModel.backward")
    m["model.checkpoint_io_s"] = t("model.TrainedModel.save",
                                   "model.TrainedModel.load")

    # Lattice cells of each CTC call not made from inside another one, so
    # the count is the work requested, however the calls are nested.
    dp_cells = 0
    for sid, name, _start, _end, parent, _tid, cells in spans:
        if name in CTC_DP and cells is not None and (
                not parent or by_id[parent][0] not in CTC_DP):
            dp_cells += cells
    m["ctc.loss_grad_calls"] = calls("ctc.ctc_loss_and_grad")
    m["ctc.loss_grad_s"] = t("ctc.ctc_loss_and_grad")
    m["ctc.loss_s"] = t("ctc.ctc_loss")
    m["ctc.dp_cells"] = dp_cells
    m["ctc.decode_s"] = t("ctc.greedy_decode")

    own = self_times(spans, SELF_TIMED)
    adam_params = total("trainer.adam_step")
    m["trainer.adam_calls"] = calls("trainer.adam_step")
    m["trainer.adam_s"] = t("trainer.adam_step")
    m["trainer.adam_ns_per_param"] = per(t("trainer.adam_step"),
                                         adam_params, 1e9)
    m["trainer.asr_self_s"] = own["trainer.train_asr"]
    m["trainer.probe_self_s"] = own["trainer.train_probe"]

    m["probing.extract_calls"] = calls("probing.extract_frames")
    m["probing.extract_s"] = t("probing.extract_frames")
    m["probing.extract_self_s"] = own["probing.extract_frames"]
    m["probing.frames_out"] = total("probing.extract_frames")
    m["probing.forwards_per_utt"] = per(eval_in_callers,
                                        n_utterances * n_strides, 1.0)
    step = "probing.TrainedProbe.loss_and_grads"
    m["probing.probe_step_calls"] = calls(step)
    m["probing.probe_step_s"] = t(step)
    m["probing.probe_step_us_per_frame"] = per(t(step), total(step), 1e6)
    m["probing.evaluate_s"] = t("probing.evaluate_probe")
    m["probing.breakdown_s"] = t("probing.breakdown_by_ctc_symbol")
    m["probing.dataset_io_s"] = t("probing.save_dataset",
                                  "probing.load_dataset")
    m["probing.dataset_mb"] = total("probing.save_dataset") / 1e6

    m["acoustic.synthesize_s"] = t("acoustic.synthesize_corpus")
    m["acoustic.corpus_io_s"] = t("acoustic.save_corpus",
                                  "acoustic.load_corpus")
    m["acoustic.frame_label_calls"] = calls("acoustic.frame_label")
    m["phoneset.reduce_calls"] = calls("phoneset.PhoneInventory.reduce",
                                       "phoneset.reduce")
    m["clustering.kmeans_s"] = t("clustering.kmeans")
    m["clustering.kmeans_iters"] = total("clustering.kmeans")
    m["clustering.project_s"] = t("clustering.project_2d")
    m["cli.manifest_s"] = t("cli.ArtifactDir.write_manifest")
    m["cli.artifact_files"] = artifact_files
    m["plots.svg_s"] = t("plots.svg_bar_chart", "plots.svg_heatmap",
                         "plots.svg_scatter")
    m["trace.spans"] = len(spans)
    return m


def summarize(per_rep):
    """Median of each metric over repetitions; counts must agree exactly.

    Returns (metrics, names of counts that differed between repetitions).
    """
    out, unstable = {}, []
    for name in per_rep[0]:
        values = [rep[name] for rep in per_rep]
        if UNITS[name] in COUNT_UNITS:
            if len(set(values)) > 1:
                unstable.append(name)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, unstable
