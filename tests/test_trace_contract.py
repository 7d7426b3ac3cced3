"""The benchmark's tracer (`perfbench/tracing.py`) wraps every public
function of ctcprobe by name and reads fields of their arguments and
results: `kmeans(...).inertia_history`, `extract_frames(...).n_frames`,
`ConvLayer.forward`'s `(out, pre)`, the time axis of `RecurrentLayer`'s
padded batch and `TrainedModel.forward`'s `mode`.
A traced run of a small config must finish and give every module's counts,
so a rename that breaks `perfbench/run.py --trace 1` fails here."""

import importlib.util
import os

from test_cli import small_config, write_config

import ctcprobe
from ctcprobe import cli

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_every_module(tmp_path):
    tracing = load_tracing()
    cfg = small_config(tmp_path / "out")
    tracer = tracing.Tracer(ctcprobe)
    try:
        tracer.install()
        rc = cli.main(["run", "--config", write_config(tmp_path, cfg)])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracing.module_metrics(
        tracer.take(), n_utterances=cfg["corpus"]["synthetic"]["n_utterances"],
        n_strides=len(cfg["probe"]["strides"]), artifact_files=0)
    for name in ("clustering.kmeans_iters", "probing.probe_step_calls",
                 "model.forward_train_calls", "probing.frames_out",
                 "ctc.dp_cells", "layers.cnn1.fwd_gmac",
                 # The recurrence and the model's backward run through
                 # the public methods the tracer wraps.
                 "layers.recurrent.fwd_s", "layers.recurrent.bwd_s",
                 "model.backward_s"):
        assert metrics[name] > 0, name
