"""Run one workload repeatedly in this process and write what was measured.

Started by run.py with BLAS and OpenMP pinned to one thread in the
environment, before numpy is first imported.  Repetitions run until the
next one would end past `--seconds`, with at least MIN_REPS of them, or,
with `--trace 1`, at least one untraced and one traced: the two kinds
alternate, so the tracing overhead is measured on the same host state.

Every repetition deletes the output directory and runs the pipeline
from scratch with the same config, then checks its outputs (checks.py).
One fresh interpreter running setup_probe.py is timed before each
repetition and after the last, spreading the set-up samples over the run.

Every timed section (a stage, a subcommand, the whole pipeline, a set-up
launch) is recorded as wall seconds and as seconds at the host's nominal
speed (hostspeed.py).  Untraced repetitions also time the calibration
kernel every tenth of a second while the pipeline runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import ctcprobe  # noqa: E402
from ctcprobe import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from hostspeed import Clock  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

MIN_REPS = 3
SETUP_TIMEOUT_S = 60
STAGE_FUNCTIONS = {"stage_corpus": "synth", "stage_train_asr": "train-asr",
                   "stage_extract": "extract", "stage_probe": "probe",
                   "stage_cluster": "cluster", "stage_report": "report"}


class RepFailed(RuntimeError):
    pass


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def time_stages(clock):
    """Patch the six cli.stage_* functions to record their times (see
    Clock.measure) in the returned dict: the only instrumentation of an
    untraced `run`."""
    seconds = {}
    for fn_name, stage in STAGE_FUNCTIONS.items():
        def stage_fn(*args, _fn=getattr(cli, fn_name), _stage=stage,
                     **kwargs):
            return clock.measure(seconds, _stage, _fn, *args, **kwargs)

        setattr(cli, fn_name, stage_fn)
    return seconds


def time_setup(clock, setup_s):
    """Time one fresh interpreter running setup_probe.py.  The child is
    awaited on a pidfd: Popen.wait with a timeout polls, in steps of up
    to 50 ms."""
    def launch():
        proc = subprocess.Popen([sys.executable,
                                 os.path.join(HERE, "setup_probe.py"),
                                 "config.json"])
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], SETUP_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        if proc.wait() != 0:
            raise RuntimeError(f"setup_probe.py exited with {proc.returncode}")

    clock.measure(setup_s, len(setup_s), launch)


def run_pipeline(clock, staged, stage_seconds):
    """One pipeline run from an empty output directory; returns
    {"run"|stage: (wall seconds, seconds at nominal speed)}."""
    shutil.rmtree("out", ignore_errors=True)
    stage_seconds.clear()
    clock.calibrate()
    start = time.perf_counter()
    if staged:
        for stage in STAGES:
            code = clock.measure(stage_seconds, stage, cli.main,
                                 [stage, "--config", "config.json"])
            if code != 0:
                raise RepFailed(f"`ctcprobe {stage}` exited with {code}")
    else:
        code = cli.main(["run", "--config", "config.json"])
        if code != 0:
            raise RepFailed(f"`ctcprobe run` exited with {code}")
    end = time.perf_counter()
    clock.calibrate()
    return {**stage_seconds, "run": clock.span(start, end)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--once", action="store_true",
                    help="run the pipeline once and keep its tables, "
                         "for writing a reference")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(ctcprobe.__file__).startswith(src):
        raise SystemExit(f"ctcprobe imported from {ctcprobe.__file__}, "
                         f"not from {src}")
    factory, staged = WORKLOADS[args.workload]
    config = factory(args.seed)
    os.chdir(args.work)
    with open("config.json", "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    reference = checks.load_reference(args.workload, args.seed)
    n_strides = len(config["probe"]["strides"])
    n_utts = config["corpus"]["synthetic"]["n_utterances"]

    clock = Clock()
    stage_seconds = {} if staged else time_stages(clock)
    tracer = tracing.Tracer(ctcprobe) if args.trace else None
    reps, traced_spans = [], []
    first_manifest = None
    setup_s = {}
    begin = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        time_setup(clock, setup_s)
        traced = bool(tracer) and len(reps) % 2 == 1
        rep = {"traced": traced, "ok": False, "errors": []}
        if traced:
            tracer.install()
        try:
            if traced:
                rep["times"] = run_pipeline(clock, staged, stage_seconds)
            else:
                with clock.sampling():
                    rep["times"] = run_pipeline(clock, staged,
                                                stage_seconds)
        except RepFailed as exc:
            rep["errors"].append(str(exc))
        except Exception:  # a crash is one failed repetition, not the run
            rep["errors"].append(traceback.format_exc())
        finally:
            if traced:
                tracer.uninstall()
        spans = tracer.take() if traced else None
        if not rep["errors"]:
            try:
                outputs, errors = checks.read_outputs("out")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                outputs, errors = None, [f"unreadable outputs: {exc!r}"]
            rep["errors"] += errors
            if outputs is not None:
                if first_manifest is None:
                    first_manifest = outputs["manifest_sha256"]
                elif outputs["manifest_sha256"] != first_manifest:
                    rep["errors"].append(
                        "manifest.json differs from the first repetition's")
                if reference is not None:
                    rep["errors"] += checks.compare_reference(outputs,
                                                              reference)
                    rep["matches_reference_manifest"] = (
                        outputs["manifest_sha256"]
                        == reference["manifest_sha256"])
                rep["outputs"] = {k: outputs[k] for k in
                                  ("manifest_sha256", "asr_dev_loss",
                                   "probe_acc_mean", "artifact_mb",
                                   "artifact_files")}
                if traced:
                    rep["metrics"] = tracing.module_metrics(
                        spans, n_utts, n_strides, outputs["artifact_files"])
                    rep["metrics"]["quality.probe_acc_mean"] = (
                        outputs["probe_acc_mean"])
                    traced_spans.append((len(reps), spans))
            if args.once and outputs is not None:
                rep["tables"] = outputs
        rep["ok"] = not rep["errors"]
        rep["elapsed_s"] = time.perf_counter() - rep_start
        reps.append(rep)

        elapsed = time.perf_counter() - begin
        plain = [r for r in reps if not r["traced"]]
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if args.once:
            break
        if (len(plain) >= (1 if tracer else MIN_REPS)
                and (not tracer or len(plain) < len(reps))
                and elapsed + typical > args.seconds):
            break

    time_setup(clock, setup_s)
    if traced_spans:
        tracing.write_spans("spans.jsonl", traced_spans)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "config": config,
        "environment": environment(),
        "measured_s": time.perf_counter() - begin,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "reference": reference is not None,
        "calibrations": len(clock.samples),
        "setup_s": list(setup_s.values()),
        "reps": reps,
    }
    with open("result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
