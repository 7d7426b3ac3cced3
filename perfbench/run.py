"""ctcprobe pipeline benchmark.

    python3 perfbench/run.py --workload probe-sweep --seed 1 --trace 0

Run from the root of a checkout; --seconds defaults to the run length in
BENCHMARK.json (40).  Prints diagnostics, then as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (tracing off); with
--trace 1 they are the per-module ones from traced repetitions.

    python3 perfbench/run.py --workload probe-sweep --seed 1 --write-reference

runs the pipeline once and stores its tables as the reference for that
workload and seed (refusing to replace an existing one).

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
# Every run must end within 180 s; leave room for set-up and reporting.
CHILD_TIMEOUT_S = 165
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "train_asr_s": "s", "extract_s": "s",
    "probe_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB",
    "asr_dev_loss": "nats",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pinned_env():
    env = dict(os.environ)
    for var in PINNED_THREADS:
        env[var] = "1"
    env.pop("CTCPROBE_OUT", None)
    return env


def source_identity():
    """Git commit when the checkout is a repository, and a sha256 over the
    files under src/ either way."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for root, dirs, names in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            full = os.path.join(root, name)
            digest.update(os.path.relpath(full, src).encode() + b"\0")
            with open(full, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(args, env, work, once=False):
    log_path = os.path.join(work, "workload.log")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work] + (["--once"] if once else [])
    with open(log_path, "w") as log:
        # A session of its own, so that a timeout also ends the set-up
        # interpreters the workload process starts.
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                fail(f"workload process exceeded {CHILD_TIMEOUT_S} s; "
                     f"see {log_path}")
            raise
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-4000:]
        fail(f"workload process exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(work, "result.json")) as fh:
        return json.load(fh)


def nominal(reps, key):
    """Median over the repetitions of a section's seconds at nominal speed
    (see hostspeed.py)."""
    return statistics.median(r["times"][key][1] for r in reps)


def end_to_end(result):
    reps = [r for r in result["reps"] if r["ok"] and not r["traced"]]
    first = reps[0]["outputs"]
    return {
        "run_s": nominal(reps, "run"),
        "setup_s": statistics.median(s[1] for s in result["setup_s"]),
        "train_asr_s": nominal(reps, "train-asr"),
        "extract_s": nominal(reps, "extract"),
        "probe_s": nominal(reps, "probe"),
        "peak_rss_mb": result["peak_rss_mb"],
        "artifact_mb": first["artifact_mb"],
        "asr_dev_loss": first["asr_dev_loss"],
    }


def per_module(result):
    reps = [r for r in result["reps"] if r["ok"]]
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    metrics, unstable = tracing.summarize([r["metrics"] for r in traced])
    # Wall time: traced repetitions time the kernel only around stages,
    # so their nominal time is corrected less than an untraced one's.
    wall = lambda reps: statistics.median(r["times"]["run"][0] for r in reps)
    metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    return metrics, tracing.UNITS, unstable


def write_reference(args, env, work):
    if checks.load_reference(args.workload, args.seed) is not None:
        fail(f"a reference for {args.workload} seed {args.seed} exists; "
             f"delete it from {checks.reference_path(args.workload)} first")
    result = run_workload(args, env, work, once=True)
    rep = result["reps"][0]
    if not rep["ok"]:
        fail("reference run failed: " + "; ".join(rep["errors"]))
    checks.store_reference(args.workload, args.seed, rep["tables"])
    print(f"stored {args.workload} seed {args.seed} in "
          f"{checks.reference_path(args.workload)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ctcprobe",
                                       "__init__.py")):
        fail(f"no ctcprobe sources under {os.path.join(ROOT, 'src')}; "
             f"run from the root of a ctcprobe checkout")
    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = pinned_env()
    if args.write_reference:
        write_reference(args, env, work)
        return 0

    result = run_workload(args, env, work)

    reps = result["reps"]
    failed = [r for r in reps if not r["ok"]]
    for i, rep in enumerate(reps):
        status = "ok" if rep["ok"] else "FAILED: " + "; ".join(rep["errors"])
        kind = "traced" if rep["traced"] else "plain"
        wall, at_nominal = rep.get("times", {}).get("run", (math.nan,) * 2)
        print(f"rep {i} {kind} run wall {wall:.3f} s, {at_nominal:.3f} s "
              f"at nominal speed, {status}")
    if not any(r["ok"] and not r["traced"] for r in reps) or (
            args.trace and not any(r["ok"] and r["traced"] for r in reps)):
        fail("no repetition passed its output check")
    if args.trace:
        metrics, units, unstable = per_module(result)
        for name in unstable:
            print(f"count {name} differs between traced repetitions")
    else:
        metrics, units = end_to_end(result), END_TO_END_UNITS
        unstable = []
    matches = {r.get("matches_reference_manifest") for r in reps if r["ok"]}
    info = {
        "environment": {**result["environment"], **source_identity()},
        "threads": result["config"]["threads"],
        "reference_checked": result["reference"],
        "manifest_matches_reference": (matches.pop() if len(matches) == 1
                                       else None),
        "measured_s": round(result["measured_s"], 3),
    }
    for key, value in info.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    summary = {
        "correct": not failed and not unstable,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    with open(os.path.join(work, "summary.json"), "w") as fh:
        json.dump({**info, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
