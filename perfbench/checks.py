"""Output checks run after every repetition, and the per-seed references.

A repetition passes when its manifest matches the files on disk, its
loss and accuracy tables are well formed, its manifest is byte-identical
to the first repetition's, and, where a reference exists for the
workload and seed, its tables agree with the reference: the same rows,
probe accuracies within +-2 points (the golden-trend tolerance of the
test suite) and ASR losses within a relative 1e-3.  Byte identity of the
manifest with the reference is reported as a flag, not a failure, so
that a change with intended numeric differences can still pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "references")
ACCURACY_TOLERANCE = 0.02
LOSS_RTOL = 1e-3


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def read_outputs(out_dir):
    """What a repetition left in `out_dir`, plus any problems found.

    Returns (outputs, errors); outputs holds the manifest digest, the
    two tables, the quality metrics and the artifact size.
    """
    errors = []
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "rb") as fh:
        manifest_bytes = fh.read()
    manifest = json.loads(manifest_bytes)
    on_disk, total_bytes = set(), 0
    for root, _dirs, names in os.walk(out_dir):
        for name in names:
            full = os.path.join(root, name)
            total_bytes += os.path.getsize(full)
            rel = os.path.relpath(full, out_dir)
            if rel != "manifest.json":
                on_disk.add(rel)
    listed = set(manifest["files"])
    if listed != on_disk:
        errors.append(f"manifest lists {sorted(listed - on_disk)} missing "
                      f"from disk; unlisted {sorted(on_disk - listed)}")
    for rel in sorted(listed & on_disk):
        if _sha256(os.path.join(out_dir, rel)) != manifest["files"][rel]:
            errors.append(f"{rel}: sha256 differs from manifest.json")

    asr_loss = _csv_rows(os.path.join(out_dir, "asr_loss.csv"))
    accuracy = _csv_rows(os.path.join(out_dir, "layer_accuracy.csv"))
    dev_losses = [float(row[2]) for row in asr_loss]
    accuracies = [float(row[4]) for row in accuracy]
    if not dev_losses or not all(math.isfinite(v) for v in dev_losses):
        errors.append("asr_loss.csv has no rows or a non-finite loss")
    if not accuracies or not all(0.0 <= a <= 1.0 for a in accuracies):
        errors.append("layer_accuracy.csv has no rows or an accuracy "
                      "outside [0, 1]")
    outputs = {
        "manifest_sha256": hashlib.sha256(manifest_bytes).hexdigest(),
        "asr_loss": asr_loss,
        "layer_accuracy": accuracy,
        # The selected checkpoint is the first epoch with the lowest dev
        # loss (selection "best_dev_loss", the default).
        "asr_dev_loss": min(dev_losses) if dev_losses else float("nan"),
        "probe_acc_mean": (sum(accuracies) / len(accuracies)
                           if accuracies else float("nan")),
        "artifact_mb": total_bytes / 1e6,
        "artifact_files": len(on_disk) + 1,
    }
    return outputs, errors


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload, seed):
    """The stored reference for (workload, seed), or None."""
    try:
        with open(reference_path(workload)) as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None


def store_reference(workload, seed, outputs):
    path = reference_path(workload)
    try:
        with open(path) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[str(seed)] = {k: outputs[k] for k in
                        ("manifest_sha256", "asr_loss", "layer_accuracy")}
    table = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=False)
        fh.write("\n")


def _close(a, b, rtol):
    """Equal CSV fields, or numbers within a relative tolerance."""
    if a == b:
        return True
    a, b = float(a), float(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_reference(outputs, ref):
    """Differences from the reference tables beyond the tolerances."""
    errors = []
    got, want = outputs["asr_loss"], ref["asr_loss"]
    if [r[0] for r in got] != [r[0] for r in want]:
        errors.append("asr_loss.csv epochs differ from the reference")
    else:
        for g, w in zip(got, want):
            if not all(_close(a, b, LOSS_RTOL) for a, b in zip(g[1:], w[1:])):
                errors.append(f"asr_loss.csv epoch {g[0]}: {g[1:]} vs "
                              f"reference {w[1:]}")
    got, want = outputs["layer_accuracy"], ref["layer_accuracy"]
    if [r[:4] for r in got] != [r[:4] for r in want]:
        errors.append("layer_accuracy.csv combos differ from the reference")
    else:
        for g, w in zip(got, want):
            if abs(float(g[4]) - float(w[4])) > ACCURACY_TOLERANCE:
                errors.append(f"layer_accuracy.csv {g[:4]}: {g[4]} vs "
                              f"reference {w[4]}")
    return errors
