"""Correctness checks on one unit's outputs.  Each returns a list of
problems, empty when the outputs are right."""

from __future__ import annotations

import csv
import json
import os

CURVE_HEADER = ["epoch", "field", "mean_acc", "std_acc"]
SWEEP_HEADER = ["sparsity_fraction", "field", "mean_acc", "std_acc", "n_trials", "real_relative_sparsity"]


def expected_ladder(prunable: int, levels: int) -> list[int]:
    """Kept weights per level: each level prunes floor(20%) of what is kept."""
    kept = [prunable]
    for _ in range(levels - 1):
        kept.append(kept[-1] - kept[-1] // 5)
    return kept


def _read_csv(path: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        return [], [f"{os.path.basename(path)}: header {rows[:1]} is not {header}"]
    return rows[1:], []


def check_unit(workload, result, out_dir: str) -> list[str]:
    problems = []
    levels = workload.rounds + 1
    ladder = expected_ladder(workload.prunable, levels)
    ok = [t for t in result.trials if not t.failed]
    for t in ok:
        kept = [r.kept for r in t.rounds]
        if kept != ladder:
            problems.append(f"trial seed {t.seed}: kept counts {kept} are not the floor-20% ladder {ladder}")
        if len(t.curve) != workload.epochs:
            problems.append(f"trial seed {t.seed}: {len(t.curve)} curve points for {workload.epochs} epochs")

    curve, bad = _read_csv(os.path.join(out_dir, "training_curve.csv"), CURVE_HEADER)
    problems += bad
    if len(curve) != workload.epochs:
        problems.append(f"training_curve.csv has {len(curve)} rows, expected {workload.epochs}")
    for i, (epoch, fld, mean, _std) in enumerate(curve):
        if int(epoch) != i or fld != workload.field or not 0.0 <= float(mean) <= 1.0:
            problems.append(f"training_curve.csv row {i} is malformed: {[epoch, fld, mean]}")

    sweep, bad = _read_csv(os.path.join(out_dir, "sparsity_sweep.csv"), SWEEP_HEADER)
    problems += bad
    if len(sweep) != levels:
        problems.append(f"sparsity_sweep.csv has {len(sweep)} rows, expected {levels}")
    for i, (frac, fld, mean, _std, n, _rel) in enumerate(sweep[:levels]):
        if abs(float(frac) - ladder[i] / workload.prunable) > 1e-12 or fld != workload.field:
            problems.append(f"sparsity_sweep.csv row {i}: sparsity {frac} is not {ladder[i]}/{workload.prunable}")
        if int(n) != len(ok) or not 0.0 <= float(mean) <= 1.0:
            problems.append(f"sparsity_sweep.csv row {i}: n_trials {n} or mean_acc {mean} is wrong")

    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    if manifest["trials_failed"] != result.failures:
        problems.append(f"manifest.json reports {manifest['trials_failed']} failed trials, not {result.failures}")
    return problems


def check_accuracy(workload, acc: float) -> list[str]:
    if not workload.acc_floor < acc < 1.0:
        return [f"dense test accuracy {acc:.4f} is outside ({workload.acc_floor}, 1.0)"]
    return []


def csv_bytes(out_dir: str) -> bytes:
    """Both CSVs, which identical config, seed and thread count must
    reproduce byte for byte."""
    parts = []
    for name in ("training_curve.csv", "sparsity_sweep.csv"):
        with open(os.path.join(out_dir, name), "rb") as f:
            parts.append(f.read())
    return b"\0".join(parts)
