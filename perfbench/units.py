"""The measured part of a run: repeating a workload's unit under the hooks,
checking each unit's outputs, and reducing the samples to metrics.  Import it
only once qprune is importable.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

import checks
import hooks
from qprune import harness

REPORTED_OPS = (
    "conv2d",
    "matmul",
    "maxpool2d",
    "relu",
    "bias_add",
    "concat",
    "neg",
    "reshape",
    "softmax_cross_entropy",
)
REPORTED_LAYERS = ("Linear", "QuatLinear", "QuatConv2d", "ReLU", "SplitReLU", "MaxPool2d", "Flatten")
TAIL_BLOCK = 100  # consecutive step intervals per tail sample, whose p90 has 10 beyond


def tail(values: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least 10 samples beyond it:
    (percentile, nearest-rank value, samples beyond)."""
    n = len(values)
    if n <= 10:
        raise ValueError(f"a tail needs more than 10 samples, got {n}")
    p = 100 * (n - 10) // n
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1], n - rank


class Bench:
    """One workload's units, their samples and the checks on their outputs."""

    def __init__(self, workload, seed: int, data_dir: str, scratch: str | None):
        """``scratch`` takes the units' output directories; a set-up probe
        writes none."""
        self.workload = workload
        self.seed = seed
        self.data_dir = data_dir
        self.scratch = scratch
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.levels = 0
        self.dense_acc: list[float] = []
        self.problems: list[str] = []
        self._csv: bytes | None = None

    def _config(self):
        w = self.workload
        return harness.ExperimentConfig.from_model_dataset(
            w.model, w.dataset, w.field, data_dir=self.data_dir, base_seed=self.seed, **w.config_overrides()
        )

    def probe_setup(self, samples, started: float) -> None:
        """Run the unit only until its first optimizer exists; the set-up
        time counts from ``started``."""
        samples.stop_at_setup = True
        with hooks.Patches() as patches:
            samples.install(patches)
            samples.begin_unit(started)
            try:
                harness.run_experiment(self._config())
            except hooks.SetupDone:
                return
        raise RuntimeError("set-up probe ended without creating an optimizer")

    def run_unit(self, samples, tracer=None) -> float:
        """Run and check one unit; returns its wall seconds."""
        start = time.perf_counter()
        out_dir = os.path.join(self.scratch, f"out-{self.units}")
        with hooks.Patches() as patches:
            samples.install(patches)
            if tracer is not None:
                tracer.install(patches)
            samples.begin_unit()
            result = harness.run_experiment(self._config())
            harness.emit_results(result, out_dir)
        took = time.perf_counter() - start

        self.units += 1
        self.attempted += len(result.trials)
        self.failed += result.failures
        self.levels += sum(len(t.rounds) for t in result.trials)
        self.problems += checks.check_unit(self.workload, result, out_dir)
        if result.sweep_stats:
            self.dense_acc.append(result.sweep_stats[0][1])
        produced = checks.csv_bytes(out_dir)
        if self._csv is None:
            self._csv = produced
        elif produced != self._csv:
            self.problems.append(f"unit {self.units}: CSV bytes differ from unit 1 with the same config and seed")
        return took

    def final_problems(self, samples) -> list[str]:
        """Every failed check of the run: the units' own, the dense
        accuracy and the training losses."""
        problems = list(self.problems)
        if self.dense_acc:
            problems += checks.check_accuracy(self.workload, statistics.median(self.dense_acc))
        else:
            problems.append("no trial finished its dense level")
        if samples.nonfinite_losses or not samples.losses:
            problems.append(f"{samples.nonfinite_losses} of {samples.losses} training losses are not finite")
        return problems


def run_units(bench, seconds: float, samples, tracer=None) -> None:
    """Run units until the next one would end after ``seconds``; at least one."""
    started = time.perf_counter()
    durations = []
    while True:
        durations.append(bench.run_unit(samples, tracer))
        if time.perf_counter() - started + statistics.median(durations) > seconds:
            return


def end_to_end(workload, samples, bench, setup_s: float) -> tuple[dict, dict]:
    p50_ms = 1000 * statistics.median(samples.step_intervals)
    n = len(samples.step_intervals)
    # The tail of each block of consecutive steps, and the median over the
    # blocks: a burst of machine noise in a few blocks does not move the
    # figure.  Units shorter than a block are blocks of their own.
    blocks = [
        u[i : i + TAIL_BLOCK] for u in samples.unit_intervals for i in range(0, len(u) - TAIL_BLOCK + 1, TAIL_BLOCK)
    ] or samples.unit_intervals
    tails = [tail(block) for block in blocks]
    tail_s = statistics.median(t[1] for t in tails)
    percentiles = sorted({t[0] for t in tails})
    train_s = samples.train_s - samples.train_eval_s
    metrics = {
        "setup_s": (setup_s, "s"),
        "step_ms_p50": (p50_ms, "ms"),
        "step_ms_tail": (1000 * tail_s, "ms"),
        "train_images_per_s": (samples.train_images / train_s, "images/s"),
        "epoch_s_est": (p50_ms * workload.full_epoch_steps / 1000, "s"),
        "eval_images_per_s": (samples.eval_images / samples.eval_s, "images/s"),
        "level_s": (statistics.median(samples.level_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_test_acc": (statistics.median(bench.dense_acc), "fraction"),
    }
    notes = {
        "step_ms_p50": f"median of {n} step intervals",
        "step_ms_tail": f"p{'/p'.join(map(str, percentiles))} of each block of {len(blocks[0])} steps, "
        f"median of {len(tails)} blocks",
        "train_images_per_s": f"{samples.train_images} images in {train_s:.2f} s of training",
        "epoch_s_est": f"x {workload.full_epoch_steps} steps per full epoch",
        "eval_images_per_s": f"{samples.eval_images} images in {samples.eval_s:.2f} s",
        "level_s": f"median of {len(samples.level_walls)} levels",
        "final_test_acc": f"dense, floor {workload.acc_floor}",
    }
    return metrics, notes


def per_module(tracer, samples, bench, sgemm: float) -> dict:
    def span(key) -> tuple[float, float, int]:  # total s, self s, calls
        return tracer.spans.get(key, (0.0, 0.0, 0))

    def total(key) -> float:
        return span(key)[0]

    def own(key) -> float:
        return span(key)[1]

    def per_call(key, scale) -> float:
        return scale * total(key) / span(key)[2] if span(key)[2] else 0.0

    steps = span("optim.adam")[2]  # traced steps
    m = {}
    for op in REPORTED_OPS:
        m[f"tensor.{op}.fwd_ms"] = (1000 * own(f"tensor.{op}.fwd") / steps, "ms/step")
        m[f"tensor.{op}.bwd_ms"] = (1000 * own(f"tensor.{op}.bwd") / steps, "ms/step")
        m[f"tensor.{op}.calls"] = (span(f"tensor.{op}.fwd")[2] / steps, "calls/step")
    gemm_s = sum(own(f"tensor.{op}.{d}") for op in ("matmul", "conv2d") for d in ("fwd", "bwd"))
    gemm_gflop_s = tracer.counts["gemm_flop"] / gemm_s / 1e9
    m["tensor.tape_nodes"] = (tracer.counts["tape_nodes"] / steps, "nodes/step")
    m["tensor.gemm_gflop"] = (tracer.counts["gemm_flop"] / steps / 1e9, "GFLOP/step")
    m["tensor.gemm_gflop_s"] = (gemm_gflop_s, "GFLOP/s")
    m["tensor.gemm_roofline_frac"] = (gemm_gflop_s / sgemm, "fraction")
    for name in REPORTED_LAYERS:
        m[f"layers.{name}.fwd_ms"] = (1000 * total(f"layers.{name}") / steps, "ms/step")
    m["models.prepare_input_ms"] = (1000 * own("models.prepare_input") / steps, "ms/step")
    m["models.forward_ms"] = (1000 * total("models.forward") / steps, "ms/step")
    m["optim.adam_ms"] = (1000 * own("optim.adam") / steps, "ms/step")
    m["optim.adam_minflt"] = (tracer.counts["adam_minflt"] / steps, "faults/step")
    m["pruning.prune_ms"] = (per_call("pruning.prune", 1000), "ms/level")
    m["pruning.rewind_ms"] = (per_call("pruning.rewind", 1000), "ms/level")
    m["training.eval_ms_per_1k"] = (1e6 * total("training.eval") / tracer.counts["eval_images"], "ms/1k-images")
    m["training.eval_rss_delta_mb"] = (samples.first_eval_rss_delta_mb, "MB")
    m["harness.level_overhead_ms"] = (1000 * own("harness.lottery") / bench.levels, "ms/level")
    m["harness.emit_ms"] = (per_call("harness.emit", 1000), "ms")
    m["data.load_s"] = (per_call("data.load", 1), "s")

    # The ops, Adam and input packing should account for the whole traced step.
    m["trace.coverage"] = (tracer.covered_s / tracer.step_s, "fraction")
    traced, untraced = tracer.intervals[True], tracer.intervals[False]
    m["trace.overhead_ms"] = (1000 * (statistics.median(traced) - statistics.median(untraced)), "ms/step")
    m["blas.sgemm_gflop_s"] = (sgemm, "GFLOP/s")
    return m
