"""Benchmark of qprune's training and prune-ladder paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes learnable
synthetic MNIST- or CIFAR-shaped files, drawn from the seed, to a temporary
directory under ``.perfbench/``.  It then repeats the workload's unit, one
``harness.run_experiment`` plus ``harness.emit_results`` (the path ``qprune
run`` takes), until S seconds are used, and checks every unit's outputs.

With ``--trace 0`` it first sets up several times, each in a fresh
interpreter (``setup_probe.py``) that stops at the first optimizer, and then
runs untraced units for the end-to-end metrics.  With ``--trace 1`` the units
run under ``hooks.Tracer``, which traces every other training step, for the
per-module metrics and the tracing overhead.

Every metric is printed with its unit, then the machine calibration.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report, with every span,
is written to ``.perfbench/<workload>-seed<N>-trace<T>.json``.  Exit codes:
0 ok, 1 a correctness check failed, 2 qprune could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import machine
import synth
from workloads import CIFAR_PER_BATCH, CIFAR_TEST, MNIST_TEST, MNIST_TRAIN, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench"
SETUP_PROBES = 5
MIN_COVERAGE = 0.9  # share of the traced step the ops, Adam and input packing should explain


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_qprune() -> None:
    """Import qprune from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qprune.cli  # noqa: F401  (imports numpy and every qprune module)

    if not Path(sys.modules["qprune"].__file__).resolve().is_relative_to(src):
        raise ImportError(f"qprune was imported from outside {src}")


def setup_seconds(workload, seed: int, data_dir: str) -> float:
    """One set-up, import included, in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload.name, str(seed), data_dir],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(probe.stdout.split()[-1])


def write_data(workload, seed: int, directory: str) -> str:
    path = os.path.join(directory, "data")
    if workload.dataset == "mnist":
        synth.write_mnist(path, seed, MNIST_TRAIN, MNIST_TEST)
    else:
        synth.write_cifar10(path, seed, CIFAR_PER_BATCH, CIFAR_TEST)
    return path


def _show(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "/".join(_show(v) for v in value)
    return str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_qprune()
    except ImportError as e:
        print(f"perfbench: cannot import qprune from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import hooks
    import units

    workload = WORKLOADS[args.workload]
    cpu_before = machine.cpu_times()
    py_speed = [machine.python_speed()]
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        data_dir = write_data(workload, args.seed, scratch)
        sgemm = machine.sgemm_gflop_s(np.random.default_rng(args.seed))
        bench = units.Bench(workload, args.seed, data_dir, scratch)
        samples, tracer = hooks.Samples(), None
        if args.trace:
            tracer = hooks.Tracer()
        else:
            setups = [setup_seconds(workload, args.seed, data_dir) for _ in range(SETUP_PROBES)]
        units.run_units(bench, args.seconds, samples, tracer)
    py_speed.append(machine.python_speed())
    steal = machine.steal_share(cpu_before, machine.cpu_times())

    if args.trace:
        metrics, notes = units.per_module(tracer, samples, bench, sgemm), {}
    else:
        metrics, notes = units.end_to_end(workload, samples, bench, statistics.median(setups))
    problems = bench.final_problems(samples)
    calibration = machine.software() | {
        "sgemm_gflop_s": sgemm,
        "python_mloops_s": py_speed,  # at the start and at the end of the run
        "steal_share": steal,
        "units": bench.units,
        "seconds": args.seconds,
    }

    width = max(map(len, metrics))
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {value:14.6g} {unit}{note}")
    print("  calibration: " + ", ".join(f"{k} {_show(v)}" for k, v in calibration.items()))
    if args.trace and metrics["trace.coverage"][0] < MIN_COVERAGE:
        # A gap in the trace, not in qprune's outputs: warn, do not fail.
        print(f"WARNING: the traced ops, Adam and input packing cover only "
              f"{metrics['trace.coverage'][0]:.1%} of the traced step", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = dict(result, problems=problems, calibration=calibration, workload=workload.name, seed=args.seed)
    if tracer is not None:
        report["spans"] = {
            key: {"total_s": total_s, "self_s": self_s, "calls": calls}
            for key, (total_s, self_s, calls) in sorted(tracer.spans.items())
        }
    with open(os.path.join(WORK_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
