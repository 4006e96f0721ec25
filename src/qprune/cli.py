"""Command-line interface.

Subcommands:

* ``run``    -- one experiment (multi-trial training + pruning sweep); writes
  training_curve.csv, sparsity_sweep.csv and manifest.json to --out.
* ``verify`` -- property/oracle self-checks (Hamilton equivalence, layer
  oracles, gradient checks, parameter counts); prints pass/fail per check.

Exit codes: 0 success, 1 config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DataFormatError, NumericalError
from .models import DATASET_NAMES, FIELDS, MODEL_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qprune")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a training + pruning experiment")
    run.add_argument("--model", required=True, choices=MODEL_NAMES)
    run.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    run.add_argument("--field", required=True, choices=FIELDS)
    run.add_argument("--trials", type=int, default=None, help="trial count (default 5)")
    run.add_argument("--epochs", type=int, default=None, help="override the per-model default")
    run.add_argument("--batch", type=int, default=None, help="override the per-model default")
    run.add_argument("--lr", type=float, default=None, help="override the per-model default")
    run.add_argument("--prune-rate", type=float, default=None, help="per-iteration prune fraction (default 0.2)")
    run.add_argument("--stop-threshold", type=float, default=None, help="accuracy stop threshold (default 0.3)")
    run.add_argument("--early-stop", action="store_true", help="stop on plateaued validation loss")
    run.add_argument("--patience", type=int, default=None, help="early-stop patience in evaluations (default 10)")
    run.add_argument("--seed", type=int, default=None, help="base seed; trial i uses seed+i")
    run.add_argument("--data", default=None, help="dataset directory")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--workers", type=int, default=None, help="parallel trial workers")
    run.add_argument("--rounds", type=int, default=None, help="bound the number of pruning iterations")
    run.add_argument("--train-subset", type=int, default=None,
                     help="train on the first N examples only (smoke profile)")

    ver = sub.add_parser("verify", help="run the property/oracle self-checks")
    ver.add_argument("--pairs", type=int, default=10000, help="random pairs for the Hamilton check")
    return parser


def _cmd_run(args) -> int:
    from .harness import ExperimentConfig, check_output_dir, emit_results, run_experiment

    config = ExperimentConfig.from_model_dataset(
        args.model,
        args.dataset,
        args.field,
        trials=args.trials,
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        prune_rate=args.prune_rate,
        stop_threshold=args.stop_threshold,
        early_stop=args.early_stop or None,
        patience=args.patience,
        base_seed=args.seed,
        data_dir=args.data,
        out_dir=args.out,
        workers=args.workers,
        rounds=args.rounds,
        train_subset=args.train_subset,
    )
    check_output_dir(config.out_dir)
    result = run_experiment(config)
    paths = emit_results(result, config.out_dir)
    for t in result.trials:
        status = f"FAILED: {t.error}" if t.failed else f"{len(t.rounds)} sparsity levels"
        print(f"trial seed={t.seed}: {status} ({t.wall_seconds:.1f}s)")
    for sparsity, mean, std, n, rel in result.sweep_stats:
        print(f"sparsity {sparsity:.4f} (real-relative {rel:.4f}): "
              f"acc {mean:.4f} +/- {std:.4f} over {n} trials")
    for p in paths:
        print("wrote", p)
    if result.failures:
        print(f"{result.failures} trial(s) failed", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    from .verify import (
        exact_count_report,
        gradient_check_all,
        hamilton_matrix_max_error,
        parameter_count_report,
        quat_layer_max_error,
    )

    if args.pairs < 1:
        raise ConfigError(f"pairs must be >= 1, got {args.pairs}")
    failed = False

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failed
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    err = hamilton_matrix_max_error(args.pairs)
    report("hamilton-vs-matrix", err < 1e-6, f"max abs error {err:.3e} over {args.pairs} pairs")

    for name, err in quat_layer_max_error().items():
        report(f"layer-oracle/{name}", err < 1e-5, f"rel error {err:.3e}")

    for name, err in gradient_check_all().items():
        report(f"gradients/{name}", err < 1e-5, f"rel error {err:.3e}")

    for label, computed, expected in exact_count_report():
        report(f"param-count-exact/{label}", computed == expected, f"{computed} vs {expected}")

    for label, computed, printed, dev in parameter_count_report():
        report(f"param-count-table/{label}", dev <= 0.02, f"{computed} vs {printed} ({dev:.2%})")

    return 3 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
