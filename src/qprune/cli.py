"""Command-line interface.

Subcommands:

* ``run``    -- one experiment (multi-trial training + pruning sweep); writes
  training_curve.csv, sparsity_sweep.csv and manifest.json to --out.
* ``verify`` -- property/oracle self-checks (Hamilton equivalence, layer
  oracles, gradients, sharded gradients, parameter counts); pass/fail each.

Exit codes: 0 success, 1 config error (bad flags too), 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import ConfigError, DataFormatError, NumericalError
from .models import DATASET_NAMES, FIELDS, MODEL_NAMES


def _default(name: str):
    return harness.ExperimentConfig.__dataclass_fields__[name].default


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error: exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    """Each ``run`` flag's dest is the ``ExperimentConfig`` field it sets;
    a flag left out stays None, which keeps the config's default."""
    parser = _Parser(prog="qprune")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a training + pruning experiment")
    run.add_argument("--model", required=True, choices=MODEL_NAMES)
    run.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    run.add_argument("--field", required=True, choices=FIELDS)
    run.add_argument("--trials", type=int, help=f"trial count (default {_default('trials')})")
    run.add_argument("--epochs", type=int, help="override the per-model default")
    run.add_argument("--batch", dest="batch_size", type=int, help="override the per-model default")
    run.add_argument("--lr", type=float, help="override the per-model default")
    run.add_argument("--prune-rate", type=float,
                     help=f"per-iteration prune fraction (default {_default('prune_rate')})")
    run.add_argument("--stop-threshold", type=float,
                     help=f"accuracy stop threshold (default {_default('stop_threshold')})")
    run.add_argument("--early-stop", dest="patience", type=int, nargs="?", const=10, metavar="PATIENCE",
                     help="stop after PATIENCE validation evaluations without a new minimum (default %(const)s)")
    run.add_argument("--seed", dest="base_seed", type=int, help="base seed; trial i uses seed+i")
    run.add_argument("--data", dest="data_dir", help="dataset directory")
    run.add_argument("--out", dest="out_dir", help="output directory")
    run.add_argument("--workers", type=int,
                     help="trials run at once, as threads that share the shard pool; measured no faster than 1")
    run.add_argument("--rounds", type=int, help="bound the number of pruning iterations")
    run.add_argument("--train-subset", type=int, help="train on the first N examples only (smoke profile)")

    sub.add_parser("verify", help="run the property/oracle self-checks")
    return parser


def _cmd_run(args) -> int:
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "model", "dataset", "field")}
    config = harness.ExperimentConfig.from_model_dataset(args.model, args.dataset, args.field, **overrides)
    harness.check_output_dir(config.out_dir)
    result = harness.run_experiment(config)
    paths = harness.emit_results(result, config.out_dir)
    for t in result.trials:
        status = f"FAILED after {len(t.rounds)} levels: {t.error}" if t.failed else f"{len(t.rounds)} sparsity levels"
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


def _cmd_verify() -> int:
    from .verify import checks

    failed = False
    for name, ok, detail in checks():
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 3 if failed else 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify()
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
