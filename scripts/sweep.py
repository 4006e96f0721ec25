#!/usr/bin/env python3
"""Real-vs-quaternion sweep over the models defined for one dataset.

mnist runs Lenet-300-100 and Lenet-12, cifar10 Conv-2/4/6, cifar100
Conv-4/6.  Each (model, field) pair gets its own output directory holding
training_curve.csv, sparsity_sweep.csv and manifest.json.  The defaults
(5 trials, full pruning ladders) are multi-day runs on a laptop CPU; use
--trials/--rounds/--subset to scale the experiment to the hardware at hand.
"""

import argparse
import os
import sys

from qprune.errors import ConfigError
from qprune.harness import ExperimentConfig, check_output_dir, emit_results, run_experiment
from qprune.models import ALLOWED_DATASETS, DATASET_NAMES, FIELDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    parser.add_argument("--data", default=None, help="dataset directory (default data/<dataset>)")
    parser.add_argument("--out", default=None, help="output root (default results/<dataset>)")
    parser.add_argument("--models", nargs="+", default=None,
                        help="models to run (default: every model defined for the dataset)")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=None, help="bound pruning iterations")
    parser.add_argument("--subset", type=int, default=0, help="train on first N images only")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--early-stop", action="store_true")
    args = parser.parse_args()

    defined = [m for m, datasets in ALLOWED_DATASETS.items() if args.dataset in datasets]
    models = args.models or defined
    undefined = [m for m in models if m not in defined]
    if undefined:
        parser.error(f"{undefined} not defined for {args.dataset}; choose from {defined}")
    data_dir = args.data or os.path.join("data", args.dataset)
    out_root = args.out or os.path.join("results", args.dataset)

    for model in models:
        for field in FIELDS:
            out_dir = os.path.join(out_root, f"{model}-{field}")
            try:
                config = ExperimentConfig.from_model_dataset(
                    model, args.dataset, field,
                    trials=args.trials, rounds=args.rounds, workers=args.workers,
                    base_seed=args.seed, early_stop=args.early_stop or None,
                    train_subset=args.subset, data_dir=data_dir,
                )
                check_output_dir(out_dir)
            except ConfigError as e:
                print(f"config error: {e}", file=sys.stderr)
                return 1
            print(f"== {model}/{args.dataset}/{field} -> {out_dir}")
            result = run_experiment(config)
            emit_results(result, out_dir)
            for sparsity, mean, std, n, rel in result.sweep_stats:
                print(f"  sparsity {sparsity:.4f} (real-rel {rel:.4f}): {mean:.4f} +/- {std:.4f} [{n}]")
            if result.failures:
                print(f"  WARNING: {result.failures} trial(s) failed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
