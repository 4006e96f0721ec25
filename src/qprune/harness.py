"""Experiment runner: multi-trial training + pruning sweeps, aggregation,
and plot-ready CSV output."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .data import Dataset, load_cifar, load_mnist, split_train_validation
from .errors import ConfigError, NumericalError
from .models import ModelSpec, build_network, count_parameters, model_spec, prepare_images
from .pruning import Ladder, capture_snapshot, iterative_lottery
from .training import blas_threads, evaluate_accuracy, shard_count, train

VALIDATION_SIZE = 5000

# glibc <malloc.h> parameter numbers for mallopt(3)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024  # glibc's ceiling for its dynamic threshold on 64-bit


@dataclass
class ExperimentConfig:
    model: str
    dataset: str
    field: str
    epochs: int
    batch_size: int
    lr: float
    trials: int = 5
    prune_rate: float = 0.2
    stop_threshold: float = 0.3
    patience: Optional[int] = None  # early stopping's patience in validation evaluations; None = off
    base_seed: int = 0
    data_dir: str = "data"
    out_dir: str = "results"
    workers: int = 1
    train_subset: int = 0  # 0 = full training set; >0 = smoke profile
    rounds: Optional[int] = None  # bound on pruning iterations; None = stop rule only

    @classmethod
    def from_model_dataset(cls, model: str, dataset: str, fld: str, **overrides) -> "ExperimentConfig":
        """Defaults reproduce the per-model training table (epochs/batch/lr)."""
        spec = model_spec(model, dataset, fld)
        cfg = cls(
            model=model,
            dataset=dataset,
            field=fld,
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            lr=spec.lr,
        )
        for key, value in overrides.items():
            if value is None:
                continue
            if not hasattr(cfg, key):
                raise ConfigError(f"unknown config field {key!r}")
            setattr(cfg, key, value)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        model_spec(self.model, self.dataset, self.field)  # raises ConfigError on bad triples
        if self.base_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.base_seed}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError(f"invalid epochs/batch: {self.epochs}/{self.batch_size}")
        if not (0.0 < self.prune_rate < 1.0):
            raise ConfigError(f"prune rate must lie in (0,1), got {self.prune_rate}")
        if not (0.0 < self.lr < math.inf):  # also rejects NaN
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if math.isnan(self.stop_threshold):
            raise ConfigError(f"stop threshold must be a number, got {self.stop_threshold}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.train_subset < 0:
            raise ConfigError(f"train subset must be >= 0, got {self.train_subset}")
        if self.rounds is not None and self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")

    def spec(self) -> ModelSpec:
        return model_spec(self.model, self.dataset, self.field)


@dataclass
class AggregateResult:
    config: ExperimentConfig
    seeds: list[int]
    # (epoch, mean accuracy, std, n trials)
    curve_stats: list[tuple[int, float, float, int]]
    # (sparsity, mean accuracy, std, n trials, real-relative sparsity)
    sweep_stats: list[tuple[float, float, float, int, float]]
    trials: list[Ladder]
    failures: int
    wall_seconds: float
    heap_resident: bool = False  # what keep_heap_resident returned for this run
    shards: int = 1  # training.shard_count of the run's network
    data: dict = field(default_factory=dict)  # split name: Dataset.memory() of what the trials read


def keep_heap_resident() -> bool:
    """Keep freed heap memory mapped so the next training step reuses it.

    A conv step allocates and frees activations of 15-18 MB each.  By
    default glibc hands the freed top of its heap back to the kernel, and
    the next step faults the same ~200 MB in again, page by page.  This sets
    three malloc options with mallopt(3): blocks below 32 MiB come from the
    heap (larger ones are still mmapped and unmapped on free, which is why
    ``training.EVAL_BATCH_BYTES`` keeps eval batches under half of it), and
    the heap is never trimmed.  Both must be set:
    setting either one turns off glibc's dynamic mmap threshold, and the
    trim threshold alone leaves it at its 128 KiB start.  One arena keeps
    the shard threads off arenas that hand freed memory back.

    The policy is process-wide and lasts for the life of the process.
    Where the C library has no ``mallopt`` (macOS, Windows) nothing is
    changed.  Returns whether all three calls succeeded.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
    trim_ok = mallopt(M_TRIM_THRESHOLD, -1) == 1  # -1: never trim
    arena_ok = mallopt(M_ARENA_MAX, 1) == 1
    return mmap_ok and trim_ok and arena_ok


def _environment(result: AggregateResult) -> dict:
    """The software and thread setup that step times and CSV bytes depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "heap_resident": result.heap_resident,
        "shards": result.shards,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads(),
    }


def load_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The training split as loaded (u8 pixels, scaled per batch as it is
    drawn) and the test split packed once, since every evaluation reads it
    whole."""
    if config.dataset == "mnist":
        train_set, test_set = load_mnist(config.data_dir)
    else:
        train_set, test_set = load_cifar(config.data_dir, config.spec().classes)
    if config.train_subset > len(train_set):
        raise ConfigError(
            f"train subset {config.train_subset} exceeds the {len(train_set)} images of the training split"
        )
    if config.train_subset:
        train_set = train_set.subset(config.train_subset)
    if config.patience is not None and _validation_size(len(train_set)) >= len(train_set):
        raise ConfigError(
            f"early stopping needs at least 2 training images for a validation split, got {len(train_set)}"
        )
    return train_set, pack_split(config.spec(), test_set)


def pack_split(spec: ModelSpec, data: Dataset) -> Dataset:
    """``data`` packed for ``spec`` in float32, read-only: evaluations and trials share its rows."""
    images = prepare_images(spec, data.images, np.float32)
    images.setflags(write=False)
    return Dataset(images, data.labels, data.num_classes)


def _data_memory(config: ExperimentConfig, train_set: Dataset, test_set: Dataset) -> dict:
    """``Dataset.memory()`` of each split; early stopping adds the packed
    validation split each trial holds."""
    memory = {"train": train_set.memory(), "test": test_set.memory()}
    if config.patience is not None:
        n = _validation_size(len(train_set))
        one = pack_split(config.spec(), train_set.subset(1)).images
        memory["validation"] = {"images": n, "dtype": str(one.dtype), "mb": round(n * one.nbytes / 1e6, 3)}
    return memory


def _validation_size(n_train: int) -> int:
    """Early-stopping validation split: 5000 images, or a fifth of a small set."""
    return VALIDATION_SIZE if n_train > 5 * VALIDATION_SIZE else max(1, n_train // 5)


def run_trial(config: ExperimentConfig, seed: int, datasets: tuple[Dataset, Dataset]) -> Ladder:
    """One fully deterministic trial: build, train, pruning sweep.

    The seed drives initialization, batch shuffling, and the validation
    split.  Returns a failed ladder (``error`` set) on numerical failure,
    which keeps the levels finished before it.
    """
    started = time.monotonic()
    train_set, test_set = datasets
    validation = None
    if config.patience is not None:
        train_set, validation = split_train_validation(train_set, _validation_size(len(train_set)), seed)
        validation = pack_split(config.spec(), validation)  # read whole every EVAL_EVERY_STEPS steps
    rng = np.random.default_rng(seed)
    net = build_network(config.spec(), rng=rng)
    ladder = Ladder(seed, net, capture_snapshot(net), rng)

    def train_fn(trial: Ladder) -> list[float]:  # the dense level's curve is the training curve
        return train(
            trial.net, train_set, trial.rng, epochs=config.epochs, batch_size=config.batch_size, lr=config.lr,
            patience=config.patience, test_data=None if trial.rounds else test_set, validation_data=validation,
        ).epoch_test_accuracy

    try:
        iterative_lottery(
            ladder, train_fn, lambda network: evaluate_accuracy(network, test_set),
            rate=config.prune_rate, stop_threshold=config.stop_threshold, max_rounds=config.rounds,
        )
    except NumericalError as e:
        ladder.error = f"{type(e).__name__}: {e}"
    ladder.wall_seconds = time.monotonic() - started
    return ladder


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _by_index(series: list[list]) -> list[list]:
    """For each index i, entry i of every series that reached it."""
    return [[s[i] for s in series if i < len(s)] for i in range(max(map(len, series), default=0))]


def run_experiment(config: ExperimentConfig) -> AggregateResult:
    """Run ``config.trials`` trials (seeds base..base+trials-1) and aggregate.

    Failed trials are reported via ``failures``; statistics aggregate the
    trials that reached each epoch/sparsity level.
    """
    config.validate()
    heap_resident = keep_heap_resident()
    started = time.monotonic()
    datasets = load_datasets(config)
    seeds = [config.base_seed + i for i in range(config.trials)]
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            trials = list(pool.map(lambda s: run_trial(config, s, datasets), seeds))
    else:
        trials = [run_trial(config, s, datasets) for s in seeds]

    ok = [t for t in trials if not t.failed]
    curve_stats = [(epoch, *_mean_std(vals), len(vals)) for epoch, vals in enumerate(_by_index([t.curve for t in ok]))]
    # The real twin's prunable weight count: the real-relative sparsity axis.
    real = build_network(model_spec(config.model, config.dataset, "real"), seed=0)
    real_total = count_parameters(real.prunable_parameters())
    sweep_stats = []
    for rounds in _by_index([t.rounds for t in ok]):
        mean, std = _mean_std([r.accuracy for r in rounds])
        sweep_stats.append((rounds[0].sparsity, mean, std, len(rounds), rounds[0].kept / real_total))

    return AggregateResult(
        config=config,
        seeds=seeds,
        curve_stats=curve_stats,
        sweep_stats=sweep_stats,
        trials=trials,
        failures=sum(t.failed for t in trials),
        wall_seconds=time.monotonic() - started,
        heap_resident=heap_resident,
        shards=shard_count(build_network(config.spec(), seed=0)),
        data=_data_memory(config, *datasets),
    )


def check_output_dir(directory: str) -> None:
    """Raise ``ConfigError`` unless ``directory`` is a writable directory or
    can be made one, so that a bad output path fails before any training."""
    existing = os.path.abspath(directory)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing) or not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write results to {directory}: {existing} is not a writable directory")


def emit_results(result: AggregateResult, directory: str) -> list[str]:
    """Write training_curve.csv, sparsity_sweep.csv, and manifest.json.

    Column order and headers are stable; identical experiments produce
    byte-identical CSVs.  Failed trials are left out of the CSVs, and the
    manifest gives each one's seed, error and finished levels, and each
    data split's image count, dtype and MB held.
    """
    os.makedirs(directory, exist_ok=True)
    fld = result.config.field
    paths = []

    curve_path = os.path.join(directory, "training_curve.csv")
    with open(curve_path, "w", newline="") as f:
        f.write("epoch,field,mean_acc,std_acc\n")
        for epoch, mean, std, _n in result.curve_stats:
            f.write(f"{epoch},{fld},{mean!r},{std!r}\n")
    paths.append(curve_path)

    sweep_path = os.path.join(directory, "sparsity_sweep.csv")
    with open(sweep_path, "w", newline="") as f:
        f.write("sparsity_fraction,field,mean_acc,std_acc,n_trials,real_relative_sparsity\n")
        for sparsity, mean, std, n, rel in result.sweep_stats:
            f.write(f"{sparsity!r},{fld},{mean!r},{std!r},{n},{rel!r}\n")
    paths.append(sweep_path)

    manifest_path = os.path.join(directory, "manifest.json")
    manifest = {
        "config": asdict(result.config),
        "seeds": result.seeds,
        "trials_failed": result.failures,
        "trial_errors": [{"seed": t.seed, "error": t.error, "levels": [asdict(r) for r in t.rounds]}
                         for t in result.trials if t.failed],
        "wall_seconds": result.wall_seconds,
        "data": result.data,
        "version": __version__,
        "environment": _environment(result),
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    paths.append(manifest_path)
    return paths
