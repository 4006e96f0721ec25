import csv
import ctypes
import json
import os
import platform
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import qprune.harness as harness
from conftest import synthetic_dataset
from qprune.errors import ConfigError
from qprune.harness import (
    AggregateResult,
    ExperimentConfig,
    emit_results,
    keep_heap_resident,
    run_experiment,
    run_trial,
)


def tiny_config(**overrides) -> ExperimentConfig:
    # stop_threshold 0: random-data accuracy (~0.1) must not trip the stop
    # rule, so `rounds` is the binding limit in these tests
    base = dict(trials=1, epochs=1, rounds=2, base_seed=0, workers=1, stop_threshold=0.0)
    base.update(overrides)
    return ExperimentConfig.from_model_dataset("lenet12", "mnist", "real", **base)


def tiny_datasets(seed=0):
    return synthetic_dataset(n=120, seed=seed), synthetic_dataset(n=60, seed=seed + 100)


# ---------------------------------------------------------------------------
# configuration defaults


def test_defaults_match_training_table():
    rows = {
        ("lenet300", "mnist"): (40, 60, 1.2e-3),
        ("conv2", "cifar10"): (40, 60, 2e-4),
        ("conv4", "cifar10"): (40, 60, 3e-4),
        ("conv4", "cifar100"): (40, 60, 3e-4),
        ("conv6", "cifar10"): (60, 60, 3e-4),
        ("conv6", "cifar100"): (60, 60, 3e-4),
    }
    for (model, dataset), (epochs, batch, lr) in rows.items():
        cfg = ExperimentConfig.from_model_dataset(model, dataset, "real")
        assert (cfg.epochs, cfg.batch_size) == (epochs, batch)
        assert cfg.lr == pytest.approx(lr)
        assert cfg.trials == 5
        assert cfg.prune_rate == 0.2
        assert cfg.stop_threshold == 0.3
        assert cfg.patience == 10


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_model_dataset("lenet300", "cifar10", "real")
    with pytest.raises(ConfigError):
        tiny_config(trials=0)
    with pytest.raises(ConfigError):
        tiny_config(prune_rate=1.0)
    with pytest.raises(ConfigError):
        tiny_config(nonsense=1)
    with pytest.raises(ConfigError, match="seed"):
        tiny_config(base_seed=-1)


@pytest.mark.parametrize(
    "overrides",
    [dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1e-3), dict(stop_threshold=float("nan"))],
)
def test_non_finite_config_values_rejected(overrides):
    with pytest.raises(ConfigError):
        tiny_config(**overrides)


def test_large_learning_rate_and_threshold_stay_valid():
    # lr 1e30 drives a trial to a non-finite loss; a threshold above 1 fails every level
    cfg = tiny_config(lr=1e30, stop_threshold=1.1)
    assert (cfg.lr, cfg.stop_threshold) == (1e30, 1.1)


# ---------------------------------------------------------------------------
# trials


def test_same_seed_trials_are_identical():
    cfg = tiny_config()
    ds = tiny_datasets()
    a = run_trial(cfg, seed=7, datasets=ds)
    b = run_trial(cfg, seed=7, datasets=ds)
    assert a.curve == b.curve
    assert [(r.sparsity, r.accuracy, r.kept) for r in a.rounds] == [
        (r.sparsity, r.accuracy, r.kept) for r in b.rounds
    ]


def test_zero_epochs_gives_chance_accuracy():
    cfg = tiny_config(epochs=0, rounds=1)
    ds = synthetic_dataset(n=600, seed=3), synthetic_dataset(n=600, seed=4)
    trial = run_trial(cfg, seed=0, datasets=ds)
    dense_acc = trial.rounds[0].accuracy
    assert abs(dense_acc - 0.10) < 0.04  # 10-class symmetry of a random init


def ladder(total: int, rounds: int) -> list[float]:
    kept, out = total, [1.0]
    for _ in range(rounds):
        kept -= int(0.2 * kept)
        out.append(kept / total)
    return out


def test_trial_records_sparsity_ladder():
    cfg = tiny_config(rounds=3)
    trial = run_trial(cfg, seed=1, datasets=tiny_datasets())
    total = 784 * 12 + 12 * 10  # lenet12 prunable weights
    assert [r.sparsity for r in trial.rounds] == ladder(total, 3)
    assert trial.rounds[0].kept == total


def test_run_experiment_single_trial_mean_equals_trial_std_zero():
    cfg = tiny_config(rounds=1)
    # route through run_experiment's loader by injecting synthetic data
    ds = tiny_datasets()
    trial = run_trial(cfg, seed=cfg.base_seed, datasets=ds)
    agg = _aggregate_with_data(cfg, ds)
    assert agg.failures == 0
    assert len(agg.sweep_stats) == len(trial.rounds)
    for (sp, mean, std, n, rel), r in zip(agg.sweep_stats, trial.rounds):
        assert n == 1
        assert std == 0.0
        assert mean == pytest.approx(r.accuracy)


def _aggregate_with_data(cfg, ds, monkey=None):
    original = harness.load_datasets
    harness.load_datasets = lambda c: ds
    try:
        return run_experiment(cfg)
    finally:
        harness.load_datasets = original


def test_two_identical_seeds_zero_std():
    # two trials with the same seed: degenerate but proves the determinism path
    cfg = tiny_config(trials=2, rounds=1)
    ds = tiny_datasets()
    a = run_trial(cfg, seed=5, datasets=ds)
    b = run_trial(cfg, seed=5, datasets=ds)
    accs = [r.accuracy for r in a.rounds], [r.accuracy for r in b.rounds]
    assert accs[0] == accs[1]
    assert float(np.std([accs[0][0], accs[1][0]])) == 0.0


def test_quat_real_relative_sparsity_starts_near_quarter():
    cfg = ExperimentConfig.from_model_dataset(
        "lenet12", "mnist", "quat", trials=1, epochs=0, rounds=1, base_seed=0
    )
    agg = _aggregate_with_data(cfg, tiny_datasets())
    first = agg.sweep_stats[0]
    own_sparsity, rel = first[0], first[4]
    assert own_sparsity == 1.0
    assert rel == pytest.approx((4 * 196 * 3 + 120) / (784 * 12 + 120), abs=1e-12)


def test_workers_parallel_trials_match_serial():
    ds = tiny_datasets()
    serial = _aggregate_with_data(tiny_config(trials=2, rounds=1), ds)
    parallel = _aggregate_with_data(tiny_config(trials=2, rounds=1, workers=2), ds)
    assert serial.sweep_stats == parallel.sweep_stats


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_failed_trial_reported_with_partial_results(tmp_path):
    # an absurd learning rate overflows float32 within a few steps
    cfg = tiny_config(trials=2, rounds=1, lr=1e30)
    agg = _aggregate_with_data(cfg, tiny_datasets())
    assert agg.failures == 2
    assert all(t.failed and "non-finite" in t.error for t in agg.trials)
    emit_results(agg, str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["trials_failed"] == 2
    assert len(manifest["trial_errors"]) == 2


# ---------------------------------------------------------------------------
# emitted files


def test_emit_results_files_and_roundtrip(tmp_path):
    cfg = tiny_config(trials=2, rounds=2)
    agg = _aggregate_with_data(cfg, tiny_datasets())
    paths = emit_results(agg, str(tmp_path))
    assert [os.path.basename(p) for p in paths] == [
        "training_curve.csv",
        "sparsity_sweep.csv",
        "manifest.json",
    ]

    with open(tmp_path / "sparsity_sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0].keys()) == [
        "sparsity_fraction", "field", "mean_acc", "std_acc", "n_trials", "real_relative_sparsity",
    ]
    # parse-back recovers the aggregate to float-print precision (repr roundtrip)
    for row, (sp, mean, std, n, rel) in zip(rows, agg.sweep_stats):
        assert float(row["sparsity_fraction"]) == sp
        assert float(row["mean_acc"]) == mean
        assert float(row["std_acc"]) == std
        assert int(row["n_trials"]) == n
        assert float(row["real_relative_sparsity"]) == rel
        assert row["field"] == "real"

    with open(tmp_path / "training_curve.csv") as f:
        curve_rows = list(csv.DictReader(f))
    assert list(curve_rows[0].keys()) == ["epoch", "field", "mean_acc", "std_acc"]
    assert len(curve_rows) == 1  # one epoch

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["model"] == "lenet12"
    assert manifest["seeds"] == [0, 1]
    assert manifest["trials_failed"] == 0
    assert "wall_seconds" in manifest and "version" in manifest
    env = manifest["environment"]
    assert env["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["heap_resident"] is agg.heap_resident


def test_manifest_echoes_thread_variables_and_allocator_result(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    agg = AggregateResult(
        config=tiny_config(), seeds=[0], curve_stats=[], sweep_stats=[], trials=[], failures=0,
        wall_seconds=0.0, heap_resident=True,
    )
    emit_results(agg, str(tmp_path))
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["OMP_NUM_THREADS"] is None
    assert env["heap_resident"] is True


def test_emit_empty_sweep_writes_header_only(tmp_path):
    cfg = tiny_config()
    agg = AggregateResult(
        config=cfg, seeds=[0], curve_stats=[], sweep_stats=[], trials=[], failures=0, wall_seconds=0.0
    )
    emit_results(agg, str(tmp_path))
    assert (tmp_path / "sparsity_sweep.csv").read_text() == (
        "sparsity_fraction,field,mean_acc,std_acc,n_trials,real_relative_sparsity\n"
    )
    assert (tmp_path / "training_curve.csv").read_text() == "epoch,field,mean_acc,std_acc\n"


def test_sparsity_column_after_three_rounds(tmp_path):
    # {1.0, 0.8, 0.64, 0.512} up to integer-floor rounding on 9,528 weights
    cfg = tiny_config(rounds=3)
    agg = _aggregate_with_data(cfg, tiny_datasets())
    emit_results(agg, str(tmp_path))
    with open(tmp_path / "sparsity_sweep.csv") as f:
        got = [float(r["sparsity_fraction"]) for r in csv.DictReader(f)]
    assert got == ladder(9528, 3)
    for value, ideal in zip(got, [1.0, 0.8, 0.64, 0.512]):
        assert abs(value - ideal) < 3 / 9528


def test_emitted_csvs_byte_identical_across_runs(tmp_path):
    cfg = tiny_config(trials=1, rounds=2)
    blobs = []
    for d in ("a", "b"):
        agg = _aggregate_with_data(cfg, tiny_datasets())
        out = tmp_path / d
        emit_results(agg, str(out))
        blobs.append((out / "sparsity_sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# allocator policy


class FakeMallopt:
    """Stands in for libc's ``mallopt``; records every call."""

    def __init__(self, returns):
        self.returns = returns
        self.calls = []
        self.argtypes = self.restype = None

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.returns


def fake_cdll(monkeypatch, mallopt):
    def cdll(name):
        assert name is None  # the process's own symbols, where libc's live
        return SimpleNamespace(mallopt=mallopt) if mallopt is not None else SimpleNamespace()

    monkeypatch.setattr(harness.ctypes, "CDLL", cdll)
    return mallopt


def test_heap_policy_sets_mmap_threshold_and_never_trims(monkeypatch):
    mallopt = fake_cdll(monkeypatch, FakeMallopt(returns=1))
    assert keep_heap_resident() is True
    # M_MMAP_THRESHOLD (-3) at 32 MiB; M_TRIM_THRESHOLD (-1) at -1, "never trim"
    assert sorted(mallopt.calls) == [(-3, 32 * 1024 * 1024), (-1, -1)]
    assert mallopt.argtypes == [ctypes.c_int, ctypes.c_int]
    assert mallopt.restype is ctypes.c_int


def test_heap_policy_reports_a_failed_mallopt(monkeypatch):
    mallopt = fake_cdll(monkeypatch, FakeMallopt(returns=0))
    assert keep_heap_resident() is False
    assert len(mallopt.calls) == 2


def test_heap_policy_without_mallopt_does_nothing(monkeypatch):
    fake_cdll(monkeypatch, None)
    assert keep_heap_resident() is False


def test_run_experiment_applies_heap_policy(monkeypatch):
    mallopt = fake_cdll(monkeypatch, FakeMallopt(returns=1))
    agg = _aggregate_with_data(tiny_config(rounds=0), tiny_datasets())
    assert agg.heap_resident is True
    assert len(mallopt.calls) == 2


_FAULT_PROBE = """
import resource
import numpy as np
from qprune.harness import keep_heap_resident

assert keep_heap_resident()
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(16 * 2**20, dtype=np.uint8) for _ in range(8)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc's mallopt")
def test_freed_arrays_stay_resident_after_heap_policy():
    # the policy is process-wide, so it is measured in a child process
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    faults = json.loads(probe.stdout)
    assert faults[0] > 0  # round 1 maps the heap
    assert faults[1:] == [0, 0, 0, 0]
