"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

Criteria 1-5 are pure-code oracle checks and run in seconds.  Criteria
6-10 train on the real MNIST/CIFAR files (see README for the expected
data layout; the suite skips them with a pointer if the files are absent)
and together take roughly an hour on one CPU core.  Deselect them with
``pytest tests/test_acceptance.py -m "not slow"``.
"""

import csv
import json
import time

import numpy as np
import pytest

from qprune.data import load_cifar
from qprune.harness import ExperimentConfig, emit_results, run_experiment, run_trial
from qprune.layers import Linear
from qprune.models import Network, build_network, count_parameters, model_spec
from qprune.pruning import (
    PruneSchedule,
    capture_snapshot,
    full_mask,
    global_magnitude_prune,
    iterative_lottery,
    rewind,
    sparsity,
)
from qprune.training import EarlyStopMonitor, TrainSettings, evaluate_accuracy, train
from qprune.verify import (
    exact_count_report,
    gradient_check_all,
    hamilton_matrix_max_error,
    parameter_count_report,
    quat_layer_max_error,
)

slow = pytest.mark.slow


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. parameter-count reproduction


def test_criterion_1_parameter_counts():
    t0 = time.time()
    exact = exact_count_report()
    table = parameter_count_report()
    elapsed = time.time() - t0
    exact_ok = all(computed == expected for _, computed, expected in exact)
    table_ok = all(dev <= 0.02 for _, _, _, dev in table)
    worst = max(dev for _, _, _, dev in table)
    report(
        "criterion-1 parameter counts",
        exact_ok and table_ok and elapsed < 1.0,
        f"{len(exact)} exact matches, {len(table)} table entries within 2% "
        f"(worst {worst:.2%}), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Hamilton/matrix oracle suite


def test_criterion_2_hamilton_matrix_oracle():
    t0 = time.time()
    err = hamilton_matrix_max_error(n_pairs=10000, seed=0)
    elapsed = time.time() - t0
    report(
        "criterion-2 hamilton vs matrix",
        err < 1e-6 and elapsed < 1.0,
        f"max abs error {err:.3e} over 10,000 pairs, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. quaternion layer equivalence


def test_criterion_3_layer_equivalence():
    t0 = time.time()
    errors = quat_layer_max_error(seed=0)
    elapsed = time.time() - t0
    ok = all(e < 1e-5 for e in errors.values()) and elapsed < 10.0
    report(
        "criterion-3 layer oracles",
        ok,
        ", ".join(f"{k} rel {v:.3e}" for k, v in errors.items()) + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. gradient checks


def test_criterion_4_gradient_checks():
    t0 = time.time()
    errors = gradient_check_all(seed=0, h=1e-4)
    elapsed = time.time() - t0
    ok = all(e < 1e-5 for e in errors.values()) and elapsed < 60.0
    report(
        "criterion-4 gradient checks",
        ok,
        ", ".join(f"{k} rel {v:.3e}" for k, v in errors.items()) + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. pruning arithmetic


def test_criterion_5_pruning_arithmetic():
    t0 = time.time()
    rng = np.random.default_rng(0)
    spec = model_spec("lenet12", "mnist", "real")
    layers = [Linear(250, 200, rng, np.float64), Linear(200, 250, rng, np.float64)]
    net = Network(spec, layers, np.float64)
    assert sum(p.tensor.size for p in net.prunable_parameters()) == 100_000

    snapshot = capture_snapshot(net)
    mask = full_mask(net)
    kept_counts = []
    previous = mask
    monotone = True
    for _ in range(5):
        mask = global_magnitude_prune(net, mask, 0.2)
        kept_counts.append(mask.kept_count())
        monotone &= all(
            np.all(mask.arrays[n] <= previous.arrays[n]) for n in mask.arrays
        )
        previous = mask
    ladder_ok = kept_counts == [80_000, 64_000, 51_200, 40_960, 32_768]

    for p in net.parameters():
        p.tensor.data += 0.5  # training drift to be erased
    rewind(net, snapshot, mask)
    rewind_ok = all(
        np.array_equal(p.tensor.data, snapshot.arrays[p.name] * mask.arrays[p.name])
        for p in net.prunable_parameters()
    )
    elapsed = time.time() - t0
    report(
        "criterion-5 pruning arithmetic",
        ladder_ok and monotone and rewind_ok and elapsed < 5.0,
        f"kept ladder {kept_counts}, monotone={monotone}, rewind elementwise "
        f"theta0*m={rewind_ok}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. MNIST dense accuracy


@slow
def test_criterion_6_mnist_dense_accuracy(mnist_dir):
    t0 = time.time()
    config = ExperimentConfig.from_model_dataset(
        "lenet300", "mnist", "real", trials=1, rounds=0, data_dir=mnist_dir
    )
    assert (config.epochs, config.batch_size) == (40, 60) and config.lr == pytest.approx(1.2e-3)
    trial = run_trial(config, seed=0)
    assert not trial.failed, trial.error
    acc = trial.rounds[0].accuracy
    elapsed = time.time() - t0
    report(
        "criterion-6 mnist dense accuracy",
        acc >= 0.975,
        f"lenet300 real, 40 epochs: test accuracy {acc:.4f} (>= 0.975), {elapsed/60:.1f} min",
    )


# ---------------------------------------------------------------------------
# 7. quaternion lottery ticket


@slow
def test_criterion_7_quaternion_lottery_ticket(mnist_dir):
    t0 = time.time()
    config = ExperimentConfig.from_model_dataset(
        "lenet300", "mnist", "quat", trials=1, rounds=3, data_dir=mnist_dir
    )
    trial = run_trial(config, seed=0)
    assert not trial.failed, trial.error
    dense_acc = trial.rounds[0].accuracy
    final = trial.rounds[3]
    elapsed = time.time() - t0
    sparsity_ok = abs(final.sparsity - 0.512) < 0.001
    report(
        "criterion-7 quaternion lottery ticket",
        sparsity_ok and final.accuracy >= dense_acc - 0.005,
        f"quat lenet300 rewound+retrained at {final.sparsity:.4f} sparsity: "
        f"accuracy {final.accuracy:.4f} vs dense {dense_acc:.4f} "
        f"(within 0.5 points or above), {elapsed/60:.1f} min",
    )


# ---------------------------------------------------------------------------
# 8. CIFAR-10 Conv-2 property-based substitute


@slow
def test_criterion_8a_conv2_accuracy_within_ten_epochs(cifar10_dir):
    # "within 10 epochs": train epoch by epoch and stop as soon as full-test
    # accuracy exceeds the bar, capped at 10 epochs
    t0 = time.time()
    train_full, test_set = load_cifar(cifar10_dir, 10)
    probe = test_set.subset(2000)
    accs, epochs_used = {}, {}
    for field in ("real", "quat"):
        spec = model_spec("conv2", "cifar10", field)
        net = build_network(spec, seed=0)
        rng = np.random.default_rng(0)
        best = 0.0
        for epoch in range(10):
            train(net, train_full, TrainSettings(epochs=1, batch_size=60, lr=spec.lr), rng)
            epochs_used[field] = epoch + 1
            if evaluate_accuracy(net, probe) > 0.51:
                best = evaluate_accuracy(net, test_set)
                if best > 0.50:
                    break
        else:
            best = evaluate_accuracy(net, test_set)
        accs[field] = best
    elapsed = time.time() - t0
    report(
        "criterion-8a conv2 accuracy",
        all(a > 0.50 for a in accs.values()),
        f"real {accs['real']:.4f} in {epochs_used['real']} epochs, "
        f"quat {accs['quat']:.4f} in {epochs_used['quat']} epochs "
        f"(each > 0.50 within 10), {elapsed/60:.1f} min",
    )


@slow
def test_criterion_8b_conv2_pipeline_end_to_end(cifar10_dir, tmp_path):
    t0 = time.time()
    config = ExperimentConfig.from_model_dataset(
        "conv2", "cifar10", "quat",
        trials=1, epochs=1, rounds=2, train_subset=5000,
        stop_threshold=0.0,  # two full rounds regardless of smoke accuracy
        data_dir=cifar10_dir, out_dir=str(tmp_path),
    )
    result = run_experiment(config)
    paths = emit_results(result, config.out_dir)
    assert result.failures == 0
    with open(tmp_path / "sparsity_sweep.csv") as f:
        rows = list(csv.DictReader(f))
    ladder = [float(r["sparsity_fraction"]) for r in rows]
    total = count_parameters(build_network(config.spec(), seed=0).prunable_parameters())
    k1 = total - int(0.2 * total)
    k2 = k1 - int(0.2 * k1)
    ladder_ok = ladder == [1.0, k1 / total, k2 / total]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    elapsed = time.time() - t0
    report(
        "criterion-8b conv2 pipeline",
        len(paths) == 3 and ladder_ok and manifest["trials_failed"] == 0,
        f"2 pruning rounds end-to-end, sparsity column {[round(v, 4) for v in ladder]}, "
        f"CSVs parse back, {elapsed/60:.1f} min",
    )


def test_criterion_8c_conv2_parameter_ratio():
    real = count_parameters(build_network(model_spec("conv2", "cifar10", "real"), seed=0).parameters())
    quat = count_parameters(build_network(model_spec("conv2", "cifar10", "quat"), seed=0).parameters())
    ratio = quat / real
    report(
        "criterion-8c conv2 parameter ratio",
        abs(ratio - 0.251) < 0.005,
        f"quat/real = {quat}/{real} = {ratio:.4f} (25.1% +/- 0.5%)",
    )


# ---------------------------------------------------------------------------
# 9. early stopping


def test_criterion_9_scripted_early_stop_streams():
    # decreasing losses never stop
    m = EarlyStopMonitor(patience=10)
    assert not any(m.update(1.0 / (i + 1)) for i in range(40))

    # minimum at index 0, ten non-improvements stop at the 11th evaluation
    m = EarlyStopMonitor(patience=10)
    stops = [m.update(1.0)] + [m.update(1.0 + 0.01 * i) for i in range(10)]
    first_stop = stops.index(True)
    assert first_stop == 10 and m.best_index == 0

    # noisy stream with a strict minimum at position k stops at k + patience
    rng = np.random.default_rng(1)
    k = 13
    losses = list(2.0 + 0.1 * rng.random(k)) + [0.5] + list(1.0 + 0.1 * rng.random(30))
    m = EarlyStopMonitor(patience=10)
    stop_at = next(i for i, loss in enumerate(losses) if m.update(loss))
    report(
        "criterion-9 scripted early-stop streams",
        stop_at == k + 10 and m.best_index == k,
        f"stop at evaluation {stop_at} = minimum index {k} + patience 10",
    )


@slow
def test_criterion_9_mnist_early_stop_run(mnist_dir):
    t0 = time.time()
    config = ExperimentConfig.from_model_dataset(
        "lenet12", "mnist", "real",
        trials=1, rounds=0, early_stop=True, data_dir=mnist_dir,
    )
    trial = run_trial(config, seed=0)
    assert not trial.failed, trial.error
    # full budget would be 40 epochs x ceil(55000/60) steps
    full_budget = 40 * int(np.ceil(55000 / 60))
    steps = len(trial.curve)  # epochs completed before the stop
    elapsed = time.time() - t0
    report(
        "criterion-9 mnist early stop",
        trial.rounds[0].accuracy > 0.5 and steps < 40,
        f"stopped after {steps} full epochs (< 40 budget), "
        f"accuracy {trial.rounds[0].accuracy:.4f}, {elapsed/60:.1f} min",
    )


# ---------------------------------------------------------------------------
# 10. determinism


@slow
def test_criterion_10_determinism(mnist_dir, tmp_path):
    t0 = time.time()
    blobs = []
    for name in ("first", "second"):
        config = ExperimentConfig.from_model_dataset(
            "lenet12", "mnist", "real",
            trials=1, epochs=1, rounds=2, train_subset=2000, base_seed=42,
            stop_threshold=0.0, data_dir=mnist_dir, out_dir=str(tmp_path / name),
        )
        result = run_experiment(config)
        emit_results(result, config.out_dir)
        blobs.append((tmp_path / name / "sparsity_sweep.csv").read_bytes())
    elapsed = time.time() - t0
    report(
        "criterion-10 determinism",
        blobs[0] == blobs[1] and len(blobs[0]) > 60,
        f"identical config+seed produced byte-identical sparsity_sweep.csv "
        f"({len(blobs[0])} bytes), {elapsed:.0f}s",
    )
