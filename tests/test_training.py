import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qprune.training as training
from conftest import synthetic_dataset
from qprune.errors import NumericalError
from qprune.harness import MMAP_THRESHOLD_BYTES
from qprune.models import ALLOWED_DATASETS, FIELDS, MODEL_NAMES, build_network, model_spec
from qprune.training import (
    EVAL_BATCH_BYTES,
    EarlyStopMonitor,
    TrainSettings,
    eval_batch_size,
    evaluate_accuracy,
    evaluate_loss,
    train,
)


def test_monitor_never_stops_on_decreasing_losses():
    m = EarlyStopMonitor(patience=10)
    for i in range(50):
        assert not m.update(1.0 / (i + 1))
    assert m.best_index == 49


def test_monitor_stops_at_eleventh_evaluation():
    m = EarlyStopMonitor(patience=10)
    assert not m.update(1.0)
    stops = [m.update(1.0) for _ in range(10)]  # never strictly below the minimum
    assert stops == [False] * 9 + [True]
    assert m.best_index == 0
    assert m.evaluations == 11


def test_monitor_minimum_at_position_k():
    # scripted stream: global minimum at index k, never improved afterwards
    k = 7
    losses = [2.0 - 0.1 * i for i in range(k + 1)]  # decreasing to index k
    losses += [losses[-1] + 0.05] * 20
    m = EarlyStopMonitor(patience=10)
    stop_at = None
    for i, loss in enumerate(losses):
        if m.update(loss):
            stop_at = i
            break
    assert m.best_index == k
    assert stop_at == k + 10


def test_training_reduces_loss_on_learnable_data():
    # labels derived from the input so the task is learnable
    rng = np.random.default_rng(0)
    ds = synthetic_dataset(n=240, seed=1)
    ds.labels[:] = (ds.images.reshape(240, -1).mean(axis=1) * 40).astype(np.int64) % 10
    spec = model_spec("lenet12", "mnist", "real")
    net = build_network(spec, seed=0)
    before = evaluate_loss(net, ds)
    train(net, ds, TrainSettings(epochs=3, batch_size=60, lr=1.2e-3), rng)
    assert evaluate_loss(net, ds) < before


def test_training_is_deterministic():
    results = []
    for _ in range(2):
        ds = synthetic_dataset(n=120, seed=2)
        net = build_network(model_spec("lenet12", "mnist", "quat"), seed=3)
        rng = np.random.default_rng(3)
        train(net, ds, TrainSettings(epochs=2, batch_size=30, lr=1e-3), rng, test_data=ds)
        results.append(np.concatenate([p.tensor.data.ravel() for p in net.parameters()]))
    np.testing.assert_array_equal(results[0], results[1])


def test_per_epoch_curve_length():
    ds = synthetic_dataset(n=60, seed=4)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=0)
    rec = train(net, ds, TrainSettings(epochs=3, batch_size=20, lr=1e-3), np.random.default_rng(0), test_data=ds)
    assert len(rec.epoch_test_accuracy) == 3
    assert rec.steps == 9


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_loss_raises_numerical_error():
    ds = synthetic_dataset(n=30, seed=5)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=0)
    net.parameters()[1].tensor.data[:] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        train(net, ds, TrainSettings(epochs=1, batch_size=30, lr=1e-3), np.random.default_rng(0))


def test_early_stop_restores_best_parameters():
    ds = synthetic_dataset(n=400, seed=6)
    val = synthetic_dataset(n=100, seed=7)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=1)
    settings = TrainSettings(epochs=50, batch_size=4, lr=5e-2, early_stop=True, patience=3)
    rec = train(net, ds, settings, np.random.default_rng(1), validation_data=val)
    # random labels + aggressive lr: validation loss cannot keep improving
    assert rec.stopped_early
    assert rec.best_eval_index >= 0
    full_budget = 50 * (400 // 4)
    assert rec.steps < full_budget


def test_early_stop_requires_validation_split():
    ds = synthetic_dataset(n=30, seed=8)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=0)
    with pytest.raises(ValueError, match="validation"):
        train(net, ds, TrainSettings(epochs=1, batch_size=10, lr=1e-3, early_stop=True), np.random.default_rng(0))


def test_evaluate_accuracy_on_constant_predictions():
    ds = synthetic_dataset(n=50, seed=9)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=0)
    acc = evaluate_accuracy(net, ds)
    assert 0.0 <= acc <= 1.0


# ---------------------------------------------------------------------------
# evaluation batches

ALLOWED_TRIPLES = [(m, d, f) for m in MODEL_NAMES for d in ALLOWED_DATASETS[m] for f in FIELDS]


def test_eval_batch_bytes_keeps_conv_buffers_under_the_mmap_threshold():
    # conv2d's padded [F, N·(H+2)·(W+2)] buffer is 1.13x the widest activation
    assert 2 * EVAL_BATCH_BYTES <= MMAP_THRESHOLD_BYTES


@pytest.mark.parametrize("name, dataset, field", ALLOWED_TRIPLES)
def test_eval_batch_fits_the_budget_and_the_training_batch(name, dataset, field):
    spec = model_spec(name, dataset, field)
    for dtype in (np.float32, np.float64):
        net = build_network(spec, dtype=dtype)
        size = eval_batch_size(net)
        assert size * net.widest_activation * np.dtype(dtype).itemsize <= EVAL_BATCH_BYTES
        if dtype is np.float32:
            assert size >= spec.batch_size
            assert size == (5349 if dataset == "mnist" else 64)


def test_eval_batch_size_is_at_least_one(monkeypatch):
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 1)
    assert eval_batch_size(build_network(model_spec("lenet12", "mnist", "real"))) == 1


@pytest.mark.parametrize(
    "name, dataset, field, n",
    [("lenet12", "mnist", "real", 50), ("conv2", "cifar10", "quat", 9)],
)
def test_evaluation_does_not_depend_on_the_batch_split(monkeypatch, name, dataset, field, n):
    spec = model_spec(name, dataset, field)
    net = build_network(spec, dtype=np.float64, seed=2)
    data = synthetic_dataset(n=n, shape=spec.input_shape, seed=3)
    per_image = net.widest_activation * 8
    results = []
    for batch in (1, 7, n + 1):  # 7 leaves a partial last batch
        monkeypatch.setattr(training, "EVAL_BATCH_BYTES", batch * per_image)
        assert eval_batch_size(net) == batch
        results.append((evaluate_accuracy(net, data), evaluate_loss(net, data)))
    accuracies, losses = zip(*results)
    assert accuracies[0] == accuracies[1] == accuracies[2]
    np.testing.assert_allclose(losses[1:], losses[0], rtol=1e-12, atol=0)


def test_conv2_eval_memory_peak_is_bounded():
    spec = model_spec("conv2", "cifar10", "quat")
    net = build_network(spec, seed=0)
    data = synthetic_dataset(n=200, shape=spec.input_shape, seed=4)
    tracemalloc.start()
    try:
        evaluate_accuracy(net, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 64-image batches peak near 78 MiB; 500-image batches took 222 MiB
    assert peak < 96 * 2**20


_EVAL_FAULT_PROBE = """
import resource
import numpy as np
from qprune.data import Dataset
from qprune.harness import keep_heap_resident
from qprune.models import build_network, model_spec
from qprune.training import evaluate_accuracy

assert keep_heap_resident()
spec = model_spec("conv2", "cifar10", "quat")
net = build_network(spec, seed=0)
images = np.random.default_rng(0).random((200, *spec.input_shape), dtype=np.float32)
data = Dataset(images, np.arange(200) % 10, 10)
evaluate_accuracy(net, data)  # warm-up: maps the heap
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate_accuracy(net, data)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is set through glibc's mallopt")
def test_conv2_eval_takes_no_page_faults_after_warm_up():
    # the heap policy is process-wide, so it is measured in a child process
    src = os.path.dirname(os.path.dirname(training.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = subprocess.run(
        [sys.executable, "-c", _EVAL_FAULT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    faults = json.loads(probe.stdout)
    assert len(faults) == 3
    assert max(faults) < 100, faults
