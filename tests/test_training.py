import json
import os
import platform
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qprune.training as training
from conftest import synthetic_dataset
from qprune.errors import NumericalError
from qprune.harness import MMAP_THRESHOLD_BYTES
from qprune.layers import Flatten, Linear, MaxPool2d, QuatConv2d, ReLU
from qprune.models import ALLOWED_DATASETS, FIELDS, MODEL_NAMES, Network, build_network, model_spec
from qprune.optim import Adam
from qprune.training import (
    EVAL_BATCH_BYTES,
    EarlyStopMonitor,
    TrainSettings,
    backward_batch,
    eval_batch_size,
    evaluate_accuracy,
    evaluate_loss,
    replica,
    shard_count,
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


# ---------------------------------------------------------------------------
# data-parallel shards


def small_quat_conv_net(seed=0) -> Network:
    """A float64 quaternion conv net for 3x4x4 images and 3 classes."""
    rng = np.random.default_rng(seed)
    f64 = np.float64
    layers = [QuatConv2d(1, 2, rng, f64), ReLU(), MaxPool2d(), Flatten(), Linear(32, 3, rng, f64)]
    return Network(model_spec("conv2", "cifar10", "quat"), layers, f64)


def take_grads(net):
    grads = [p.tensor.grad for p in net.parameters()]
    for p in net.parameters():
        p.tensor.grad = None
    return grads


@pytest.mark.parametrize("n, shards, sizes", [(8, 2, [4, 4]), (8, 3, [3, 3, 2]), (7, 3, [3, 2, 2]), (2, 3, [1, 1])])
def test_shards_are_contiguous_and_capped_at_the_batch(monkeypatch, n, shards, sizes):
    seen = []

    def spy(net, replicas, images, labels):  # each shard's own call
        seen.append(labels.tolist())
        return 0.0

    monkeypatch.setattr(training, "backward_batch", spy)
    net = small_quat_conv_net()
    backward_batch(net, [replica(net) for _ in range(shards)], np.zeros((n, 3, 4, 4)), np.arange(n))
    seen.sort()  # shards run concurrently, in any order
    assert [len(s) for s in seen] == sizes
    assert sum(seen, []) == list(range(n))


@pytest.mark.parametrize("shards", [2, 3])  # 4 + 4 and 3 + 3 + 2 images
def test_sharded_gradients_match_one_batch_in_float64(shards):
    net = small_quat_conv_net()
    rng = np.random.default_rng(1)
    images, labels = rng.random((8, 3, 4, 4)), rng.integers(0, 3, 8)
    want_loss = backward_batch(net, [], images, labels)
    want = take_grads(net)
    replicas = [replica(net) for _ in range(shards)]
    loss = backward_batch(net, replicas, images, labels)
    got = take_grads(net)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for g, w in zip(got, want):
        assert g.dtype == np.float64
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
    assert all(p.tensor.grad is None for r in replicas for p in r.parameters())


def test_replicas_share_parameter_arrays_but_not_gradients():
    net = small_quat_conv_net()
    copy = replica(net)
    for p, r in zip(net.parameters(), copy.parameters()):
        assert p.name == r.name
        assert r.tensor.data is p.tensor.data and r.tensor is not p.tensor
    # the layers compute with the tensors the registry lists
    assert {id(t) for layer in copy.layers for _, t, _ in layer.params()} == {id(r.tensor) for r in copy.parameters()}
    rng = np.random.default_rng(2)
    backward_batch(net, [copy], rng.random((4, 3, 4, 4)), rng.integers(0, 3, 4))
    assert all(r.tensor.grad is None for r in copy.parameters())
    assert all(p.tensor.grad is not None for p in net.parameters())
    before = copy.parameters()[0].tensor.data.copy()
    Adam(net.parameters(), lr=0.1).step()
    assert not np.array_equal(copy.parameters()[0].tensor.data, before)  # the in-place update reached it


@pytest.mark.parametrize("name", ["lenet300", "lenet12"])
@pytest.mark.parametrize("field", FIELDS)
def test_lenets_never_shard(monkeypatch, name, field):
    monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert shard_count(build_network(model_spec(name, "mnist", field))) == 1


@pytest.mark.parametrize("name", ["conv2", "conv4", "conv6"])
def test_conv_nets_shard_once_per_core(two_cores, name):
    assert shard_count(build_network(model_spec(name, "cifar10", "quat"))) == 2


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_in_one_shard_raises_and_restores_blas_threads(two_cores, monkeypatch):
    spec = model_spec("conv2", "cifar10", "quat")
    net = build_network(spec, seed=0)
    data = synthetic_dataset(n=4, shape=spec.input_shape, seed=5)
    data.images[3] = np.nan  # one batch of 4 images: 2 + 2, one shard poisoned
    seen = []

    def spy(net, replicas, images, labels):
        if not replicas:  # a shard's own call, not train's
            seen.append(training.blas_threads())
        return backward_batch(net, replicas, images, labels)

    monkeypatch.setattr(training, "backward_batch", spy)
    before = training.blas_threads()
    with pytest.raises(NumericalError, match="non-finite loss nan at epoch 0 step 0"):
        train(net, data, TrainSettings(epochs=1, batch_size=4, lr=1e-3), np.random.default_rng(0))
    assert seen == [1, 1]  # both shards ran, at one BLAS thread
    assert training.blas_threads() == before



def test_overlapping_callers_keep_their_gradients_and_the_blas_count(two_cores):
    # more callers than cores, switching threads every 10 us
    nets = [small_quat_conv_net(seed) for seed in range(4)]
    rng = np.random.default_rng(3)
    batches = [(rng.random((8, 3, 4, 4)), rng.integers(0, 3, 8)) for _ in nets]
    want = []
    for net, batch in zip(nets, batches):
        backward_batch(net, [], *batch)
        want.append(take_grads(net))
    got = [[] for _ in nets]

    def caller(k):
        replicas = [replica(nets[k]) for _ in range(2)]
        for _ in range(5):
            backward_batch(nets[k], replicas, *batches[k])
            got[k].append(take_grads(nets[k]))

    before = training.blas_threads()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(nets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert training.blas_threads() == before
    for runs, serial in zip(got, want):
        assert len(runs) == 5
        for grads in runs:
            for g, w in zip(grads, serial):
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
