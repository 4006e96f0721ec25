import os
import platform
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qprune.tensor as T
import qprune.training as training
from conftest import run_child, synthetic_dataset
from qprune.errors import NumericalError
from qprune.harness import MMAP_THRESHOLD_BYTES
from qprune.layers import Flatten, Linear, MaxPool2d, QuatConv2d, QuatLinear, ReLU
from qprune.models import ALLOWED_DATASETS, FIELDS, MODEL_NAMES, Network, build_network, model_spec
from qprune.optim import Adam
from qprune.pruning import capture_snapshot, global_magnitude_prune, rewind
from qprune.tensor import Tape, softmax_cross_entropy
from qprune.training import (
    EVAL_BATCH_BYTES,
    backward_batch,
    eval_batch_size,
    evaluate_accuracy,
    evaluate_loss,
    replica,
    shard_count,
    train,
)


def assert_same_parameters(a, b):
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_early_stop_never_stops_on_decreasing_losses(scripted_early_stop):
    rec, seen, final = scripted_early_stop([1.0 / (i + 1) for i in range(50)])
    assert not rec.stopped_early
    assert rec.steps == 50 and len(seen) == 50
    assert rec.best_eval_index == 49
    assert_same_parameters(final, seen[49])


def test_early_stop_stops_at_eleventh_evaluation(scripted_early_stop):
    rec, seen, final = scripted_early_stop([1.0] * 30)  # never strictly below the minimum
    assert rec.stopped_early
    assert len(seen) == 11 and rec.steps == 11
    assert rec.best_eval_index == 0
    assert_same_parameters(final, seen[0])


def test_early_stop_restores_the_minimum_at_position_k(scripted_early_stop):
    # scripted stream: global minimum at index k, never improved afterwards
    k = 7
    losses = [2.0 - 0.1 * i for i in range(k + 1)]  # decreasing to index k
    losses += [losses[-1] + 0.05] * 20
    rec, seen, final = scripted_early_stop(losses)
    assert rec.stopped_early
    assert rec.best_eval_index == k
    assert len(seen) == k + 11  # stopped at evaluation k + 10
    assert_same_parameters(final, seen[k])
    assert any(not np.array_equal(final[n], seen[-1][n]) for n in final)  # the last step's parameters were replaced


def test_training_reduces_loss_on_learnable_data():
    # labels derived from the input so the task is learnable
    rng = np.random.default_rng(0)
    ds = synthetic_dataset(n=240, seed=1)
    ds.labels[:] = (ds.images.reshape(240, -1).mean(axis=1) * 40).astype(np.int64) % 10
    spec = model_spec("lenet12", "mnist", "real")
    net = build_network(spec, seed=0)
    before = evaluate_loss(net, ds)
    train(net, ds, rng, epochs=3, batch_size=60, lr=1.2e-3)
    assert evaluate_loss(net, ds) < before


def test_training_is_deterministic():
    results = []
    for _ in range(2):
        ds = synthetic_dataset(n=120, seed=2)
        net = build_network(model_spec("lenet12", "mnist", "quat"), seed=3)
        rng = np.random.default_rng(3)
        train(net, ds, rng, epochs=2, batch_size=30, lr=1e-3, test_data=ds)
        results.append(np.concatenate([p.tensor.data.ravel() for p in net.parameters()]))
    np.testing.assert_array_equal(results[0], results[1])


def test_per_epoch_curve_length():
    ds = synthetic_dataset(n=60, seed=4)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=0)
    rec = train(net, ds, np.random.default_rng(0), epochs=3, batch_size=20, lr=1e-3, test_data=ds)
    assert len(rec.epoch_test_accuracy) == 3
    assert rec.steps == 9


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_loss_raises_numerical_error():
    ds = synthetic_dataset(n=30, seed=5)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=0)
    net.parameters()[1].tensor.data[:] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        train(net, ds, np.random.default_rng(0), epochs=1, batch_size=30, lr=1e-3)


def test_early_stop_restores_best_parameters():
    ds = synthetic_dataset(n=400, seed=6)
    val = synthetic_dataset(n=100, seed=7)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=1)
    rec = train(net, ds, np.random.default_rng(1), epochs=50, batch_size=4, lr=5e-2, patience=3, validation_data=val)
    # random labels + aggressive lr: validation loss cannot keep improving
    assert rec.stopped_early
    assert rec.best_eval_index >= 0
    full_budget = 50 * (400 // 4)
    assert rec.steps < full_budget


def test_early_stop_requires_validation_split():
    ds = synthetic_dataset(n=30, seed=8)
    net = build_network(model_spec("lenet12", "mnist", "real"), seed=0)
    with pytest.raises(ValueError, match="validation"):
        train(net, ds, np.random.default_rng(0), epochs=1, batch_size=10, lr=1e-3, patience=10)


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
import json
import resource
import sys
import numpy as np
from qprune.data import Dataset
from qprune.harness import keep_heap_resident
from qprune.models import build_network, model_spec
from qprune.training import evaluate_accuracy, shard_count

assert keep_heap_resident()
n = int(sys.argv[1])
spec = model_spec("conv2", "cifar10", "quat")
net = build_network(spec, seed=0)
images = np.random.default_rng(0).random((n, *spec.input_shape), dtype=np.float32)
data = Dataset(images, np.arange(n) % 10, 10)
evaluate_accuracy(net, data)  # warm-up: maps the heap
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate_accuracy(net, data)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"shards": shard_count(net), "faults": faults}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is set through glibc's mallopt")
def test_conv2_eval_takes_no_page_faults_after_warm_up():
    # The heap policy is process-wide, so it is measured in a child process.
    # 200 images make four batches of 50, 203 images batches of 51 and 50,
    # whose shards (26 + 25 and 25 + 25 in two shards) differ in length.
    shards = training.SHARDS if training.blas_threads() is not None else 1
    for n in (200, 203):
        result = run_child(_EVAL_FAULT_PROBE, n, timeout=120)
        assert result["shards"] == shards  # sharded wherever OpenBLAS is found
        assert len(result["faults"]) == 3
        assert max(result["faults"]) < 100, (n, result)


# ---------------------------------------------------------------------------
# data-parallel shards


def small_quat_conv_net(seed=0) -> Network:
    """A float64 quaternion conv net for 3x4x4 images and 3 classes."""
    rng = np.random.default_rng(seed)
    f64 = np.float64
    layers = [QuatConv2d(1, 2, rng, f64), ReLU(), MaxPool2d(), Flatten(), Linear(32, 3, rng, f64)]
    return small_network(layers)


def small_network(layers) -> Network:
    net = Network(model_spec("conv2", "cifar10", "quat"), layers, np.float64)
    net.widest_activation = 8 * 4 * 4  # the conv's output; the spec's 32x32 images do not fit these layers
    return net


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


def small_quat_net_with_linear(seed=0) -> Network:
    """``small_quat_conv_net`` with a QuatLinear(8, 2) head: a shard of fewer
    than 8 images takes ``quat_linear``'s direct path, the batch of 8 its block."""
    rng = np.random.default_rng(seed)
    f64 = np.float64
    layers = [QuatConv2d(1, 2, rng, f64), ReLU(), MaxPool2d(), Flatten(),
              QuatLinear(8, 2, rng, f64), ReLU(), Linear(8, 3, rng, f64)]
    return small_network(layers)


def check_sharded_gradients(net, shards):
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


@pytest.mark.parametrize("shards", [2, 3])  # 4 + 4 and 3 + 3 + 2 images
def test_sharded_gradients_match_one_batch_in_float64(shards):
    check_sharded_gradients(small_quat_conv_net(), shards)


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_quat_linear_gradients_match_one_batch_in_float64(shards):
    check_sharded_gradients(small_quat_net_with_linear(), shards)


def test_replicas_share_parameter_arrays_but_not_gradients():
    net = small_quat_conv_net()
    global_magnitude_prune(net, 0.5)
    copy = replica(net)
    for p, r in zip(net.parameters(), copy.parameters()):
        assert p.name == r.name
        assert r.tensor.data is p.tensor.data and r.tensor is not p.tensor
        assert r.mask is p.mask and (p.mask is not None) == p.prunable
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
def test_lenets_never_shard(name, field):
    assert shard_count(build_network(model_spec(name, "mnist", field))) == 1


@pytest.mark.parametrize("name", ["conv2", "conv4", "conv6"])
def test_conv_nets_shard_once_per_core(openblas_at_two_threads, name):
    assert shard_count(build_network(model_spec(name, "cifar10", "quat"))) == training.SHARDS  # whatever the cores


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_in_one_shard_raises_and_restores_blas_threads(openblas_at_two_threads, monkeypatch):
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
        train(net, data, np.random.default_rng(0), epochs=1, batch_size=4, lr=1e-3)
    assert seen == [1, 1]  # both shards ran, at one BLAS thread
    assert training.blas_threads() == before



def test_overlapping_callers_keep_their_gradients_and_the_blas_count(openblas_at_two_threads):
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


def test_sharded_training_keeps_pruned_weights_at_zero(openblas_at_two_threads, monkeypatch):
    net = small_quat_net_with_linear()
    shard_over(monkeypatch, 2)
    assert shard_count(net) == 2
    snapshot = capture_snapshot(net)
    global_magnitude_prune(net, 0.5)
    rewind(net, snapshot)
    data = synthetic_dataset(n=16, shape=(3, 4, 4), classes=3, seed=8)
    data.labels[:] = np.random.default_rng(9).integers(0, 3, 16)
    train(net, data, np.random.default_rng(0), epochs=2, batch_size=8, lr=1e-2)
    moved = 0
    for p in net.prunable_parameters():
        pruned = p.mask == 0
        assert np.all(p.tensor.data[pruned] == 0.0)  # bit-exact zero
        moved += np.count_nonzero(p.tensor.data[~pruned] != snapshot[p.name][~pruned])
    assert moved > 0


_PINNED_TRAINING = """
import hashlib
import json
import os
import sys

os.sched_setaffinity(0, map(int, sys.argv[1:]))  # before numpy loads OpenBLAS
import numpy as np
from qprune.data import Dataset
from qprune.models import build_network, model_spec
from qprune.training import train

spec = model_spec("conv2", "cifar10", "quat")
net = build_network(spec, seed=0)
images = np.random.default_rng(1).integers(0, 256, (20, *spec.input_shape), dtype=np.uint8)
train(net, Dataset(images, np.arange(20) % 10, 10), np.random.default_rng(2), epochs=1, batch_size=10, lr=1e-3)
digest = hashlib.sha256(b"".join(p.tensor.data.tobytes() for p in net.parameters())).hexdigest()
print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "sha256": digest}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2
                    or training.blas_threads() is None, reason="needs 2 usable CPUs and OpenBLAS")
def test_conv_training_gives_the_same_bits_on_one_cpu_and_on_two():
    # two 10-image steps of conv2-quat, each in a child process pinned to its CPUs
    cpus = sorted(os.sched_getaffinity(0))[:2]
    one, two = (run_child(_PINNED_TRAINING, *cpus[:k], timeout=120) for k in (1, 2))
    assert (one["cpus"], two["cpus"]) == (1, 2)
    assert one["sha256"] == two["sha256"]


# ---------------------------------------------------------------------------
# sharded evaluation


def shard_over(monkeypatch, shards):
    """Make ``small_quat_conv_net`` shard in ``shards``."""
    monkeypatch.setattr(training, "SHARD_MIN_BYTES", 0)
    monkeypatch.setattr(training, "SHARDS", shards)


def eval_in_batches_of(monkeypatch, net, size):
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", size * net.widest_activation * net.dtype.itemsize)
    assert eval_batch_size(net) == size


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_evaluation_matches_one_shard_in_float64(openblas_at_two_threads, monkeypatch, shards):
    net = small_quat_net_with_linear()
    data = synthetic_dataset(n=11, shape=(3, 4, 4), classes=3, seed=6)
    data.labels[:] = np.random.default_rng(7).integers(0, 3, 11)
    eval_in_batches_of(monkeypatch, net, 4)  # 4 + 4 + 3 images
    shard_over(monkeypatch, 1)
    want = evaluate_accuracy(net, data), evaluate_loss(net, data)
    shard_over(monkeypatch, shards)
    assert shard_count(net) == shards
    seen = []
    logits = training._logits

    def spy(net, images):
        seen.append(len(images))
        return logits(net, images)

    monkeypatch.setattr(training, "_logits", spy)
    assert evaluate_accuracy(net, data) == want[0]
    assert evaluate_loss(net, data) == pytest.approx(want[1], rel=1e-12, abs=0)
    plan = {2: [2, 2, 2, 2, 2, 1], 3: [2, 1, 1, 2, 1, 1, 1, 1, 1]}[shards]
    assert sorted(seen) == sorted(plan * 2)  # two evaluations


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("n, size, lengths", [(50, 7, [7, 7] + [6] * 6), (12, 4, [4, 4, 4]), (3, 7, [3])])
def test_eval_batches_are_equal_sized_and_cover_each_image_once_in_order(
    openblas_at_two_threads, monkeypatch, shards, n, size, lengths
):
    net = small_quat_conv_net()
    data = synthetic_dataset(n=n, shape=(3, 4, 4), classes=n, seed=8)
    eval_in_batches_of(monkeypatch, net, size)
    shard_over(monkeypatch, shards)
    batches = list(training._batch_logits(net, data))
    assert [len(labels) for _, labels in batches] == lengths
    np.testing.assert_array_equal(np.concatenate([labels for _, labels in batches]), np.arange(n))
    logits = np.concatenate([logits.data for logits, _ in batches])
    np.testing.assert_allclose(logits, net.forward(net.prepare_input(data.images)).data, rtol=1e-12, atol=0)


def test_evaluation_restores_blas_threads_also_when_a_shard_raises(openblas_at_two_threads, monkeypatch):
    net = small_quat_conv_net()
    data = synthetic_dataset(n=8, shape=(3, 4, 4), classes=3, seed=9)
    shard_over(monkeypatch, 2)
    before = training.blas_threads()
    seen = []
    logits = training._logits

    def spy(net, images):
        seen.append(training.blas_threads())
        return logits(net, images)

    monkeypatch.setattr(training, "_logits", spy)
    evaluate_accuracy(net, data)
    assert seen == [1] * 2
    assert training.blas_threads() == before

    def fail_the_last_shard(net, images):
        if np.shares_memory(images, data.images[-1]):
            raise FloatingPointError("shard 1")
        return logits(net, images)

    monkeypatch.setattr(training, "_logits", fail_the_last_shard)
    with pytest.raises(FloatingPointError, match="shard 1"):
        evaluate_accuracy(net, data)
    assert training.blas_threads() == before


def pool_workspaces() -> list[dict]:
    """The inference buffers of each shard thread, read on that thread."""
    return [thread.submit(T._lent).result(timeout=30) for thread in training._SHARD_THREADS]


def pool_buffers():
    return {(k, i): (id(buf), buf.size) for k, bufs in enumerate(pool_workspaces()) for i, buf in bufs.items()}


def test_no_evaluation_after_the_first_grows_a_slot_for_batches_as_long(openblas_at_two_threads, monkeypatch):
    net = small_quat_net_with_linear()
    eval_in_batches_of(monkeypatch, net, 6)
    shard_over(monkeypatch, 2)
    evaluate_accuracy(net, synthetic_dataset(n=11, shape=(3, 4, 4), classes=3, seed=12))  # batches of 6 and 5
    grown = pool_buffers()
    for n in (11, 7, 5, 2):  # at most six images per batch
        evaluate_accuracy(net, synthetic_dataset(n=n, shape=(3, 4, 4), classes=3, seed=n))
    assert pool_buffers() == grown


def test_a_three_shard_evaluation_leaves_one_workspace_per_pool_thread(openblas_at_two_threads, monkeypatch):
    # the two shard threads run the three shards, shard i on thread i mod 2,
    # each in its own buffers, so the workspaces follow the threads, not the
    # shard count, and the first thread's fit the longer shards
    net = small_quat_conv_net()
    shard_over(monkeypatch, 3)
    used = []
    logits = training._logits

    def spy(net, images):
        out = logits(net, images)
        used.append((len(images), T._lent()))
        return out

    monkeypatch.setattr(training, "_logits", spy)
    evaluate_accuracy(net, synthetic_dataset(n=7, shape=(3, 4, 4), classes=3, seed=13))  # shards of 3, 2 and 2
    thread_of = {id(w): k for k, w in enumerate(pool_workspaces())}
    assert len(thread_of) == 2
    assert sorted((thread_of[id(w)], n) for n, w in used) == [(0, 2), (0, 3), (1, 2)]
    assert all(set(w) == {0, 1, 2} for _, w in used)


def test_evaluation_between_a_taped_forward_and_its_backward_keeps_the_gradients(openblas_at_two_threads, monkeypatch):
    # inference reuses the buffers of the shard threads and of this thread;
    # the taped forward, run on this thread, must not have lent them the
    # arrays its backward reads
    net = small_quat_net_with_linear()
    rng = np.random.default_rng(10)
    images, labels = rng.random((6, 3, 4, 4)), rng.integers(0, 3, 6)
    data = synthetic_dataset(n=8, shape=(3, 4, 4), classes=3, seed=11)
    shard_over(monkeypatch, 2)
    backward_batch(net, [], images, labels)
    want = take_grads(net)
    with Tape() as tape:
        loss = softmax_cross_entropy(net.forward(net.prepare_input(images)), labels)
    evaluate_accuracy(net, data)  # on the shard threads, in their buffers
    net.forward(net.prepare_input(data.images))  # on this thread, in its buffers
    tape.backward(loss)
    for g, w in zip(take_grads(net), want):
        np.testing.assert_array_equal(g, w)
