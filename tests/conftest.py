import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import qprune.training as training
from qprune.data import Dataset
from qprune.models import build_network, model_spec
from qprune.pruning import capture_snapshot

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DATA_ENV = "QPRUNE_DATA"
_DATA_CANDIDATES = (
    os.path.join(os.path.dirname(__file__), "..", "data"),
    "/root/data",
)


def find_data_dir() -> str | None:
    override = os.environ.get(DATA_ENV)
    candidates = (override,) if override else _DATA_CANDIDATES
    for cand in candidates:
        if cand and os.path.isdir(os.path.join(cand, "mnist")):
            return os.path.abspath(cand)
    return None


def run_child(script: str, *args, timeout: float):
    """Run ``script`` in a fresh interpreter that imports qprune from this
    checkout's ``src``; returns the JSON its stdout holds."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=timeout, check=True,
    )
    return json.loads(probe.stdout)


@pytest.fixture(scope="session")
def data_dir() -> str:
    d = find_data_dir()
    if d is None:
        pytest.skip(f"real dataset files not found; set ${DATA_ENV} to a directory "
                    "holding mnist/ and cifar10/ subdirectories")
    return d


@pytest.fixture(scope="session")
def mnist_dir(data_dir) -> str:
    return os.path.join(data_dir, "mnist")


@pytest.fixture(scope="session")
def cifar10_dir(data_dir) -> str:
    d = os.path.join(data_dir, "cifar10")
    if not os.path.isdir(d):
        pytest.skip("cifar10 files not found")
    return d


def write_idx_images(path, images: np.ndarray) -> None:
    """images: uint8 [N,H,W]."""
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 2049, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


def make_mnist_files(directory, n_train=240, n_test=60, seed=0) -> None:
    """Synthetic MNIST-shaped IDX files (random pixels, balanced labels)."""
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = (np.arange(n) % 10).astype(np.uint8)
        write_idx_images(os.path.join(directory, f"{prefix}-images-idx3-ubyte"), images)
        write_idx_labels(os.path.join(directory, f"{prefix}-labels-idx1-ubyte"), labels)


def synthetic_dataset(n=120, shape=(1, 28, 28), classes=10, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    images = rng.random((n, *shape), dtype=np.float32)
    labels = (np.arange(n) % classes).astype(np.int64)
    return Dataset(images, labels, classes)


def write_cifar10_batch(path, n, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        label = np.uint8(i % 10)
        pixels = rng.integers(0, 256, 3072, dtype=np.uint8)
        records.append(bytes([label]) + pixels.tobytes())
    path.write_bytes(b"".join(records))


def make_cifar10_files(directory, per_batch=6):
    os.makedirs(directory, exist_ok=True)
    for b in range(1, 6):
        write_cifar10_batch(directory / f"data_batch_{b}.bin", per_batch, seed=b)
    write_cifar10_batch(directory / "test_batch.bin", per_batch, seed=9)


@pytest.fixture
def openblas_at_two_threads(monkeypatch):
    """OpenBLAS at two threads, through a stand-in where none is loaded, so
    that a conv net shards on any machine and its shards must restore the count."""
    if training.blas_threads() is None:
        count = [4]
        fake = (lambda: count[0], lambda n: count.__setitem__(0, n))
        monkeypatch.setattr(training, "_openblas", lambda: fake)
    get, put = training._openblas()
    found = get()
    put(2)  # a count other than the shards' 1, which they must restore
    yield
    put(found)


@pytest.fixture
def scripted_early_stop(monkeypatch):
    """``run(losses, patience)`` early-stops a lenet12 ``train`` call that
    evaluates after every step and reads its validation losses from
    ``losses``; returns the record, the parameters at each evaluation and
    the parameters ``train`` left."""
    def run(losses, patience=10):
        stream, seen = iter(losses), []

        def scripted_loss(net, data):
            seen.append(capture_snapshot(net))
            return next(stream)

        monkeypatch.setattr(training, "EVAL_EVERY_STEPS", 1)
        monkeypatch.setattr(training, "evaluate_loss", scripted_loss)
        data = synthetic_dataset(n=10, seed=11)
        net = build_network(model_spec("lenet12", "mnist", "real"), seed=0)
        record = training.train(net, data, np.random.default_rng(0), epochs=len(losses), batch_size=10, lr=1e-2,
                                patience=patience, validation_data=data)
        return record, seen, capture_snapshot(net)
    return run
