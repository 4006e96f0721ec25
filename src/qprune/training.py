"""Training loop, evaluation, and early stopping."""

from __future__ import annotations

import copy
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .models import Network
from .optim import Adam
from .pruning import Mask
from .tensor import Tape, Tensor, softmax_cross_entropy

EVAL_EVERY_STEPS = 100  # early-stopping validation cadence
# Half of harness.MMAP_THRESHOLD_BYTES: conv2d's [F, N·(H+2)·(W+2)] output
# buffer, 1.13x the widest activation at 32x32, then stays on the resident heap.
EVAL_BATCH_BYTES = 16 * 1024 * 1024
# Per-image bytes of the widest activation from which training batches are split
# over the cores: a conv net at 32x32 has 256 KiB, a LeNet at most 3.1 KiB.
SHARD_MIN_BYTES = 64 * 1024
_NO_BLAS = (lambda: None, lambda count: None)


@functools.cache
def _openblas():
    """(getter, setter) of OpenBLAS's process-wide thread count, from a
    shared library mapped into this process, or ``_NO_BLAS``."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in f if "openblas" in line})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return _NO_BLAS
    for lib, prefix, suffix in product(libs, ("openblas", "scipy_openblas"), ("", "64_", "_64")):
        get, put = (getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
        if get and put:
            get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, put
    return _NO_BLAS


def blas_threads() -> Optional[int]:
    """OpenBLAS's thread count in effect; None without OpenBLAS."""
    return _openblas()[0]()


_SHARD_POOL = ThreadPoolExecutor(thread_name_prefix="qprune-shard")
_SHARD_LOCK = threading.Lock()  # one batch's shards at a time: they fill the cores


def shard_count(net: Network) -> int:
    """Shards per training batch: one per usable core for a network with
    wide activations (``SHARD_MIN_BYTES``) when OpenBLAS is found, else 1."""
    wide = net.widest_activation * net.dtype.itemsize >= SHARD_MIN_BYTES
    return len(os.sched_getaffinity(0)) if wide and blas_threads() is not None else 1


def replica(net: Network) -> Network:
    """A copy of ``net`` with gradients of its own, whose parameters hold
    ``net``'s arrays: in-place updates reach it, rebinding ``.data`` does not."""
    return copy.deepcopy(net, {id(p.tensor.data): p.tensor.data for p in net.parameters()})


def backward_batch(net: Network, replicas: list[Network], images: np.ndarray, labels: np.ndarray) -> float:
    """Gradients of a batch's mean loss into ``net``'s ``.grad``; returns the
    loss.  A non-finite loss is returned without a backward pass.

    With replicas, as many contiguous shards (fewer for a smaller batch),
    the longer first, run on them in the shard pool at one OpenBLAS thread.
    Once all have returned, each gradient is the sum, in shard order, of the
    shard gradients times their shares of the batch."""
    if not replicas:
        x = net.prepare_input(images)
        with Tape() as tape:
            loss = softmax_cross_entropy(net.forward(x), labels)
        if np.isfinite(loss.data):
            tape.backward(loss)
        return float(loss.data)
    shards = [s for s in np.array_split(np.arange(len(labels)), len(replicas)) if s.size]
    with _SHARD_LOCK:
        get, put = _openblas()
        saved = get()
        put(1)  # process-wide: keeps each shard's GEMMs on its core
        try:
            futures = [_SHARD_POOL.submit(backward_batch, r, [], images[s], labels[s])
                       for r, s in zip(replicas, shards)]
            wait(futures)
        finally:
            put(saved)
    shares = [s.size / len(labels) for s in shards]
    loss = sum(share * f.result() for share, f in zip(shares, futures))
    for p, *parts in zip(net.parameters(), *(r.parameters() for r in replicas)):
        for part, share in zip(parts, shares):
            if (g := part.tensor.grad) is not None:
                p.tensor._accum_grad(np.multiply(g, share, out=g))
                part.tensor.grad = None
    return loss


class EarlyStopMonitor:
    """Stops after ``patience`` consecutive evaluations without a new
    strict minimum of the validation loss."""

    def __init__(self, patience: int = 10):
        self.patience = patience
        self.best: float = np.inf
        self.best_index: int = -1
        self.since_best: int = 0
        self.evaluations: int = 0

    def update(self, loss: float) -> bool:
        """Feed one evaluation; returns True when training should stop."""
        index = self.evaluations
        self.evaluations += 1
        if loss < self.best:
            self.best = loss
            self.best_index = index
            self.since_best = 0
        else:
            self.since_best += 1
        return self.since_best >= self.patience


@dataclass
class TrainSettings:
    epochs: int
    batch_size: int
    lr: float
    early_stop: bool = False
    patience: int = 10


@dataclass
class TrainRecord:
    epoch_test_accuracy: list[float] = field(default_factory=list)
    steps: int = 0
    stopped_early: bool = False
    best_eval_index: int = -1


def eval_batch_size(net: Network) -> int:
    """Images per evaluation batch: as many as keep the widest activation
    within ``EVAL_BATCH_BYTES``."""
    per_image = net.widest_activation * net.dtype.itemsize
    return max(1, EVAL_BATCH_BYTES // per_image)


def _batch_logits(net: Network, data: Dataset) -> Iterator[tuple[Tensor, np.ndarray]]:
    """Inference-mode logits and labels of ``data``, one batch at a time."""
    size = eval_batch_size(net)
    for lo in range(0, len(data), size):
        images, labels = data.images[lo : lo + size], data.labels[lo : lo + size]
        yield net.forward(net.prepare_input(images)), labels


def evaluate_accuracy(net: Network, data: Dataset) -> float:
    """Fraction of correctly classified examples (inference mode)."""
    correct = 0
    for logits, labels in _batch_logits(net, data):
        correct += int((logits.data.argmax(axis=1) == labels).sum())
    return correct / len(data)


def evaluate_loss(net: Network, data: Dataset) -> float:
    """Mean cross-entropy over a dataset (inference mode)."""
    total = 0.0
    for logits, labels in _batch_logits(net, data):
        total += float(softmax_cross_entropy(logits, labels).data) * len(labels)
    return total / len(data)


def train(
    net: Network,
    train_data: Dataset,
    settings: TrainSettings,
    rng: np.random.Generator,
    mask: Optional[Mask] = None,
    test_data: Optional[Dataset] = None,
    validation_data: Optional[Dataset] = None,
) -> TrainRecord:
    """Train in place with Adam; returns the per-epoch test-accuracy curve.

    With ``settings.early_stop`` the validation loss is evaluated every
    ``EVAL_EVERY_STEPS`` optimizer steps; training stops after ``patience``
    evaluations without a new minimum and the parameters are restored to
    the best evaluation's checkpoint (also at normal completion).
    """
    record = TrainRecord()
    opt = Adam(net.parameters(), lr=settings.lr)
    shards = shard_count(net)
    replicas = [replica(net) for _ in range(shards)] if shards > 1 else []
    mask_arrays = mask.arrays if mask is not None else None
    monitor = EarlyStopMonitor(settings.patience) if settings.early_stop else None
    if settings.early_stop and validation_data is None:
        raise ValueError("early stopping requires a validation split")
    best_state: Optional[dict[str, np.ndarray]] = None

    n = len(train_data)
    for epoch in range(settings.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, settings.batch_size):
            idx = perm[lo : lo + settings.batch_size]
            loss = backward_batch(net, replicas, train_data.images[idx], train_data.labels[idx])
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss {loss} at epoch {epoch} step {record.steps}")
            opt.step(mask_arrays)
            record.steps += 1
            if monitor is not None and record.steps % EVAL_EVERY_STEPS == 0:
                val_loss = evaluate_loss(net, validation_data)
                improved_index = monitor.best_index
                should_stop = monitor.update(val_loss)
                if monitor.best_index != improved_index:  # new minimum
                    best_state = {p.name: p.tensor.data.copy() for p in net.parameters()}
                if should_stop:
                    record.stopped_early = True
                    break
        if record.stopped_early:
            break
        if test_data is not None:
            record.epoch_test_accuracy.append(evaluate_accuracy(net, test_data))

    if monitor is not None:
        record.best_eval_index = monitor.best_index
        if best_state is not None:
            for p in net.parameters():
                p.tensor.data = best_state[p.name]
    return record
