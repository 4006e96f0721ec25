"""Training loop, evaluation, and early stopping."""

from __future__ import annotations

import copy
import ctypes
import functools
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
from .pruning import capture_snapshot, rewind
from .tensor import Tape, Tensor, softmax_cross_entropy

EVAL_EVERY_STEPS = 100  # early-stopping validation cadence
# Half of harness.MMAP_THRESHOLD_BYTES, so that the fresh arrays of a
# whole-batch evaluation stay on the resident heap.  The largest array,
# conv2d's [F, N·(H+2)·(W+2)] buffer (1.13x the widest activation at 32x32),
# is one of the inference buffers of the thread that runs the batch or shard,
# mapped outside the heap.
EVAL_BATCH_BYTES = 16 * 1024 * 1024
# Per-image bytes of the widest activation from which batches are split into
# SHARDS shards: a conv net at 32x32 has 256 KiB, a LeNet at most 3.1 KiB.
SHARD_MIN_BYTES = 64 * 1024
SHARDS = 2  # part of the plan, not of the machine: the shard order fixes the bits
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


# Shard i runs on thread i mod SHARDS, so each thread's inference buffers are
# sized by the shards of its position, the longer ones on the first thread.
_SHARD_THREADS = [ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"qprune-shard{i}") for i in range(SHARDS)]
_SHARD_LOCK = threading.Lock()  # one batch's shards at a time: they fill the threads


def shard_count(net: Network) -> int:
    """Shards per training batch and per evaluation batch: ``SHARDS`` for a
    network with wide activations (``SHARD_MIN_BYTES``) when OpenBLAS is found
    to hold each shard to one thread, else 1; never read from the machine."""
    wide = net.widest_activation * net.dtype.itemsize >= SHARD_MIN_BYTES
    return SHARDS if wide and blas_threads() is not None else 1


def replica(net: Network) -> Network:
    """A copy of ``net`` with gradients of its own, whose parameters hold
    ``net``'s arrays and masks: in-place updates reach it, rebinding ``.data``
    does not."""
    return copy.deepcopy(net, {id(a): a for p in net.parameters() for a in (p.tensor.data, p.mask)})


def _spans(n: int, parts: int) -> list[slice]:
    """``parts`` contiguous runs covering range(n) (fewer if n < parts),
    whose lengths differ by at most one, the longer first."""
    q, r = divmod(n, parts)
    edges = [k * q + min(k, r) for k in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def _on_shards(fn, calls: list[tuple]) -> list:
    """``fn(*args)`` for each ``args`` in ``calls``, call i on shard thread i
    mod SHARDS, at one OpenBLAS thread; returns the results in order once all
    have returned, or raises the first call's exception."""
    with _SHARD_LOCK:
        get, put = _openblas()
        saved = get()
        put(1)  # process-wide: keeps each shard's GEMMs on its core
        try:
            futures = [_SHARD_THREADS[i % len(_SHARD_THREADS)].submit(fn, *args) for i, args in enumerate(calls)]
            wait(futures)
        finally:
            put(saved)
    return [f.result() for f in futures]


def backward_batch(net: Network, replicas: list[Network], images: np.ndarray, labels: np.ndarray) -> float:
    """Gradients of a batch's mean loss into ``net``'s ``.grad``; returns the
    loss.  A non-finite loss is returned without a backward pass.

    With replicas, as many contiguous shards (fewer for a smaller batch),
    the longer first, run on them in the shard threads at one OpenBLAS thread.
    Once all have returned, each gradient is the sum, in shard order, of the
    shard gradients times their shares of the batch."""
    if not replicas:
        x = net.prepare_input(images)
        with Tape() as tape:
            loss = softmax_cross_entropy(net.forward(x), labels)
        if np.isfinite(loss.data):
            tape.backward(loss)
        return float(loss.data)
    shards = _spans(len(labels), len(replicas))
    losses = _on_shards(backward_batch, [(r, [], images[s], labels[s]) for r, s in zip(replicas, shards)])
    shares = [(s.stop - s.start) / len(labels) for s in shards]
    loss = sum(share * shard_loss for share, shard_loss in zip(shares, losses))
    for p, *parts in zip(net.parameters(), *(r.parameters() for r in replicas)):
        for part, share in zip(parts, shares):
            if (g := part.tensor.grad) is not None:
                p.tensor._accum_grad(np.multiply(g, share, out=g))
                part.tensor.grad = None
    return loss


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


def _logits(net: Network, images: np.ndarray) -> np.ndarray:
    """Inference-mode logits of an image batch, on the calling thread."""
    return net.forward(net.prepare_input(images)).data


def inference_logits(net: Network, images: np.ndarray, shards: int) -> np.ndarray:
    """Inference-mode logits of an image batch.  With several shards, as
    many contiguous shards (fewer for a smaller batch) run on ``net`` in the
    shard threads at one OpenBLAS thread, and their logits are joined in
    shard order."""
    if shards == 1:
        return _logits(net, images)
    return np.concatenate(_on_shards(_logits, [(net, images[s]) for s in _spans(len(images), shards)]))


def _batch_logits(net: Network, data: Dataset) -> Iterator[tuple[Tensor, np.ndarray]]:
    """Inference-mode logits and labels of ``data``, one batch at a time, in
    ceil(n / ``eval_batch_size``) batches that differ in length by at most
    one image, each split over ``shard_count(net)`` shards."""
    shards = shard_count(net)
    for batch in _spans(len(data), -(-len(data) // eval_batch_size(net))):
        yield Tensor(inference_logits(net, data.images[batch], shards)), data.labels[batch]


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
    data: Dataset,
    rng: np.random.Generator,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    patience: Optional[int] = None,
    test_data: Optional[Dataset] = None,
    validation_data: Optional[Dataset] = None,
) -> TrainRecord:
    """Train in place with Adam; returns the per-epoch test-accuracy curve.
    Pruned weights (``Param.mask``) stay at 0.

    With a ``patience`` (early stopping) the validation loss is evaluated
    every ``EVAL_EVERY_STEPS`` optimizer steps; training stops after
    ``patience`` evaluations in a row without a new strict minimum, and the
    parameters are restored to the best evaluation's (also at normal completion).
    """
    if patience is not None and validation_data is None:
        raise ValueError("early stopping requires a validation split")
    record = TrainRecord()
    opt = Adam(net.parameters(), lr=lr)
    shards = shard_count(net)
    replicas = [replica(net) for _ in range(shards)] if shards > 1 else []
    best_loss, since_best, best_state = np.inf, 0, None

    n = len(data)
    for epoch in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = perm[lo : lo + batch_size]
            loss = backward_batch(net, replicas, data.images[idx], data.labels[idx])
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss {loss} at epoch {epoch} step {record.steps}")
            opt.step()
            record.steps += 1
            if patience is not None and record.steps % EVAL_EVERY_STEPS == 0:
                val_loss = evaluate_loss(net, validation_data)
                if val_loss < best_loss:  # a new strict minimum
                    best_loss, since_best, best_state = val_loss, 0, capture_snapshot(net)
                    record.best_eval_index = record.steps // EVAL_EVERY_STEPS - 1
                else:
                    since_best += 1
                if since_best >= patience:
                    record.stopped_early = True
                    break
        if record.stopped_early:
            break
        if test_data is not None:
            record.epoch_test_accuracy.append(evaluate_accuracy(net, test_data))

    if best_state is not None:
        rewind(net, best_state)
    return record
