"""Training loop, evaluation, and early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field
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
    mask_arrays = mask.arrays if mask is not None else None
    monitor = EarlyStopMonitor(settings.patience) if settings.early_stop else None
    if settings.early_stop and validation_data is None:
        raise ValueError("early stopping requires a validation split")
    best_state: Optional[dict[str, np.ndarray]] = None

    n = len(train_data)
    stop = False
    for epoch in range(settings.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, settings.batch_size):
            idx = perm[lo : lo + settings.batch_size]
            x = net.prepare_input(train_data.images[idx])
            with Tape() as tape:
                logits = net.forward(x)
                loss = softmax_cross_entropy(logits, train_data.labels[idx])
            if not np.isfinite(loss.data):
                raise NumericalError(
                    f"non-finite loss {float(loss.data)} at epoch {epoch} step {record.steps}"
                )
            tape.backward(loss)
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
                    stop = True
                    break
        if stop:
            break
        if test_data is not None:
            record.epoch_test_accuracy.append(evaluate_accuracy(net, test_data))

    if monitor is not None:
        record.best_eval_index = monitor.best_index
        if best_state is not None:
            for p in net.parameters():
                p.tensor.data = best_state[p.name]
    return record
