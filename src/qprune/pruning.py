"""Global unstructured magnitude pruning with rewinding.

The lottery-ticket loop: train, prune the smallest-magnitude 20% of the
currently kept weights globally (all prunable tensors pooled, biases
exempt), rewind kept weights to their initialization values, retrain for
the full budget, repeat.  The loop stops when retrained test accuracy
falls below the threshold on two successive pruning iterations, or when
no whole weight is left to prune.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DimensionError, StateError
from .models import Network

# Successive pruned levels below the stop threshold that end the loop.
CONSECUTIVE_FAILURES = 2


@dataclass
class Mask:
    """Binary keep-masks (1 = kept, 0 = pruned), one per prunable tensor."""

    arrays: dict[str, np.ndarray]

    def copy(self) -> "Mask":
        return Mask({k: v.copy() for k, v in self.arrays.items()})

    def kept_count(self) -> int:
        return int(sum(int(a.sum()) for a in self.arrays.values()))

    def total_count(self) -> int:
        return int(sum(a.size for a in self.arrays.values()))


@dataclass
class RoundResult:
    sparsity: float
    accuracy: float
    kept: int


def full_mask(net: Network) -> Mask:
    return Mask({p.name: np.ones(p.tensor.shape, dtype=np.uint8) for p in net.prunable_parameters()})


def capture_snapshot(net: Network) -> dict[str, np.ndarray]:
    """Copy of every parameter tensor at initialization (theta_0), by name."""
    return {p.name: p.tensor.data.copy() for p in net.parameters()}


def sparsity(mask: Mask) -> float:
    """Fraction of prunable weights remaining, in [0,1]."""
    total = mask.total_count()
    return mask.kept_count() / total if total else 1.0


def _check_mask(net: Network, mask: Mask) -> None:
    names = [p.name for p in net.prunable_parameters()]
    if set(mask.arrays) != set(names):
        raise StateError(
            f"mask keys do not match the network's prunable registry: "
            f"{sorted(set(mask.arrays) ^ set(names))}"
        )
    for p in net.prunable_parameters():
        if mask.arrays[p.name].shape != p.tensor.shape:
            raise DimensionError(
                f"mask for {p.name} has shape {mask.arrays[p.name].shape}, "
                f"parameter has {p.tensor.shape}"
            )


def prune_count(rate: float, kept: int) -> int:
    """floor(rate * kept), with the rate taken at its shortest decimal form.

    In binary floating point ``0.29 * 100`` is ``28.999999999999996``, so a
    float floor prunes one weight too few; the decimal form gives 29.
    """
    return math.floor(Fraction(repr(float(rate))) * kept)


def global_magnitude_prune(net: Network, mask: Mask, rate: float) -> Mask:
    """Zero the floor(rate * kept) smallest-magnitude kept weights, pooled
    across all prunable tensors; ties break by ascending registry index."""
    if not (0.0 < rate < 1.0):
        raise ValueError(f"prune rate must lie in (0,1), got {rate}")
    _check_mask(net, mask)
    prunable = net.prunable_parameters()
    mags = np.concatenate([np.abs(p.tensor.data.ravel()) for p in prunable])
    kept = np.concatenate([mask.arrays[p.name].ravel() for p in prunable]).astype(bool)
    kept_idx = np.flatnonzero(kept)  # ascending global registry order
    k = prune_count(rate, kept_idx.size)
    new = mask.copy()
    if k == 0:
        return new
    order = np.argsort(mags[kept_idx], kind="stable")  # stable: ties fall to lower index
    to_prune = kept_idx[order[:k]]
    flat_kept = kept.copy()
    flat_kept[to_prune] = False
    offset = 0
    for p in prunable:
        size = p.tensor.size
        new.arrays[p.name] = (
            flat_kept[offset : offset + size].astype(np.uint8).reshape(p.tensor.shape)
        )
        offset += size
    return new


def rewind(net: Network, snapshot: dict[str, np.ndarray], mask: Mask) -> Network:
    """Reset kept weights (and all biases) to theta_0; pruned entries to 0."""
    _check_mask(net, mask)
    names = {p.name for p in net.parameters()}
    if set(snapshot) != names:
        raise StateError("snapshot does not cover the network's parameter registry")
    for p in net.parameters():
        saved = snapshot[p.name]
        if saved.shape != p.tensor.shape:
            raise StateError(
                f"snapshot entry {p.name} has shape {saved.shape}, parameter has {p.tensor.shape}"
            )
        p.tensor.data = saved.copy()
        if p.prunable:
            p.tensor.data *= mask.arrays[p.name]
    return net


def iterative_lottery(
    net: Network,
    train_fn: Callable[[Network, Mask], None],
    eval_fn: Callable[[Network], float],
    results: list[RoundResult],
    *,
    rate: float,
    stop_threshold: float,
    max_rounds: int | None = None,
) -> None:
    """Run the full iterative magnitude-pruning loop on a fresh network.

    ``train_fn(net, mask)`` trains in place for the full budget;
    ``eval_fn(net)`` returns test accuracy.  Reported accuracy at each
    sparsity level is that of the rewound-and-retrained model.  Each
    finished level is appended to ``results``, the dense model first, so
    the levels before an exception stay with the caller.
    """
    if not (0.0 < rate < 1.0):
        raise ValueError(f"prune rate must lie in (0,1), got {rate}")
    snapshot = capture_snapshot(net)
    mask = full_mask(net)
    failures = 0  # successive pruned levels below the threshold
    for level in itertools.count():
        train_fn(net, mask)
        acc = eval_fn(net)
        results.append(RoundResult(sparsity(mask), acc, mask.kept_count()))
        failures = failures + 1 if level and acc < stop_threshold else 0
        if failures == CONSECUTIVE_FAILURES or level == max_rounds:
            return
        if prune_count(rate, mask.kept_count()) < 1:  # no whole weight left to prune
            return
        mask = global_magnitude_prune(net, mask, rate)
        rewind(net, snapshot, mask)
