"""Global unstructured magnitude pruning with rewinding.

The lottery-ticket loop: train, prune the smallest-magnitude 20% of the
currently kept weights globally (all prunable tensors pooled, biases
exempt), rewind kept weights to their initialization values, retrain for
the full budget, repeat.  The loop stops when retrained test accuracy
falls below the threshold on two successive pruning iterations, or when
no whole weight is left to prune.

Each prunable parameter carries its keep-mask (``Param.mask``, None while
dense): ``global_magnitude_prune`` sets it, ``rewind`` and ``Adam.step`` apply it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import StateError
from .models import Network

# Successive pruned levels below the stop threshold that end the loop.
CONSECUTIVE_FAILURES = 2


@dataclass
class RoundResult:
    sparsity: float
    accuracy: float
    kept: int


def capture_snapshot(net: Network) -> dict[str, np.ndarray]:
    """Copy of every parameter tensor, by name: theta_0 when taken at initialization."""
    return {p.name: p.tensor.data.copy() for p in net.parameters()}


def kept_count(net: Network) -> int:
    """Prunable weights kept: every weight of a tensor without a mask."""
    return sum(p.tensor.size if p.mask is None else int(p.mask.sum()) for p in net.prunable_parameters())


def sparsity(net: Network) -> float:
    """Fraction of prunable weights remaining, in [0,1]."""
    total = sum(p.tensor.size for p in net.prunable_parameters())
    return kept_count(net) / total if total else 1.0


def prune_count(rate: float, kept: int) -> int:
    """floor(rate * kept), with the rate taken at its shortest decimal form.

    In binary floating point ``0.29 * 100`` is ``28.999999999999996``, so a
    float floor prunes one weight too few; the decimal form gives 29.
    """
    return math.floor(Fraction(repr(float(rate))) * kept)


def global_magnitude_prune(net: Network, rate: float) -> None:
    """Prune the floor(rate * kept) smallest-magnitude kept weights, pooled
    across all prunable tensors, by setting every prunable ``mask``; ties
    break by ascending registry index.  The weights are left to ``rewind``."""
    if not (0.0 < rate < 1.0):
        raise ValueError(f"prune rate must lie in (0,1), got {rate}")
    prunable = net.prunable_parameters()
    mags = np.concatenate([np.abs(p.tensor.data.ravel()) for p in prunable])
    masks = [np.ones(p.tensor.size, np.uint8) if p.mask is None else p.mask.ravel() for p in prunable]
    kept = np.concatenate(masks).astype(bool)
    kept_idx = np.flatnonzero(kept)  # ascending global registry order
    k = prune_count(rate, kept_idx.size)
    if k == 0:
        return
    order = np.argsort(mags[kept_idx], kind="stable")  # stable: ties fall to lower index
    kept[kept_idx[order[:k]]] = False
    offset = 0
    for p in prunable:
        size = p.tensor.size
        p.mask = kept[offset : offset + size].astype(np.uint8).reshape(p.tensor.shape)
        offset += size


def rewind(net: Network, snapshot: dict[str, np.ndarray]) -> Network:
    """Reset kept weights (and all biases) to a snapshot (theta_0 in a ladder); pruned entries to 0."""
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
        if p.mask is not None:
            p.tensor.data *= p.mask
    return net


def iterative_lottery(
    net: Network,
    train_fn: Callable[[Network], None],
    eval_fn: Callable[[Network], float],
    results: list[RoundResult],
    *,
    rate: float,
    stop_threshold: float,
    max_rounds: int | None = None,
) -> None:
    """Run the full iterative magnitude-pruning loop on a dense network (no
    prunable parameter has a mask yet; else ``StateError``).

    ``train_fn(net)`` trains in place for the full budget;
    ``eval_fn(net)`` returns test accuracy.  Reported accuracy at each
    sparsity level is that of the rewound-and-retrained model.  Each
    finished level is appended to ``results``, the dense model first, so
    the levels before an exception stay with the caller.
    """
    if not (0.0 < rate < 1.0):
        raise ValueError(f"prune rate must lie in (0,1), got {rate}")
    if any(p.mask is not None for p in net.prunable_parameters()):
        raise StateError("a ladder starts from a dense network; this one is already pruned")
    snapshot = capture_snapshot(net)
    failures = 0  # successive pruned levels below the threshold
    for level in itertools.count():
        train_fn(net)
        acc = eval_fn(net)
        kept = kept_count(net)
        results.append(RoundResult(sparsity(net), acc, kept))
        failures = failures + 1 if level and acc < stop_threshold else 0
        if failures == CONSECUTIVE_FAILURES or level == max_rounds:
            return
        if prune_count(rate, kept) < 1:  # no whole weight left to prune
            return
        global_magnitude_prune(net, rate)
        rewind(net, snapshot)
