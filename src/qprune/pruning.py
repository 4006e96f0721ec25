"""Global unstructured magnitude pruning with rewinding.

The lottery-ticket loop: train, prune the smallest-magnitude 20% of the
currently kept weights globally (all prunable tensors pooled, biases
exempt), rewind kept weights to their initialization values, retrain for
the full budget, repeat.  The loop stops when retrained test accuracy
falls below the threshold on two successive pruning iterations, or when
no whole weight is left to prune.

Each prunable parameter carries its keep-mask (``Param.mask``, None while
dense): ``global_magnitude_prune`` sets it, ``rewind`` and ``Adam.step`` apply it.
A ``Ladder`` holds the rest of one trial's state, and ``iterative_lottery``
advances it level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

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


@dataclass(eq=False)
class Ladder:
    """One trial's lottery state: the network (its masks on ``Param.mask``),
    theta_0, the trial's generator, the finished levels (the dense one
    first), the dense level's per-epoch test accuracy and the run of
    pruned levels below the stop threshold."""

    seed: int
    net: Network
    theta0: dict[str, np.ndarray]
    rng: np.random.Generator
    rounds: list[RoundResult] = field(default_factory=list)
    curve: list[float] = field(default_factory=list)
    failures: int = 0
    wall_seconds: float = 0.0
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


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
    ladder: Ladder,
    train_fn: Callable[[Ladder], list[float]],
    eval_fn: Callable[[Network], float],
    *,
    rate: float,
    stop_threshold: float,
    max_rounds: int | None = None,
) -> None:
    """Run the iterative magnitude-pruning loop on a ladder that starts
    from a dense network (no prunable parameter has a mask yet; else
    ``StateError``).

    ``train_fn(ladder)`` trains ``ladder.net`` in place for the full budget
    and returns its per-epoch test accuracy, which is kept for the dense
    level; ``eval_fn(net)`` returns test accuracy.  Reported accuracy at each
    sparsity level is that of the rewound-and-retrained model.  Each
    finished level is appended to ``ladder.rounds`` as it ends, so the
    levels before an exception stay on the ladder.
    """
    if not (0.0 < rate < 1.0):
        raise ValueError(f"prune rate must lie in (0,1), got {rate}")
    net = ladder.net
    if any(p.mask is not None for p in net.prunable_parameters()):
        raise StateError("a ladder starts from a dense network; this one is already pruned")
    while True:
        curve = train_fn(ladder)
        if not ladder.rounds:
            ladder.curve = curve
        acc = eval_fn(net)
        kept = kept_count(net)
        ladder.rounds.append(RoundResult(sparsity(net), acc, kept))
        level = len(ladder.rounds) - 1
        ladder.failures = ladder.failures + 1 if level and acc < stop_threshold else 0
        if ladder.failures == CONSECUTIVE_FAILURES or level == max_rounds:
            return
        if prune_count(rate, kept) < 1:  # no whole weight left to prune
            return
        global_magnitude_prune(net, rate)
        rewind(net, ladder.theta0)
