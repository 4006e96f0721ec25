"""Adam optimizer with per-parameter moment buffers that honours pruning masks."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionError, StateError

FLUSH_EVERY = 64  # steps between flushes of moment entries that would decay into subnormals


class Adam:
    """Standard Adam with bias correction.

    A parameter's pruning mask (``Param.mask``), where set, is read once, when
    the optimizer is built: its masked values are set to 0 then, and at every
    step its masked gradient entries are, so their moments stay 0, their
    update is exactly 0 and pruned weights keep their bits through retraining.
    A step raises ``StateError`` if a parameter's mask was replaced since.

    A step updates ``m``, ``v`` and the parameters in place and allocates no
    arrays: its temporaries live in two flat scratch buffers per dtype, as
    long as the largest parameter of that dtype, reused by every parameter as
    reshaped views.  The operations keep the order of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*(g*g)``, ``p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``,
    so results are bit-identical to that expression, in the parameter's
    dtype.  ``.grad`` is read, never written into, and reset to ``None``.

    A dead ReLU unit's zero gradients decay its moments into float32
    subnormals, where arithmetic is several times slower.  So every
    ``FLUSH_EVERY`` steps the entries of ``m`` below ``tiny / (beta1**64 *
    min(lr, 1))`` and of ``v`` below ``tiny / beta2**64`` are set to +0, which
    keeps every other entry, and ``lr * (m/bc1)``, normal until the next flush.
    A flushed ``m`` entry would have moved its weight by under 1e-27, and a
    flushed ``v`` entry leaves ``sqrt(v/bc2) + eps`` unchanged.
    """

    def __init__(
        self,
        params: Sequence,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.masks = [p.mask for p in self.params]
        for p, pm in zip(self.params, self.masks):
            if pm is not None:
                if pm.shape != p.tensor.data.shape:
                    raise DimensionError(f"adam: mask shape {pm.shape} does not match parameter {p.name} "
                                         f"shape {p.tensor.data.shape}")
                p.tensor.data *= pm
        self.m = [np.zeros_like(p.tensor.data) for p in self.params]
        self.v = [np.zeros_like(p.tensor.data) for p in self.params]
        longest: dict[np.dtype, int] = {}
        for m in self.m:
            longest[m.dtype] = max(longest.get(m.dtype, 0), m.size)
        flat = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in longest.items()}
        for dt, (_, s2) in flat.items():  # a flush's flags live in the second buffer's bytes
            flat[dt] += (s2.view(np.bool_),)
        self._scratch = [
            tuple(buf[: m.size].reshape(m.shape) for buf in flat[m.dtype]) for m in self.m
        ]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        flush = self.t % FLUSH_EVERY == 0
        for p, pm, m, v, (s1, s2, below) in zip(self.params, self.masks, self.m, self.v, self._scratch):
            t = p.tensor
            g = t.grad
            if g is None:
                g = s1
                g.fill(0)
            if g.shape != t.data.shape or m.shape != t.data.shape:
                raise DimensionError(
                    f"adam: gradient/state shape {g.shape} does not match parameter "
                    f"{p.name} shape {t.data.shape}"
                )
            if p.mask is not pm:
                raise StateError(f"adam: the mask of {p.name} was replaced after the optimizer was built")
            if pm is not None:
                g = np.multiply(g, pm, out=s1)
            np.multiply(g, 1.0 - b1, out=s2)
            m *= b1
            m += s2
            np.multiply(g, g, out=s2)
            s2 *= 1.0 - b2
            v *= b2
            v += s2
            # g (possibly in s1) is dead from here on.
            update = np.divide(m, bc1, out=s1)
            update *= self.lr
            denom = np.divide(v, bc2, out=s2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            t.data -= update
            t.grad = None
            if flush:
                tiny = np.finfo(m.dtype).tiny
                floors = tiny / b1**FLUSH_EVERY / min(self.lr, 1.0), tiny / b2**FLUSH_EVERY
                for moment, floor in zip((m, v), floors):
                    np.less(np.abs(moment, out=s1), floor, out=below)
                    np.copyto(moment, 0, where=below)
