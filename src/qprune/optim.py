"""Adam optimizer with per-parameter moment buffers and mask support."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DimensionError


class Adam:
    """Standard Adam with bias correction.

    When a mask is supplied to :meth:`step`, gradients and parameter values
    at masked positions are forced to zero, so pruned weights stay exactly 0
    through retraining (their moment buffers never accumulate either).

    A step updates ``m``, ``v`` and the parameters in place and allocates no
    arrays: its temporaries live in two flat scratch buffers per dtype, as
    long as the largest parameter of that dtype, reused by every parameter as
    reshaped views.  The operations keep the order of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*(g*g)``, ``p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``,
    so results are bit-identical to that expression, in the parameter's
    dtype.  ``.grad`` is read, never written into, and reset to ``None``.
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
        self.m = [np.zeros_like(p.tensor.data) for p in self.params]
        self.v = [np.zeros_like(p.tensor.data) for p in self.params]
        longest: dict[np.dtype, int] = {}
        for m in self.m:
            longest[m.dtype] = max(longest.get(m.dtype, 0), m.size)
        flat = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in longest.items()}
        self._scratch = [
            tuple(buf[: m.size].reshape(m.shape) for buf in flat[m.dtype]) for m in self.m
        ]

    def step(self, mask: Optional[Mapping[str, np.ndarray]] = None) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v, (s1, s2) in zip(self.params, self.m, self.v, self._scratch):
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
            pm = mask.get(p.name) if mask is not None else None
            if pm is not None:
                if pm.shape != t.data.shape:
                    raise DimensionError(
                        f"adam: mask shape {pm.shape} does not match parameter "
                        f"{p.name} shape {t.data.shape}"
                    )
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
            if pm is not None:
                t.data *= pm
            t.grad = None
