"""Tape ops that only the tests use: they build test losses and the
``concat``/``neg`` assembly that is the bitwise reference for
``tensor.hamilton_block``.

They follow the engine's hand-over rule (``Tensor._accum_grad``): each
parent is handed an array that it alone holds, so an op that gives one
buffer to several parents copies it for each.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qprune.errors import DimensionError
from qprune.tensor import Tensor, _as_tensor, _maybe_record


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data + b.data)

    def backward(g):
        if a._needs_grad():
            a._accum_grad(g.copy())
        if b._needs_grad():
            b._accum_grad(g.copy())

    return _maybe_record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data * b.data)

    def backward(g):
        if a._needs_grad():
            a._accum_grad(g * b.data)
        if b._needs_grad():
            b._accum_grad(g * a.data)

    return _maybe_record(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def backward(g):
        a._accum_grad(-g)

    return _maybe_record(out, (a,), backward)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * a.data.dtype.type(c))

    def backward(g):
        a._accum_grad(g * a.data.dtype.type(c))

    return _maybe_record(out, (a,), backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p._needs_grad():
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accum_grad(g[tuple(idx)].copy())

    return _maybe_record(out, parts, backward)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(a.data.sum())

    def backward(g):
        a._accum_grad(np.broadcast_to(g, a.shape).copy())

    return _maybe_record(out, (a,), backward)
