"""Dense real tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array.  Operations executed while a ``Tape`` is
active record a backward rule in execution order; ``Tape.backward(loss)``
walks the record in reverse and accumulates gradients into every tensor
that needs one.  Scalar precision is whatever dtype the tensors carry:
float32 for training runs, float64 for gradient and property tests.

With no active tape, the same operations run in inference mode and record
nothing.  A tape and its tensors belong to a single training context; the
active tape is tracked per-context (contextvars), so independent trials in
separate threads never share state.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, StateError
from .quaternion import Quaternion, as_matrix

_ACTIVE_TAPE: ContextVar[Optional["Tape"]] = ContextVar("qprune_active_tape", default=None)


class Tensor:
    """Dense row-major real tensor, optionally differentiable."""

    __slots__ = ("data", "grad", "requires_grad", "_recorded")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._recorded = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def _needs_grad(self) -> bool:
        return self.requires_grad or self._recorded

    def _accum_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``.grad``.  A first contribution is kept as it is,
        converted only to this tensor's dtype, and later ones are added to it
        in place.  So ``g`` must belong to this parent alone: fresh, or the
        node's own ``out.grad`` (or a view of it), which nothing reads once
        the node's backward has run.  An op that hands one buffer to several
        parents copies it first."""
        if self.grad is None:
            self.grad = g if g.dtype == self.data.dtype else g.astype(self.data.dtype)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Execution-order record of differentiable operations.

    Ops append themselves during the forward pass, so the record is already
    topologically ordered.  One backward traversal consumes the record; a
    second call without a new forward raises ``StateError``.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._token = None

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.reset(self._token)
        self._token = None

    def _record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        out._recorded = True
        self._nodes.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every tensor reaching ``loss``; clears the tape."""
        if not self._nodes:
            raise StateError("backward called without a recorded forward pass")
        if loss.data.shape != ():
            raise DimensionError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        if not loss._recorded:
            raise StateError("loss tensor was not produced under this tape")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for out, backward_fn in reversed(self._nodes):
            g = out.grad
            if g is None:
                continue  # dead branch
            backward_fn(g)
        for out, _ in self._nodes:
            out._recorded = False
            out.grad = None
        self._nodes.clear()


def active_tape() -> Optional[Tape]:
    return _ACTIVE_TAPE.get()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _maybe_record(out: Tensor, parents: Sequence[Tensor], backward_fn) -> Tensor:
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(p._needs_grad() for p in parents):
        tape._record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x) as x * (x > 0); derivative 0 at x == 0.

    A negative x gives -0.0, which compares and sums like 0.0; -inf and NaN
    give NaN, so a diverged activation is not hidden.
    """
    mask = a.data > 0
    out = Tensor(a.data * mask)

    def backward(g):
        a._accum_grad(g * mask)

    return _maybe_record(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError as e:
        raise DimensionError(f"reshape: cannot view {a.shape} as {tuple(shape)}") from e

    def backward(g):
        a._accum_grad(g.reshape(a.shape))

    return _maybe_record(out, (a,), backward)


def flatten(a: Tensor) -> Tensor:
    """Collapse all but the leading (batch) axis, row-major."""
    return reshape(a, (a.shape[0], int(np.prod(a.shape[1:]))))


# Block (out, in) of the Hamilton matrix is sign * w_c.  Both come from
# ``as_matrix`` at the four unit quaternions, the one source of the sign
# pattern: _UNIT_MATRICES[c, out, in] is the coefficient of component c.
_UNIT_MATRICES = np.stack([as_matrix(Quaternion(*e)) for e in np.eye(4)])
_COMPONENT = np.abs(_UNIT_MATRICES).argmax(axis=0)
_SIGN = _UNIT_MATRICES.sum(axis=0).astype(int)
# (component, sign) of block (a, b) per out_axis, as Python ints so that a
# sign never promotes float32 data to float64.
_BLOCK_TABLES = {
    0: (_COMPONENT.tolist(), _SIGN.tolist()),
    1: (_COMPONENT.T.tolist(), _SIGN.T.tolist()),
}


def hamilton_block(parts: Sequence[Tensor], out_axis: int) -> Tensor:
    """Real block form of a quaternion weight from its (r, x, y, z) parts.

    The four parts share one shape; the result has axes 0 and 1 four times
    longer, and ``out_axis`` (0 or 1) names the one that indexes output
    components.  Block (a, b) along them is sign * part[c], with (c, sign)
    taken from ``as_matrix`` at (out, in) = (a, b) when out_axis is 0 and
    (b, a) when it is 1.
    """
    parts = [_as_tensor(p) for p in parts]
    shapes = [p.shape for p in parts]
    if len(parts) != 4 or len(shapes[0]) < 2 or len(set(shapes)) != 1:
        raise DimensionError(f"hamilton_block needs four parts of one shape, got {shapes}")
    if out_axis not in _BLOCK_TABLES:
        raise DimensionError(f"hamilton_block: out_axis must be 0 or 1, got {out_axis}")
    component, sign = _BLOCK_TABLES[out_axis]
    s0, s1, *rest = shapes[0]
    split = (4, s0, 4, s1, *rest)  # block (a, b) is [a, :, b]
    data = np.empty((4 * s0, 4 * s1, *rest), dtype=parts[0].dtype)
    blocks = data.reshape(split)
    for a in range(4):
        for b in range(4):
            np.multiply(parts[component[a][b]].data, sign[a][b], out=blocks[a, :, b])
    out = Tensor(data)

    def backward(g):
        gb = g.reshape(split)
        sums: list[Optional[np.ndarray]] = [None] * 4
        # Each component occurs once per a.  Summing a = 3, 2, 1, 0 gives the
        # same float32 bits as building the block from concat and neg nodes
        # row by row, whose last row the tape visits first.
        for a in (3, 2, 1, 0):
            for b in range(4):
                c, blk = component[a][b], gb[a, :, b]
                if sums[c] is None:
                    sums[c] = blk * sign[a][b]
                elif sign[a][b] > 0:
                    sums[c] += blk
                else:
                    sums[c] -= blk
        for p, s in zip(parts, sums):
            if p._needs_grad():
                p._accum_grad(s)

    return _maybe_record(out, parts, backward)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a bias vector over the batch: [N,D]+[D].  A conv adds its
    bias itself (``conv2d(..., b=)``)."""
    x, b = _as_tensor(x), _as_tensor(b)
    if b.data.ndim != 1:
        raise DimensionError(f"bias must be a vector, got shape {b.shape}")
    if x.data.ndim != 2:
        raise DimensionError(f"bias_add supports 2-D inputs, got shape {x.shape}")
    if x.shape[1] != b.shape[0]:
        raise DimensionError(f"bias length {b.shape[0]} does not match feature size {x.shape[1]}")
    out = Tensor(x.data + b.data)

    def backward(g):
        if x._needs_grad():
            x._accum_grad(g)
        if b._needs_grad():
            b._accum_grad(g.sum(axis=0))

    return _maybe_record(out, (x, b), backward)


# ---------------------------------------------------------------------------
# matmul / conv / pooling


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a._needs_grad():
            a._accum_grad(g @ b.data.T)
        if b._needs_grad():
            b._accum_grad(a.data.T @ g)

    return _maybe_record(out, (a, b), backward)


# Columns per block of the conv's GEMMs.  On the 64->64 conv at batch 60
# (2 vCPU, OpenBLAS), widths of 1024, 8192 and 16384 measured slower.
CONV_BLOCK = 4096


def _block_width(p: int) -> int:
    """Columns per block for a [C, p] padded input: CONV_BLOCK, capped at
    ceil(p / 9) so that a [9C, width] patch block is no larger than it."""
    return max(1, min(CONV_BLOCK, -(-p // 9)))


def conv2d(x: Tensor, k: Tensor, *, b: Optional[Tensor] = None) -> Tensor:
    """3x3 cross-correlation plus optional bias ``b``, stride 1, zero-padding 1.

    Same-padding is fixed: it keeps H x W through every conv so the pooled
    feature counts line up with the fully-connected fan-ins.

    The input is padded once into a channel-major [C, P] buffer, P =
    N*(H+2)*(W+2).  Output pixel (n, y, x) sits at column q = n*(H+2)*(W+2)
    + y*(W+2) + x of a [F, P] result, and tap (i, j) reads the buffer at
    column q + i*(W+2) + j, so each tap is a contiguous column window of
    length L = P - 2*(W+2) - 2.  Columns whose y >= H or x >= W are computed
    and dropped.  The length is walked in blocks of ``_block_width(P)``
    columns: the nine windows of a block are copied into one reused
    [9C, width] patch matrix, and each pass is one GEMM per block.
    """
    x, k = _as_tensor(x), _as_tensor(k)
    if x.data.ndim != 4:
        raise DimensionError(f"conv2d input must be [N,C,H,W], got shape {x.shape}")
    if k.data.ndim != 4 or k.shape[2:] != (3, 3):
        raise DimensionError(f"conv2d kernel must be [F,C,3,3], got shape {k.shape}")
    n, c, h, w = x.shape
    f, ck = k.shape[0], k.shape[1]
    if ck != c:
        raise DimensionError(f"conv2d: input has {c} channels but kernel expects {ck}")
    if b is not None and b.shape != (f,):
        raise DimensionError(f"conv2d: bias must have shape ({f},), got {b.shape}")
    parents = (x, k) if b is None else (x, k, b)
    dtype = np.result_type(*(t.data for t in parents))
    xp = np.zeros((c, n, h + 2, w + 2), dtype=dtype)
    xp[:, :, 1:-1, 1:-1] = x.data.transpose(1, 0, 2, 3)
    xp = xp.reshape(c, -1)
    p = xp.shape[1]
    offsets = [i * (w + 2) + j for i in range(3) for j in range(3)]  # tap t = 3i + j
    span = max(p - offsets[-1], 0)  # 0 only for an empty batch
    width = _block_width(p)
    blocks = [(lo, min(lo + width, span)) for lo in range(0, span, width)]
    kmat = k.data.astype(dtype, copy=False).transpose(0, 2, 3, 1).reshape(f, 9 * c)  # [o, t*C + ci]
    cols = np.empty((9 * c, width), dtype=dtype)

    def patches(lo: int, hi: int) -> np.ndarray:
        """The [9C, hi - lo] patch matrix of columns lo:hi, in ``cols``."""
        for t, off in enumerate(offsets):
            cols[t * c : (t + 1) * c, : hi - lo] = xp[:, lo + off : hi + off]
        return cols[:, : hi - lo]

    yp = np.empty((f, p), dtype=dtype)  # columns from span on are never read
    for lo, hi in blocks:
        np.matmul(kmat, patches(lo, hi), out=yp[:, lo:hi])
    out = np.empty((n, f, h, w), dtype=dtype)
    valid = yp.reshape(f, n, h + 2, w + 2)[:, :, :h, :w]
    if b is None:
        out.transpose(1, 0, 2, 3)[...] = valid
    else:
        np.add(valid, b.data[:, None, None, None], out=out.transpose(1, 0, 2, 3))
    out = Tensor(out)

    def backward(g):
        if b is not None and b._needs_grad():
            b._accum_grad(g.sum(axis=(0, 2, 3)))
        gp = np.zeros((f, n, h + 2, w + 2), dtype=dtype)
        gp[:, :, :h, :w] = g.transpose(1, 0, 2, 3)
        gq = gp.reshape(f, p)
        if k._needs_grad():
            gk = np.zeros((9 * c, f), dtype=dtype)
            part = np.empty_like(gk)  # reused: a product allocated per block fragments the heap
            for lo, hi in blocks:
                gk += np.matmul(patches(lo, hi), gq[:, lo:hi].T, out=part)
            k._accum_grad(gk.reshape(3, 3, c, f).transpose(3, 2, 0, 1).copy())
        if x._needs_grad():
            gxp = np.zeros((c, p), dtype=dtype)
            for lo, hi in blocks:  # the patch buffer holds each block's input gradient
                gblock = np.matmul(kmat.T, gq[:, lo:hi], out=cols[:, : hi - lo])
                for t, off in enumerate(offsets):
                    gxp[:, lo + off : hi + off] += gblock[t * c : (t + 1) * c]
            gx = gxp.reshape(c, n, h + 2, w + 2)[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3).copy()
            x._accum_grad(gx)

    return _maybe_record(out, parents, backward)


# Window position t of a 2x2 pool, in row-major order.
_WINDOW = [(0, 0), (0, 1), (1, 0), (1, 1)]


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; gradient goes to the first max per window
    in row-major window order."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise DimensionError(f"maxpool2d input must be [N,C,H,W], got shape {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2d needs even spatial extents, got {h}x{w}")
    v0, v1, v2, v3 = (x.data[:, :, i::2, j::2] for i, j in _WINDOW)
    best = np.maximum(np.maximum(v0, v1), np.maximum(v2, v3))
    out = Tensor(best)

    def backward(g):
        # First window position holding the max, from m_t = (v_t != max) as
        # int8: m0 * (1 + m1 * (1 + m2)) is 0, 1, 2 or 3.  Found here, not in
        # the forward pass, so inference does not pay for it.
        m0, m1, m2 = ((v != best).view(np.int8) for v in (v0, v1, v2))
        argmax = m0 * (1 + m1 * (1 + m2))
        gx = np.empty(x.shape, dtype=g.dtype)
        for t, (i, j) in enumerate(_WINDOW):
            np.multiply(g, argmax == t, out=gx[:, :, i::2, j::2])
        x._accum_grad(gx)

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    Stabilized by row-max subtraction.  Gradient: (softmax - onehot) / N.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise DimensionError(f"logits must be [N,C], got shape {logits.shape}")
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    out = Tensor(-logp[np.arange(n), labels].mean())

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1
        logits._accum_grad(g * p / logits.data.dtype.type(n))

    return _maybe_record(out, (logits,), backward)
