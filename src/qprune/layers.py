"""Network layers, real and quaternion.

Quaternion activations are stored as four component planes in (r, x, y, z)
order: a vector of n quaternions is a real vector of length 4n whose first
n entries are the r components; a feature map of c quaternion channels is a
real map of 4c channels with the same plane layout.

A quaternion layer keeps one real tensor per component (w_r, w_x, w_y, w_z)
and computes the Hamilton-product arithmetic (weight on the left: o_j =
sum_i w_ji (x) x_i + b_j) in the sign pattern of ``quaternion.as_matrix``.
A quaternion conv is one ``tensor.hamilton_block`` node, which lays the
parts out as one real kernel, plus one ``conv2d``.  A quaternion linear
layer is one ``tensor.quat_linear`` node, which multiplies by the four
parts without building the block when the batch has fewer rows than the
layer has input quaternions, and ``hamilton_block`` plus ``matmul``
otherwise.  Activations use ReLU on every component, which on this
storage is the plain elementwise ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .tensor import Tensor


@dataclass
class Param:
    """One registered parameter tensor; ``prunable`` is False for biases.
    ``mask`` is a prunable tensor's keep-mask (uint8, 1 = kept), None until pruned."""

    name: str
    tensor: Tensor
    prunable: bool
    mask: np.ndarray | None = None


def _uniform(rng: np.random.Generator, bound: float, shape, dtype) -> Tensor:
    data = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)


class Layer:
    def params(self) -> list[tuple[str, Tensor, bool]]:
        return []

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError


class Linear(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, dtype=np.float32):
        self.in_dim = in_dim
        self.w = _uniform(rng, 1.0 / np.sqrt(in_dim), (in_dim, out_dim), dtype)
        self.b = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def params(self):
        return [("w", self.w, True), ("b", self.b, False)]

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.in_dim:
            raise DimensionError(f"linear fan-in {self.in_dim}, got input width {x.shape[1]}")
        return T.matmul(x, self.w, b=self.b)


class Conv2d(Layer):
    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator, dtype=np.float32):
        self.k = _uniform(rng, 1.0 / np.sqrt(in_ch * 9), (out_ch, in_ch, 3, 3), dtype)
        self.b = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True)

    def params(self):
        return [("k", self.k, True), ("b", self.b, False)]

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.k, b=self.b)


class _QuatLayer(Layer):
    """A quaternion weight kept as four real parts, ``{prefix}_r``,
    ``{prefix}_x``, ``{prefix}_y`` and ``{prefix}_z``, drawn in that order,
    plus a real bias over the 4*out_q output components."""

    prefix: str

    def __init__(self, in_q: int, out_q: int, shape: tuple, bound: float, rng: np.random.Generator, dtype):
        self.in_q = in_q
        for part in "rxyz":
            setattr(self, f"{self.prefix}_{part}", _uniform(rng, bound, shape, dtype))
        self.b = Tensor(np.zeros(4 * out_q, dtype=dtype), requires_grad=True)

    def parts(self) -> list[Tensor]:
        return [getattr(self, f"{self.prefix}_{part}") for part in "rxyz"]

    def params(self):
        weights = [(f"{self.prefix}_{part}", t, True) for part, t in zip("rxyz", self.parts())]
        return weights + [("b", self.b, False)]


class QuatLinear(_QuatLayer):
    """Fully-connected quaternion layer: in_q -> out_q quaternion neurons.

    4 * in_q * out_q weight scalars, one quaternion weight per in/out pair.
    Below in_q rows the four parts multiply the input directly; from in_q
    rows on one Hamilton block does (``tensor.quat_linear``).
    """

    prefix = "w"

    def __init__(self, in_q: int, out_q: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__(in_q, out_q, (in_q, out_q), 1.0 / np.sqrt(4 * in_q), rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != 4 * self.in_q:
            raise DimensionError(
                f"quaternion linear fan-in {self.in_q} quaternions "
                f"({4 * self.in_q} components), got input width {x.shape[1]}"
            )
        return T.quat_linear(x, self.parts(), b=self.b)


class QuatConv2d(_QuatLayer):
    """3x3 quaternion convolution over component-plane feature maps."""

    prefix = "k"

    def __init__(self, in_q: int, out_q: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__(in_q, out_q, (out_q, in_q, 3, 3), 1.0 / np.sqrt(4 * in_q * 9), rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != 4 * self.in_q:
            raise DimensionError(
                f"quaternion conv expects {self.in_q} quaternion channels "
                f"({4 * self.in_q} planes), got {x.shape[1]}"
            )
        kernel = T.hamilton_block(self.parts(), out_axis=0)  # [4*out_q, 4*in_q, 3, 3]
        return T.conv2d(x, kernel, b=self.b)


class ReLU(Layer):
    def forward(self, x: Tensor) -> Tensor:
        return T.relu(x)


class MaxPool2d(Layer):
    def forward(self, x: Tensor) -> Tensor:
        return T.maxpool2d(x)


class Flatten(Layer):
    def forward(self, x: Tensor) -> Tensor:
        return T.flatten(x)
