"""Network layers, real and quaternion.

Quaternion activations are stored as four component planes in (r, x, y, z)
order: a vector of n quaternions is a real vector of length 4n whose first
n entries are the r components; a feature map of c quaternion channels is a
real map of 4c channels with the same plane layout.

A quaternion layer keeps one real tensor per component (w_r, w_x, w_y, w_z).
One ``tensor.hamilton_block`` node lays them out in the sign pattern of
``quaternion.as_matrix``, so a single real matmul/conv performs the
Hamilton-product arithmetic (weight on the left: o_j = sum_i w_ji (x) x_i
+ b_j), and its backward sums each component's four signed gradient blocks.
Activations use ReLU on every component, which on this storage is the
plain elementwise ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .tensor import Tensor


@dataclass
class Param:
    """One registered parameter tensor; ``prunable`` is False for biases."""

    name: str
    tensor: Tensor
    prunable: bool


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
        self.in_dim, self.out_dim = in_dim, out_dim
        self.w = _uniform(rng, 1.0 / np.sqrt(in_dim), (in_dim, out_dim), dtype)
        self.b = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def params(self):
        return [("w", self.w, True), ("b", self.b, False)]

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.in_dim:
            raise DimensionError(f"linear fan-in {self.in_dim}, got input width {x.shape[1]}")
        return T.bias_add(T.matmul(x, self.w), self.b)


class Conv2d(Layer):
    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator, dtype=np.float32):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.k = _uniform(rng, 1.0 / np.sqrt(in_ch * 9), (out_ch, in_ch, 3, 3), dtype)
        self.b = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True)

    def params(self):
        return [("k", self.k, True), ("b", self.b, False)]

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.k, b=self.b)


class QuatLinear(Layer):
    """Fully-connected quaternion layer: in_q -> out_q quaternion neurons.

    4 * in_q * out_q weight scalars, one quaternion weight per in/out pair.
    The bias is a plain real vector over the 4*out_q output components.
    """

    def __init__(self, in_q: int, out_q: int, rng: np.random.Generator, dtype=np.float32):
        self.in_q, self.out_q = in_q, out_q
        bound = 1.0 / np.sqrt(4 * in_q)
        self.w_r = _uniform(rng, bound, (in_q, out_q), dtype)
        self.w_x = _uniform(rng, bound, (in_q, out_q), dtype)
        self.w_y = _uniform(rng, bound, (in_q, out_q), dtype)
        self.w_z = _uniform(rng, bound, (in_q, out_q), dtype)
        self.b = Tensor(np.zeros(4 * out_q, dtype=dtype), requires_grad=True)

    def params(self):
        return [
            ("w_r", self.w_r, True),
            ("w_x", self.w_x, True),
            ("w_y", self.w_y, True),
            ("w_z", self.w_z, True),
            ("b", self.b, False),
        ]

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != 4 * self.in_q:
            raise DimensionError(
                f"quaternion linear fan-in {self.in_q} quaternions "
                f"({4 * self.in_q} components), got input width {x.shape[1]}"
            )
        weight = T.hamilton_block([self.w_r, self.w_x, self.w_y, self.w_z], out_axis=1)  # [4*in_q, 4*out_q]
        return T.bias_add(T.matmul(x, weight), self.b)


class QuatConv2d(Layer):
    """3x3 quaternion convolution over component-plane feature maps."""

    def __init__(self, in_q: int, out_q: int, rng: np.random.Generator, dtype=np.float32):
        self.in_q, self.out_q = in_q, out_q
        bound = 1.0 / np.sqrt(4 * in_q * 9)
        shape = (out_q, in_q, 3, 3)
        self.k_r = _uniform(rng, bound, shape, dtype)
        self.k_x = _uniform(rng, bound, shape, dtype)
        self.k_y = _uniform(rng, bound, shape, dtype)
        self.k_z = _uniform(rng, bound, shape, dtype)
        self.b = Tensor(np.zeros(4 * out_q, dtype=dtype), requires_grad=True)

    def params(self):
        return [
            ("k_r", self.k_r, True),
            ("k_x", self.k_x, True),
            ("k_y", self.k_y, True),
            ("k_z", self.k_z, True),
            ("b", self.b, False),
        ]

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != 4 * self.in_q:
            raise DimensionError(
                f"quaternion conv expects {self.in_q} quaternion channels "
                f"({4 * self.in_q} planes), got {x.shape[1]}"
            )
        kernel = T.hamilton_block([self.k_r, self.k_x, self.k_y, self.k_z], out_axis=0)  # [4*out_q, 4*in_q, 3, 3]
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
