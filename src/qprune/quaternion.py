"""Scalar quaternion algebra.

A quaternion q = r + x*i + y*j + z*k is stored as four real components in
(r, x, y, z) order everywhere in this library.  The unit relations
i^2 = j^2 = k^2 = ijk = -1 fix the (non-commutative) Hamilton product, and
every quaternion has an equivalent 4x4 real matrix whose matrix-vector
product reproduces left-multiplication by q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quaternion:
    """One quaternion as four finite real components."""

    r: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("r", "x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"quaternion component {name} must be finite, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.x, self.y, self.z], dtype=np.float64)


def hamilton(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a (x) b, componentwise."""
    return Quaternion(
        a.r * b.r - a.x * b.x - a.y * b.y - a.z * b.z,
        a.r * b.x + a.x * b.r + a.y * b.z - a.z * b.y,
        a.r * b.y - a.x * b.z + a.y * b.r + a.z * b.x,
        a.r * b.z + a.x * b.y - a.y * b.x + a.z * b.r,
    )


def as_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix M(q) with M(q) @ vec(p) == vec(hamilton(q, p))."""
    r, x, y, z = q.r, q.x, q.y, q.z
    return np.array(
        [
            [r, -x, -y, -z],
            [x, r, -z, y],
            [y, z, r, -x],
            [z, -y, x, r],
        ],
        dtype=np.float64,
    )


def norm(q: Quaternion) -> float:
    """Euclidean norm sqrt(r^2 + x^2 + y^2 + z^2).

    Test utility only; no layer computes quaternion norms.
    """
    return math.sqrt(q.r * q.r + q.x * q.x + q.y * q.y + q.z * q.z)
