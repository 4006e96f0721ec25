"""Learnable synthetic MNIST- and CIFAR-shaped datasets, written in the
published file formats so that ``qprune.data`` parses them unchanged.

Every image is ``0.5 + contrast * (basis . z) + pixel noise``, quantized to
u8, where ``z`` is drawn from a ten-class Gaussian mixture in a small latent
space: class ``c`` has mean ``means[c]`` and unit covariance.  The class
means overlap, so even the Bayes-optimal classifier errs on a fixed share of
images; ``SEPARATION`` sets that share so that dense accuracy lands near
0.8-0.9 instead of saturating at 1.0.  The latent basis is smooth (upsampled
from a coarse grid), which a convolution stack learns as easily as a
fully-connected one.  One seed fixes the basis, the means and every sample.
"""

from __future__ import annotations

import os
import struct

import numpy as np

CLASSES = 10
LATENT_DIM = 12
SEPARATION = 2.9  # class-mean distance / sqrt(2), in latent units; noise std is 1
CONTRAST = 0.06  # pixel amplitude of one latent unit
PIXEL_NOISE = 0.05
CHUNK = 5000  # images generated at a time, to bound memory

MNIST_SHAPE, MNIST_COARSE = (1, 28, 28), 7
CIFAR_SHAPE, CIFAR_COARSE = (3, 32, 32), 8


class Mixture:
    """The seeded class-conditional image distribution for one image shape."""

    def __init__(self, rng: np.random.Generator, shape: tuple[int, int, int], coarse: int):
        c, h, w = shape
        grid = rng.standard_normal((LATENT_DIM, c, coarse, coarse))
        basis = grid.repeat(h // coarse, axis=2).repeat(w // coarse, axis=3)
        basis /= np.sqrt((basis**2).mean(axis=(1, 2, 3), keepdims=True))
        self.basis = basis.reshape(LATENT_DIM, -1).astype(np.float32)
        # A regular simplex in a random orientation: every pair of classes is
        # equally far apart, so the Bayes error does not depend on the seed.
        simplex = np.eye(CLASSES, LATENT_DIM) - np.eye(CLASSES, LATENT_DIM).mean(axis=0)
        rotation, _ = np.linalg.qr(rng.standard_normal((LATENT_DIM, LATENT_DIM)))
        self.means = (SEPARATION * simplex @ rotation).astype(np.float32)
        self.shape = shape

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` u8 images ``[n, C, H, W]`` and their labels."""
        labels = rng.integers(0, CLASSES, size=n)
        z = self.means[labels] + rng.standard_normal((n, LATENT_DIM), dtype=np.float32)
        pixels = 0.5 + CONTRAST * (z @ self.basis)
        pixels += rng.standard_normal(pixels.shape, dtype=np.float32) * PIXEL_NOISE
        images = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
        return images.reshape((n,) + self.shape), labels.astype(np.uint8)


def _chunks(mix: Mixture, rng: np.random.Generator, n: int):
    for lo in range(0, n, CHUNK):
        yield mix.sample(rng, min(CHUNK, n - lo))


def _write_idx(directory: str, stem: str, mix: Mixture, rng, n: int) -> None:
    _, h, w = mix.shape
    with open(os.path.join(directory, f"{stem}-images-idx3-ubyte"), "wb") as fi, open(
        os.path.join(directory, f"{stem}-labels-idx1-ubyte"), "wb"
    ) as fl:
        fi.write(struct.pack(">iiii", 2051, n, h, w))
        fl.write(struct.pack(">ii", 2049, n))
        for images, labels in _chunks(mix, rng, n):
            fi.write(images.tobytes())
            fl.write(labels.tobytes())


def write_mnist(directory: str, seed: int, n_train: int, n_test: int) -> None:
    """The four MNIST IDX files, train and test drawn from one mixture."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    mix = Mixture(rng, MNIST_SHAPE, MNIST_COARSE)
    _write_idx(directory, "train", mix, rng, n_train)
    _write_idx(directory, "t10k", mix, rng, n_test)


def _write_cifar_batch(path: str, mix: Mixture, rng, n: int) -> None:
    with open(path, "wb") as f:
        for images, labels in _chunks(mix, rng, n):
            records = np.concatenate([labels[:, None], images.reshape(len(labels), -1)], axis=1)
            f.write(records.tobytes())


def write_cifar10(directory: str, seed: int, n_per_batch: int, n_test: int) -> None:
    """``data_batch_1..5.bin`` and ``test_batch.bin`` in 3073-byte records."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    mix = Mixture(rng, CIFAR_SHAPE, CIFAR_COARSE)
    for i in range(1, 6):
        _write_cifar_batch(os.path.join(directory, f"data_batch_{i}.bin"), mix, rng, n_per_batch)
    _write_cifar_batch(os.path.join(directory, "test_batch.bin"), mix, rng, n_test)
