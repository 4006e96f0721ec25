"""Integration checks against the real distribution files (skipped when the
data directories are absent; see README for the expected layout)."""

import os

import numpy as np
import pytest

from qprune.data import load_cifar, load_mnist, scale_pixels


@pytest.fixture(scope="module")
def mnist(mnist_dir):
    return load_mnist(mnist_dir)


def test_mnist_official_counts(mnist):
    train, test = mnist
    assert len(train) == 60_000
    assert len(test) == 10_000
    assert train.images.shape == (60_000, 1, 28, 28)


def test_mnist_label_balance(mnist):
    train, _ = mnist
    hist = np.bincount(train.labels, minlength=10)
    assert np.all(np.abs(hist - 6000) <= 0.15 * 6000)


def test_mnist_pixel_range(mnist):
    train, _ = mnist
    assert (int(train.images.min()), int(train.images.max())) == (0, 255)
    scaled = scale_pixels(train.images)
    assert float(scaled.min()) == 0.0
    assert float(scaled.max()) == 1.0


def test_mnist_loads_bit_identically(mnist_dir):
    a, _ = load_mnist(mnist_dir)
    b, _ = load_mnist(mnist_dir)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_cifar10_official_counts(cifar10_dir):
    train, test = load_cifar(cifar10_dir, 10)
    assert len(train) == 50_000
    assert len(test) == 10_000
    assert train.images.shape == (50_000, 3, 32, 32)
    hist = np.bincount(train.labels, minlength=10)
    assert np.all(np.abs(hist - 5000) <= 0.15 * 5000)


def test_cifar100_official_counts(data_dir):
    d = os.path.join(data_dir, "cifar100")
    if not os.path.isdir(d):
        pytest.skip("cifar100 files not found")
    train, test = load_cifar(d, 100)
    assert len(train) == 50_000
    assert len(test) == 10_000
    assert train.num_classes == 100
    hist = np.bincount(train.labels, minlength=100)
    assert np.all(np.abs(hist - 500) <= 0.15 * 500)
