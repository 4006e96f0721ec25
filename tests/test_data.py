import gzip
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_mnist_files, write_idx_images, write_idx_labels
from qprune.data import (
    Dataset,
    add_grayscale_channel,
    load_cifar,
    load_mnist,
    split_train_validation,
)
from qprune.errors import DataFormatError, DimensionError


# ---------------------------------------------------------------------------
# MNIST IDX


def test_load_mnist_synthetic_roundtrip(tmp_path):
    make_mnist_files(tmp_path, n_train=50, n_test=20)
    train, test = load_mnist(str(tmp_path))
    assert len(train) == 50 and len(test) == 20
    assert train.images.shape == (50, 1, 28, 28)
    assert train.images.dtype == np.float32
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0
    assert train.num_classes == 10


def test_idx_pixel_scaling_is_exact(tmp_path):
    images = np.zeros((1, 28, 28), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[0, 0, 1] = 51
    write_idx_images(tmp_path / "train-images-idx3-ubyte", images)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.array([3], dtype=np.uint8))
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", images)
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", np.array([7], dtype=np.uint8))
    train, _ = load_mnist(str(tmp_path))
    assert train.images[0, 0, 0, 0] == np.float32(1.0)
    assert train.images[0, 0, 0, 1] == np.float32(51 / 255)
    assert train.labels[0] == 3


def test_gzip_idx_files_accepted(tmp_path):
    make_mnist_files(tmp_path, n_train=10, n_test=5)
    for name in os.listdir(tmp_path):
        raw = (tmp_path / name).read_bytes()
        with gzip.open(tmp_path / (name + ".gz"), "wb") as f:
            f.write(raw)
        os.unlink(tmp_path / name)
    train, test = load_mnist(str(tmp_path))
    assert len(train) == 10 and len(test) == 5


def test_zero_magic_rejected_at_offset_zero(tmp_path):
    p = tmp_path / "train-images-idx3-ubyte"
    p.write_bytes(struct.pack(">iiii", 0, 1, 28, 28) + bytes(784))
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(1, dtype=np.uint8))
    with pytest.raises(DataFormatError, match=r"offset 0"):
        load_mnist(str(tmp_path))


def test_truncated_idx_payload_rejected(tmp_path):
    p = tmp_path / "train-images-idx3-ubyte"
    p.write_bytes(struct.pack(">iiii", 2051, 2, 28, 28) + bytes(784))  # one image missing
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(2, dtype=np.uint8))
    with pytest.raises(DataFormatError, match="mismatch"):
        load_mnist(str(tmp_path))


def test_image_label_count_mismatch_rejected(tmp_path):
    make_mnist_files(tmp_path, n_train=10, n_test=5)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(9, dtype=np.uint8))
    with pytest.raises(DataFormatError, match="labels"):
        load_mnist(str(tmp_path))


def test_missing_file_reported(tmp_path):
    with pytest.raises(DataFormatError, match="missing"):
        load_mnist(str(tmp_path))


def test_empty_mnist_split_rejected(tmp_path):
    make_mnist_files(tmp_path, n_train=10, n_test=0)
    with pytest.raises(DataFormatError, match="t10k-images-idx3-ubyte: no images"):
        load_mnist(str(tmp_path))


# ---------------------------------------------------------------------------
# CIFAR binaries


def write_cifar10_batch(path, n, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        label = np.uint8(i % 10)
        pixels = rng.integers(0, 256, 3072, dtype=np.uint8)
        records.append(bytes([label]) + pixels.tobytes())
    path.write_bytes(b"".join(records))


def make_cifar10_files(directory, per_batch=6):
    os.makedirs(directory, exist_ok=True)
    for b in range(1, 6):
        write_cifar10_batch(directory / f"data_batch_{b}.bin", per_batch, seed=b)
    write_cifar10_batch(directory / "test_batch.bin", per_batch, seed=9)


def test_load_cifar10_synthetic(tmp_path):
    make_cifar10_files(tmp_path, per_batch=4)
    train, test = load_cifar(str(tmp_path), 10)
    assert len(train) == 20 and len(test) == 4
    assert train.images.shape == (20, 3, 32, 32)
    assert train.num_classes == 10


def test_cifar10_channel_major_layout(tmp_path):
    pixels = np.zeros(3072, dtype=np.uint8)
    pixels[0] = 255      # R plane, first pixel
    pixels[1024] = 128   # G plane
    pixels[2048] = 64    # B plane
    (tmp_path / "data_batch_1.bin").write_bytes(bytes([5]) + pixels.tobytes())
    for b in range(2, 6):
        write_cifar10_batch(tmp_path / f"data_batch_{b}.bin", 1)
    write_cifar10_batch(tmp_path / "test_batch.bin", 1)
    train, _ = load_cifar(str(tmp_path), 10)
    assert train.labels[0] == 5
    assert train.images[0, 0, 0, 0] == np.float32(1.0)
    assert train.images[0, 1, 0, 0] == np.float32(128 / 255)
    assert train.images[0, 2, 0, 0] == np.float32(64 / 255)


def test_cifar100_fine_label_is_second_byte(tmp_path):
    rng = np.random.default_rng(0)
    recs = []
    for i in range(4):
        coarse, fine = np.uint8(19), np.uint8(37 + i)
        recs.append(bytes([coarse, fine]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
    (tmp_path / "train.bin").write_bytes(b"".join(recs))
    (tmp_path / "test.bin").write_bytes(recs[0])
    train, test = load_cifar(str(tmp_path), 100)
    np.testing.assert_array_equal(train.labels, [37, 38, 39, 40])
    assert train.num_classes == 100


def test_truncated_cifar_record_rejected(tmp_path):
    make_cifar10_files(tmp_path, per_batch=2)
    full = (tmp_path / "data_batch_1.bin").read_bytes()
    (tmp_path / "data_batch_1.bin").write_bytes(full[:-100])
    with pytest.raises(DataFormatError, match="3073"):
        load_cifar(str(tmp_path), 10)


def test_empty_cifar_split_rejected(tmp_path):
    make_cifar10_files(tmp_path, per_batch=2)
    (tmp_path / "test_batch.bin").write_bytes(b"")
    with pytest.raises(DataFormatError, match="test_batch.bin: no images"):
        load_cifar(str(tmp_path), 10)


def test_cifar_nested_directory_convention(tmp_path):
    make_cifar10_files(tmp_path / "cifar-10-batches-bin", per_batch=2)
    train, test = load_cifar(str(tmp_path), 10)
    assert len(train) == 10


# ---------------------------------------------------------------------------
# grayscale channel


def test_grayscale_of_gray_pixel_is_itself():
    img = np.full((3, 2, 2), 0.42, dtype=np.float32)
    out = add_grayscale_channel(img)
    np.testing.assert_allclose(out[3], np.full((2, 2), 0.42), rtol=1e-6)


def test_grayscale_of_pure_red():
    img = np.zeros((3, 1, 1), dtype=np.float64)
    img[0, 0, 0] = 0.8
    out = add_grayscale_channel(img)
    assert out[3, 0, 0] == pytest.approx(0.299 * 0.8)


def test_grayscale_keeps_original_channels():
    rng = np.random.default_rng(1)
    img = rng.random((3, 4, 4))
    out = add_grayscale_channel(img)
    np.testing.assert_array_equal(out[:3], img)


def test_grayscale_batched():
    rng = np.random.default_rng(2)
    imgs = rng.random((5, 3, 4, 4)).astype(np.float32)
    out = add_grayscale_channel(imgs)
    assert out.shape == (5, 4, 4, 4)
    assert out.dtype == np.float32


def test_grayscale_wrong_channel_count():
    with pytest.raises(DimensionError):
        add_grayscale_channel(np.zeros((4, 2, 2)))


@settings(max_examples=200)
@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=3))
def test_grayscale_is_convex_combination(rgb):
    img = np.array(rgb).reshape(3, 1, 1)
    gray = add_grayscale_channel(img)[3, 0, 0]
    assert min(rgb) - 1e-9 <= gray <= max(rgb) + 1e-9
    assert 0.0 <= gray <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# train/validation split


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, 1, 4, 4), dtype=np.float32), (np.arange(n) % 10).astype(np.int64), 10)


def test_split_size_zero_is_identity():
    ds = make_dataset(20)
    train, val = split_train_validation(ds, 0, seed=1)
    assert len(val) == 0
    np.testing.assert_array_equal(train.images, ds.images)


def test_split_5000_is_disjoint(tmp_path):
    ds = make_dataset(60)
    train, val = split_train_validation(ds, 15, seed=2)
    assert len(train) == 45 and len(val) == 15
    # disjointness via unique image fingerprints
    fp = lambda d: {bytes(img) for img in d.images.reshape(len(d), -1).view(np.uint8)}
    assert not (fp(train) & fp(val))


def test_split_same_seed_identical():
    ds = make_dataset(40)
    a_train, a_val = split_train_validation(ds, 10, seed=3)
    b_train, b_val = split_train_validation(ds, 10, seed=3)
    np.testing.assert_array_equal(a_train.images, b_train.images)
    np.testing.assert_array_equal(a_val.labels, b_val.labels)


def test_split_too_large_rejected():
    with pytest.raises(ValueError):
        split_train_validation(make_dataset(10), 10, seed=0)


def test_loading_twice_is_bit_identical(tmp_path):
    make_mnist_files(tmp_path, n_train=30, n_test=10)
    a_train, a_test = load_mnist(str(tmp_path))
    b_train, b_test = load_mnist(str(tmp_path))
    np.testing.assert_array_equal(a_train.images, b_train.images)
    np.testing.assert_array_equal(a_test.labels, b_test.labels)


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(DataFormatError, match="labels"):
        Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32), np.array([0, 10]), 10)
