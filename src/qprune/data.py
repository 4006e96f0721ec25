"""Dataset readers and input transforms.

Readers are bit-exact parsers for the published distribution formats:

* MNIST IDX: big-endian u32 magic (2051 images / 2049 labels), then one
  big-endian u32 per dimension extent, then the raw u8 payload.
* CIFAR-10 binary batches: fixed 3073-byte records, 1 label byte followed
  by 3072 channel-major pixel bytes (R, G, B planes of 32x32).
* CIFAR-100 binary: 3074-byte records, coarse label byte, fine label byte,
  3072 pixel bytes; the fine label (100 classes) is used.

Pixels stay u8 as loaded; ``scale_pixels`` maps them into [0,1] as float32
``u / 255``, with no further standardization.  Files are read from local
paths only; nothing is downloaded.
"""

from __future__ import annotations

import gzip
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DimensionError

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

# standard-definition luma coefficients for the grayscale fourth channel
LUMA_R, LUMA_G, LUMA_B = 0.299, 0.587, 0.114


@dataclass
class Dataset:
    """Images [N,C,H,W] plus integer class labels.  The images are either u8
    pixels, as the loaders return them, or floats in [0,1]."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DimensionError(f"images must be [N,C,H,W], got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataFormatError(
                f"label count {self.labels.shape} does not match image count {self.images.shape[0]}"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataFormatError(
                f"labels out of range for {self.num_classes} classes: "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, n: int) -> "Dataset":
        """A copy of the first n examples (the reduced-train smoke profile), so the rest can be freed."""
        return Dataset(self.images[:n].copy(), self.labels[:n].copy(), self.num_classes)

    def scaled(self) -> "Dataset":
        """This dataset with u8 images scaled by ``scale_pixels``; a float
        dataset is returned as it is."""
        if self.images.dtype != np.uint8:
            return self
        return Dataset(scale_pixels(self.images), self.labels, self.num_classes)

    def memory(self) -> dict:
        """Image count, pixel dtype and the MB held by the buffer the images
        live in (an MNIST split as loaded views its whole image file)."""
        owner = self.images
        while isinstance(owner, np.ndarray) and owner.base is not None:
            owner = owner.base
        return {"images": len(self), "dtype": str(self.images.dtype), "mb": round(memoryview(owner).nbytes / 1e6, 3)}


def scale_pixels(pixels: np.ndarray) -> np.ndarray:
    """u8 pixels as float32 ``u / 255``, correctly rounded, in [0,1]."""
    out = pixels.astype(np.float32)
    out /= 255.0
    return out


def _read_file(path: str) -> bytes:
    try:
        if path.endswith(".gz"):
            with gzip.open(path, "rb") as f:
                return f.read()
        with open(path, "rb") as f:
            return f.read()
    except (OSError, EOFError, zlib.error) as e:  # OSError covers gzip.BadGzipFile
        raise DataFormatError(f"{path}: cannot read the file: {e}") from e


def _find(directory: str, name: str) -> str:
    for candidate in (name, name + ".gz"):
        p = os.path.join(directory, candidate)
        if os.path.exists(p):
            return p
    raise DataFormatError(f"missing dataset file {name}(.gz) in {directory}")


def _parse_idx(buf: bytes, path: str, expect_magic: int, expect_dims: int) -> np.ndarray:
    if len(buf) < 4:
        raise DataFormatError(f"{path}: truncated header at offset 0 (file has {len(buf)} bytes)")
    magic = int.from_bytes(buf[0:4], "big")
    if magic != expect_magic:
        raise DataFormatError(f"{path}: bad magic {magic} at offset 0, expected {expect_magic}")
    header_end = 4 + 4 * expect_dims
    if len(buf) < header_end:
        raise DataFormatError(f"{path}: truncated dimension header at offset {len(buf)}")
    dims = [int.from_bytes(buf[4 + 4 * i : 8 + 4 * i], "big") for i in range(expect_dims)]
    count = int(np.prod(dims))
    if len(buf) != header_end + count:
        raise DataFormatError(
            f"{path}: payload length mismatch at offset {header_end}: "
            f"expected {count} bytes for dims {dims}, found {len(buf) - header_end}"
        )
    return np.frombuffer(buf, dtype=np.uint8, offset=header_end).reshape(dims)


def load_mnist(directory: str) -> tuple[Dataset, Dataset]:
    """Load the four standard IDX files from ``directory``; the images are a
    read-only u8 view of the image file's bytes."""
    out = []
    for img_name, lbl_name in (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ):
        img_path = _find(directory, img_name)
        lbl_path = _find(directory, lbl_name)
        images = _parse_idx(_read_file(img_path), img_path, IMAGE_MAGIC, 3)
        labels = _parse_idx(_read_file(lbl_path), lbl_path, LABEL_MAGIC, 1)
        if images.shape[0] != labels.shape[0]:
            raise DataFormatError(
                f"{img_path}: {images.shape[0]} images but {lbl_path} has {labels.shape[0]} labels"
            )
        if images.shape[0] == 0:
            raise DataFormatError(f"{img_path}: no images")
        if images.shape[1:] != (28, 28):
            raise DataFormatError(
                f"{img_path}: images are {images.shape[1]}x{images.shape[2]} pixels, expected 28x28"
            )
        out.append(Dataset(images[:, None, :, :], labels.astype(np.int64), 10))
    return out[0], out[1]


def _parse_cifar_records(buf: bytes, path: str, record: int, label_offset: int) -> tuple[np.ndarray, np.ndarray]:
    if len(buf) % record != 0:
        raise DataFormatError(
            f"{path}: length {len(buf)} is not a multiple of the {record}-byte record size "
            f"(last record truncated to {len(buf) % record} bytes)"
        )
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, record)
    labels = raw[:, label_offset].astype(np.int64)
    pixels = raw[:, record - 3072 :].reshape(-1, 3, 32, 32)
    return pixels, labels


def load_cifar(directory: str, variant: int) -> tuple[Dataset, Dataset]:
    """Load CIFAR-10 (variant=10) or CIFAR-100 (variant=100) binary files;
    each split's images are one u8 array of its records' pixels."""
    if variant not in (10, 100):
        raise ValueError(f"cifar variant must be 10 or 100, got {variant}")
    subdir = "cifar-10-batches-bin" if variant == 10 else "cifar-100-binary"
    if os.path.isdir(os.path.join(directory, subdir)):
        directory = os.path.join(directory, subdir)
    if variant == 10:
        record, label_offset = 3073, 0
        train_files = [f"data_batch_{i}.bin" for i in range(1, 6)]
        test_files = ["test_batch.bin"]
    else:
        record, label_offset = 3074, 1  # byte 2 of each record is the fine label
        train_files = ["train.bin"]
        test_files = ["test.bin"]

    def load_split(names):
        pixel_parts, label_parts, paths = [], [], []
        for name in names:
            path = _find(directory, name)
            px, lb = _parse_cifar_records(_read_file(path), path, record, label_offset)
            pixel_parts.append(px)
            label_parts.append(lb)
            paths.append(path)
        if not sum(len(lb) for lb in label_parts):
            raise DataFormatError(f"{', '.join(paths)}: no images")
        return Dataset(np.concatenate(pixel_parts), np.concatenate(label_parts), variant)

    return load_split(train_files), load_split(test_files)


def add_grayscale_channel(img: np.ndarray) -> np.ndarray:
    """Append a luma channel (0.299 R + 0.587 G + 0.114 B) to a batch of RGB
    images [N,3,H,W]; the original channels are untouched."""
    if img.ndim != 4 or img.shape[1] != 3:
        raise DimensionError(f"expected RGB images [N,3,H,W], got shape {img.shape}")
    gray = LUMA_R * img[:, 0] + LUMA_G * img[:, 1] + LUMA_B * img[:, 2]
    return np.concatenate([img, gray[:, None].astype(img.dtype)], axis=1)


def split_train_validation(train: Dataset, validation_size: int, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic seeded shuffle; the last ``validation_size`` examples
    become the validation set."""
    k = validation_size
    n = len(train)
    if not 1 <= k < n:
        raise ValueError(f"validation size {k} must be at least 1 and smaller than the training set ({n})")
    perm = np.random.default_rng(seed).permutation(n)
    tr, va = perm[: n - k], perm[n - k :]
    return (
        Dataset(train.images[tr], train.labels[tr], train.num_classes),
        Dataset(train.images[va], train.labels[va], train.num_classes),
    )
