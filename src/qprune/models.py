"""Model descriptors and network builders.

Five classifier families, each in a real and a quaternion variant:

========= ========== =============================== ============== ===========
name      datasets   conv plan                       fc plan        epochs/batch/lr
========= ========== =============================== ============== ===========
lenet300  mnist      --                              300, 100       40/60/1.2e-3
lenet12   mnist      --                              12             40/60/1.2e-3
conv2     cifar10    64, 64, pool                    256, 256       40/60/2e-4
conv4     cifar10/100  64,64,pool,128,128,pool       256, 256       40/60/3e-4
conv6     cifar10/100  +256,256,pool                 256, 256       60/60/3e-4
========= ========== =============================== ============== ===========

Quaternion variants keep the same number of real neurons: every hidden layer
becomes a quaternion layer at one quarter of the width, and the output layer
stays real (10 or 100 classes, not divisible by 4).  MNIST inputs are
flattened and packed four pixels per quaternion; CIFAR inputs gain a
grayscale fourth channel so each pixel is one quaternion (R, G, B, gray).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import add_grayscale_channel
from .errors import ConfigError, DimensionError
from .layers import (
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    Param,
    QuatConv2d,
    QuatLinear,
    ReLU,
)
from .tensor import Tensor

POOL = "pool"

MODEL_NAMES = ("lenet300", "lenet12", "conv2", "conv4", "conv6")
DATASET_NAMES = ("mnist", "cifar10", "cifar100")
FIELDS = ("real", "quat")

_CONV_PLANS = {
    "lenet300": (),
    "lenet12": (),
    "conv2": (64, 64, POOL),
    "conv4": (64, 64, POOL, 128, 128, POOL),
    "conv6": (64, 64, POOL, 128, 128, POOL, 256, 256, POOL),
}
_FC_PLANS = {
    "lenet300": (300, 100),
    "lenet12": (12,),
    "conv2": (256, 256),
    "conv4": (256, 256),
    "conv6": (256, 256),
}
ALLOWED_DATASETS = {
    "lenet300": ("mnist",),
    "lenet12": ("mnist",),
    "conv2": ("cifar10",),
    "conv4": ("cifar10", "cifar100"),
    "conv6": ("cifar10", "cifar100"),
}
# (epochs, batch size, adam learning rate)
_TRAIN_DEFAULTS = {
    "lenet300": (40, 60, 1.2e-3),
    "lenet12": (40, 60, 1.2e-3),
    "conv2": (40, 60, 2e-4),
    "conv4": (40, 60, 3e-4),
    "conv6": (60, 60, 3e-4),
}
_DATASET_SHAPES = {
    "mnist": (1, 28, 28),
    "cifar10": (3, 32, 32),
    "cifar100": (3, 32, 32),
}
_DATASET_CLASSES = {"mnist": 10, "cifar10": 10, "cifar100": 100}


@dataclass(frozen=True)
class ModelSpec:
    name: str
    dataset: str
    field: str  # "real" | "quat"
    conv_plan: tuple
    fc_plan: tuple[int, ...]
    classes: int
    epochs: int
    batch_size: int
    lr: float

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return _DATASET_SHAPES[self.dataset]


def model_spec(name: str, dataset: str, field: str) -> ModelSpec:
    """Resolve a (model, dataset, field) triple to its full descriptor."""
    if name not in MODEL_NAMES:
        raise ConfigError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    if dataset not in DATASET_NAMES:
        raise ConfigError(f"unknown dataset {dataset!r}; expected one of {DATASET_NAMES}")
    if field not in FIELDS:
        raise ConfigError(f"unknown field {field!r}; expected one of {FIELDS}")
    if dataset not in ALLOWED_DATASETS[name]:
        raise ConfigError(
            f"model {name!r} is defined for datasets {ALLOWED_DATASETS[name]}, not {dataset!r}"
        )
    epochs, batch, lr = _TRAIN_DEFAULTS[name]
    return ModelSpec(
        name=name,
        dataset=dataset,
        field=field,
        conv_plan=_CONV_PLANS[name],
        fc_plan=_FC_PLANS[name],
        classes=_DATASET_CLASSES[dataset],
        epochs=epochs,
        batch_size=batch,
        lr=lr,
    )


class Network:
    """Ordered layers plus a stable parameter registry.

    Registry order: layer order, then tensor name (alphabetical), giving
    every parameter tensor a deterministic index across runs.  Weights are
    flagged prunable; biases are exempt.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer], dtype):
        self.spec = spec
        self.layers = layers
        self.dtype = np.dtype(dtype)
        self._params: list[Param] = []
        for i, layer in enumerate(layers):
            for tname, tensor, prunable in sorted(layer.params(), key=lambda e: e[0]):
                self._params.append(Param(f"layers.{i}.{tname}", tensor, prunable))

    def parameters(self) -> list[Param]:
        return list(self._params)

    def prunable_parameters(self) -> list[Param]:
        return [p for p in self._params if p.prunable]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    @cached_property
    def widest_activation(self) -> int:
        """Most real values one image holds at any layer boundary, from the
        packed input to the logits, read off a one-image inference pass."""
        x = self.prepare_input(np.zeros((1, *self.spec.input_shape), self.dtype))
        widest = x.data.size
        for layer in self.layers:
            x = layer.forward(x)
            widest = max(widest, x.data.size)
        return widest

    def prepare_input(self, images: np.ndarray) -> Tensor:
        """Adapt a raw [N,C,H,W] image batch to this network's input layout."""
        data = prepare_images(self.spec, images, self.dtype)
        return Tensor(data)


def prepare_images(spec: ModelSpec, images: np.ndarray, dtype) -> np.ndarray:
    if images.ndim != 4:
        raise DimensionError(f"expected [N,C,H,W] images, got shape {images.shape}")
    images = images.astype(dtype, copy=False)
    n = images.shape[0]
    if spec.dataset == "mnist":
        flat = images.reshape(n, -1)  # raster order
        if spec.field == "real":
            return flat
        # four consecutive pixels per quaternion, regrouped into component planes
        return flat.reshape(n, flat.shape[1] // 4, 4).transpose(0, 2, 1).reshape(n, -1)
    if spec.field == "real":
        return images
    return add_grayscale_channel(images)


def _conv_stack(spec: ModelSpec, rng: np.random.Generator, dtype) -> tuple[list[Layer], int]:
    """Build the conv section; returns (layers, flattened feature count)."""
    c, h, w = spec.input_shape
    layers: list[Layer] = []
    quat = spec.field == "quat"
    in_ch = 1 if quat else c  # quaternion input: (R,G,B,gray) = one quat channel
    for item in spec.conv_plan:
        if item == POOL:
            # Ahead of the conv's ReLU, which then runs on a quarter of the
            # elements: max commutes with ReLU, and neither has parameters.
            layers.insert(len(layers) - 1, MaxPool2d())
            h //= 2
            w //= 2
            continue
        if quat:
            out_ch = item // 4
            layers.append(QuatConv2d(in_ch, out_ch, rng, dtype))
        else:
            out_ch = item
            layers.append(Conv2d(in_ch, out_ch, rng, dtype))
        layers.append(ReLU())
        in_ch = out_ch
    real_features = (4 if quat else 1) * in_ch * h * w
    return layers, real_features


def build_network(spec: ModelSpec, dtype=np.float32, rng=None, seed: int = 0) -> Network:
    """Construct a freshly initialized network for ``spec``.

    Weights draw from uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) with fan_in in
    real units (4*in_q for quaternion layers); biases start at zero.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    quat = spec.field == "quat"
    if quat:
        for width in list(spec.conv_plan) + list(spec.fc_plan):
            if width != POOL and width % 4 != 0:
                raise ConfigError(
                    f"quaternion variant needs hidden widths divisible by 4, got {width}"
                )
    layers: list[Layer] = []

    if spec.conv_plan:
        conv_layers, features = _conv_stack(spec, rng, dtype)
        layers.extend(conv_layers)
        layers.append(Flatten())
    else:
        c, h, w = spec.input_shape
        features = c * h * w

    width = features
    for fc_width in spec.fc_plan:
        if quat:
            layers.append(QuatLinear(width // 4, fc_width // 4, rng, dtype))
        else:
            layers.append(Linear(width, fc_width, rng, dtype))
        layers.append(ReLU())
        width = fc_width
    # Output layer is real in both variants: class counts are not divisible by 4.
    layers.append(Linear(width, spec.classes, rng, dtype))
    return Network(spec, layers, dtype)


def count_parameters(params: list[Param]) -> int:
    """Total scalar count of ``params``, e.g. ``net.prunable_parameters()``."""
    return sum(p.tensor.size for p in params)
