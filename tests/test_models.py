import re

import numpy as np
import pytest

from qprune import tensor as T
from qprune.data import scale_pixels
from qprune.errors import ConfigError, DimensionError
from qprune.layers import Conv2d, Linear, MaxPool2d, QuatConv2d, QuatLinear, ReLU
from qprune.models import (
    ALLOWED_DATASETS,
    MODEL_NAMES,
    POOL,
    ModelSpec,
    Network,
    build_network,
    count_parameters,
    model_spec,
    prepare_images,
)
from qprune.tensor import Tape
from qprune.verify import conv_kernels


def test_lenet300_real_total_count():
    net = build_network(model_spec("lenet300", "mnist", "real"))
    assert count_parameters(net.parameters()) == 266_610
    assert count_parameters(net.prunable_parameters()) == 266_200


def test_lenet300_quat_total_count():
    net = build_network(model_spec("lenet300", "mnist", "quat"))
    # 4*(196*75 + 75*25) quaternion-shared weights + 100*10 real head + 410 biases
    assert count_parameters(net.parameters()) == 67_710


def test_conv_model_counts():
    expected = {
        ("conv2", "real"): (4_301_642, 38_592),
        ("conv2", "quat"): (1_077_962, 9_792),
        ("conv4", "real"): (2_425_930, 259_776),
        ("conv4", "quat"): (609_226, 65_088),
        ("conv6", "real"): (2_262_602, 1_144_512),
        ("conv6", "quat"): (568_778, 286_272),
    }
    for (name, field), (total, conv) in expected.items():
        net = build_network(model_spec(name, "cifar10", field))
        assert count_parameters(net.parameters()) == total, (name, field)
        assert count_parameters(conv_kernels(net)) == conv, (name, field)


def test_lenet12_counts():
    real = build_network(model_spec("lenet12", "mnist", "real"))
    assert count_parameters(real.prunable_parameters()) == 784 * 12 + 12 * 10
    quat = build_network(model_spec("lenet12", "mnist", "quat"))
    assert count_parameters(quat.prunable_parameters()) == 4 * 196 * 3 + 12 * 10


def test_quat_hidden_layers_are_exactly_quarter_width():
    # matched hidden layers (same real fan-in/fan-out) carry exactly 1/4 the
    # weights; the CIFAR input conv is the documented exception (3 vs 4 input
    # channels, so quat carries real/3 there)
    for name in ("lenet300", "lenet12"):
        real = build_network(model_spec(name, "mnist", "real"))
        quat = build_network(model_spec(name, "mnist", "quat"))
        real_hidden = count_parameters(real.prunable_parameters()) - 10 * real.layers[-1].in_dim
        quat_hidden = count_parameters(quat.prunable_parameters()) - 10 * quat.layers[-1].in_dim
        assert quat_hidden * 4 == real_hidden

    real = build_network(model_spec("conv4", "cifar10", "real"))
    quat = build_network(model_spec("conv4", "cifar10", "quat"))
    real_convs = [l for l in real.layers if isinstance(l, Conv2d)]
    quat_convs = [l for l in quat.layers if isinstance(l, QuatConv2d)]
    assert 3 * (4 * quat_convs[0].k_r.size) == real_convs[0].k.size  # input conv: /3
    for rc, qc in zip(real_convs[1:], quat_convs[1:]):
        assert 4 * qc.k_r.size == rc.k.size // 4
    real_fcs = [l for l in real.layers if isinstance(l, Linear)][:-1]
    quat_fcs = [l for l in quat.layers if isinstance(l, QuatLinear)]
    assert len(real_fcs) == len(quat_fcs) == 2
    for rf, qf in zip(real_fcs, quat_fcs):
        assert 4 * qf.w_r.size == rf.w.size // 4


def test_quat_conv2_total_is_quarter_of_real():
    real = count_parameters(build_network(model_spec("conv2", "cifar10", "real")).parameters())
    quat = count_parameters(build_network(model_spec("conv2", "cifar10", "quat")).parameters())
    assert abs(quat / real - 0.251) < 0.005


def test_registry_order_is_deterministic():
    spec = model_spec("lenet300", "mnist", "quat")
    names_a = [p.name for p in build_network(spec, seed=0).parameters()]
    names_b = [p.name for p in build_network(spec, seed=99).parameters()]
    assert names_a == names_b
    assert names_a[:5] == ["layers.0.b", "layers.0.w_r", "layers.0.w_x", "layers.0.w_y", "layers.0.w_z"]


def test_biases_are_not_prunable():
    net = build_network(model_spec("conv2", "cifar10", "quat"))
    for p in net.parameters():
        if p.name.endswith(".b"):
            assert not p.prunable
        else:
            assert p.prunable


def test_same_seed_same_init():
    spec = model_spec("lenet12", "mnist", "real")
    a = build_network(spec, seed=5)
    b = build_network(spec, seed=5)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.tensor.data, pb.tensor.data)


def test_unknown_model_and_bad_combos_rejected():
    with pytest.raises(ConfigError, match="unknown model"):
        model_spec("lenet5", "mnist", "real")
    with pytest.raises(ConfigError, match="datasets"):
        model_spec("lenet300", "cifar10", "real")
    with pytest.raises(ConfigError, match="datasets"):
        model_spec("conv2", "mnist", "quat")
    with pytest.raises(ConfigError, match="unknown field"):
        model_spec("conv2", "cifar10", "complex")


def test_quat_width_divisibility_enforced():
    spec = ModelSpec(
        name="custom", dataset="mnist", field="quat", conv_plan=(),
        fc_plan=(10,), classes=10, epochs=1, batch_size=10, lr=1e-3,
    )
    with pytest.raises(ConfigError, match="divisible by 4"):
        build_network(spec)


def test_table_defaults():
    assert model_spec("lenet300", "mnist", "real").epochs == 40
    assert model_spec("lenet300", "mnist", "real").lr == pytest.approx(1.2e-3)
    assert model_spec("conv2", "cifar10", "quat").lr == pytest.approx(2e-4)
    assert model_spec("conv4", "cifar100", "real").classes == 100
    spec6 = model_spec("conv6", "cifar10", "real")
    assert (spec6.epochs, spec6.batch_size, spec6.lr) == (60, 60, pytest.approx(3e-4))


# Every allowed (model, dataset) pair, written out by hand: conv plan, fc plan,
# classes, input shape, epochs, batch size and learning rate.
_PINNED_SPECS = {
    ("lenet300", "mnist"): ((), (300, 100), 10, (1, 28, 28), 40, 60, 1.2e-3),
    ("lenet12", "mnist"): ((), (12,), 10, (1, 28, 28), 40, 60, 1.2e-3),
    ("conv2", "cifar10"): ((64, 64, POOL), (256, 256), 10, (3, 32, 32), 40, 60, 2e-4),
    ("conv4", "cifar10"): ((64, 64, POOL, 128, 128, POOL), (256, 256), 10, (3, 32, 32), 40, 60, 3e-4),
    ("conv4", "cifar100"): ((64, 64, POOL, 128, 128, POOL), (256, 256), 100, (3, 32, 32), 40, 60, 3e-4),
    ("conv6", "cifar10"): ((64, 64, POOL, 128, 128, POOL, 256, 256, POOL), (256, 256), 10, (3, 32, 32), 60, 60, 3e-4),
    ("conv6", "cifar100"): ((64, 64, POOL, 128, 128, POOL, 256, 256, POOL), (256, 256), 100, (3, 32, 32), 60, 60, 3e-4),
}


@pytest.mark.parametrize("field", ["real", "quat"])
@pytest.mark.parametrize("name, dataset", sorted(_PINNED_SPECS))
def test_model_spec_matches_the_pinned_table(name, dataset, field):
    conv_plan, fc_plan, classes, shape, epochs, batch, lr = _PINNED_SPECS[name, dataset]
    spec = model_spec(name, dataset, field)
    assert spec == ModelSpec(name, dataset, field, conv_plan, fc_plan, classes, epochs, batch, lr)
    assert spec.input_shape == shape


def test_pinned_table_covers_every_allowed_pair():
    allowed = {(m, d) for m in MODEL_NAMES for d in ALLOWED_DATASETS[m]}
    assert allowed == set(_PINNED_SPECS)


def test_forward_shapes_all_models_tiny_batch():
    combos = [
        ("lenet300", "mnist", 2), ("lenet12", "mnist", 2), ("conv2", "cifar10", 2),
        ("conv4", "cifar10", 1), ("conv4", "cifar100", 1), ("conv6", "cifar10", 1),
        ("conv6", "cifar100", 1),
    ]
    for name, dataset, batch in combos:
        for field in ("real", "quat"):
            spec = model_spec(name, dataset, field)
            net = build_network(spec, seed=1)
            c, h, w = spec.input_shape
            images = np.random.default_rng(0).random((batch, c, h, w), dtype=np.float32)
            logits = net.forward(net.prepare_input(images))
            assert logits.shape == (batch, spec.classes), (name, dataset, field)


def test_mnist_quat_packing_groups_consecutive_pixels():
    spec = model_spec("lenet300", "mnist", "quat")
    images = np.arange(784, dtype=np.float32).reshape(1, 1, 28, 28)
    planes = prepare_images(spec, images, np.float32)
    assert planes.shape == (1, 784)
    # quaternion i has components (4i, 4i+1, 4i+2, 4i+3) spread across planes
    np.testing.assert_array_equal(planes[0, :196], np.arange(0, 784, 4))
    np.testing.assert_array_equal(planes[0, 196:392], np.arange(1, 784, 4))


def test_cifar_quat_input_gains_grayscale_plane():
    spec = model_spec("conv2", "cifar10", "quat")
    images = np.random.default_rng(2).random((3, 3, 32, 32), dtype=np.float32)
    out = prepare_images(spec, images, np.float32)
    assert out.shape == (3, 4, 32, 32)
    np.testing.assert_array_equal(out[:, :3], images)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("field", ["real", "quat"])
@pytest.mark.parametrize("model, dataset", [("lenet300", "mnist"), ("conv2", "cifar10")])
def test_u8_batch_packs_to_the_bits_of_its_scaled_copy(model, dataset, field, dtype):
    spec = model_spec(model, dataset, field)
    size = 2 * int(np.prod(spec.input_shape))
    every_byte = np.resize(np.arange(256, dtype=np.uint8), size)
    u8 = np.random.default_rng(4).permutation(every_byte).reshape(2, *spec.input_shape)
    want = prepare_images(spec, u8.astype(np.float32) / np.float32(255), dtype)  # the loaders' old float32 split
    got = prepare_images(spec, u8, dtype)
    assert got.dtype == want.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


LAYOUTS = [
    ("lenet300", "mnist", "real", (784,)),
    ("lenet300", "mnist", "quat", (784,)),
    ("conv2", "cifar10", "real", (3, 32, 32)),
    ("conv2", "cifar10", "quat", (4, 32, 32)),
]


@pytest.mark.parametrize("model, dataset, field, layout", LAYOUTS)
def test_a_packed_batch_in_the_network_dtype_is_returned_as_it_is(model, dataset, field, layout):
    spec = model_spec(model, dataset, field)
    assert spec.packed_shape == layout
    packed = np.random.default_rng(5).random((3, *layout), dtype=np.float32)
    assert prepare_images(spec, packed, np.float32) is packed
    assert build_network(spec, seed=0).prepare_input(packed).data is packed


@pytest.mark.parametrize("source", [np.float64, np.uint8])
@pytest.mark.parametrize("model, dataset, field, layout", LAYOUTS)
def test_a_packed_batch_in_another_dtype_is_cast(model, dataset, field, layout, source):
    spec = model_spec(model, dataset, field)
    packed = np.random.default_rng(6).integers(0, 256, (3, *spec.packed_shape)).astype(source)
    got = prepare_images(spec, packed, np.float32)
    want = scale_pixels(packed) if source == np.uint8 else packed.astype(np.float32)
    assert got.dtype == np.float32 and got.shape == (3, *layout)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model, dataset, field, layout", LAYOUTS)
def test_a_batch_in_neither_layout_raises(model, dataset, field, layout):
    spec = model_spec(model, dataset, field)
    accepted = re.escape(f"[N,C,H,W] images or packed [N,{','.join(map(str, layout))}]")
    for shape in [(2, 783), (2, 28, 28), (2, 4, 1024), (2, *layout[1:])]:
        with pytest.raises(DimensionError, match=accepted):
            prepare_images(spec, np.zeros(shape, dtype=np.float32), np.float32)


def test_count_parameters_empty_network():
    spec = model_spec("lenet12", "mnist", "real")
    empty = Network(spec, [], np.float32)
    assert count_parameters(empty.parameters()) == 0


def test_conv_network_accepts_an_empty_batch():
    for field in ("real", "quat"):
        net = build_network(model_spec("conv2", "cifar10", field), seed=1)
        logits = net.forward(net.prepare_input(np.zeros((0, 3, 32, 32), dtype=np.float32)))
        assert logits.shape == (0, 10)


def relu_before_pool(layers):
    """The conv stack in the order conv, ReLU, pool."""
    layers = list(layers)
    for i in [i for i, layer in enumerate(layers) if isinstance(layer, MaxPool2d)]:
        assert isinstance(layers[i - 1], (Conv2d, QuatConv2d)) and isinstance(layers[i + 1], ReLU)
        layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return layers


def training_step(net, images, labels):
    """Logits, loss and every parameter gradient of one training step."""
    for p in net.parameters():
        p.tensor.grad = None
    with Tape() as tape:
        logits = net.forward(net.prepare_input(images))
        loss = T.softmax_cross_entropy(logits, labels)
    tape.backward(loss)
    return logits.data, loss.data, [p.tensor.grad.copy() for p in net.parameters()]


CONV2_PARAM_NAMES = {
    "real": ["layers.0.b", "layers.0.k", "layers.2.b", "layers.2.k", "layers.6.b", "layers.6.w",
             "layers.8.b", "layers.8.w", "layers.10.b", "layers.10.w"],
    "quat": [f"layers.{i}.{t}" for i in (0, 2) for t in ("b", "k_r", "k_x", "k_y", "k_z")]
    + [f"layers.{i}.{t}" for i in (6, 8) for t in ("b", "w_r", "w_x", "w_y", "w_z")]
    + ["layers.10.b", "layers.10.w"],
}


@pytest.mark.parametrize("field", ["real", "quat"])
@pytest.mark.parametrize("name", ["conv2", "conv4"])
def test_pool_before_relu_gives_the_same_training_step(name, field):
    spec = model_spec(name, "cifar10", field)
    net = build_network(spec, dtype=np.float32, seed=3)
    rng = np.random.default_rng(20)
    for p in net.parameters():
        if not p.prunable:  # nonzero biases, so pre-activations of both signs meet the pool
            p.tensor.data[:] = rng.standard_normal(p.tensor.shape) * 0.1
    images = rng.random((3, 3, 32, 32), dtype=np.float32)
    labels = np.array([1, 7, 4])
    names = [p.name for p in net.parameters()]
    if name == "conv2":
        assert names == CONV2_PARAM_NAMES[field]
    old_layers = relu_before_pool(net.layers)
    assert [p.name for p in Network(spec, old_layers, np.float32).parameters()] == names
    pooled_first = training_step(net, images, labels)
    net.layers = old_layers
    relu_first = training_step(net, images, labels)
    logits, loss, grads = pooled_first
    assert logits.dtype == np.float32
    np.testing.assert_array_equal(logits, relu_first[0])
    np.testing.assert_array_equal(loss, relu_first[1])
    assert len(grads) == len(names)
    for got, want in zip(grads, relu_first[2]):
        np.testing.assert_array_equal(got, want)


# Counted by hand: (packed input, each conv output C·H·W, each FC width, classes).
# The quaternion CIFAR input gains a grayscale channel, four values per pixel.
_WIDEST = {
    ("lenet300", "real"): max(784, 300, 100, 10),
    ("lenet300", "quat"): max(784, 300, 100, 10),
    ("lenet12", "real"): max(784, 12, 10),
    ("lenet12", "quat"): max(784, 12, 10),
    ("conv2", "real"): max(3 * 32 * 32, 64 * 32 * 32, 256, 10),
    ("conv2", "quat"): max(4 * 32 * 32, 64 * 32 * 32, 256, 10),
    ("conv4", "real"): max(3 * 32 * 32, 64 * 32 * 32, 128 * 16 * 16, 256, 100),
    ("conv4", "quat"): max(4 * 32 * 32, 64 * 32 * 32, 128 * 16 * 16, 256, 100),
    ("conv6", "real"): max(3 * 32 * 32, 64 * 32 * 32, 128 * 16 * 16, 256 * 8 * 8, 256, 100),
    ("conv6", "quat"): max(4 * 32 * 32, 64 * 32 * 32, 128 * 16 * 16, 256 * 8 * 8, 256, 100),
}


@pytest.mark.parametrize("name, field", sorted(_WIDEST))
def test_widest_activation_is_counted_by_hand(name, field):
    dataset = "mnist" if name.startswith("lenet") else "cifar10"
    net = build_network(model_spec(name, dataset, field))
    assert net.widest_activation == _WIDEST[(name, field)]
    if name in ("conv4", "conv6"):
        net = build_network(model_spec(name, "cifar100", field))
        assert net.widest_activation == _WIDEST[(name, field)]


def test_widest_activation_counts_the_input_and_the_classes():
    # neither a hidden width nor a conv output is the widest here
    wide_input = ModelSpec("m", "cifar10", "real", (2, POOL), (8,), 10, 1, 1, 1e-3)
    assert build_network(wide_input).widest_activation == 3 * 32 * 32
    many_classes = ModelSpec("m", "mnist", "real", (), (8,), 1000, 1, 1, 1e-3)
    assert build_network(many_classes).widest_activation == 1000


def test_widest_activation_follows_the_layers():
    rng = np.random.default_rng(0)
    spec = model_spec("lenet12", "mnist", "real")
    layers = [Linear(784, 2000, rng, np.float32), ReLU(), Linear(2000, 10, rng, np.float32)]
    net = Network(spec, layers, np.float32)
    assert net.widest_activation == 2000
