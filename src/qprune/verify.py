"""Independent oracles and self-checks.

Everything here deliberately avoids the production code paths it checks:
the quaternion-layer oracles run scalar Hamilton products in Python loops,
and gradients are checked against central finite differences.  Shared by
the ``verify`` CLI subcommand and the acceptance suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .layers import Conv2d, Flatten, Linear, MaxPool2d, Param, QuatConv2d, QuatLinear, ReLU
from .models import Network, build_network, count_parameters, model_spec
from .quaternion import Quaternion, as_matrix, hamilton
from .tensor import Tape, Tensor


# ---------------------------------------------------------------------------
# quaternion algebra: componentwise product vs 4x4 matrix-vector


def hamilton_matrix_max_error(n_pairs: int = 10000, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    lhs = rng.standard_normal((n_pairs, 4))
    rhs = rng.standard_normal((n_pairs, 4))
    worst = 0.0
    for qa, qb in zip(lhs, rhs):
        a, b = Quaternion(*qa), Quaternion(*qb)
        direct = hamilton(a, b).as_array()
        via_matrix = as_matrix(a) @ b.as_array()
        worst = max(worst, float(np.abs(direct - via_matrix).max()))
    return worst


# ---------------------------------------------------------------------------
# quaternion layers vs scalar Hamilton-sum oracles


def _planes_to_quats(v: np.ndarray, n_q: int) -> list[Quaternion]:
    """Component-plane vector [4n] -> list of n quaternions."""
    comp = v.reshape(4, n_q)
    return [Quaternion(*comp[:, i]) for i in range(n_q)]


def qlinear_oracle(x: np.ndarray, w_r, w_x, w_y, w_z, bias: np.ndarray) -> np.ndarray:
    """Reference forward: o_j = sum_i w_ji (x) x_i + b_j, scalar loops."""
    batch = x.shape[0]
    in_q, out_q = w_r.shape
    out = np.zeros((batch, 4 * out_q))
    for b in range(batch):
        xs = _planes_to_quats(x[b], in_q)
        for j in range(out_q):
            acc = np.zeros(4)
            for i in range(in_q):
                w = Quaternion(w_r[i, j], w_x[i, j], w_y[i, j], w_z[i, j])
                acc += hamilton(w, xs[i]).as_array()
            for comp in range(4):
                out[b, comp * out_q + j] = acc[comp] + bias[comp * out_q + j]
    return out


def qconv_oracle(x: np.ndarray, k_r, k_x, k_y, k_z, bias: np.ndarray) -> np.ndarray:
    """Reference quaternion conv: per-pixel Hamilton sums with zero padding."""
    batch, planes, h, w = x.shape
    out_q, in_q = k_r.shape[:2]
    assert planes == 4 * in_q
    xq = x.reshape(batch, 4, in_q, h, w)
    out = np.zeros((batch, 4, out_q, h, w))
    for b in range(batch):
        for f in range(out_q):
            for i in range(h):
                for j in range(w):
                    acc = np.zeros(4)
                    for c in range(in_q):
                        for di in range(3):
                            for dj in range(3):
                                si, sj = i + di - 1, j + dj - 1
                                if not (0 <= si < h and 0 <= sj < w):
                                    continue
                                wq = Quaternion(
                                    k_r[f, c, di, dj], k_x[f, c, di, dj],
                                    k_y[f, c, di, dj], k_z[f, c, di, dj],
                                )
                                xs = Quaternion(*xq[b, :, c, si, sj])
                                acc += hamilton(wq, xs).as_array()
                    out[b, :, f, i, j] = acc + bias.reshape(4, out_q)[:, f]
    return out.reshape(batch, 4 * out_q, h, w)


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got - want).max()) / scale


def quat_layer_max_error(seed: int = 0) -> dict[str, float]:
    """Relative error of QuatLinear/QuatConv2d against the scalar oracles."""
    rng = np.random.default_rng(seed)
    errors = {}

    lin = QuatLinear(5, 4, rng, dtype=np.float64)
    lin.b.data = rng.standard_normal(16)
    x = rng.standard_normal((3, 20))
    got = lin.forward(Tensor(x)).data
    want = qlinear_oracle(x, lin.w_r.data, lin.w_x.data, lin.w_y.data, lin.w_z.data, lin.b.data)
    errors["qlinear"] = _rel_error(got, want)

    conv = QuatConv2d(2, 3, rng, dtype=np.float64)
    conv.b.data = rng.standard_normal(12)
    xc = rng.standard_normal((1, 8, 5, 5))
    got = conv.forward(Tensor(xc)).data
    want = qconv_oracle(xc, conv.k_r.data, conv.k_x.data, conv.k_y.data, conv.k_z.data, conv.b.data)
    errors["qconv"] = _rel_error(got, want)
    return errors


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_gradient(f: Callable[[], float], tensor: Tensor, h: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar-valued closure w.r.t. one tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def _grad_check_net(net_layers, x: np.ndarray, labels: np.ndarray, h: float = 1e-4) -> float:
    """Max per-tensor relative error between tape gradients and finite
    differences through ``net_layers`` ending in softmax cross-entropy."""

    def forward_loss() -> Tensor:
        out = Tensor(x)
        for layer in net_layers:
            out = layer.forward(out)
        return T.softmax_cross_entropy(out, labels)

    params = [tensor for layer in net_layers for _, tensor, _ in layer.params()]
    with Tape() as tape:
        loss = forward_loss()
    tape.backward(loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        numeric = finite_difference_gradient(lambda: float(forward_loss().data), p, h=h)
        scale = max(float(np.abs(numeric).max()), 1e-12)
        worst = max(worst, float(np.abs(a - numeric).max()) / scale)
    return worst


def gradient_check_all(seed: int = 0, h: float = 1e-4) -> dict[str, float]:
    """Finite-difference check per layer family, in 64-bit mode."""
    rng = np.random.default_rng(seed)
    f64 = np.float64
    results = {}

    layers = [Linear(6, 5, rng, f64), ReLU(), Linear(5, 4, rng, f64)]
    results["linear"] = _grad_check_net(layers, rng.standard_normal((3, 6)), np.array([0, 3, 1]))

    layers = [Conv2d(2, 3, rng, f64), ReLU(), MaxPool2d(), Flatten(), Linear(12, 4, rng, f64)]
    results["conv"] = _grad_check_net(layers, rng.standard_normal((2, 2, 4, 4)), np.array([2, 0]))

    layers = [QuatLinear(3, 2, rng, f64), ReLU(), Linear(8, 3, rng, f64)]
    results["qlinear"] = _grad_check_net(layers, rng.standard_normal((3, 12)), np.array([0, 2, 1]))

    layers = [QuatConv2d(1, 2, rng, f64), ReLU(), MaxPool2d(), Flatten(), Linear(32, 3, rng, f64)]
    results["qconv"] = _grad_check_net(layers, rng.standard_normal((2, 4, 4, 4)), np.array([1, 0]))

    logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    labels = np.array([0, 4, 2, 2])
    with Tape() as tape:
        loss = T.softmax_cross_entropy(logits, labels)
    tape.backward(loss)
    numeric = finite_difference_gradient(
        lambda: float(T.softmax_cross_entropy(logits, labels).data), logits, h=h
    )
    scale = max(float(np.abs(numeric).max()), 1e-12)
    results["loss"] = float(np.abs(logits.grad - numeric).max()) / scale
    return results


# ---------------------------------------------------------------------------
# parameter-count reproduction

# printed (rounded) totals: (model, field, conv kernels only) -> printed value
PRINTED_COUNTS = {
    ("lenet300", "real", False): 266_600,
    ("lenet300", "quat", False): 67_700,
    ("conv2", "real", False): 4_300_000,
    ("conv2", "real", True): 38_000,
    ("conv2", "quat", False): 1_080_000,
    ("conv2", "quat", True): 9_900,
    ("conv4", "real", False): 2_420_000,
    ("conv4", "real", True): 260_000,
    ("conv4", "quat", False): 609_000,
    ("conv4", "quat", True): 65_000,
    ("conv6", "real", False): 2_260_000,
    ("conv6", "real", True): 1_140_000,
    ("conv6", "quat", False): 569_000,
    ("conv6", "quat", True): 287_000,
}

# closed-form exact values (totals include biases; conv counts are weight-only)
EXACT_COUNTS = {
    ("lenet300", "real", False): 266_610,
    ("lenet300", "quat", False): 67_710,
    ("conv2", "real", True): 38_592,
    ("conv4", "real", True): 259_776,
    ("conv6", "real", True): 1_144_512,
}

_DATASET_FOR = {"lenet300": "mnist", "conv2": "cifar10", "conv4": "cifar10", "conv6": "cifar10"}


def conv_kernels(net: Network) -> list[Param]:
    """The conv kernels: the network's prunable 4-D tensors."""
    return [p for p in net.prunable_parameters() if p.tensor.data.ndim == 4]


def _count_rows(table: dict) -> list[tuple[str, int, int]]:
    """(label, computed, table value) per entry, one network per (model, field)."""
    nets = {(m, f): build_network(model_spec(m, _DATASET_FOR[m], f), seed=0) for m, f, _ in table}
    rows = []
    for (m, f, conv), value in sorted(table.items()):
        params = conv_kernels(nets[m, f]) if conv else nets[m, f].parameters()
        rows.append((f"{m}/{f}/{'conv' if conv else 'all'}", count_parameters(params), value))
    return rows


def parameter_count_report() -> list[tuple[str, int, int, float]]:
    """(label, computed, printed, relative deviation) per table entry."""
    return [
        (label, computed, printed, abs(computed - printed) / printed)
        for label, computed, printed in _count_rows(PRINTED_COUNTS)
    ]


def exact_count_report() -> list[tuple[str, int, int]]:
    """(label, computed, exact) per closed-form entry."""
    return _count_rows(EXACT_COUNTS)
