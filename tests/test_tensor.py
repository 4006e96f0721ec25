import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ops
from qprune import tensor as T
from qprune.errors import DimensionError, StateError
from qprune.tensor import Tape, Tensor
from qprune.verify import finite_difference_gradient


# ---------------------------------------------------------------------------
# reference implementations (independent oracles)


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv2d_reference(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    f = k.shape[0]
    out = np.zeros((n, f, h, w), dtype=np.float64)
    for b in range(n):
        for o in range(f):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for ci in range(c):
                        for di in range(3):
                            for dj in range(3):
                                si, sj = i + di - 1, j + dj - 1
                                if 0 <= si < h and 0 <= sj < w:
                                    acc += x[b, ci, si, sj] * k[o, ci, di, dj]
                    out[b, o, i, j] = acc
    return out


def maxpool_reference(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for b in range(n):
        for ci in range(c):
            for i in range(0, h, 2):
                for j in range(0, w, 2):
                    out[b, ci, i // 2, j // 2] = x[b, ci, i : i + 2, j : j + 2].max()
    return out


def maxpool_grad_reference(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each window's gradient goes to its first max in row-major order."""
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for b in range(n):
        for ci in range(c):
            for i in range(0, h, 2):
                for j in range(0, w, 2):
                    window = [x[b, ci, i + di, j + dj] for di in (0, 1) for dj in (0, 1)]
                    t = window.index(max(window))
                    out[b, ci, i + t // 2, j + t % 2] = g[b, ci, i // 2, j // 2]
    return out


def cross_entropy_reference(logits: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for row, label in zip(logits, labels):
        denom = sum(math.exp(v) for v in row)
        total += -math.log(math.exp(row[label]) / denom)
    return total / len(labels)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    out = T.matmul(Tensor(a), Tensor(np.eye(4)))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_1x1():
    out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.data.item() == 6.0


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, matmul_reference(a, b), atol=1e-6)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_center_tap_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 5, 5))
    k = np.zeros((3, 3, 3, 3))
    for c in range(3):
        k[c, c, 1, 1] = 1.0
    out = T.conv2d(Tensor(x), Tensor(k))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_conv2d_zero_kernel():
    x = np.random.default_rng(2).standard_normal((1, 2, 4, 4))
    out = T.conv2d(Tensor(x), Tensor(np.zeros((5, 2, 3, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 5, 4, 4)))


def test_conv2d_matches_direct_reference():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 5, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    np.testing.assert_allclose(T.conv2d(Tensor(x), Tensor(k)).data, conv2d_reference(x, k), atol=1e-6)


# (N, C, F, H, W): 9*C <= F (a patch block no larger than the output) and
# 9*C > F (the 64->64 convs' side of the ratio), both of which run the one
# blocked path.
CONV_SHAPES = [
    (2, 1, 16, 3, 5),
    (3, 2, 18, 4, 2),
    (2, 1, 16, 2, 2),
    (3, 4, 3, 5, 3),
    (2, 4, 3, 2, 2),
    (2, 3, 5, 2, 6),
]


def conv_span(shape) -> int:
    """Window length L of ``conv2d`` for a CONV_SHAPES entry."""
    n, _, _, h, w = shape
    return n * (h + 2) * (w + 2) - 2 * (w + 2) - 2


def conv_grads(x: np.ndarray, k: np.ndarray, r: np.ndarray):
    """Gradients of sum(conv2d(x, k) * r) with respect to x and k."""
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(T.conv2d(xt, kt), Tensor(r)))
    tape.backward(loss)
    return xt.grad, kt.grad


def check_conv_forward(shape):
    n, c, f, h, w = shape
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal((n, c, h, w))
    k = rng.standard_normal((f, c, 3, 3))
    np.testing.assert_allclose(T.conv2d(Tensor(x), Tensor(k)).data, conv2d_reference(x, k), rtol=1e-12, atol=1e-12)


def check_conv_backward(shape):
    n, c, f, h, w = shape
    rng = np.random.default_rng(sum(shape) + 1)
    x = rng.standard_normal((n, c, h, w))
    k = rng.standard_normal((f, c, 3, 3))
    r = rng.standard_normal((n, f, h, w))
    gx, gk = conv_grads(x, k, r)
    step = 1e-6
    for arr, grad in ((x, gx), (k, gk)):
        numeric = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + step
            up = (T.conv2d(Tensor(x), Tensor(k)).data * r).sum()
            arr[idx] = keep - step
            down = (T.conv2d(Tensor(x), Tensor(k)).data * r).sum()
            arr[idx] = keep
            numeric[idx] = (up - down) / (2 * step)
        assert grad.shape == arr.shape
        assert np.abs(grad - numeric).max() / np.abs(numeric).max() < 1e-7


def check_conv_float32(shape):
    n, c, f, h, w = shape
    rng = np.random.default_rng(sum(shape) + 2)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    k = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
    r = rng.standard_normal((n, f, h, w)).astype(np.float32)
    got = T.conv2d(Tensor(x), Tensor(k)).data
    assert got.dtype == np.float32
    want = conv2d_reference(x.astype(np.float64), k.astype(np.float64))
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-5
    for g32, g64 in zip(conv_grads(x, k, r), conv_grads(*(a.astype(np.float64) for a in (x, k, r)))):
        assert g32.dtype == np.float32
        assert np.abs(g32 - g64).max() / np.abs(g64).max() < 1e-5


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_conv2d_forward_matches_reference_on_both_branches(shape):
    check_conv_forward(shape)


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_conv2d_backward_matches_finite_differences(shape):
    check_conv_backward(shape)


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_conv2d_float32_matches_float64(shape):
    check_conv_float32(shape)


@pytest.mark.parametrize("blocks", ["one", "partial", "width1"])
@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_conv2d_block_boundaries(shape, blocks, monkeypatch):
    """The same checks with the window length in one block, in blocks of 4
    columns whose last is partial, and in blocks of one column."""
    span = conv_span(shape)
    if blocks == "one":  # past the cap that keeps a block within the padded input
        monkeypatch.setattr(T, "_block_width", lambda p: p)
    elif blocks == "partial":
        assert span > 4 and span % 4
        monkeypatch.setattr(T, "CONV_BLOCK", 4)
    else:
        monkeypatch.setattr(T, "CONV_BLOCK", 1)
    n, _, _, h, w = shape
    assert (T._block_width(n * (h + 2) * (w + 2)) >= span) == (blocks == "one")
    check_conv_forward(shape)
    check_conv_backward(shape)
    check_conv_float32(shape)


def test_conv2d_block_width_rule():
    # 4096 columns, capped at ceil(P / 9) so a [9C, width] block is no
    # larger than the [C, P] padded input.
    assert T._block_width(60 * 34 * 34) == 4096
    assert T._block_width(8 * 34 * 34) == 1028
    assert T._block_width(10) == 2
    assert T._block_width(1) == 1
    assert T._block_width(0) == 1


def test_conv2d_bias_matches_reference_plus_bias():
    rng = np.random.default_rng(16)
    for n, c, f, h, w in CONV_SHAPES:
        x = rng.standard_normal((n, c, h, w))
        k = rng.standard_normal((f, c, 3, 3))
        b = rng.standard_normal(f)
        got = T.conv2d(Tensor(x), Tensor(k), b=Tensor(b)).data
        want = conv2d_reference(x, k) + b[None, :, None, None]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_bias_gradients_match_central_differences():
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True)
    k = Tensor(rng.standard_normal((5, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    r = Tensor(rng.standard_normal((2, 5, 4, 2)))

    def loss_fn():
        return ops.sum_all(ops.mul(T.conv2d(x, k, b=b), r))

    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    np.testing.assert_allclose(b.grad, r.data.sum(axis=(0, 2, 3)), rtol=1e-12)
    for t in (x, k, b):
        numeric = finite_difference_gradient(lambda: float(loss_fn().data), t, h=1e-6)
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)


def test_conv2d_bias_is_keyword_only():
    x, k, b = Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros(2))
    with pytest.raises(TypeError):
        T.conv2d(x, k, b)


def test_conv2d_bias_length_mismatch():
    with pytest.raises(DimensionError, match="bias"):
        T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((2, 1, 3, 3))), b=Tensor(np.zeros(3)))


def test_conv2d_bias_channel_broadcast():
    x = np.zeros((2, 3, 2, 2))
    out = T.conv2d(Tensor(x), Tensor(np.zeros((3, 3, 3, 3))), b=Tensor([1.0, 2.0, 3.0]))
    assert out.data[0, 1, 0, 0] == 2.0
    assert out.data[1, 2, 1, 1] == 3.0


@pytest.mark.parametrize("c, f", [(1, 16), (4, 3)])
def test_conv2d_and_maxpool_accept_an_empty_batch(c, f):
    out = T.conv2d(Tensor(np.zeros((0, c, 4, 4))), Tensor(np.zeros((f, c, 3, 3))))
    assert out.shape == (0, f, 4, 4)
    assert T.maxpool2d(out).shape == (0, f, 2, 2)


def test_conv2d_untaped_peak_memory_stays_below_six_inputs():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((8, 64, 32, 32)).astype(np.float32)
    k = rng.standard_normal((64, 64, 3, 3)).astype(np.float32)
    tracemalloc.start()
    try:
        out = T.conv2d(Tensor(x), Tensor(k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (8, 64, 32, 32)
    assert peak < 6 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input's bytes"


def test_conv2d_taped_peak_memory_with_bias_stays_below_eight_inputs():
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((60, 64, 32, 32)).astype(np.float32), requires_grad=True)
    k = Tensor(rng.standard_normal((64, 64, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(64).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = ops.sum_all(T.conv2d(x, k, b=b))
        tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape and k.grad.shape == k.shape and b.grad.shape == (64,)
    assert peak < 8 * x.data.nbytes, f"peak {peak / x.data.nbytes:.2f}x the input's bytes"


def test_conv2d_channel_mismatch():
    with pytest.raises(DimensionError, match="channels"):
        T.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))


def test_conv2d_rejects_non_3x3():
    with pytest.raises(DimensionError):
        T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 5, 5))))


# ---------------------------------------------------------------------------
# maxpool


def test_maxpool_basic_window():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = T.maxpool2d(Tensor(x))
    assert out.data.reshape(()) == 4.0


def test_maxpool_constant_input():
    x = np.full((1, 2, 4, 4), 7.5)
    out = T.maxpool2d(Tensor(x))
    np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 7.5))


def test_maxpool_matches_windowed_scan():
    x = np.random.default_rng(4).standard_normal((1, 1, 4, 4))
    np.testing.assert_array_equal(T.maxpool2d(Tensor(x)).data, maxpool_reference(x))


def test_maxpool_odd_extent_rejected():
    with pytest.raises(DimensionError, match="even"):
        T.maxpool2d(Tensor(np.zeros((1, 1, 3, 4))))


def test_maxpool_backward_first_occurrence_on_ties():
    x = Tensor(np.full((1, 1, 2, 2), 2.0), requires_grad=True)
    with Tape() as tape:
        out = T.maxpool2d(x)
        loss = ops.sum_all(out)
    tape.backward(loss)
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0  # row-major first position of the tied max
    np.testing.assert_array_equal(x.grad, expected)


# Window values in row-major order: every set of two or more tied maxima,
# and zeros of both signs, which compare equal.
TIE_WINDOWS = [
    [2.0 if t in tied else -1.0 for t in range(4)]
    for size in (2, 3, 4)
    for tied in itertools.combinations(range(4), size)
] + [
    [-0.0, 0.0, -1.0, -1.0],
    [0.0, -0.0, -1.0, -1.0],
    [-1.0, -0.0, -1.0, 0.0],
    [-0.0, 0.0, 0.0, -0.0],
]


@pytest.mark.parametrize("window", TIE_WINDOWS, ids=str)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_first_occurrence_on_ties(window, dtype):
    rng = np.random.default_rng(11)
    # Distinct values elsewhere; the tied window sits at batch 1, channel 2,
    # window row 1, window column 2.
    x = rng.permutation(2 * 3 * 4 * 6).reshape(2, 3, 4, 6).astype(dtype) + 10
    x[1, 2, 2:4, 4:6] = np.array(window, dtype=dtype).reshape(2, 2)
    g = rng.standard_normal((2, 3, 2, 3)).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = T.maxpool2d(xt)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    tape.backward(loss)
    np.testing.assert_array_equal(out.data, maxpool_reference(x))
    assert out.data[1, 2, 1, 2] == max(window)
    np.testing.assert_array_equal(xt.grad, maxpool_grad_reference(x, g))
    first = window.index(max(window))
    tied_grad = xt.grad[1, 2, 2:4, 4:6].ravel()
    assert tied_grad[first] == g[1, 2, 1, 2]
    assert np.count_nonzero(tied_grad) == 1


# Windows whose max is positive, negative or zero, each with every set of
# two or more tied maxima, plus zeros of both signs.
POOL_RELU_WINDOWS = [
    [top if t in tied else low for t in range(4)]
    for top, low in ((2.0, -1.0), (-1.0, -3.0), (0.0, -1.0))
    for size in (1, 2, 3, 4)
    for tied in itertools.combinations(range(4), size)
] + [
    [-0.0, 0.0, -1.0, -1.0],
    [0.0, -0.0, -1.0, -1.0],
    [-0.0, -0.0, -0.0, -0.0],
    [-0.0, 3.0, 0.0, 3.0],
    [-2.0, -0.0, -5.0, 0.0],
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_then_relu_equals_relu_then_maxpool(dtype):
    rng = np.random.default_rng(19)
    x = np.array(POOL_RELU_WINDOWS, dtype=dtype).reshape(1, -1, 2, 2)
    x = np.concatenate([x, rng.standard_normal((1, 4, 2, 2)).astype(dtype)], axis=1)
    g = Tensor(rng.standard_normal((1, x.shape[1], 1, 1)).astype(dtype))
    results = []
    for first, second in ((T.maxpool2d, T.relu), (T.relu, T.maxpool2d)):
        xt = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            out = second(first(xt))
            loss = ops.sum_all(ops.mul(out, g))
        tape.backward(loss)
        results.append((out.data, xt.grad))
    (pool_first, grad_pool_first), (relu_first, grad_relu_first) = results
    np.testing.assert_array_equal(pool_first, relu_first)
    np.testing.assert_array_equal(grad_pool_first, grad_relu_first)
    assert np.count_nonzero(grad_pool_first) > 0


# ---------------------------------------------------------------------------
# elementwise / structural


def test_relu():
    out = T.relu(Tensor([-1.0, 2.0, 0.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0, 0.0])


def test_relu_backward_is_zero_at_zero_of_either_sign():
    x = Tensor(np.array([-0.0, 0.0, 1e-300, -1e-300, 3.0]), requires_grad=True)
    g = np.array([5.0, 6.0, 7.0, 8.0, 9.0])
    with Tape() as tape:
        out = T.relu(x)
        loss = ops.sum_all(ops.mul(out, Tensor(g)))
    tape.backward(loss)
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 1e-300, 0.0, 3.0])
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 7.0, 0.0, 9.0])


def test_bias_add_zero_bias_is_identity():
    x = np.random.default_rng(5).standard_normal((3, 4))
    out = T.bias_add(Tensor(x), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, x)


def test_bias_add_rejects_a_4d_input():
    with pytest.raises(DimensionError, match="2-D"):
        T.bias_add(Tensor(np.zeros((2, 3, 2, 2))), Tensor(np.zeros(3)))


def test_bias_add_length_mismatch():
    with pytest.raises(DimensionError, match="bias length"):
        T.bias_add(Tensor(np.zeros((2, 4))), Tensor(np.zeros(5)))


def test_flatten_accepts_an_empty_batch():
    out = T.flatten(Tensor(np.zeros((0, 3, 2, 2))))
    assert out.shape == (0, 12)


def test_reshape_mismatch_raises_dimension_error():
    x = Tensor(np.zeros(6))
    for shape in ((4, -1), (4, 2), (-1, -1)):
        with pytest.raises(DimensionError, match="reshape"):
            T.reshape(x, shape)


def test_flatten_preserves_row_major_order():
    x = np.arange(2 * 3 * 2 * 2, dtype=np.float64).reshape(2, 3, 2, 2)
    out = T.flatten(Tensor(x))
    assert out.shape == (2, 12)
    np.testing.assert_array_equal(out.data[0], np.arange(12))
    np.testing.assert_array_equal(out.data[1], np.arange(12, 24))


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_cross_entropy_uniform_logits():
    for c in (2, 5, 10):
        logits = np.zeros((3, c))
        loss = T.softmax_cross_entropy(Tensor(logits), np.zeros(3, dtype=int))
        assert float(loss.data) == pytest.approx(math.log(c), rel=1e-12)


def test_cross_entropy_large_margin_drives_loss_to_zero():
    logits = np.zeros((1, 10))
    logits[0, 3] = 50.0
    loss = T.softmax_cross_entropy(Tensor(logits), np.array([3]))
    assert float(loss.data) < 1e-6


def test_cross_entropy_matches_direct_reference():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((3, 4))
    labels = np.array([0, 3, 1])
    got = float(T.softmax_cross_entropy(Tensor(logits), labels).data)
    assert got == pytest.approx(cross_entropy_reference(logits, labels), abs=1e-6)


def test_cross_entropy_is_stable_for_huge_logits():
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    loss = T.softmax_cross_entropy(Tensor(logits), np.array([0, 1]))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="labels"):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# ---------------------------------------------------------------------------
# backward


def test_backward_of_sum_is_ones():
    w = Tensor(np.random.default_rng(7).standard_normal((3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(w)
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, np.ones((3, 4)))


def test_backward_of_half_sum_of_squares_is_w():
    w = Tensor(np.random.default_rng(8).standard_normal(5), requires_grad=True)
    with Tape() as tape:
        loss = ops.scale(ops.sum_all(ops.mul(w, w)), 0.5)
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, w.data, atol=1e-12)


def test_backward_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3))
    w1 = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    b1 = Tensor(rng.standard_normal(6), requires_grad=True)
    w2 = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
    labels = np.array([0, 1, 1, 0])

    def forward() -> float:
        h = T.relu(T.bias_add(T.matmul(Tensor(x), w1), b1))
        return float(T.softmax_cross_entropy(T.matmul(h, w2), labels).data)

    with Tape() as tape:
        h = T.relu(T.bias_add(T.matmul(Tensor(x), w1), b1))
        loss = T.softmax_cross_entropy(T.matmul(h, w2), labels)
    tape.backward(loss)

    h_step = 1e-4
    for p in (w1, b1, w2):
        numeric = np.zeros_like(p.data)
        flat, nflat = p.data.ravel(), numeric.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h_step
            up = forward()
            flat[i] = keep - h_step
            down = forward()
            flat[i] = keep
            nflat[i] = (up - down) / (2 * h_step)
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(p.grad - numeric).max() / scale < 1e-5


def test_backward_twice_raises_state_error():
    w = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(w)
    tape.backward(loss)
    with pytest.raises(StateError):
        tape.backward(loss)


def test_backward_requires_recorded_forward():
    with pytest.raises(StateError):
        Tape().backward(Tensor(np.zeros(())))


def test_backward_rejects_non_scalar_loss():
    w = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        out = T.relu(w)
    with pytest.raises(DimensionError):
        tape.backward(out)


def test_no_recording_outside_tape():
    w = Tensor(np.ones(3), requires_grad=True)
    out = T.relu(w)
    assert not out._recorded


def test_gradient_accumulates_for_shared_parent():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(ops.add(w, w))
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, [2.0, 2.0])


def test_add_of_a_tensor_to_itself_doubles_the_gradient():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    r = np.array([0.5, 7.0, -3.0])
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(ops.add(w, w), Tensor(r)))
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, 2 * r)


def test_tensor_consumed_by_two_ops_accumulates_both():
    x = Tensor(np.array([[-1.0, 2.0], [3.0, -4.0]]), requires_grad=True)
    r1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    r2 = np.array([[10.0, 20.0], [30.0, 40.0]])
    with Tape() as tape:
        loss = ops.add(ops.sum_all(ops.mul(T.relu(x), Tensor(r1))), ops.sum_all(ops.mul(x, Tensor(r2))))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, r1 * (x.data > 0) + r2)


def test_gradients_do_not_alias_after_backward():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    w = Tensor(rng.standard_normal((12, 4)), requires_grad=True)
    v = Tensor(rng.standard_normal(4), requires_grad=True)
    u1 = Tensor(rng.standard_normal(8), requires_grad=True)
    u2 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    u3 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    with Tape() as tape:
        h = T.maxpool2d(T.relu(T.conv2d(x, k, b=b)))
        z = T.bias_add(T.matmul(T.flatten(h), w), v)
        shift = ops.add(T.reshape(u1, (2, 4)), ops.add(u2, u3))
        logits = ops.add(ops.add(ops.scale(z, 0.5), ops.mul(z, ops.neg(z))), shift)
        loss = T.softmax_cross_entropy(T.relu(logits), np.array([1, 3]))
    tape.backward(loss)
    tensors = [x, k, b, w, v, u1, u2, u3]
    before = [t.grad.copy() for t in tensors]
    for i, t in enumerate(tensors):
        t.grad += 1.0
        for j, other in enumerate(tensors):
            if j != i:
                np.testing.assert_array_equal(other.grad, before[j])
        t.grad -= 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_accum_grad_keeps_converts_then_adds_in_place(dtype):
    t = Tensor(np.zeros(3, dtype=dtype))
    g = np.array([1.0, 2.0, 3.0], dtype=dtype)
    t._accum_grad(g)
    assert t.grad is g  # a same-dtype first contribution is kept, not copied
    t._accum_grad(np.array([0.5, 0.5, 0.5], dtype=dtype))
    assert t.grad is g  # a later one is added in place
    np.testing.assert_array_equal(g, [1.5, 2.5, 3.5])

    other = np.float64 if dtype == np.float32 else np.float32
    u = Tensor(np.zeros(3, dtype=dtype))
    h = np.array([0.25, -1.0, 4.0], dtype=other)
    u._accum_grad(h)
    assert u.grad.dtype == dtype and not np.shares_memory(u.grad, h)
    np.testing.assert_array_equal(u.grad, h)


def check_handed_over_gradients(loss_fn, leaves):
    """Tape gradients equal central differences in float64, and no two
    leaves' ``.grad`` share memory."""
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    for t in leaves:
        numeric = finite_difference_gradient(lambda: float(loss_fn().data), t, h=1e-6)
        np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)
    for a, b in itertools.combinations(leaves, 2):
        assert not np.shares_memory(a.grad, b.grad)


@pytest.mark.parametrize("bias_first", [True, False])
@pytest.mark.parametrize("shape", [(3, 4)])
def test_bias_add_input_also_read_by_another_op(shape, bias_first):
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    b = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
    r1, r2 = Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape))

    def loss_fn():
        if bias_first:
            y, z = T.bias_add(x, b), ops.mul(x, r2)
        else:
            z, y = ops.mul(x, r2), T.bias_add(x, b)
        return ops.add(ops.sum_all(ops.mul(ops.mul(y, y), r1)), ops.sum_all(ops.mul(z, z)))

    check_handed_over_gradients(loss_fn, [x, b])


@pytest.mark.parametrize("bias_first", [True, False])
def test_conv2d_bias_input_also_read_by_another_op(bias_first):
    rng = np.random.default_rng(13)
    shape = (2, 3, 2, 2)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
    r1, r2 = Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape))

    def loss_fn():
        if bias_first:
            y, z = T.conv2d(x, k, b=b), ops.mul(x, r2)
        else:
            z, y = ops.mul(x, r2), T.conv2d(x, k, b=b)
        return ops.add(ops.sum_all(ops.mul(ops.mul(y, y), r1)), ops.sum_all(ops.mul(z, z)))

    check_handed_over_gradients(loss_fn, [x, k, b])


def test_bias_add_reshape_matmul_chain():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal(6), requires_grad=True)
    w = Tensor(rng.standard_normal((12, 4)), requires_grad=True)
    labels = np.array([3, 1])

    def loss_fn():
        return T.softmax_cross_entropy(T.matmul(T.reshape(T.bias_add(x, b), (2, 12)), w), labels)

    check_handed_over_gradients(loss_fn, [x, b, w])


@pytest.mark.parametrize("out_axis", [0, 1])
@pytest.mark.parametrize("repeated", [False, True])
def test_hamilton_block_parts_also_read_elsewhere(out_axis, repeated):
    rng = np.random.default_rng(15)
    parts = [Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(4)]
    block_parts = [parts[0], parts[0], parts[2], parts[3]] if repeated else parts
    a = Tensor(rng.standard_normal((5, 8)))
    r = Tensor(rng.standard_normal((2, 3)))
    labels = np.array([0, 11, 4, 7, 2])

    def loss_fn():
        logits = T.matmul(a, T.hamilton_block(block_parts, out_axis))
        side = ops.add(ops.sum_all(ops.mul(parts[0], r)), ops.sum_all(ops.mul(parts[1], parts[1])))
        return ops.add(T.softmax_cross_entropy(logits, labels), side)

    check_handed_over_gradients(loss_fn, parts)


# ---------------------------------------------------------------------------
# shape algebra properties


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_matmul_shape_algebra(m, k, n):
    out = T.matmul(Tensor(np.zeros((m, k))), Tensor(np.zeros((k, n))))
    assert out.shape == (m, n)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4), st.integers(1, 4))
def test_conv_shape_algebra(n, c, f, hh, ww):
    h, w = 2 * hh, 2 * ww
    out = T.conv2d(Tensor(np.zeros((n, c, h, w))), Tensor(np.zeros((f, c, 3, 3))))
    assert out.shape == (n, f, h, w)
    pooled = T.maxpool2d(out)
    assert pooled.shape == (n, f, h // 2, w // 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_flatten_shape_algebra(n, c, h, w):
    out = T.flatten(Tensor(np.zeros((n, c, h, w))))
    assert out.shape == (n, c * h * w)
