import numpy as np
import pytest

import ops
from qprune import tensor as T
from qprune.errors import DimensionError
from qprune.layers import Conv2d, Linear, QuatConv2d, QuatLinear, ReLU
from qprune.quaternion import Quaternion, as_matrix
from qprune.tensor import Tape, Tensor
from qprune.verify import qconv_oracle, qlinear_oracle


def quat_linear(in_q, out_q, seed=0):
    return QuatLinear(in_q, out_q, np.random.default_rng(seed), dtype=np.float64)


def set_weight(layer, quaternion: Quaternion):
    layer.w_r.data[:] = quaternion.r
    layer.w_x.data[:] = quaternion.x
    layer.w_y.data[:] = quaternion.y
    layer.w_z.data[:] = quaternion.z


def test_identity_weight_passes_input_through():
    layer = quat_linear(1, 1)
    set_weight(layer, Quaternion(1, 0, 0, 0))
    layer.b.data[:] = 0
    x = np.array([[0.3, -1.2, 4.0, 2.5]])
    out = layer.forward(Tensor(x))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_i_weight_times_j_input_gives_k():
    layer = quat_linear(1, 1)
    set_weight(layer, Quaternion(0, 1, 0, 0))
    layer.b.data[:] = 0
    j_input = np.array([[0.0, 0.0, 1.0, 0.0]])
    out = layer.forward(Tensor(j_input))
    np.testing.assert_allclose(out.data, [[0.0, 0.0, 0.0, 1.0]], atol=1e-12)


def test_qlinear_matches_block_matrix_assembly():
    # oracle: dense real multiply by the explicitly assembled 4x4-pattern blocks
    rng = np.random.default_rng(3)
    layer = quat_linear(4, 3, seed=3)
    in_q, out_q = 4, 3
    x = rng.standard_normal((5, 4 * in_q))
    big = np.zeros((4 * in_q, 4 * out_q))
    for i in range(in_q):
        for j in range(out_q):
            m = as_matrix(
                Quaternion(
                    layer.w_r.data[i, j], layer.w_x.data[i, j],
                    layer.w_y.data[i, j], layer.w_z.data[i, j],
                )
            )
            # block (alpha, beta) carries the coefficient of input component
            # alpha in output component beta: m[beta, alpha]
            for alpha in range(4):
                for beta in range(4):
                    big[alpha * in_q + i, beta * out_q + j] = m[beta, alpha]
    expected = x @ big + layer.b.data
    got = layer.forward(Tensor(x)).data
    np.testing.assert_allclose(got, expected, atol=1e-5)


def test_qlinear_matches_hamilton_sum_oracle():
    rng = np.random.default_rng(4)
    layer = quat_linear(5, 2, seed=4)
    layer.b.data[:] = rng.standard_normal(8)
    x = rng.standard_normal((3, 20))
    expected = qlinear_oracle(x, layer.w_r.data, layer.w_x.data, layer.w_y.data, layer.w_z.data, layer.b.data)
    np.testing.assert_allclose(layer.forward(Tensor(x)).data, expected, rtol=1e-10, atol=1e-10)


def test_qlinear_fan_in_mismatch():
    with pytest.raises(DimensionError, match="fan-in"):
        quat_linear(3, 2).forward(Tensor(np.zeros((1, 16))))


def test_qconv_identity_center_tap():
    layer = QuatConv2d(2, 2, np.random.default_rng(0), dtype=np.float64)
    for bank in (layer.k_r, layer.k_x, layer.k_y, layer.k_z):
        bank.data[:] = 0
    for c in range(2):
        layer.k_r.data[c, c, 1, 1] = 1.0  # identity quaternion at the center tap
    layer.b.data[:] = 0
    x = np.random.default_rng(1).standard_normal((2, 8, 4, 4))
    out = layer.forward(Tensor(x))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_qconv_zero_kernels():
    layer = QuatConv2d(1, 3, np.random.default_rng(0), dtype=np.float64)
    for bank in (layer.k_r, layer.k_x, layer.k_y, layer.k_z):
        bank.data[:] = 0
    layer.b.data[:] = 0
    out = layer.forward(Tensor(np.ones((1, 4, 4, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 12, 4, 4)))


def test_qconv_matches_per_pixel_hamilton_sum():
    rng = np.random.default_rng(5)
    layer = QuatConv2d(2, 3, rng, dtype=np.float64)
    layer.b.data[:] = rng.standard_normal(12)
    x = rng.standard_normal((1, 8, 5, 5))
    expected = qconv_oracle(x, layer.k_r.data, layer.k_x.data, layer.k_y.data, layer.k_z.data, layer.b.data)
    np.testing.assert_allclose(layer.forward(Tensor(x)).data, expected, rtol=1e-10, atol=1e-10)


def test_qconv_channel_mismatch():
    layer = QuatConv2d(2, 2, np.random.default_rng(0))
    with pytest.raises(DimensionError, match="quaternion channels"):
        layer.forward(Tensor(np.zeros((1, 4, 4, 4))))


def test_split_relu_per_component():
    out = ReLU().forward(Tensor(np.array([-1.0, 2.0, -3.0, 4.0])))
    np.testing.assert_array_equal(out.data, [0.0, 2.0, 0.0, 4.0])


def test_split_relu_all_negative_gives_zero_quaternion():
    out = ReLU().forward(Tensor(np.array([-1.0, -2.0, -3.0, -4.0])))
    np.testing.assert_array_equal(out.data, np.zeros(4))


def test_split_relu_nonnegative_unchanged():
    x = np.array([0.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(ReLU().forward(Tensor(x)).data, x)


def test_real_and_quat_layers_emit_same_logit_shape():
    rng = np.random.default_rng(6)
    real_head = Linear(8, 10, rng)
    quat_hidden = QuatLinear(2, 2, rng)
    x = Tensor(np.random.default_rng(7).standard_normal((5, 8)).astype(np.float32))
    assert real_head.forward(x).shape == (5, 10)
    assert quat_hidden.forward(x).shape == (5, 8)


def test_parameter_counts_per_layer():
    rng = np.random.default_rng(0)
    ql = QuatLinear(196, 75, rng)
    assert sum(t.size for _, t, prunable in ql.params() if prunable) == 4 * 196 * 75
    qc = QuatConv2d(16, 16, rng)
    assert sum(t.size for _, t, prunable in qc.params() if prunable) == 4 * 16 * 16 * 9
    assert ql.b.size == 4 * 75
    c = Conv2d(3, 64, rng)
    assert c.k.size == 3 * 64 * 9


# ---------------------------------------------------------------------------
# hamilton_block against a block assembled from concat and neg nodes


def concat_linear_block(w_r, w_x, w_y, w_z):
    # Row blocks indexed by input component, columns by output component.
    rows = [
        ops.concat([w_r, w_x, w_y, w_z], axis=1),
        ops.concat([ops.neg(w_x), w_r, w_z, ops.neg(w_y)], axis=1),
        ops.concat([ops.neg(w_y), ops.neg(w_z), w_r, w_x], axis=1),
        ops.concat([ops.neg(w_z), w_y, ops.neg(w_x), w_r], axis=1),
    ]
    return ops.concat(rows, axis=0)


def concat_conv_block(k_r, k_x, k_y, k_z):
    # Row blocks indexed by output component, columns by input component.
    rows = [
        ops.concat([k_r, ops.neg(k_x), ops.neg(k_y), ops.neg(k_z)], axis=1),
        ops.concat([k_x, k_r, ops.neg(k_z), k_y], axis=1),
        ops.concat([k_y, k_z, k_r, ops.neg(k_x)], axis=1),
        ops.concat([k_z, ops.neg(k_y), k_x, k_r], axis=1),
    ]
    return ops.concat(rows, axis=0)


def float32_step(layer, x, forward):
    """Output and parameter gradients of sum(forward(x) * probe)."""
    probe = np.random.default_rng(9).standard_normal(forward(Tensor(x)).shape).astype(np.float32)
    with Tape() as tape:
        out = forward(Tensor(x))
        loss = ops.sum_all(ops.mul(out, Tensor(probe)))
    tape.backward(loss)
    grads = [t.grad.copy() for _, t, _ in layer.params()]
    for _, t, _ in layer.params():
        t.grad = None
    return out.data, grads


def assert_same_bits(layer, x, reference_forward):
    got_out, got_grads = float32_step(layer, x, layer.forward)
    want_out, want_grads = float32_step(layer, x, reference_forward)
    assert got_out.dtype == np.float32
    np.testing.assert_array_equal(got_out, want_out)
    for got, want in zip(got_grads, want_grads):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def test_qlinear_hamilton_block_matches_concat_assembly_bitwise():
    layer = QuatLinear(7, 5, np.random.default_rng(10))
    layer.b.data[:] = np.random.default_rng(11).standard_normal(20)
    # 7 rows, as many as input quaternions: quat_linear builds the block
    x = np.random.default_rng(12).standard_normal((7, 28)).astype(np.float32)

    def reference(inp):
        w = concat_linear_block(layer.w_r, layer.w_x, layer.w_y, layer.w_z)
        return T.matmul(inp, w, b=layer.b)

    assert_same_bits(layer, x, reference)


def test_qconv_hamilton_block_matches_concat_assembly_bitwise():
    layer = QuatConv2d(2, 3, np.random.default_rng(13))
    layer.b.data[:] = np.random.default_rng(14).standard_normal(12)
    x = np.random.default_rng(15).standard_normal((2, 8, 6, 6)).astype(np.float32)

    def reference(inp):
        k = concat_conv_block(layer.k_r, layer.k_x, layer.k_y, layer.k_z)
        return T.conv2d(inp, k, b=layer.b)

    assert_same_bits(layer, x, reference)


def test_linear_forward_records_one_tape_node():
    layer = Linear(3, 2, np.random.default_rng(0))
    with Tape() as tape:
        layer.forward(Tensor(np.zeros((1, 3), dtype=np.float32)))
        assert len(tape) == 1  # matmul with the bias fused in


def test_qlinear_forward_records_one_node_below_fan_in_and_two_from_it():
    layer = QuatLinear(3, 2, np.random.default_rng(0))
    # quat_linear alone below 3 rows; hamilton_block and matmul from 3 rows on
    for rows, nodes in [(1, 1), (2, 1), (3, 2), (4, 2)]:
        with Tape() as tape:
            layer.forward(Tensor(np.zeros((rows, 12), dtype=np.float32)))
            assert len(tape) == nodes


def test_qconv_forward_records_two_tape_nodes():
    layer = QuatConv2d(1, 2, np.random.default_rng(0))
    with Tape() as tape:
        layer.forward(Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32)))
        assert len(tape) == 2  # hamilton_block, conv2d with the bias fused in


def test_hamilton_block_rejects_mismatched_parts_and_axis():
    parts = [Tensor(np.zeros((2, 3))) for _ in range(4)]
    with pytest.raises(DimensionError, match="four parts"):
        T.hamilton_block(parts[:3], out_axis=0)
    with pytest.raises(DimensionError, match="four parts"):
        T.hamilton_block(parts[:3] + [Tensor(np.zeros((3, 2)))], out_axis=0)
    with pytest.raises(DimensionError, match="out_axis"):
        T.hamilton_block(parts, out_axis=2)
