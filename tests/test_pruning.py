import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprune.errors import StateError
from qprune.layers import Linear
from qprune.models import Network, count_parameters, model_spec
from qprune.pruning import (
    Ladder,
    capture_snapshot,
    global_magnitude_prune,
    iterative_lottery,
    kept_count,
    prune_count,
    rewind,
    sparsity,
)
from qprune.tensor import Tensor


def make_net(sizes=((5, 4), (4, 3)), seed=0, classes=3):
    """Small real MLP; weight values drawn once, deterministic."""
    rng = np.random.default_rng(seed)
    spec = model_spec("lenet12", "mnist", "real")  # spec fields unused by pruning
    layers = [Linear(i, o, rng, dtype=np.float64) for i, o in sizes]
    return Network(spec, layers, np.float64)


def ladder_of(net, seed=0):
    """A fresh ladder on ``net``: theta_0 is its parameters now."""
    return Ladder(seed, net, capture_snapshot(net), np.random.default_rng(seed))


def weight_vector(net):
    return np.concatenate([p.tensor.data.ravel() for p in net.prunable_parameters()])


def keep_masks(net):
    """Each prunable tensor's keep-mask by name; all ones for a tensor without one."""
    return {
        p.name: np.ones(p.tensor.shape, np.uint8) if p.mask is None else p.mask for p in net.prunable_parameters()
    }


def test_prune_count_is_floor_of_rate_times_kept():
    net = make_net(((5, 2),))  # 10 weights
    global_magnitude_prune(net, 0.2)
    assert kept_count(net) == 8


# float floor gives 28, 62 and 7220: 0.29 * 100 is 28.999999999999996
@pytest.mark.parametrize("rate, kept, count", [(0.29, 100, 29), (0.35, 180, 63), (0.29, 24900, 7221)])
def test_prune_count_uses_the_decimal_rate(rate, kept, count):
    assert prune_count(rate, kept) == count
    net = make_net(((kept, 1),))
    global_magnitude_prune(net, rate)
    assert kept_count(net) == kept - count


def test_prune_count_at_rate_02_matches_float_floor():
    # the default rate's ladder, and so every CSV written with it, is unchanged
    kept = [*range(10_001), 266_610, 4_300_000, 5_000_000]
    assert [prune_count(0.2, k) for k in kept] == [int(np.floor(0.2 * k)) for k in kept]


def test_lottery_ladder_at_rate_029_is_exact():
    ladder = ladder_of(make_net(((100, 1),)))
    iterative_lottery(ladder, lambda lad: [], lambda n: 1.0, rate=0.29, stop_threshold=0.3)
    expected = [100]
    while expected[-1] * 29 // 100 >= 1:  # stops when no whole weight is left to prune
        expected.append(expected[-1] - expected[-1] * 29 // 100)
    assert [r.kept for r in ladder.rounds] == expected


def test_unique_smallest_magnitude_is_pruned():
    net = make_net(((5, 1),))
    p = net.prunable_parameters()[0]
    p.tensor.data = np.array([[0.1], [-0.5], [0.3], [0.05], [-0.2]])
    global_magnitude_prune(net, 0.2)
    np.testing.assert_array_equal(p.mask.ravel(), [1, 1, 1, 0, 1])


def test_ties_break_by_ascending_registry_index():
    net = make_net(((10, 5), (5, 10)))  # 100 weights
    for p in net.prunable_parameters():
        p.tensor.data[:] = 0.75  # all equal magnitude
    global_magnitude_prune(net, 0.2)
    flat = np.concatenate([p.mask.ravel() for p in net.prunable_parameters()])
    np.testing.assert_array_equal(flat[:20], np.zeros(20))  # lowest registry indices go first
    np.testing.assert_array_equal(flat[20:], np.ones(80))


def test_rate_must_lie_in_unit_interval():
    net = make_net()
    for rate in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            global_magnitude_prune(net, rate)


def test_sparsity_of_fresh_mask():
    assert sparsity(make_net()) == 1.0


def test_sparsity_after_three_rounds_is_512():
    net = make_net(((100, 10),))  # 1000 weights
    for _ in range(3):
        global_magnitude_prune(net, 0.2)
    assert sparsity(net) == pytest.approx(0.512, abs=1e-9)


def test_exact_kept_ladder_100k_weights():
    net = make_net(((250, 200), (200, 250)))  # exactly 100,000 prunable weights
    assert count_parameters(net.prunable_parameters()) == 100_000
    kept = []
    for _ in range(5):
        global_magnitude_prune(net, 0.2)
        kept.append(kept_count(net))
    assert kept == [80_000, 64_000, 51_200, 40_960, 32_768]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 400), st.integers(1, 9))
def test_floor_recurrence_simulation(total_scale, rounds):
    # kept count follows the floor(0.8 R) recurrence; drift from 0.8^k stays
    # below k/total
    net = make_net(((total_scale + 1, 4),))
    total = net.prunable_parameters()[0].tensor.size
    expected = total
    for k in range(1, rounds + 1):
        if int(np.floor(0.2 * expected)) < 1:
            break
        global_magnitude_prune(net, 0.2)
        expected -= int(np.floor(0.2 * expected))
        assert kept_count(net) == expected
        assert abs(sparsity(net) - 0.8**k) < k / total + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_mask_monotonicity(seed):
    net = make_net(seed=seed)
    mask = keep_masks(net)
    for _ in range(4):
        global_magnitude_prune(net, 0.25)
        new = keep_masks(net)
        for name in mask:
            assert np.all(new[name] <= mask[name])  # kept set shrinks only
        mask = new


def test_no_kept_weight_smaller_than_any_pruned_weight():
    net = make_net(seed=3)
    global_magnitude_prune(net, 0.3)
    mags = np.abs(weight_vector(net))
    keep = np.concatenate([p.mask.ravel() for p in net.prunable_parameters()]).astype(bool)
    assert mags[keep].min() >= mags[~keep].max()


def test_rewind_full_mask_restores_theta0_exactly():
    net = make_net(seed=6)
    snap = capture_snapshot(net)
    for p in net.parameters():
        p.tensor.data += 1.0
    for p in net.prunable_parameters():
        p.mask = np.ones(p.tensor.shape, np.uint8)
    rewind(net, snap)
    for p in net.parameters():
        np.testing.assert_array_equal(p.tensor.data, snap[p.name])


def test_rewind_empty_mask_zeroes_weights_keeps_biases():
    net = make_net(seed=7)
    for layer in net.layers:
        layer.b.data[:] = 0.25
    snap = capture_snapshot(net)
    for p in net.prunable_parameters():
        p.mask = np.zeros(p.tensor.shape, np.uint8)
    for p in net.parameters():
        p.tensor.data += 3.0
    rewind(net, snap)
    for p in net.parameters():
        if p.prunable:
            np.testing.assert_array_equal(p.tensor.data, np.zeros_like(p.tensor.data))
        else:
            np.testing.assert_array_equal(p.tensor.data, snap[p.name])


def test_rewind_random_mask_is_elementwise_product():
    net = make_net(seed=8)
    snap = capture_snapshot(net)
    rng = np.random.default_rng(8)
    for p in net.prunable_parameters():
        p.mask = (rng.random(p.tensor.shape) < 0.5).astype(np.uint8)
    for p in net.parameters():
        p.tensor.data -= 2.0
    rewind(net, snap)
    for p in net.prunable_parameters():
        np.testing.assert_array_equal(p.tensor.data, snap[p.name] * p.mask)


def test_rewind_is_idempotent():
    net = make_net(seed=9)
    snap = capture_snapshot(net)
    global_magnitude_prune(net, 0.4)
    rewind(net, snap)
    once = weight_vector(net)
    rewind(net, snap)
    np.testing.assert_array_equal(weight_vector(net), once)


def test_masked_adam_training_keeps_pruned_weights_at_zero():
    from qprune.optim import Adam
    from qprune import tensor as T
    from qprune.tensor import Tape

    net = make_net(((6, 4), (4, 3)), seed=10)
    global_magnitude_prune(net, 0.5)
    snap = capture_snapshot(net)
    rewind(net, snap)
    opt = Adam(net.parameters(), lr=1e-2)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = Tensor(rng.standard_normal((5, 6)))
        labels = rng.integers(0, 3, size=5)
        with Tape() as tape:
            loss = T.softmax_cross_entropy(net.forward(x), labels)
        tape.backward(loss)
        opt.step()
    for p in net.prunable_parameters():
        pruned_positions = p.mask == 0
        assert np.all(p.tensor.data[pruned_positions] == 0.0)  # bit-exact zero
        assert np.any(p.tensor.data[~pruned_positions] != snap[p.name][~pruned_positions])


def test_always_failing_threshold_stops_after_two_prune_iterations():
    ladder = ladder_of(make_net(seed=11))
    calls = {"train": 0, "eval": 0}

    def train_fn(lad):
        calls["train"] += 1
        return [float(calls["train"])] * 2  # a two-epoch curve that names the level

    def eval_fn(network):
        calls["eval"] += 1
        return 0.5  # always below a 1.1 threshold

    iterative_lottery(ladder, train_fn, eval_fn, rate=0.2, stop_threshold=1.1)
    assert len(ladder.rounds) == 3  # dense + exactly 2 pruning iterations
    assert calls["train"] == 3
    assert ladder.failures == 2
    assert ladder.curve == [1.0, 1.0]  # the dense level's return value; the later levels' are dropped


def test_lottery_reports_descending_sparsity_and_uses_rewound_models():
    ladder = ladder_of(make_net(((50, 20), (20, 5)), seed=12, classes=5))

    def train_fn(lad):
        # emulate training drift; rewind must erase it between rounds
        for p in lad.net.prunable_parameters():
            p.tensor.data += 0.01
        return []

    def eval_fn(network):
        return 1.0  # never triggers the stop rule

    iterative_lottery(ladder, train_fn, eval_fn, rate=0.2, stop_threshold=0.3, max_rounds=4)
    sparsities = [r.sparsity for r in ladder.rounds]
    assert sparsities[0] == 1.0
    assert all(a > b for a, b in zip(sparsities, sparsities[1:]))
    expected_kept = 50 * 20 + 20 * 5  # 1100, then floor(0.8 R) four times
    for _ in range(4):
        expected_kept -= int(0.2 * expected_kept)
    assert ladder.rounds[-1].kept == expected_kept == 452


def test_lottery_validates_rate_before_training():
    calls = []
    with pytest.raises(ValueError, match="prune rate"):
        iterative_lottery(ladder_of(make_net()), calls.append, calls.append, rate=1.2, stop_threshold=0.3)
    assert calls == []


def test_lottery_refuses_a_pruned_network_before_training():
    net = make_net()
    global_magnitude_prune(net, 0.2)
    calls = []
    with pytest.raises(StateError, match="dense"):
        iterative_lottery(ladder_of(net), calls.append, calls.append, rate=0.2, stop_threshold=0.3)
    assert calls == []  # train_fn never ran


def test_output_layer_shares_the_global_pool():
    # no per-layer quota: when one layer's weights are uniformly tiny, the
    # global ranking prunes them all before touching the other layer
    net = make_net(((10, 4), (4, 10)), seed=13)
    first, second = net.prunable_parameters()
    first.tensor.data[:] = 1.0
    second.tensor.data[:] = 1e-6
    global_magnitude_prune(net, 0.5)  # prune 40 of 80
    assert second.mask.sum() == 0  # all 40 tiny weights gone
    assert first.mask.sum() == 40  # large-magnitude layer untouched
