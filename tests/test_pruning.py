import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprune.layers import Linear
from qprune.models import Network, model_spec
from qprune.pruning import (
    Mask,
    PruneSchedule,
    capture_snapshot,
    full_mask,
    global_magnitude_prune,
    iterative_lottery,
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


def weight_vector(net):
    return np.concatenate([p.tensor.data.ravel() for p in net.prunable_parameters()])


def test_prune_count_is_floor_of_rate_times_kept():
    net = make_net(((5, 2),))  # 10 weights
    mask = full_mask(net)
    pruned = global_magnitude_prune(net, mask, 0.2)
    assert pruned.kept_count() == 8


# float floor gives 28, 62 and 7220: 0.29 * 100 is 28.999999999999996
@pytest.mark.parametrize("rate, kept, count", [(0.29, 100, 29), (0.35, 180, 63), (0.29, 24900, 7221)])
def test_prune_count_uses_the_decimal_rate(rate, kept, count):
    assert prune_count(rate, kept) == count
    net = make_net(((kept, 1),))
    assert global_magnitude_prune(net, full_mask(net), rate).kept_count() == kept - count


def test_prune_count_at_rate_02_matches_float_floor():
    # the default rate's ladder, and so every CSV written with it, is unchanged
    kept = [*range(10_001), 266_610, 4_300_000, 5_000_000]
    assert [prune_count(0.2, k) for k in kept] == [int(np.floor(0.2 * k)) for k in kept]


def test_lottery_ladder_at_rate_029_is_exact():
    net = make_net(((100, 1),))
    results = iterative_lottery(net, PruneSchedule(rate=0.29), lambda n, m: None, lambda n: 1.0)
    expected = [100]
    while expected[-1] * 29 // 100 >= 1:  # stops when no whole weight is left to prune
        expected.append(expected[-1] - expected[-1] * 29 // 100)
    assert [r.kept for r in results] == expected


def test_unique_smallest_magnitude_is_pruned():
    net = make_net(((5, 1),))
    p = net.prunable_parameters()[0]
    p.tensor.data = np.array([[0.1], [-0.5], [0.3], [0.05], [-0.2]])
    mask = global_magnitude_prune(net, full_mask(net), 0.2)
    np.testing.assert_array_equal(mask.arrays[p.name].ravel(), [1, 1, 1, 0, 1])


def test_ties_break_by_ascending_registry_index():
    net = make_net(((10, 5), (5, 10)))  # 100 weights
    for p in net.prunable_parameters():
        p.tensor.data[:] = 0.75  # all equal magnitude
    mask = global_magnitude_prune(net, full_mask(net), 0.2)
    flat = np.concatenate([mask.arrays[p.name].ravel() for p in net.prunable_parameters()])
    np.testing.assert_array_equal(flat[:20], np.zeros(20))  # lowest registry indices go first
    np.testing.assert_array_equal(flat[20:], np.ones(80))


def test_rate_must_lie_in_unit_interval():
    net = make_net()
    for rate in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            global_magnitude_prune(net, full_mask(net), rate)


def test_sparsity_of_fresh_mask():
    assert sparsity(full_mask(make_net())) == 1.0


def test_sparsity_after_three_rounds_is_512():
    net = make_net(((100, 10),))  # 1000 weights
    mask = full_mask(net)
    for _ in range(3):
        mask = global_magnitude_prune(net, mask, 0.2)
    assert sparsity(mask) == pytest.approx(0.512, abs=1e-9)


def test_exact_kept_ladder_100k_weights():
    net = make_net(((250, 200), (200, 250)))  # exactly 100,000 prunable weights
    mask = full_mask(net)
    assert mask.total_count() == 100_000
    kept = []
    for _ in range(5):
        mask = global_magnitude_prune(net, mask, 0.2)
        kept.append(mask.kept_count())
    assert kept == [80_000, 64_000, 51_200, 40_960, 32_768]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 400), st.integers(1, 9))
def test_floor_recurrence_simulation(total_scale, rounds):
    # kept count follows the floor(0.8 R) recurrence; drift from 0.8^k stays
    # below k/total
    net = make_net(((total_scale + 1, 4),))
    total = net.prunable_parameters()[0].tensor.size
    mask = full_mask(net)
    expected = total
    for k in range(1, rounds + 1):
        if int(np.floor(0.2 * expected)) < 1:
            break
        mask = global_magnitude_prune(net, mask, 0.2)
        expected -= int(np.floor(0.2 * expected))
        assert mask.kept_count() == expected
        assert abs(sparsity(mask) - 0.8**k) < k / total + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_mask_monotonicity(seed):
    net = make_net(seed=seed)
    mask = full_mask(net)
    for _ in range(4):
        new = global_magnitude_prune(net, mask, 0.25)
        for name in mask.arrays:
            assert np.all(new.arrays[name] <= mask.arrays[name])  # kept set shrinks only
        mask = new


def test_no_kept_weight_smaller_than_any_pruned_weight():
    net = make_net(seed=3)
    mask = global_magnitude_prune(net, full_mask(net), 0.3)
    mags = np.abs(weight_vector(net))
    keep = np.concatenate([mask.arrays[p.name].ravel() for p in net.prunable_parameters()]).astype(bool)
    assert mags[keep].min() >= mags[~keep].max()


def test_rewind_full_mask_restores_theta0_exactly():
    net = make_net(seed=6)
    snap = capture_snapshot(net)
    for p in net.parameters():
        p.tensor.data += 1.0
    rewind(net, snap, full_mask(net))
    for p in net.parameters():
        np.testing.assert_array_equal(p.tensor.data, snap.arrays[p.name])


def test_rewind_empty_mask_zeroes_weights_keeps_biases():
    net = make_net(seed=7)
    for layer in net.layers:
        layer.b.data[:] = 0.25
    snap = capture_snapshot(net)
    mask = full_mask(net)
    for name in mask.arrays:
        mask.arrays[name][:] = 0
    for p in net.parameters():
        p.tensor.data += 3.0
    rewind(net, snap, mask)
    for p in net.parameters():
        if p.prunable:
            np.testing.assert_array_equal(p.tensor.data, np.zeros_like(p.tensor.data))
        else:
            np.testing.assert_array_equal(p.tensor.data, snap.arrays[p.name])


def test_rewind_random_mask_is_elementwise_product():
    net = make_net(seed=8)
    snap = capture_snapshot(net)
    rng = np.random.default_rng(8)
    mask = full_mask(net)
    for name in mask.arrays:
        mask.arrays[name] = (rng.random(mask.arrays[name].shape) < 0.5).astype(np.uint8)
    for p in net.parameters():
        p.tensor.data -= 2.0
    rewind(net, snap, mask)
    for p in net.prunable_parameters():
        np.testing.assert_array_equal(p.tensor.data, snap.arrays[p.name] * mask.arrays[p.name])


def test_rewind_is_idempotent():
    net = make_net(seed=9)
    snap = capture_snapshot(net)
    mask = global_magnitude_prune(net, full_mask(net), 0.4)
    rewind(net, snap, mask)
    once = weight_vector(net)
    rewind(net, snap, mask)
    np.testing.assert_array_equal(weight_vector(net), once)


def test_masked_adam_training_keeps_pruned_weights_at_zero():
    from qprune.optim import Adam
    from qprune import tensor as T
    from qprune.tensor import Tape

    net = make_net(((6, 4), (4, 3)), seed=10)
    mask = global_magnitude_prune(net, full_mask(net), 0.5)
    snap = capture_snapshot(net)
    rewind(net, snap, mask)
    opt = Adam(net.parameters(), lr=1e-2)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = Tensor(rng.standard_normal((5, 6)))
        labels = rng.integers(0, 3, size=5)
        with Tape() as tape:
            loss = T.softmax_cross_entropy(net.forward(x), labels)
        tape.backward(loss)
        opt.step(mask.arrays)
    for p in net.prunable_parameters():
        pruned_positions = mask.arrays[p.name] == 0
        assert np.all(p.tensor.data[pruned_positions] == 0.0)  # bit-exact zero
        assert np.any(p.tensor.data[~pruned_positions] != snap.arrays[p.name][~pruned_positions])


def test_always_failing_threshold_stops_after_two_prune_iterations():
    net = make_net(seed=11)
    calls = {"train": 0, "eval": 0}

    def train_fn(network, mask):
        calls["train"] += 1

    def eval_fn(network):
        calls["eval"] += 1
        return 0.5  # always below a 1.1 threshold

    schedule = PruneSchedule(rate=0.2, stop_threshold=1.1)
    results = iterative_lottery(net, schedule, train_fn, eval_fn)
    assert len(results) == 3  # dense + exactly 2 pruning iterations
    assert calls["train"] == 3


def test_lottery_reports_descending_sparsity_and_uses_rewound_models():
    net = make_net(((50, 20), (20, 5)), seed=12, classes=5)
    snap_values = weight_vector(net).copy()
    seen_sparsities = []

    def train_fn(network, mask):
        # emulate training drift; rewind must erase it between rounds
        for p in network.prunable_parameters():
            p.tensor.data += 0.01

    def eval_fn(network):
        return 1.0  # never triggers the stop rule

    results = iterative_lottery(net, PruneSchedule(), train_fn, eval_fn, max_rounds=4)
    sparsities = [r.sparsity for r in results]
    assert sparsities[0] == 1.0
    assert all(a > b for a, b in zip(sparsities, sparsities[1:]))
    expected_kept = 50 * 20 + 20 * 5  # 1100, then floor(0.8 R) four times
    for _ in range(4):
        expected_kept -= int(0.2 * expected_kept)
    assert results[-1].kept == expected_kept == 452


def test_schedule_validates_rate():
    with pytest.raises(ValueError):
        PruneSchedule(rate=1.2)


def test_output_layer_shares_the_global_pool():
    # no per-layer quota: when one layer's weights are uniformly tiny, the
    # global ranking prunes them all before touching the other layer
    net = make_net(((10, 4), (4, 10)), seed=13)
    first, second = net.prunable_parameters()
    first.tensor.data[:] = 1.0
    second.tensor.data[:] = 1e-6
    mask = global_magnitude_prune(net, full_mask(net), 0.5)  # prune 40 of 80
    assert mask.arrays[second.name].sum() == 0  # all 40 tiny weights gone
    assert mask.arrays[first.name].sum() == 40  # large-magnitude layer untouched
