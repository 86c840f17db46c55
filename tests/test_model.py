"""Filter head and full pipeline: weight normalization, offsets, Eq-style
joint filtering against a naive per-pixel oracle, end-to-end behavior."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dmsr.model import (DmsrModel, KernelField, ModelConfig, apply_joint_filter,
                        combine_offsets, combine_weights, identity_field,
                        upsample_lr)
from dmsr.ops import bilinear_sample, joint_filter, pixel_shuffle
from dmsr.tensor import GradHandle, Tape, Tensor, ShapeError, add, mul, rearrange
from dmsr.data import DatasetSplit, ScenePair
from dmsr.train import Adam, l1_loss, train_epochs

from helpers import (check_gradients, closure_reach, held_arrays, reference_backward,
                     reference_field, reference_joint_filter, slice_axis, weighted_sum_loss)

TINY = dict(embed_dim=8, window=4, heads=1, num_blocks=1, layers_per_block=1,
            k=3, scale=4)


def _weight_field(wg, wt, k=3, r=4):
    """The field of raw weight tensors wg and wt, with zero offsets."""
    z = Tensor(np.zeros((wg.shape[0], 2 * wg.shape[1], *wg.shape[2:])))
    return KernelField(*combine_weights(wg, wt, k, r), *combine_offsets(z, z, k, r), r)


def _offset_field(og, ot, k=3, r=4):
    """The field of raw offset tensors og and ot, with zero raw weights."""
    z = Tensor(np.zeros((og.shape[0], og.shape[1] // 2, *og.shape[2:])))
    return KernelField(*combine_weights(z, z, k, r), *combine_offsets(og, ot, k, r), r)


def full_field(weights, offsets):
    """A field at r = 1 whose full-resolution weights (taps summing to one)
    and offsets are the given arrays: each a factor times ones."""
    return KernelField(Tensor(weights), Tensor(np.ones(weights.shape)),
                       Tensor(offsets), Tensor(np.ones(offsets.shape)), 1)


def test_combine_weights_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        wg = Tensor(rng.uniform(-3, 3, (1, 9 * 16, 4, 4)))
        wt = Tensor(rng.uniform(-3, 3, (1, 9 * 16, 4, 4)))
        sums = _weight_field(wg, wt).weights.data.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-6


def test_combine_weights_zero_inputs_give_uniform_kernel():
    z = Tensor(np.zeros((1, 9 * 16, 2, 2)))
    np.testing.assert_allclose(_weight_field(z, z).weights.data, 1.0 / 9.0, atol=1e-12)


def test_combine_weights_output_is_4x_resolution():
    rng = np.random.default_rng(1)
    wg = Tensor(rng.random((2, 9 * 16, 3, 5)))
    assert _weight_field(wg, wg).weights.shape == (2, 9, 12, 20)


def test_combine_weights_channel_mismatch():
    with pytest.raises(ShapeError):
        combine_weights(Tensor(np.zeros((1, 10, 2, 2))),
                        Tensor(np.zeros((1, 10, 2, 2))), 3, 4)


def test_combine_offsets_multiplicative_identity():
    rng = np.random.default_rng(2)
    ot = Tensor(rng.uniform(-2, 2, (1, 18 * 16, 3, 3)))
    ones = Tensor(np.ones((1, 18 * 16, 3, 3)))
    got = _offset_field(ones, ot).offsets
    want = pixel_shuffle(ot, 4)
    np.testing.assert_array_equal(got.data, want.data)
    assert got.shape == (1, 18, 12, 12)


def test_combine_offsets_zero_guide_collapses_to_grid():
    rng = np.random.default_rng(3)
    ot = Tensor(rng.uniform(-2, 2, (1, 18 * 16, 2, 2)))
    zero = Tensor(np.zeros((1, 18 * 16, 2, 2)))
    np.testing.assert_allclose(_offset_field(zero, ot).offsets.data, 0.0)


def naive_joint_filter(target, weights, k):
    """Direct weighted-average oracle: zero offsets, border clamp."""
    B, _, H, W = target.shape
    half = k // 2
    out = np.zeros((B, 1, H, W))
    for b in range(B):
        for y in range(H):
            for x in range(W):
                acc = 0.0
                for t in range(k * k):
                    dy, dx = t // k - half, t % k - half
                    yy = min(max(y + dy, 0), H - 1)
                    xx = min(max(x + dx, 0), W - 1)
                    acc += weights[b, t, y, x] * target[b, 0, yy, xx]
                out[b, 0, y, x] = acc
    return out


def test_apply_joint_filter_uniform_on_constant():
    c = 0.37
    target = Tensor(np.full((1, 1, 6, 6), c))
    field = full_field(np.full((1, 9, 6, 6), 1.0 / 9.0), np.zeros((1, 18, 6, 6)))
    out = apply_joint_filter(target, field, 3)
    np.testing.assert_allclose(out.data, c, atol=1e-12)


def test_apply_joint_filter_delta_kernel_identity():
    rng = np.random.default_rng(4)
    target = Tensor(rng.random((2, 1, 8, 8)))
    out = apply_joint_filter(target, identity_field(2, 8, 8, 3), 3)
    assert np.abs(out.data - target.data).max() < 1e-6


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_identity_field_reproduces_the_target_exactly(k):
    rng = np.random.default_rng(21)
    target = Tensor(rng.random((2, 1, 9, 8)))
    field = identity_field(2, 9, 8, k)
    want = np.zeros((2, k * k, 9, 8))
    want[:, k * k // 2] = 1.0
    # factor form at r = 1: the one-hot weight factor times ones, whose
    # normalised taps are exactly the one-hot again
    assert field.r == 1 and field.w_guide.data.tobytes() == want.tobytes()
    assert (field.w_target.data == 1).all() and (field.o_target.data == 1).all()
    assert field.weights.data.tobytes() == want.tobytes()
    assert not field.offsets.data.any()
    out = apply_joint_filter(target, field, k)
    assert out.data.tobytes() == target.data.tobytes()


@pytest.mark.parametrize("k", [1, 3, 5])
def test_apply_joint_filter_matches_naive_oracle(k):
    rng = np.random.default_rng(5)
    target = rng.random((1, 1, 6, 6))
    raw = rng.uniform(0, 1, (1, k * k, 6, 6))
    weights = raw - raw.mean(axis=1, keepdims=True) + 1.0 / (k * k)
    field = full_field(weights, np.zeros((1, 2 * k * k, 6, 6)))
    got = apply_joint_filter(Tensor(target), field, k).data
    want = naive_joint_filter(target, weights, k)
    assert np.abs(got - want).max() < 1e-10


def test_apply_joint_filter_nonnegative_weights_stay_in_range():
    rng = np.random.default_rng(6)
    target = rng.random((1, 1, 8, 8))
    raw = rng.uniform(0.1, 1.0, (1, 9, 8, 8))
    field = full_field(raw / raw.sum(axis=1, keepdims=True), np.zeros((1, 18, 8, 8)))
    out = apply_joint_filter(Tensor(target), field, 3).data
    assert out.min() >= target.min() - 1e-12
    assert out.max() <= target.max() + 1e-12


def test_apply_joint_filter_offsets_shift_sampling():
    # weight on center tap, constant offset (0, +1) -> shifts image left
    target = np.arange(16.0).reshape(1, 1, 4, 4) / 16.0
    w = np.zeros((1, 9, 4, 4))
    w[:, 4] = 1.0
    o = np.zeros((1, 18, 4, 4))
    o[:, 9] = 1.0  # center tap dx
    out = apply_joint_filter(Tensor(target), full_field(w, o), 3)
    np.testing.assert_allclose(out.data[0, 0, :, :-1], target[0, 0, :, 1:], atol=1e-12)


def _factors(rng, B, k, r, h, w, grads=(True,) * 4):
    """Random weight factors in (0, 1), as a sigmoid gives them, and offset
    factors whose product reaches past the border, so some taps clamp."""
    kk, n = k * k, r * r
    return (Tensor(rng.uniform(0, 1, (B, kk * n, h, w)), requires_grad=grads[0]),
            Tensor(rng.uniform(0, 1, (B, kk * n, h, w)), requires_grad=grads[1]),
            Tensor(rng.uniform(-3, 3, (B, 2 * kk * n, h, w)), requires_grad=grads[2]),
            Tensor(rng.uniform(-1.5, 1.5, (B, 2 * kk * n, h, w)), requires_grad=grads[3]))


def per_tap_joint_filter(target, field, k):
    """The field at full resolution through the reference chain, then one
    bilinear_sample per tap, the terms added in tap order: the reference
    apply_joint_filter must reproduce exactly."""
    weights, offsets = reference_field(field.w_guide, field.w_target, field.o_guide,
                                       field.o_target, k, field.r)
    B, _, H, W = target.shape
    grid = np.stack(np.meshgrid(np.arange(H, dtype=np.float64),
                                np.arange(W, dtype=np.float64), indexing="ij"), axis=-1)
    out = None
    for tap in range(k * k):
        dy, dx = tap // k - k // 2, tap % k - k // 2
        offset = slice_axis(offsets, 1, 2 * tap, 2 * tap + 2)       # (B, 2, H, W)
        coords = add(rearrange(offset, offset.shape, (0, 2, 3, 1)),
                     Tensor(grid + np.array([dy, dx], dtype=np.float64)))
        term = mul(slice_axis(weights, 1, tap, tap + 1), bilinear_sample(target, coords))
        out = term if out is None else add(out, term)
    return out


def _filter_and_factor_grads(fn, target, factors, k, r):
    with Tape() as tape:
        out = fn(target, KernelField(*factors, r), k)
        grads = tape.backward(weighted_sum_loss(out))
    return [out.data] + [grads[f] for f in factors]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_apply_joint_filter_matches_per_tap_loop_exactly(k):
    rng = np.random.default_rng(10)
    target = Tensor(rng.random((2, 1, 6, 8)))          # constant, as in DmsrModel
    factors = _factors(rng, 2, k, 2, 3, 4)
    got, want = (_filter_and_factor_grads(fn, target, factors, k, 2)
                 for fn in (apply_joint_filter, per_tap_joint_filter))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("r", [2, 3], ids=["r2", "r3"])
def test_apply_joint_filter_matches_per_tap_loop_over_channels(r):
    # C > 1: each tap's weight and offset gradients sum over the channels.
    # h != w, and r = 3 as well as 2, so a swapped sub-pixel index shows
    rng = np.random.default_rng(11)
    target = Tensor(rng.random((2, 3, 2 * r, 3 * r)))
    factors = _factors(rng, 2, 3, r, 2, 3)
    got, want = (_filter_and_factor_grads(fn, target, factors, 3, r)
                 for fn in (apply_joint_filter, per_tap_joint_filter))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("constant", [None, 0, 1, 2, 3, 4],
                         ids=["all-live", "target", "w-guide", "w-target", "o-guide",
                              "o-target"])
def test_joint_filter_node_is_byte_equal_to_the_old_tail(k, constant):
    # the old tail: the full-resolution field as 6 nodes, then the filter
    # over it; the node forms each tap's planes from the factors instead.
    # The target is data, so it is constant in every case.
    rng = np.random.default_rng(22)
    live = [i != constant for i in range(5)]
    target = Tensor(rng.random((2, 2, 6, 4)))
    factors = _factors(rng, 2, k, 2, 3, 2, live[1:])
    inputs = (target, *factors)
    results = []
    for fn in (lambda: joint_filter(*inputs, k, 2),
               lambda: reference_joint_filter(target, *reference_field(*factors, k, 2), k)):
        with Tape() as tape:
            out = fn()
            grads = tape.backward(weighted_sum_loss(out))
        results.append([out.data] + [grads.get(t) for t in inputs])
    for i, (got, want) in enumerate(zip(*results)):
        if i and not inputs[i - 1].requires_grad:
            assert got is None and want is None
        else:
            assert got.tobytes() == want.tobytes(), i


@pytest.mark.parametrize("k", [1, 3, 5])
def test_apply_joint_filter_gradients(k):
    rng = np.random.default_rng(7)
    target = Tensor(rng.random((1, 1, 6, 6)))
    wg, wt, _, _ = _factors(rng, 1, k, 2, 3, 3)
    # keep sampling positions clear of the bilinear kernel's integer kinks:
    # each displacement og * ot is 0.16 to 0.48 pixels, either way
    shape = (1, 2 * k * k * 4, 3, 3)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    og = Tensor(rng.uniform(0.2, 0.4, shape) * sign, requires_grad=True)
    ot = Tensor(rng.uniform(0.8, 1.2, shape), requires_grad=True)
    check_gradients(
        lambda: weighted_sum_loss(apply_joint_filter(target, KernelField(wg, wt, og, ot, 2), k)),
        [wg, wt, og, ot], rel_tol=1e-3, n_coords=6)
    # the target is data: a target that requires a gradient is refused
    with pytest.raises(ValueError):
        apply_joint_filter(Tensor(target.data, requires_grad=True),
                           KernelField(wg, wt, og, ot, 2), k)


def test_apply_joint_filter_tape_does_not_grow_with_k():
    # all taps go through one joint_filter node, recorded as bilinear_sample
    rng = np.random.default_rng(9)
    target = Tensor(rng.random((1, 1, 6, 6)))
    for k in (1, 3, 5):
        with Tape() as tape:
            apply_joint_filter(target, KernelField(*_factors(rng, 1, k, 2, 3, 3), 2), k)
        assert [node.op for node in tape.nodes] == ["bilinear_sample"], k


def test_joint_filter_backward_runs_once():
    rng = np.random.default_rng(23)
    target = Tensor(rng.random((1, 1, 4, 4)))
    with Tape() as tape:
        out = apply_joint_filter(target, KernelField(*_factors(rng, 1, 3, 2, 2, 2), 2), 3)
    (node,) = tape.nodes
    node.backward(np.ones(out.shape))
    with pytest.raises(RuntimeError):
        node.backward(np.ones(out.shape))


def _joint_filter_at_benchmark_size():
    """The joint-filter node at (1, 1, 128, 128), k=3, r=4, the target
    constant: (its node, the forward's tracemalloc peak in MB)."""
    rng = np.random.default_rng(16)
    target = Tensor(rng.random((1, 1, 128, 128)))
    factors = _factors(rng, 1, 3, 4, 32, 32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            apply_joint_filter(target, KernelField(*factors, 4), 3)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    (node,) = tape.nodes
    return node, peak


# per tap, (1, 1, 128, 128) float64 arrays and (1, 128, 128) bool masks; a
# weight factor is 9 of them, an offset factor 18 and the tap mean 1
TAP_ARRAY, TAP_MASK = 128 * 128 * 8, 128 * 128


@pytest.mark.parametrize("floats,masks", [(9 + 9 + 18 + 18 + 1 + 9 + 18, 18)],
                         ids=["weights-and-offsets"])
def test_joint_filter_node_holds_only_what_its_backward_reads(floats, masks):
    # both weight factors (each reads the other), the tap mean, which forms
    # each tap's weight again, both offset factors and, per tap, the samples,
    # their slopes along y and x and the two clamp masks; never the target
    node, _ = _joint_filter_at_benchmark_size()
    reached = closure_reach(node.backward)
    assert not [obj for obj in reached if isinstance(obj, Tensor)]
    held = [a for a in held_arrays(reached) if a.size > 128]    # not the tap grid
    assert sum(a.nbytes for a in held if a.dtype == np.float64) == floats * TAP_ARRAY
    assert sum(a.nbytes for a in held if a.dtype == bool) == masks * TAP_MASK
    assert all(a.dtype in (np.float64, bool) for a in held)


def test_joint_filter_node_keeps_no_full_resolution_field():
    # each tap's samples, slopes and masks are arrays of their own, and one
    # backward leaves none of them, nor any factor, behind
    node, _ = _joint_filter_at_benchmark_size()
    held = held_arrays(closure_reach(node.backward))
    assert not [a for a in held if a.shape in ((1, 9, 128, 128), (1, 18, 128, 128))]
    assert not [a for a in held if a.ndim and a.shape[0] == 9]          # stacked taps
    per_tap = [a for a in held if a.size == 128 * 128]
    assert len(per_tap) == 9 + 18 + 18 + 1             # samples, slopes, masks, the mean
    node.backward(np.ones((1, 1, 128, 128)))
    assert not [a for a in held_arrays(closure_reach(node.backward)) if a.size > 128]


def test_joint_filter_forward_peak_is_bounded():
    # 6.3 MB: the 4.0 MB of per-tap arrays and tap mean the backward keeps,
    # the output and one tap's temporaries. Sampling all taps in one batched
    # call peaked at 26.0 MB.
    _, peak = _joint_filter_at_benchmark_size()
    assert peak <= 8, f"{peak:.1f} MB > 8 MB"


def test_no_tape_joint_filter_keeps_nothing_and_matches_the_node():
    # with no tape open the filter samples each tap without slopes and keeps
    # no per-tap list: 2.8 MB, against 6.3 MB when it kept them for no reader
    rng = np.random.default_rng(16)
    target = Tensor(rng.random((1, 1, 128, 128)))
    field = KernelField(*_factors(rng, 1, 3, 4, 32, 32), 4)
    with Tape() as tape:
        taped = apply_joint_filter(target, field, 3)
    assert len(tape.nodes) == 1
    tracemalloc.start()
    try:
        out = apply_joint_filter(target, field, 3)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert out.handle is None
    assert out.data.tobytes() == taped.data.tobytes()
    assert peak <= 3.5, f"{peak:.1f} MB > 3.5 MB"


# one training step at the benchmark workloads' configs: scale 8, k=3, default
# widths, swin at 64x64 and naf at 128x128
def _training_step_inputs(backbone, size, position_bias=False):
    """(model, guidance, depth_lr, depth_hr) for one training step."""
    model = DmsrModel(ModelConfig(backbone=backbone, scale=8, k=3,
                                  position_bias=position_bias))
    rng = np.random.default_rng(15)
    return (model, Tensor(rng.random((1, 3, size, size))),
            Tensor(rng.random((1, 1, size // 8, size // 8))),
            Tensor(rng.random((1, 1, size, size))))


def _record_loss(model, guidance, depth_lr, depth_hr):
    with Tape() as tape:
        loss = l1_loss(model.forward(guidance, depth_lr), depth_hr)
    return tape, loss


# Each attention call is one node: 14 (17 with position bias) became 1 in
# each of swin's 16 calls. combine_weights shuffles before it normalises, so
# its two reshapes went. Each NAF block is one node: 20 became 1 in each of
# naf's 12 blocks. Each swin MLP is one node: 5 became 1 in each of its 16.
# The joint filter takes the heads' factors: the 8 nodes from the sigmoids to
# the filter became 1. Each swin layer's attention and MLP sublayers take in
# their layer norms and windowing: 8 nodes became 4 in each of its 16 layers.
@pytest.mark.parametrize("backbone,size,position_bias,nodes",
                         [("swin", 64, False, 116), ("swin", 64, True, 116),
                          ("naf", 128, False, 28)],
                         ids=["swin-64", "swin-64-position-bias", "naf-128"])
def test_training_step_tape_size_is_pinned(backbone, size, position_bias, nodes):
    tape, _ = _record_loss(*_training_step_inputs(backbone, size, position_bias))
    assert len(tape.nodes) == nodes


# The arrays the backward closures of one step hold after the forward,
# parameters included, counted once per owning buffer: 10.2 MB (swin 64) and
# 19.6 MB (naf 128). Closures that kept their input Tensors, and conv2d with a
# stored im2col matrix, held 66.9 and 147.1 MB; the joint filter as seven
# nodes around one batched bilinear_sample, 25.2 and 70.4 MB; each NAF block
# as a chain of 20 nodes, naf 65.7 MB; attention keeping q, k, v and the
# merged heads, and each MLP as a chain of 5 nodes, swin 24.0 MB; each swin
# sublayer's norm output kept beside its xhat, swin 17.5 MB; each swin MLP
# keeping its pre-activation and each attention its probabilities, 13.3 MB;
# each NAF block keeping its norms' xhat and its depthwise output, naf 29.3 MB.
@pytest.mark.parametrize("backbone,size,bound_mb", [("swin", 64, 11), ("naf", 128, 21)],
                         ids=["swin-64-11MB", "naf-128-21MB"])
def test_training_step_saved_arrays_are_pinned(backbone, size, bound_mb):
    tape, _ = _record_loss(*_training_step_inputs(backbone, size))
    reached = [obj for node in tape.nodes for obj in closure_reach(node.backward)]
    tensors = [obj for obj in reached if isinstance(obj, Tensor)]
    assert not tensors, f"{len(tensors)} Tensors reached from backward closures"
    held = sum(a.nbytes for a in held_arrays(reached)) / 1e6
    assert held <= bound_mb, f"{held:.1f} MB > {bound_mb} MB"


@pytest.fixture(scope="module", params=[("swin", 64, 7), ("naf", 128, 20)],
                ids=["swin-64", "naf-128"])
def training_step(request):
    """One step, forward and backward, under tracemalloc: (its inputs, leaf
    gradients, the forward's peak MB, the sweep's peak MB, bound MB). The
    sweep consumes the tape, so a test that reads its nodes records the
    identical step again; no node list outlives the measured sweep."""
    backbone, size, bound_mb = request.param
    inputs = _training_step_inputs(backbone, size)
    tracemalloc.start()
    try:
        tape, loss = _record_loss(*inputs)
        forward_peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.reset_peak()
        grads = tape.backward(loss)
        sweep_peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return inputs, grads, forward_peak, sweep_peak, bound_mb


def test_training_step_peak_memory_is_bounded(training_step):
    # a sweep that kept every intermediate gradient to its end peaked at
    # 104 MB (swin 64) and 258 MB (naf 128); freeing them as it goes, 73 and 158;
    # with closures that keep only the arrays they read, 30.0 and 87.4; with
    # the joint filter sampled tap by tap, 28.9 and 75.7; with each NAF block
    # one node, naf 39.9; with the sweep freeing each node as it runs it, the
    # step peaks in its forward, at 21.5 and 32.7; with attention rebuilding its
    # projections and each swin MLP one node, swin 15.1; with the joint filter
    # forming each tap's weight and offsets from the heads' factors, 14.2 and 28.5;
    # with each swin sublayer rebuilding its norm's output, swin 9.9; with
    # each rebuilding its pre-activation or probabilities too, and the sweep
    # handing each leaf gradient over as it copies it, swin 6.7; with each NAF
    # block keeping only its input and re-running itself in its backward, naf
    # 18.8 (the sweep 0.14 below it)
    *_, forward_peak, sweep_peak, bound_mb = training_step
    peak = max(forward_peak, sweep_peak)
    assert peak <= bound_mb, f"{peak:.1f} MB > {bound_mb} MB"
    assert sweep_peak <= forward_peak, f"sweep {sweep_peak:.1f} MB > forward {forward_peak:.1f} MB"


# One forward with no tape open, after a warm-up forward: naf 128 peaks in
# the combine stage. With the joint filter keeping its per-tap samples,
# slopes and masks for no reader, 13.5 (naf 128) and 3.4 MB (swin 64).
@pytest.mark.parametrize("backbone,size,bound_mb", [("swin", 64, 3.2), ("naf", 128, 12.5)],
                         ids=["swin-64", "naf-128"])
def test_no_tape_forward_peak_is_bounded(backbone, size, bound_mb):
    model, guidance, depth_lr, _ = _training_step_inputs(backbone, size)
    model.forward(guidance, depth_lr)            # fills the caches
    tracemalloc.start()
    try:
        model.forward(guidance, depth_lr)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb, f"{peak:.2f} MB > {bound_mb} MB"


def test_lean_sweep_matches_the_reference_sweep(training_step):
    inputs, grads, *_ = training_step
    tape, loss = _record_loss(*inputs)
    want = reference_backward(tape.nodes, loss)
    del want[loss.handle]                 # the lean sweep keeps leaves only
    assert set(grads) == set(want)
    for t, g in want.items():
        assert grads[t].tobytes() == g.tobytes()


def test_backwards_return_none_exactly_for_constants(training_step):
    # a step's only constant node inputs are data: the sub-images of the two
    # input convs and the loss's ground truth (the filter's upsampled target
    # is not a node input). Every backward returns an array for every input
    # but the input convs', which skip their constant sub-images.
    tape, _ = _record_loss(*training_step[0])
    constants, skipped = Counter(), Counter()
    for node in tape.nodes:
        got = node.backward(np.ones(node.out.shape))
        assert len(got) == len(node.inputs), node.op
        for i, (t, g) in enumerate(zip(node.inputs, got)):
            # a constant input is None; any other is an op output's handle or a leaf
            assert t is None or isinstance(t, GradHandle) or t.requires_grad, node.op
            if t is None:
                constants[node.op, i] += 1
            if g is None:
                skipped[node.op, i] += 1
    assert skipped == {("conv2d", 0): 2}
    assert constants == {("conv2d", 0): 2, ("sub", 1): 1}


def test_two_training_steps_peak_like_one():
    # a gradient dict still bound when the next step's forward runs adds its
    # 3.2 MB to that forward's peak
    model, *arrays = _training_step_inputs("naf", 128)
    pairs = [ScenePair(f"p{i}", arrays[0].data[0], arrays[2].data[0], arrays[1].data[0])
             for i in range(2)]
    optimizer = Adam(model.named_parameters())
    train_epochs(model, optimizer, DatasetSplit(pairs[:1], []), 1, 0)    # fills caches
    peaks = []
    for n in (1, 2):
        tracemalloc.start()
        try:
            train_epochs(model, optimizer, DatasetSplit(pairs[:n], []), 1, 0)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1.0, f"two steps {peaks[1]:.1f} MB, one {peaks[0]:.1f} MB"


# head convs ------------------------------------------------------------------


def test_head_conv_channel_counts():
    from dmsr.model import HeadConvs
    rng = np.random.default_rng(8)
    head = HeadConvs(rng, 8, 3, 4)
    f = Tensor(rng.random((1, 8, 6, 6)))
    w, o = head.forward(f)
    assert w.shape == (1, 16 * 9, 6, 6)
    assert o.shape == (1, 16 * 18, 6, 6)


# full model -------------------------------------------------------------------


def test_dmsr_forward_output_shape():
    cfg = ModelConfig(backbone="swin", **TINY)
    model = DmsrModel(cfg, seed=0)
    rng = np.random.default_rng(9)
    out = model.forward(Tensor(rng.random((1, 3, 16, 16))),
                        Tensor(rng.random((1, 1, 4, 4))))
    assert out.shape == (1, 1, 16, 16)
    assert np.isfinite(out.data).all()


def test_dmsr_forward_runs_both_branches():
    cfg = ModelConfig(backbone="naf", **{**TINY, "num_blocks": 2})
    model = DmsrModel(cfg, seed=0)
    calls = []
    for name in ("guide_backbone", "target_backbone"):
        bb = getattr(model, name)
        orig = bb.forward
        bb.forward = (lambda f, n: lambda x: calls.append(n) or f(x))(orig, name)
    rng = np.random.default_rng(10)
    model.forward(Tensor(rng.random((1, 3, 16, 16))),
                  Tensor(rng.random((1, 1, 4, 4))))
    assert sorted(calls) == ["guide_backbone", "target_backbone"]


def test_dmsr_forward_rejects_bad_extents():
    cfg = ModelConfig(backbone="swin", **TINY)
    model = DmsrModel(cfg, seed=0)
    rng = np.random.default_rng(11)
    with pytest.raises(ShapeError):
        model.forward(Tensor(rng.random((1, 3, 20, 20))),
                      Tensor(rng.random((1, 1, 5, 5))))
    with pytest.raises(ShapeError):
        model.forward(Tensor(rng.random((1, 3, 16, 16))),
                      Tensor(rng.random((1, 1, 8, 8))))


def test_dmsr_forward_deterministic():
    cfg = ModelConfig(backbone="swin", **TINY)
    rng = np.random.default_rng(12)
    g = Tensor(rng.random((1, 3, 16, 16)))
    d = Tensor(rng.random((1, 1, 4, 4)))
    out1 = DmsrModel(cfg, seed=5).forward(g, d).data
    out2 = DmsrModel(cfg, seed=5).forward(g, d).data
    assert (out1 == out2).all()
    model = DmsrModel(cfg, seed=5)
    assert (model.forward(g, d).data == model.forward(g, d).data).all()


@pytest.mark.parametrize("backbone", ["swin", "naf"])
def test_dmsr_end_to_end_parameter_gradients(backbone):
    cfg = ModelConfig(backbone=backbone, **TINY)
    model = DmsrModel(cfg, seed=1)
    if backbone == "naf":
        for bb in (model.guide_backbone, model.target_backbone):
            for block in bb.blocks:
                block.beta.data[...] = 0.3
                block.gamma.data[...] = 0.3
    rng = np.random.default_rng(13)
    g = Tensor(rng.random((1, 3, 16, 16)))
    d = Tensor(rng.random((1, 1, 4, 4)))
    named = model.named_parameters()
    rsel = np.random.default_rng(14)
    leaves = [p for _, p in (named[i] for i in
                             rsel.choice(len(named), size=12, replace=False))]
    check_gradients(lambda: weighted_sum_loss(model.forward(g, d)),
                    leaves, rel_tol=1e-3, n_coords=2)


def test_upsample_lr_matches_bicubic_per_image():
    from dmsr.data import bicubic_resize
    rng = np.random.default_rng(15)
    d = rng.random((2, 1, 4, 4))
    up = upsample_lr(Tensor(d), 4)
    for b in range(2):
        np.testing.assert_array_equal(up.data[b], bicubic_resize(d[b], 16, 16))
