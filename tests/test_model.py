"""Filter head and full pipeline: weight normalization, offsets, Eq-style
joint filtering against a naive per-pixel oracle, end-to-end behavior."""

import tracemalloc

import numpy as np
import pytest

from dmsr.model import (DmsrModel, KernelField, ModelConfig, apply_joint_filter,
                        combine_offsets, combine_weights, identity_field,
                        upsample_lr)
from dmsr.ops import bilinear_sample, pixel_shuffle
from dmsr.tensor import GradHandle, Tape, Tensor, ShapeError, add, mul, rearrange
from dmsr.data import DatasetSplit, ScenePair
from dmsr.train import Adam, l1_loss, train_epochs

from helpers import (check_gradients, closure_reach, held_arrays, reference_backward,
                     slice_axis, weighted_sum_loss)

TINY = dict(embed_dim=8, window=4, heads=1, num_blocks=1, layers_per_block=1,
            k=3, scale=4)


def test_combine_weights_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        wg = Tensor(rng.uniform(-3, 3, (1, 9 * 16, 4, 4)))
        wt = Tensor(rng.uniform(-3, 3, (1, 9 * 16, 4, 4)))
        w = combine_weights(wg, wt, 3)
        sums = w.data.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-6


def test_combine_weights_zero_inputs_give_uniform_kernel():
    z = Tensor(np.zeros((1, 9 * 16, 2, 2)))
    w = combine_weights(z, z, 3)
    np.testing.assert_allclose(w.data, 1.0 / 9.0, atol=1e-12)


def test_combine_weights_output_is_4x_resolution():
    rng = np.random.default_rng(1)
    wg = Tensor(rng.random((2, 9 * 16, 3, 5)))
    w = combine_weights(wg, wg, 3)
    assert w.shape == (2, 9, 12, 20)


def test_combine_weights_channel_mismatch():
    with pytest.raises(ShapeError):
        combine_weights(Tensor(np.zeros((1, 10, 2, 2))),
                        Tensor(np.zeros((1, 10, 2, 2))), 3)


def test_combine_offsets_multiplicative_identity():
    rng = np.random.default_rng(2)
    ot = Tensor(rng.uniform(-2, 2, (1, 18 * 16, 3, 3)))
    ones = Tensor(np.ones((1, 18 * 16, 3, 3)))
    got = combine_offsets(ones, ot, 3)
    want = pixel_shuffle(ot, 4)
    np.testing.assert_array_equal(got.data, want.data)
    assert got.shape == (1, 18, 12, 12)


def test_combine_offsets_zero_guide_collapses_to_grid():
    rng = np.random.default_rng(3)
    ot = Tensor(rng.uniform(-2, 2, (1, 18 * 16, 2, 2)))
    zero = Tensor(np.zeros((1, 18 * 16, 2, 2)))
    np.testing.assert_allclose(combine_offsets(zero, ot, 3).data, 0.0)


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
    w = Tensor(np.full((1, 9, 6, 6), 1.0 / 9.0))
    o = Tensor(np.zeros((1, 18, 6, 6)))
    out = apply_joint_filter(target, KernelField(w, o), 3)
    np.testing.assert_allclose(out.data, c, atol=1e-12)


def test_apply_joint_filter_delta_kernel_identity():
    rng = np.random.default_rng(4)
    target = Tensor(rng.random((2, 1, 8, 8)))
    out = apply_joint_filter(target, identity_field(2, 8, 8, 3), 3)
    assert np.abs(out.data - target.data).max() < 1e-6


@pytest.mark.parametrize("k", [1, 3, 5])
def test_apply_joint_filter_matches_naive_oracle(k):
    rng = np.random.default_rng(5)
    target = rng.random((1, 1, 6, 6))
    raw = rng.uniform(0, 1, (1, k * k, 6, 6))
    weights = raw - raw.mean(axis=1, keepdims=True) + 1.0 / (k * k)
    field = KernelField(Tensor(weights), Tensor(np.zeros((1, 2 * k * k, 6, 6))))
    got = apply_joint_filter(Tensor(target), field, k).data
    want = naive_joint_filter(target, weights, k)
    assert np.abs(got - want).max() < 1e-10


def test_apply_joint_filter_nonnegative_weights_stay_in_range():
    rng = np.random.default_rng(6)
    target = rng.random((1, 1, 8, 8))
    raw = rng.uniform(0.1, 1.0, (1, 9, 8, 8))
    weights = raw / raw.sum(axis=1, keepdims=True)
    field = KernelField(Tensor(weights), Tensor(np.zeros((1, 18, 8, 8))))
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
    out = apply_joint_filter(Tensor(target), KernelField(Tensor(w), Tensor(o)), 3)
    np.testing.assert_allclose(out.data[0, 0, :, :-1], target[0, 0, :, 1:], atol=1e-12)


def per_tap_joint_filter(target, field, k):
    """One bilinear_sample per tap, the terms added in tap order: the
    reference apply_joint_filter must reproduce exactly."""
    B, _, H, W = target.shape
    grid = np.stack(np.meshgrid(np.arange(H, dtype=np.float64),
                                np.arange(W, dtype=np.float64), indexing="ij"), axis=-1)
    out = None
    for tap in range(k * k):
        dy, dx = tap // k - k // 2, tap % k - k // 2
        offset = slice_axis(field.offsets, 1, 2 * tap, 2 * tap + 2)       # (B, 2, H, W)
        coords = add(rearrange(offset, offset.shape, (0, 2, 3, 1)),
                     Tensor(grid + np.array([dy, dx], dtype=np.float64)))
        term = mul(slice_axis(field.weights, 1, tap, tap + 1), bilinear_sample(target, coords))
        out = term if out is None else add(out, term)
    return out


@pytest.mark.parametrize("k", [1, 3, 5])
def test_apply_joint_filter_matches_per_tap_loop_exactly(k):
    rng = np.random.default_rng(10)
    target = Tensor(rng.random((2, 1, 6, 7)))          # constant, as in DmsrModel
    w = Tensor(rng.uniform(0, 1, (2, k * k, 6, 7)), requires_grad=True)
    o = Tensor(rng.uniform(-3, 3, (2, 2 * k * k, 6, 7)), requires_grad=True)  # some clamp
    results = []
    for fn in (apply_joint_filter, per_tap_joint_filter):
        with Tape() as tape:
            out = fn(target, KernelField(w, o), k)
            grads = tape.backward(weighted_sum_loss(out))
        results.append((out.data, grads[w], grads[o]))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def test_apply_joint_filter_matches_per_tap_loop_over_channels():
    # C > 1: each tap's weight and offset gradients sum over the channels
    rng = np.random.default_rng(11)
    target = Tensor(rng.random((2, 3, 5, 6)))
    w = Tensor(rng.uniform(0, 1, (2, 9, 5, 6)), requires_grad=True)
    o = Tensor(rng.uniform(-3, 3, (2, 18, 5, 6)), requires_grad=True)
    results = []
    for fn in (apply_joint_filter, per_tap_joint_filter):
        with Tape() as tape:
            out = fn(target, KernelField(w, o), 3)
            grads = tape.backward(weighted_sum_loss(out))
        results.append((out.data, grads[w], grads[o]))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_apply_joint_filter_gradients(k):
    rng = np.random.default_rng(7)
    target = Tensor(rng.random((1, 1, 5, 5)), requires_grad=True)
    w = Tensor(rng.uniform(0, 1, (1, k * k, 5, 5)), requires_grad=True)
    # keep sampling positions clear of the bilinear kernel's integer kinks
    mag = rng.uniform(0.2, 0.45, (1, 2 * k * k, 5, 5))
    sign = np.where(rng.random((1, 2 * k * k, 5, 5)) < 0.5, -1.0, 1.0)
    o = Tensor(mag * sign, requires_grad=True)
    check_gradients(
        lambda: weighted_sum_loss(apply_joint_filter(target, KernelField(w, o), k)),
        [target, w, o], rel_tol=1e-3, n_coords=6)


def test_apply_joint_filter_tape_does_not_grow_with_k():
    # all taps go through one joint_filter node, recorded as bilinear_sample
    rng = np.random.default_rng(9)
    target = Tensor(rng.random((1, 1, 5, 5)))
    for k in (1, 3, 5):
        w = Tensor(rng.uniform(0, 1, (1, k * k, 5, 5)), requires_grad=True)
        o = Tensor(rng.uniform(-1, 1, (1, 2 * k * k, 5, 5)), requires_grad=True)
        with Tape() as tape:
            apply_joint_filter(target, KernelField(w, o), k)
        assert [node.op for node in tape.nodes] == ["bilinear_sample"], k


def _joint_filter_at_benchmark_size(weights_grad, offsets_grad):
    """The fused joint-filter node at (1, 1, 128, 128), k=3, the target
    constant: (its node, the forward's tracemalloc peak in MB)."""
    rng = np.random.default_rng(16)
    target = Tensor(rng.random((1, 1, 128, 128)))
    w = Tensor(rng.uniform(0, 1, (1, 9, 128, 128)), requires_grad=weights_grad)
    o = Tensor(rng.uniform(-3, 3, (1, 18, 128, 128)), requires_grad=offsets_grad)
    tracemalloc.start()
    try:
        with Tape() as tape:
            apply_joint_filter(target, KernelField(w, o), 3)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    (node,) = tape.nodes
    return node, peak


# per tap, (1, 1, 128, 128) float64 arrays and (1, 128, 128) bool masks
TAP_ARRAY, TAP_MASK = 128 * 128 * 8, 128 * 128


@pytest.mark.parametrize("weights_grad,offsets_grad,floats,masks",
                         [(True, True, 9 + 9 + 18, 18), (True, False, 9, 0),
                          (False, True, 9 + 18, 18)],
                         ids=["weights-and-offsets", "weights-only", "offsets-only"])
def test_joint_filter_node_holds_only_what_its_backward_reads(weights_grad, offsets_grad,
                                                              floats, masks):
    # weights: the samples of each tap; offsets: the weights, each tap's slopes
    # along y and x and its two clamp masks; never the target or the offsets
    node, _ = _joint_filter_at_benchmark_size(weights_grad, offsets_grad)
    reached = closure_reach(node.backward)
    assert not [obj for obj in reached if isinstance(obj, Tensor)]
    held = [a for a in held_arrays(reached) if a.size > 128]    # not the tap grid
    assert sum(a.nbytes for a in held if a.dtype == np.float64) == floats * TAP_ARRAY
    assert sum(a.nbytes for a in held if a.dtype == bool) == masks * TAP_MASK
    assert all(a.dtype in (np.float64, bool) for a in held)


def test_joint_filter_forward_peak_is_bounded():
    # 6.7 MB: the 5.0 MB the backward keeps, the output and one tap's
    # temporaries. Sampling all taps in one batched call peaked at 26.0 MB.
    _, peak = _joint_filter_at_benchmark_size(True, True)
    assert peak <= 8, f"{peak:.1f} MB > 8 MB"


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
@pytest.mark.parametrize("backbone,size,position_bias,nodes",
                         [("swin", 64, False, 187), ("swin", 64, True, 187),
                          ("naf", 128, False, 35)],
                         ids=["swin-64-187", "swin-64-position-bias-187", "naf-128-35"])
def test_training_step_tape_size_is_pinned(backbone, size, position_bias, nodes):
    tape, _ = _record_loss(*_training_step_inputs(backbone, size, position_bias))
    assert len(tape.nodes) == nodes


# The arrays the backward closures of one step hold after the forward,
# parameters included, counted once per owning buffer: 17.7 MB (swin 64) and
# 30.3 MB (naf 128). Closures that kept their input Tensors, and conv2d with a
# stored im2col matrix, held 66.9 and 147.1 MB; the joint filter as seven
# nodes around one batched bilinear_sample, 25.2 and 70.4 MB; each NAF block
# as a chain of 20 nodes, naf 65.7 MB; attention keeping q, k, v and the
# merged heads, and each MLP as a chain of 5 nodes, swin 24.0 MB.
@pytest.mark.parametrize("backbone,size,bound_mb", [("swin", 64, 20), ("naf", 128, 33)],
                         ids=["swin-64-20MB", "naf-128-33MB"])
def test_training_step_saved_arrays_are_pinned(backbone, size, bound_mb):
    tape, _ = _record_loss(*_training_step_inputs(backbone, size))
    reached = [obj for node in tape.nodes for obj in closure_reach(node.backward)]
    tensors = [obj for obj in reached if isinstance(obj, Tensor)]
    assert not tensors, f"{len(tensors)} Tensors reached from backward closures"
    held = sum(a.nbytes for a in held_arrays(reached)) / 1e6
    assert held <= bound_mb, f"{held:.1f} MB > {bound_mb} MB"


@pytest.fixture(scope="module", params=[("swin", 64, 17), ("naf", 128, 35)],
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
    # projections and each swin MLP one node, swin 15.1
    *_, forward_peak, sweep_peak, bound_mb = training_step
    peak = max(forward_peak, sweep_peak)
    assert peak <= bound_mb, f"{peak:.1f} MB > {bound_mb} MB"
    assert sweep_peak <= forward_peak, f"sweep {sweep_peak:.1f} MB > forward {forward_peak:.1f} MB"


def test_lean_sweep_matches_the_reference_sweep(training_step):
    inputs, grads, *_ = training_step
    tape, loss = _record_loss(*inputs)
    want = reference_backward(tape.nodes, loss)
    del want[loss.handle]                 # the lean sweep keeps leaves only
    assert set(grads) == set(want)
    for t, g in want.items():
        assert grads[t].tobytes() == g.tobytes()


def test_backwards_return_none_exactly_for_constants(training_step):
    tape, _ = _record_loss(*training_step[0])
    constants = 0
    for node in tape.nodes:
        got = node.backward(np.ones(node.out.shape))
        assert len(got) == len(node.inputs), node.op
        for t, g in zip(node.inputs, got):
            # a constant input is None; any other is an op output's handle or a leaf
            assert t is None or isinstance(t, GradHandle) or t.requires_grad, node.op
            assert (g is None) == (t is None), node.op
            constants += t is None
    assert constants > 0


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
