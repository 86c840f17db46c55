"""nn ops: conv, layer norm, windowing, attention, shuffling, sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from dmsr import ops
from dmsr.naf import NafBlock
from dmsr.tensor import Tensor, Tape, ShapeError, add, matmul, mul, record, sub

from helpers import (adaptive_avg_pool_global, attention, attention_chain, check_gradients,
                     closure_reach, depthwise_reference, held_arrays, linear, parameters,
                     slice_axis, softmax_lastaxis, weighted_sum_loss)
from test_swin import loop_shift_mask


# conv2d ---------------------------------------------------------------------


def conv2d_loops(x, w, b, pad):
    """Naive six-loop stride-1 convolution oracle."""
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho, Wo = H + 2 * pad - kh + 1, W + 2 * pad - kw + 1
    out = np.zeros((B, O, Ho, Wo))
    for bb in range(B):
        for o in range(O):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for c in range(C):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, c, u, v] * xp[bb, c, i + u, j + v]
                    out[bb, o, i, j] = acc + b[o]
    return out


# The im2col conv2d and einsum depthwise conv this module replaced, kept as
# bit-level references: an as_strided window view and a col2im scatter.


def _reference_windows(xp, kh, kw):
    B, C, Hp, Wp = xp.shape
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (B, C, kh, kw, Hp - kh + 1, Wp - kw + 1), (s0, s1, s2, s3, s2, s3),
        writeable=False)


def _reference_col2im(dcols, padded_shape):
    kh, kw, Ho, Wo = dcols.shape[2:]
    buf = np.zeros(dcols.shape[:4] + padded_shape[2:])
    for ki in range(kh):
        for kj in range(kw):
            buf[:, :, ki, kj, ki:ki + Ho, kj:kj + Wo] = dcols[:, :, ki, kj]
    return buf.sum(axis=(2, 3))


def reference_conv2d(x, w, b, g, pad):
    """(out, gx, gw, gb) of the as_strided im2col conv2d."""
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    view = _reference_windows(xp, kh, kw)
    Ho, Wo = view.shape[4:]
    cols = view.reshape(B, C * kh * kw, Ho * Wo)
    w2 = w.reshape(O, C * kh * kw)
    out = np.matmul(w2, cols).reshape(B, O, Ho, Wo) + b.reshape(1, O, 1, 1)
    g2 = g.reshape(B, O, Ho * Wo)
    gw = np.matmul(g2, cols.swapaxes(1, 2)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w2.T, g2).reshape(B, C, kh, kw, Ho, Wo)
    gx = _reference_col2im(dcols, xp.shape)[:, :, pad:pad + H, pad:pad + W]
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def reference_depthwise(x, w, b, g, pad):
    """(out, gx, gw, gb) of the einsum depthwise conv."""
    H, W = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    view = _reference_windows(xp, *w.shape[1:])
    out = np.einsum("bcijhw,cij->bchw", view, w) + b.reshape(1, -1, 1, 1)
    gw = np.einsum("bcijhw,bchw->cij", view, g)
    dcols = np.einsum("bchw,cij->bcijhw", g, w)
    gx = _reference_col2im(dcols, xp.shape)[:, :, pad:pad + H, pad:pad + W]
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def _forward_and_grads(op, x, w, b, g, pad):
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    with Tape() as tape:
        out = op(*leaves, padding=pad)
    (node,) = tape.nodes
    return (out.data, *node.backward(g))


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.random((1, 3, 5, 5))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = ops.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, x)


def test_conv2d_box_sum_on_constant():
    c = 0.7
    x = np.full((1, 1, 6, 6), c)
    w = np.ones((1, 1, 3, 3))
    out = ops.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), padding=1).data
    np.testing.assert_allclose(out[0, 0, 1:-1, 1:-1], 9 * c)


def test_conv2d_matches_naive_loops():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (1, 3, 6, 6))
    b = rng.uniform(-1, 1, (4,))
    for k in (1, 3):
        w = rng.uniform(-1, 1, (4, 3, k, k))
        for pad in (0, 1):
            got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=pad).data
            want = conv2d_loops(x, w, b, pad)
            assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("k,pad", [(1, 0), (1, 1), (3, 0), (3, 1)])
def test_conv2d_bit_equal_to_strided_im2col(k, pad):
    rng = np.random.default_rng(30)
    x = rng.uniform(-1, 1, (2, 3, 7, 6))
    w = rng.uniform(-1, 1, (5, 3, k, k))
    b = rng.uniform(-1, 1, (5,))
    g = rng.uniform(-1, 1, (2, 5, 7 + 2 * pad - k + 1, 6 + 2 * pad - k + 1))
    got = _forward_and_grads(ops.conv2d, x, w, b, g, pad)
    for name, a, want in zip(("out", "gx", "gw", "gb"), got,
                             reference_conv2d(x, w, b, g, pad)):
        np.testing.assert_array_equal(a, want, err_msg=name)


@pytest.mark.parametrize("B,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_depthwise_conv2d_matches_einsum_reference(B, pad):
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, (B, 4, 7, 6))
    w = rng.uniform(-1, 1, (4, 3, 3))
    b = rng.uniform(-1, 1, (4,))
    g = rng.uniform(-1, 1, (B, 4, 7 + 2 * pad - 2, 6 + 2 * pad - 2))
    out, gx, gw, gb = _forward_and_grads(ops.depthwise_conv2d, x, w, b, g, pad)
    want_out, want_gx, want_gw, want_gb = reference_depthwise(x, w, b, g, pad)
    # the forward adds taps in row-major order, einsum in its own order
    assert np.abs(out - want_out).max() < 1e-13
    np.testing.assert_array_equal(gx, want_gx)
    np.testing.assert_array_equal(gb, want_gb)
    if B == 1:      # training is batch-1: its weight gradients are unchanged
        np.testing.assert_array_equal(gw, want_gw)
    else:           # the 6-D einsum groups the batch sum differently
        assert np.abs(gw - want_gw).max() < 1e-13


@pytest.mark.parametrize("values", ["plain", "special"])
@pytest.mark.parametrize("k,pad", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (5, 2)])
def test_depthwise_kernels_byte_equal_to_the_tap_loop_reference(k, pad, values):
    # the NAF block node calls these kernels directly, so its chain
    # comparisons cannot see a change of bits inside them
    rng = np.random.default_rng(34)
    x = rng.uniform(-1, 1, (2, 4, 7, 6))
    w = rng.uniform(-1, 1, (4, k, k))
    b = rng.uniform(-1, 1, (4,))
    g = rng.uniform(-1, 1, (2, 4, 7 + 2 * pad - k + 1, 6 + 2 * pad - k + 1))
    if values == "special":
        x[0, 0, 2:5, 1:4] = 0.0
        x[1, 1, 3, 3] = -0.0
        x[0, 2, 1, 2] = np.inf
        x[1, 3, 4, 0] = np.nan
        w[1, k // 2, 0] = -0.0
        w[2, 0, k - 1] = 0.0
    with np.errstate(invalid="ignore"):         # inf times a zero weight
        out = ops.depthwise_forward(x, w, b, pad)
        grads = ops.depthwise_grads(g, x, w, pad, True)
        want = depthwise_reference(x, w, b, g, pad)
    for name, a, ref in zip(("out", "gx", "gw", "gb"), (out, *grads), want):
        assert a.shape == ref.shape, name
        assert a.tobytes() == ref.tobytes(), name


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        ops.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))),
                   Tensor(np.zeros(1)))


def test_conv2d_non_positive_output():
    with pytest.raises(ShapeError):
        ops.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))),
                   Tensor(np.zeros(1)))


def test_depthwise_conv2d_non_positive_output():
    with pytest.raises(ShapeError, match="non-positive output extent"):
        ops.depthwise_conv2d(Tensor(np.ones((1, 2, 2, 4))), Tensor(np.ones((2, 3, 3))),
                             Tensor(np.zeros(2)))


def test_conv2d_gradients():
    rng = np.random.default_rng(2)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 5, 5)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
    for k in (1, 3):
        w = Tensor(rng.uniform(-1, 1, (3, 2, k, k)), requires_grad=True)
        for pad in (0, 1):
            check_gradients(
                lambda: weighted_sum_loss(ops.conv2d(x, w, b, padding=pad)),
                [x, w, b], n_coords=6)


def _stored_im2col_conv2d_grads(x, w, padding, g):
    """(gx, gw) of a stride-1 conv2d as computed when the forward kept its
    im2col matrix: the reference for the rebuilt one."""
    B, O, kh, kw = x.shape[0], w.shape[0], w.shape[2], w.shape[3]
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    Ho, Wo = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    taps = [np.s_[..., i:i + Ho, j:j + Wo] for i in range(kh) for j in range(kw)]
    cols = np.stack([xp[t] for t in taps], axis=2).reshape(B, -1, Ho * Wo)
    g2 = g.reshape(B, O, Ho * Wo)
    gw = np.matmul(g2, cols.swapaxes(1, 2)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w.reshape(O, -1).T, g2)
    gxp = np.zeros(xp.shape)
    for t, gt in zip(taps, np.moveaxis(dcols.reshape(B, -1, len(taps), Ho, Wo), 2, 0)):
        gxp[t] += gt
    return gxp[..., p:p + x.shape[2], p:p + x.shape[3]], gw


@pytest.mark.parametrize("padding", [0, 1])
def test_recorded_3x3_conv2d_keeps_no_array_larger_than_its_input(padding):
    rng = np.random.default_rng(32)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 8, 7)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
    with Tape() as tape:
        out = ops.conv2d(x, w, Tensor(np.zeros(3)), padding=padding)
    (node,) = tape.nodes
    reached = closure_reach(node.backward)
    assert not [o for o in reached if isinstance(o, Tensor)]
    held = held_arrays(reached)
    assert any(a is x.data for a in held), "the closure walk did not find the input"
    # neither the padded input nor the (taps x input) im2col matrix
    assert all(a.nbytes <= x.data.nbytes for a in held), [a.shape for a in held]

    g = rng.uniform(-1, 1, out.shape)
    gx, gw, _ = node.backward(g)
    want_gx, want_gw = _stored_im2col_conv2d_grads(x.data, w.data, padding, g)
    assert gx.tobytes() == want_gx.tobytes()
    assert gw.tobytes() == want_gw.tobytes()


def test_recorded_conv2d_does_not_keep_its_padded_input():
    rng = np.random.default_rng(32)
    x = Tensor(rng.uniform(-1, 1, (1, 2, 5, 5)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
    with Tape() as tape:
        ops.conv2d(x, w, Tensor(np.zeros(3)), padding=1)
    held = [a for a in closure_reach(tape.nodes[0].backward) if isinstance(a, np.ndarray)]
    assert held, "the closure walk found no arrays"
    assert all(a.shape != (1, 2, 7, 7) for a in held)
    assert all(a.base is None or a.base.shape != (1, 2, 7, 7) for a in held)


def test_3x3_conv2d_backward_frees_the_column_gradient_before_rebuilding_im2col():
    # the column gradient and the rebuilt im2col matrix are each the input's
    # size times 9 taps (2.4 MB here); the backward holds one at a time, so
    # it peaks at about one of them (3.0 MB), not both (5.4 MB)
    rng = np.random.default_rng(33)
    x = Tensor(rng.uniform(-1, 1, (1, 32, 32, 32)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (32, 32, 3, 3)), requires_grad=True)
    with Tape() as tape:
        out = ops.conv2d(x, w, Tensor(np.zeros(32)), padding=1)
    (node,) = tape.nodes
    g = rng.uniform(-1, 1, out.shape)
    tracemalloc.start()
    try:
        node.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = 9 * x.data.nbytes
    assert peak <= 1.5 * columns, f"{peak / 1e6:.2f} MB > {1.5 * columns / 1e6:.2f} MB"


def test_depthwise_conv2d_matches_grouped_loops():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (1, 4, 5, 5))
    w = rng.uniform(-1, 1, (4, 3, 3))
    got = ops.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4)), padding=1).data
    # per-channel naive conv
    w4 = np.zeros((4, 4, 3, 3))
    for c in range(4):
        w4[c, c] = w[c]
    want = conv2d_loops(x, w4, np.zeros(4), 1)
    assert np.abs(got - want).max() < 1e-10


def test_depthwise_conv2d_gradients():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (2, 3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (2,)), requires_grad=True)
    for pad in (1, 0):
        check_gradients(
            lambda: weighted_sum_loss(ops.depthwise_conv2d(x, w, b, padding=pad)),
            [x, w, b], n_coords=6)


# layer norm ------------------------------------------------------------------


def test_layer_norm_constant_row():
    out = ops.layer_norm(Tensor([1.0, 1.0, 1.0]), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_already_normalized():
    out = ops.layer_norm(Tensor([-1.0, 1.0]), Tensor(np.ones(2)),
                         Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_statistics():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, (10, 16))
    out = ops.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_layer_norm_gradients():
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-2, 2, (4, 8)), requires_grad=True)
    g = Tensor(rng.uniform(0.5, 1.5, (8,)), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, (8,)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(ops.layer_norm(x, g, b)),
                    [x, g, b], n_coords=8)


# windows ----------------------------------------------------------------------


def test_window_partition_single_window():
    rng = np.random.default_rng(7)
    x = rng.random((1, 4, 4, 3))
    wins = ops.window_partition(Tensor(x), 4)
    assert wins.shape == (1, 16, 3)
    np.testing.assert_array_equal(wins.data[0], x.reshape(16, 3))


def test_window_round_trip_bit_exact():
    rng = np.random.default_rng(8)
    x = rng.random((2, 8, 8, 5))
    wins = ops.window_partition(Tensor(x), 4)
    assert wins.shape == (2 * 4, 16, 5)
    back = ops.window_merge(wins, 4, 8, 8)
    assert (back.data == x).all()


def test_window_non_divisible():
    with pytest.raises(ShapeError):
        ops.window_partition(Tensor(np.ones((1, 6, 6, 1))), 4)


def test_cyclic_shift_round_trip():
    rng = np.random.default_rng(9)
    x = Tensor(rng.random((1, 8, 8, 2)))
    wins = ops.window_partition(x, 4, shift=2)
    # the first window holds the grid rolled up and left by the shift
    np.testing.assert_array_equal(
        wins.data[0], np.roll(x.data, (-2, -2), (1, 2))[0, :4, :4].reshape(16, 2))
    back = ops.window_merge(wins, 4, 8, 8, shift=2)
    assert (back.data == x.data).all()


# attention ---------------------------------------------------------------------
# helpers.attention is the window attention of ops.attention_forward and
# attention_backward as one node; ops.multi_head_attention is a swin layer's
# whole attention sublayer, layer norm and windowing included.


def _attn_params(rng, dim, heads, window=None, position_bias=False):
    return ops.AttentionParams(rng, dim, heads, window, position_bias)


def _live_sublayer(rng, dim, heads, window, position_bias):
    """(norm_g, norm_b, attention params), every value random."""
    p = _attn_params(rng, dim, heads, window, position_bias)
    norm = Tensor(np.ones(dim), requires_grad=True), Tensor(np.zeros(dim), requires_grad=True)
    for t in norm + tuple(parameters(p)):
        t.data[...] = rng.uniform(-1, 1, t.shape)
    return (*norm, p)


def test_attention_single_token_is_value_projection():
    rng = np.random.default_rng(10)
    p = _attn_params(rng, 8, 2)
    x = Tensor(rng.uniform(-1, 1, (3, 1, 8)))
    out = attention(x, p, None)
    # with one token the softmax weight is exactly 1, so output is
    # proj(v(x)); recompute that directly
    qkv = x.data @ p.qkv_w.data + p.qkv_b.data
    v = qkv[..., 16:24]
    want = v @ p.proj_w.data + p.proj_b.data
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_attention_softmax_rows_sum_to_one(monkeypatch):
    # the node keeps no probabilities: its backward rebuilds the forward's,
    # byte for byte
    rng = np.random.default_rng(11)
    g, b, p = _live_sublayer(rng, 8, 2, 4, False)
    x = Tensor(rng.uniform(-1, 1, (2, 8, 8, 8)))
    built, real = [], ops._attention_probs
    monkeypatch.setattr(ops, "_attention_probs",
                        lambda *args: built.append(real(*args)) or built[-1])
    with Tape() as tape:
        out = ops.multi_head_attention(x, g, b, p, 4, 2)
    (node,) = tape.nodes
    node.backward(np.ones(out.shape))
    probs, rebuilt = built
    assert probs.shape == (8, 2, 16, 16)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
    assert rebuilt.tobytes() == probs.tobytes()


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(12)
    p = _attn_params(rng, 8, 2)
    x = rng.uniform(-1, 1, (1, 16, 8))
    perm = rng.permutation(16)
    out = attention(Tensor(x), p, None).data
    out_perm = attention(Tensor(x[:, perm]), p, None).data
    np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-10)


def test_attention_head_divisibility():
    rng = np.random.default_rng(13)
    with pytest.raises(ShapeError):
        ops.AttentionParams(rng, 10, 3, None, False)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "shift_mask"])
def test_attention_gradients(masked):
    # 4 windows of 4 tokens per batch entry, shifted by 1 when masked
    rng = np.random.default_rng(14)
    g, b, p = _live_sublayer(rng, 4, 2, 2, False)
    x = Tensor(rng.uniform(-1, 1, (2, 4, 4, 4)), requires_grad=True)
    leaves = [x, g, b] + parameters(p)
    check_gradients(lambda: weighted_sum_loss(ops.multi_head_attention(x, g, b, p, 2,
                                                                       int(masked))),
                    leaves, n_coords=4)


def test_attention_position_bias_breaks_permutation_symmetry():
    rng = np.random.default_rng(40)
    p = ops.AttentionParams(rng, 8, 2, window=4, position_bias=True)
    p.pos_bias.data[:] = rng.uniform(-1, 1, p.pos_bias.shape)
    x = rng.uniform(-1, 1, (1, 16, 8))
    perm = rng.permutation(16)
    out = attention(Tensor(x), p, None).data
    out_perm = attention(Tensor(x[:, perm]), p, None).data
    assert np.abs(out_perm - out[:, perm]).max() > 1e-6


def test_attention_position_bias_gradients():
    rng = np.random.default_rng(41)
    g, b, p = _live_sublayer(rng, 4, 2, 2, True)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(ops.multi_head_attention(x, g, b, p, 2, 1)),
                    [x, p.pos_bias], n_coords=4)


def test_attention_position_bias_token_count_mismatch():
    # the table is built for 2x2 windows, the sublayer runs 3x3 ones
    rng = np.random.default_rng(42)
    g, b, p = _live_sublayer(rng, 4, 2, 2, True)
    with pytest.raises(ShapeError):
        ops.multi_head_attention(Tensor(rng.random((1, 3, 3, 4))), g, b, p, 3, 0)


# pixel shuffle -----------------------------------------------------------------


def test_pixel_unshuffle_ramp():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = ops.pixel_unshuffle(Tensor(x), 4)
    assert out.shape == (1, 16, 1, 1)
    assert sorted(out.data.ravel().tolist()) == list(range(16))


def test_pixel_unshuffle_r1_identity():
    rng = np.random.default_rng(15)
    x = rng.random((2, 3, 4, 4))
    assert (ops.pixel_unshuffle(Tensor(x), 1).data == x).all()


def test_pixel_shuffle_round_trip_bit_exact():
    rng = np.random.default_rng(16)
    x = rng.random((2, 3, 8, 8))
    down = ops.pixel_unshuffle(Tensor(x), 2)
    assert down.shape == (2, 12, 4, 4)
    back = ops.pixel_shuffle(down, 2)
    assert (back.data == x).all()


def test_pixel_unshuffle_non_divisible():
    with pytest.raises(ShapeError):
        ops.pixel_unshuffle(Tensor(np.ones((1, 1, 6, 6))), 4)


# one tape node per rearrangement ------------------------------------------------
# The references are the reshape -> transpose -> reshape chains, one tape node
# per step, that these ops recorded before each became one rearrange call, built
# on the reshape and transpose nodes of that time. The shifted windows add the
# roll node that the swin layers recorded around partition and merge.


def chain_reshape(a, shape):
    return record("reshape", (a,), a.data.reshape(shape), lambda g: (g.reshape(a.shape),))


def chain_transpose(a, axes):
    inv = np.argsort(axes)
    return record("transpose", (a,), np.ascontiguousarray(a.data.transpose(axes)),
                  lambda g: (g.transpose(inv),))


def reference_window_partition(x, window):
    B, H, W, C = x.shape
    x = chain_reshape(x, (B, H // window, window, W // window, window, C))
    x = chain_transpose(x, (0, 1, 3, 2, 4, 5))
    return chain_reshape(x, (B * (H // window) * (W // window), window * window, C))


def reference_roll(a, shifts):
    return record("roll", (a,), np.roll(a.data, shifts, axis=(1, 2)),
                  lambda g: (np.roll(g, tuple(-s for s in shifts), axis=(1, 2)),))


def reference_window_merge(windows, window, H, W):
    nwin, L, C = windows.shape
    B = nwin // ((H // window) * (W // window))
    x = chain_reshape(windows, (B, H // window, W // window, window, window, C))
    x = chain_transpose(x, (0, 1, 3, 2, 4, 5))
    return chain_reshape(x, (B, H, W, C))


def reference_pixel_unshuffle(x, r):
    B, C, H, W = x.shape
    x = chain_reshape(x, (B, C, H // r, r, W // r, r))
    x = chain_transpose(x, (0, 1, 3, 5, 2, 4))
    return chain_reshape(x, (B, C * r * r, H // r, W // r))


def reference_pixel_shuffle(x, r):
    B, Cr2, H, W = x.shape
    C = Cr2 // (r * r)
    x = chain_reshape(x, (B, C, r, r, H, W))
    x = chain_transpose(x, (0, 1, 4, 2, 5, 3))
    return chain_reshape(x, (B, C, H * r, W * r))


def reference_attention(x, p, mask=None):
    N, L, C = x.shape
    h, d = p.num_heads, p.head_dim
    qkv = linear(x, p.qkv_w, p.qkv_b)
    qkv = chain_reshape(qkv, (N, L, 3, h, d))
    qkv = chain_transpose(qkv, (2, 0, 3, 1, 4))
    q, k, v = (chain_reshape(slice_axis(qkv, 0, i, i + 1), (N, h, L, d)) for i in range(3))
    logits = mul(matmul(q, chain_transpose(k, (0, 1, 3, 2))), Tensor(1.0 / np.sqrt(d)))
    if p.pos_bias is not None:
        # the bias table's rows looked up by a one-hot (L*L, table) matmul
        gather = np.zeros((L * L, len(p.pos_bias.data)))
        gather[np.arange(L * L), ops._relative_index(math.isqrt(L))] = 1.0
        bias = matmul(Tensor(gather), p.pos_bias)
        bias = chain_transpose(chain_reshape(bias, (L, L, h)), (2, 0, 1))
        logits = add(logits, chain_reshape(bias, (1, h, L, L)))
    if mask is not None:
        nw = mask.shape[0]
        logits = chain_reshape(logits, (N // nw, nw, h, L, L))
        logits = add(logits, Tensor(mask[None, :, None]))
        logits = chain_reshape(logits, (N, h, L, L))
    out = matmul(softmax_lastaxis(logits), v)
    out = chain_reshape(chain_transpose(out, (0, 2, 1, 3)), (N, L, C))
    return linear(out, p.proj_w, p.proj_b)


def _output_and_grads(fn, leaves):
    with Tape() as tape:
        out = fn()
        loss = weighted_sum_loss(out)
    grads = tape.backward(loss)
    return [out.data.tobytes()] + [grads[t].tobytes() for t in leaves]


REARRANGEMENTS = [
    ("window_partition", lambda x: ops.window_partition(x, 4),
     lambda x: reference_window_partition(x, 4), (2, 8, 12, 3)),
    ("window_merge", lambda x: ops.window_merge(x, 4, 8, 12),
     lambda x: reference_window_merge(x, 4, 8, 12), (12, 16, 3)),
    ("window_partition_shifted", lambda x: ops.window_partition(x, 4, shift=2),
     lambda x: reference_window_partition(reference_roll(x, (-2, -2)), 4), (2, 8, 12, 3)),
    ("window_merge_shifted", lambda x: ops.window_merge(x, 4, 8, 12, shift=2),
     lambda x: reference_roll(reference_window_merge(x, 4, 8, 12), (2, 2)), (12, 16, 3)),
    ("pixel_unshuffle", lambda x: ops.pixel_unshuffle(x, 2),
     lambda x: reference_pixel_unshuffle(x, 2), (2, 3, 4, 6)),
    ("pixel_shuffle", lambda x: ops.pixel_shuffle(x, 2),
     lambda x: reference_pixel_shuffle(x, 2), (2, 12, 3, 5)),
]


@pytest.mark.parametrize("name,op,reference,shape", REARRANGEMENTS,
                         ids=[c[0] for c in REARRANGEMENTS])
def test_rearrangement_is_one_node_bit_equal_to_its_chain(name, op, reference, shape):
    x = Tensor(np.random.default_rng(17).uniform(-1, 1, shape), requires_grad=True)
    with Tape() as tape:
        op(x)
    assert [node.op for node in tape.nodes] == ["transpose"]
    assert _output_and_grads(lambda: op(x), [x]) == \
        _output_and_grads(lambda: reference(x), [x])


# windows 2 to 5, each unmasked and masked, with and without position bias;
# an id names the window where it is not the default 4
CHAIN_CASES = [pytest.param(window, masked, bias, id="-".join(
                   [("no_bias", "bias")[bias], ("unmasked", "masked")[masked]]
                   + ([] if window == 4 else [f"window_{window}"])))
               for window in (2, 3, 4, 5) for bias in (False, True) for masked in (True, False)]


@pytest.mark.parametrize("window,masked,position_bias", CHAIN_CASES)
def test_attention_bit_equal_to_the_reshape_chains(window, masked, position_bias):
    # the output and every gradient, the position bias table's included:
    # reading the table by index is bit-equal to the one-hot matmul here
    rng = np.random.default_rng(18)
    p = ops.AttentionParams(rng, 8, 2, window=window, position_bias=position_bias)
    for t in parameters(p):
        t.data[...] = rng.uniform(-1, 1, t.shape)
    grid = 2 * window                                          # 4 windows
    mask = loop_shift_mask(grid, grid, window, window // 2) if masked else None
    x = Tensor(rng.uniform(-1, 1, (2 * 4, window * window, 8)), requires_grad=True)
    leaves = [x] + parameters(p)
    assert _output_and_grads(lambda: attention(x, p, mask), leaves) == \
        _output_and_grads(lambda: reference_attention(x, p, mask), leaves)


@pytest.mark.parametrize("shift", [0, 2], ids=["shift_0", "shift_half"])
@pytest.mark.parametrize("position_bias", [False, True], ids=["no_bias", "bias"])
def test_attention_node_bit_equal_to_the_norm_window_chain(shift, position_bias):
    # batch 2 of an 8x8 grid in 4x4 windows: the output and the gradient of
    # the input, the norm's parameters and every attention parameter
    rng = np.random.default_rng(21)
    g, b, p = _live_sublayer(rng, 8, 2, 4, position_bias)
    x = Tensor(rng.uniform(-2, 2, (2, 8, 8, 8)), requires_grad=True)
    leaves = [x, g, b] + parameters(p)
    with Tape() as tape:
        attention_chain(x, g, b, p, 4, shift)
    assert [node.op for node in tape.nodes] == ["layer_norm", "transpose", "attention",
                                                "transpose"]
    assert _output_and_grads(lambda: ops.multi_head_attention(x, g, b, p, 4, shift), leaves) \
        == _output_and_grads(lambda: attention_chain(x, g, b, p, 4, shift), leaves)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("position_bias", [False, True], ids=["no_bias", "bias"])
def test_attention_is_one_node(masked, position_bias):
    rng = np.random.default_rng(19)
    g, b, p = _live_sublayer(rng, 8, 2, 4, position_bias)
    x = Tensor(rng.uniform(-1, 1, (2, 8, 8, 8)), requires_grad=True)
    with Tape() as tape:
        ops.multi_head_attention(x, g, b, p, 4, 2 if masked else 0)
    assert [node.op for node in tape.nodes] == ["multi_head_attention"]


@pytest.mark.parametrize("position_bias", [False, True], ids=["no_bias", "bias"])
def test_attention_keeps_only_the_norms_xhat_and_inv(position_bias):
    # the norm's output, its window rows, q, k, v, the probabilities and the
    # merged heads are rebuilt in the backward
    rng = np.random.default_rng(20)
    g, b, p = _live_sublayer(rng, 8, 2, 4, position_bias)
    x = Tensor(rng.uniform(-1, 1, (2, 8, 8, 8)), requires_grad=True)
    with Tape() as tape:
        ops.multi_head_attention(x, g, b, p, 4, 2)
    (node,) = tape.nodes
    reached = closure_reach(node.backward)
    assert not [obj for obj in reached if isinstance(obj, Tensor)]
    # the parameters, the position bias's cached table index and the cached
    # window permutations
    fixed = ({id(t.data) for t in [g, b] + parameters(p)} | {id(ops._relative_index(4))}
             | {id(a) for a in held_arrays(ops.shifted_windows(8, 8, 4, 2))})
    kept = [a for a in held_arrays(reached) if id(a) not in fixed]
    assert sorted(a.shape for a in kept) == [(2, 8, 8, 1), (2, 8, 8, 8)]
    assert not any(a is x.data for a in kept)


# pooling -----------------------------------------------------------------------
# helpers.adaptive_avg_pool_global is the SCA pool of the reference NAF chain.


def test_global_pool_constant():
    x = np.full((1, 2, 3, 3), 0.4)
    out = adaptive_avg_pool_global(Tensor(x))
    assert out.shape == (1, 2, 1, 1)
    np.testing.assert_allclose(out.data, 0.4)


def test_global_pool_small_example():
    x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2)
    assert adaptive_avg_pool_global(Tensor(x)).data.item() == 4.0


def test_global_pool_matches_mean():
    rng = np.random.default_rng(17)
    x = rng.random((2, 3, 5, 7))
    got = adaptive_avg_pool_global(Tensor(x)).data
    want = x.mean(axis=(2, 3), keepdims=True)
    assert np.abs(got - want).max() < 1e-12


# bilinear sampling ----------------------------------------------------------------


def _grid_coords(H, W):
    gy, gx = np.meshgrid(np.arange(H, dtype=float), np.arange(W, dtype=float),
                         indexing="ij")
    return np.stack([gy, gx], axis=-1)[None]


def test_bilinear_integer_coords_exact():
    rng = np.random.default_rng(18)
    x = rng.random((1, 2, 5, 6))
    coords = _grid_coords(5, 6)
    out = ops.bilinear_sample(Tensor(x), Tensor(coords))
    np.testing.assert_array_equal(out.data, x)


def test_bilinear_midpoint_average():
    x = np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2)
    coords = np.array([0.5, 0.5]).reshape(1, 1, 1, 2)
    out = ops.bilinear_sample(Tensor(x), Tensor(coords))
    assert out.data.item() == pytest.approx(1.5)


def test_bilinear_out_of_bounds_clamps():
    x = np.arange(4.0).reshape(1, 1, 2, 2)
    coords = np.array([[-5.0, -5.0], [10.0, 10.0]]).reshape(1, 2, 1, 2)
    out = ops.bilinear_sample(Tensor(x), Tensor(coords))
    np.testing.assert_allclose(out.data.ravel(), [0.0, 3.0])


def test_bilinear_gradients_wrt_image_and_coords():
    # the image is data: only the coordinates take a gradient
    rng = np.random.default_rng(19)
    x = Tensor(rng.uniform(-1, 1, (1, 2, 6, 6)))
    # keep coords strictly interior and away from the integer lattice
    base = rng.uniform(0.6, 4.4, (1, 3, 3, 2))
    base += 0.17 - (base % 1.0) * 0.01
    coords = Tensor(base, requires_grad=True)
    check_gradients(
        lambda: weighted_sum_loss(ops.bilinear_sample(x, coords)),
        [coords], rel_tol=1e-3, n_coords=8)


def test_bilinear_sample_refuses_an_image_that_requires_a_gradient():
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="the sampled image is data"):
        ops.bilinear_sample(x, Tensor(np.zeros((1, 1, 1, 2)), requires_grad=True))


@pytest.mark.parametrize("op,w_shape", [(ops.conv2d, (2, 2, 3, 3)),
                                        (ops.depthwise_conv2d, (2, 3, 3))],
                         ids=["conv2d", "depthwise_conv2d"])
def test_conv_refuses_an_array_for_a_parameter(op, w_shape):
    # an ndarray where a Tensor belongs fails, and does not train as a constant
    x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    w = Tensor(np.ones(w_shape), requires_grad=True)
    with Tape(), pytest.raises(AttributeError):
        op(x, w.data, b, padding=1)


# constant inputs ------------------------------------------------------------------
# Every backward returns an array for every input, constant or not, and the
# sweep drops a constant's. The one exception is a conv, whose backward
# returns None for a constant data input, its first. Either way the sweep's
# grads hold no entry for a constant, and every array has the same bytes as
# when all inputs are live.

def _attention_of(x, norm_g, norm_b, qkv_w, qkv_b, proj_w, proj_b, pos_bias):
    """A shifted-window attention sublayer with position bias over the given
    arrays."""
    p = ops.AttentionParams(np.random.default_rng(0), 4, 2, window=2, position_bias=True)
    p.qkv_w, p.qkv_b, p.proj_w, p.proj_b, p.pos_bias = qkv_w, qkv_b, proj_w, proj_b, pos_bias
    return ops.multi_head_attention(x, norm_g, norm_b, p, 2, 1)


def _naf_block_of(x, *params):
    """A NafBlock over the given parameters, in the order of its node's inputs."""
    block = NafBlock(np.random.default_rng(0), x.shape[1])
    (block.norm1_g, block.norm1_b, block.pw1_w, block.pw1_b, block.dw_w, block.dw_b,
     block.sca.w, block.sca.b, block.pw2_w, block.pw2_b, block.beta, block.norm2_g,
     block.norm2_b, block.pw3_w, block.pw3_b, block.pw4_w, block.pw4_b, block.gamma) = params
    return block.forward(x)


# the joint filter's image is data, never a node input
FILTERED = np.random.default_rng(42).uniform(0.5, 3.0, (2, 2, 4, 6))

CONSTANT_INPUT_CASES = [
    ("add", add, [(2, 3, 4), (3, 1)]),
    ("sub", sub, [(2, 3, 4), (3, 1)]),
    ("mul", mul, [(2, 3, 4), (3, 1)]),
    ("matmul", matmul, [(2, 3, 4), (4, 5)]),
    ("conv2d_1x1", ops.conv2d, [(2, 3, 5, 4), (4, 3, 1, 1), (4,)]),
    ("conv2d_3x3_pad1", lambda x, w, b: ops.conv2d(x, w, b, padding=1),
     [(2, 3, 5, 4), (4, 3, 3, 3), (4,)]),
    ("depthwise_pad1", lambda x, w, b: ops.depthwise_conv2d(x, w, b, padding=1),
     [(2, 3, 5, 4), (3, 3, 3), (3,)]),
    ("layer_norm", ops.layer_norm, [(2, 3, 4), (4,), (4,)]),
    ("joint_filter", lambda *factors: ops.joint_filter(Tensor(FILTERED), *factors, 3, 2),
     [(2, 36, 2, 3), (2, 36, 2, 3), (2, 72, 2, 3), (2, 72, 2, 3)]),
    ("multi_head_attention", _attention_of,
     [(2, 4, 4, 4), (4,), (4,), (4, 12), (12,), (4, 4), (4,), (9, 2)]),
    ("naf_block", _naf_block_of,
     [(2, 4, 5, 4), (4,), (4,), (8, 4, 1, 1), (8,), (8, 3, 3), (8,), (4, 4, 1, 1), (4,),
      (4, 4, 1, 1), (4,), (), (4,), (4,), (8, 4, 1, 1), (8,), (4, 4, 1, 1), (4,), ()]),
]
CONV_OPS = {"conv2d_1x1", "conv2d_3x3_pad1", "depthwise_pad1"}


@pytest.mark.parametrize("name,op,shapes", CONSTANT_INPUT_CASES,
                         ids=[c[0] for c in CONSTANT_INPUT_CASES])
def test_constant_inputs_get_no_gradient(name, op, shapes):
    rng = np.random.default_rng(40)
    arrays = [rng.uniform(0.5, 3.0, s) for s in shapes]

    def backward(needs_grad):
        """(the node's own gradients, the sweep's gradient of each live leaf)
        of op over the arrays; the sweep's grads hold no other key."""
        leaves = [Tensor(a, requires_grad=n) for a, n in zip(arrays, needs_grad)]
        with Tape() as tape:
            out = op(*leaves)
        (node,) = tape.nodes
        got = node.backward(np.random.default_rng(41).uniform(-1, 1, out.shape))
        with Tape() as tape:
            grads = tape.backward(weighted_sum_loss(op(*leaves)))
        live = [t for t in leaves if t.requires_grad]
        assert len(grads) == len(live) and all(t in grads for t in live), name
        return got, [grads.get(t) for t in leaves]

    want, want_swept = backward([True] * len(arrays))
    for constant in range(len(arrays)):
        needs_grad = [i != constant for i in range(len(arrays))]
        got, swept = backward(needs_grad)
        assert swept[constant] is None, (name, constant)
        for i in range(len(arrays)):
            if i == constant == 0 and name in CONV_OPS:
                assert got[i] is None, name
            else:
                assert got[i].tobytes() == want[i].tobytes(), (name, constant, i)
            if needs_grad[i]:
                assert swept[i].tobytes() == want_swept[i].tobytes(), (name, constant, i)
