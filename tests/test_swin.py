"""Swin backbone: residual structure, shift schedule, shifted-window mask,
gradient coverage."""

import sys
import threading

import numpy as np
import pytest

from dmsr import ops, swin
from dmsr.swin import SwinBackbone, SwinLayer, zero_residual_branches
from dmsr.tensor import Tensor, Tape

from helpers import check_gradients, closure_reach, held_arrays, mlp_chain, weighted_sum_loss


def make_backbone(seed=0, in_ch=8, dim=8, window=4, heads=1, blocks=4, layers=2):
    rng = np.random.default_rng(seed)
    return SwinBackbone(rng, in_ch, dim, window, heads, blocks, layers)


def test_stl_residual_identity_when_projections_zeroed():
    rng = np.random.default_rng(0)
    layer = SwinLayer(rng, 8, 4, 2, shift=0)
    layer.attn.proj_w.data[:] = 0.0
    layer.attn.proj_b.data[:] = 0.0
    layer.mlp.fc2_w.data[:] = 0.0
    layer.mlp.fc2_b.data[:] = 0.0
    x = Tensor(rng.uniform(-1, 1, (1, 8, 8, 8)))
    out = layer.forward(x)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_stl_shape_preservation():
    rng = np.random.default_rng(1)
    layer = SwinLayer(rng, 32, 4, 2, shift=2)
    x = Tensor(rng.uniform(-1, 1, (1, 8, 8, 32)))
    assert layer.forward(x).shape == (1, 8, 8, 32)


def test_stl_gradient_reaches_every_parameter():
    rng = np.random.default_rng(2)
    layer = SwinLayer(rng, 8, 4, 1, shift=2)
    x = Tensor(rng.uniform(-1, 1, (1, 8, 8, 8)))
    with Tape() as tape:
        loss = weighted_sum_loss(layer.forward(x))
    grads = tape.backward(loss)
    for name, p in layer.named_parameters():
        g = grads.get(p)
        assert g is not None, f"no gradient for {name}"
        assert np.any(g != 0.0), f"all-zero gradient for {name}"


def test_backbone_executes_configured_block_count():
    backbone = make_backbone(blocks=4)
    calls = []
    for block in backbone.blocks:
        orig = block.forward
        block.forward = (lambda f: lambda x: calls.append(1) or f(x))(orig)
    x = Tensor(np.random.default_rng(3).uniform(-1, 1, (1, 8, 8, 8)))
    backbone.forward(x)
    assert len(calls) == 4


def test_backbone_preserves_spatial_extents():
    backbone = make_backbone(in_ch=16, dim=8)
    x = Tensor(np.random.default_rng(4).uniform(-1, 1, (1, 16, 8, 8)))
    out = backbone.forward(x)
    assert out.shape == (1, 8, 8, 8)


def test_backbone_shift_schedule_alternates():
    backbone = make_backbone(window=4, layers=2)
    for block in backbone.blocks:
        shifts = [layer.shift for layer in block.layers]
        assert shifts == [0, 2]


def test_backbone_blocks_identity_with_zeroed_residuals():
    backbone = make_backbone(dim=8)
    zero_residual_branches(backbone)
    x = Tensor(np.random.default_rng(5).uniform(-1, 1, (1, 8, 8, 8)))
    out = backbone.forward_blocks(x)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_backbone_sensitive_to_every_layer():
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-1, 1, (1, 8, 8, 8)))
    backbone = make_backbone(blocks=2, layers=2)
    base = backbone.forward(x).data.copy()
    for i, block in enumerate(backbone.blocks):
        for j, layer in enumerate(block.layers):
            layer.attn.proj_w.data[0, 0] += 0.5
            perturbed = backbone.forward(x).data
            layer.attn.proj_w.data[0, 0] -= 0.5
            assert np.abs(perturbed - base).max() > 1e-9, f"block {i} layer {j} inert"


def test_backbone_end_to_end_gradients_tiny_config():
    rng = np.random.default_rng(7)
    backbone = make_backbone(in_ch=4, dim=8, window=4, heads=1, blocks=1, layers=2)
    x = Tensor(rng.uniform(-1, 1, (1, 4, 4, 4)), requires_grad=True)
    leaves = [x] + backbone.parameters()
    check_gradients(lambda: weighted_sum_loss(backbone.forward(x)),
                    leaves, n_coords=2, rel_tol=1e-4)


def test_shifted_window_masking_blocks_wraparound(monkeypatch):
    # a shifted layer must not mix content across the cyclic seam: compare
    # against the same layer with its mask zeroed
    rng = np.random.default_rng(8)
    layer = SwinLayer(rng, 8, 4, 1, shift=2)
    x = rng.uniform(-1, 1, (1, 8, 8, 8))
    out_masked = layer.forward(Tensor(x)).data
    real = swin.shifted_windows
    monkeypatch.setattr(swin, "shifted_windows", lambda *geometry: real(*geometry)[:2]
                        + (np.zeros_like(real(*geometry)[2]),))
    out_unmasked = layer.forward(Tensor(x)).data
    assert np.abs(out_masked - out_unmasked).max() > 1e-9


def loop_shift_mask(H, W, window, shift):
    """Reference mask, labelled region by region of the rolled grid: 0 where
    two tokens of a window may attend to each other, -1e9 where the cyclic
    shift brought them together across the wrap-around."""
    img = np.zeros((H, W))
    cnt = 0
    for hs in (slice(0, -window), slice(-window, -shift), slice(-shift, None)):
        for ws in (slice(0, -window), slice(-window, -shift), slice(-shift, None)):
            img[hs, ws] = cnt
            cnt += 1
    img = img.reshape(H // window, window, W // window, window)
    win = img.transpose(0, 2, 1, 3).reshape(-1, window * window)
    diff = win[:, None, :] - win[:, :, None]
    return np.where(diff != 0, -1e9, 0.0)


@pytest.mark.parametrize("window", [2, 3, 4, 5, 8])
def test_shifted_windows_mask_equals_the_loop_mask(window):
    for rows in range(1, 6):
        for cols in range(1, 6):
            H, W = rows * window, cols * window
            _, _, mask = ops.shifted_windows(H, W, window, window // 2)
            want = loop_shift_mask(H, W, window, window // 2)
            assert (mask.shape, mask.dtype) == (want.shape, want.dtype)
            assert mask.tobytes() == want.tobytes(), (H, W)
    assert ops.shifted_windows(2 * window, window, window, 0)[2] is None


def test_shifted_windows_are_shared_between_layers_and_read_only(monkeypatch):
    masks = []
    real = swin.multi_head_attention
    monkeypatch.setattr(swin, "multi_head_attention",
                        lambda x, p, mask=None: masks.append(mask) or real(x, p, mask))
    make_backbone(blocks=2, layers=2).forward(Tensor(np.ones((1, 8, 8, 8))))
    assert masks[0] is masks[2] is None
    assert masks[1] is masks[3] is ops.shifted_windows(8, 8, 4, 2)[2]
    for a in ops.shifted_windows(8, 8, 4, 2):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_forward_in_threads_at_two_sizes_matches_the_sequential_run():
    # two threads per size, more than this suite's 2-core hosts, switching often
    backbone = make_backbone(blocks=2, layers=2)
    rng = np.random.default_rng(9)
    inputs = [Tensor(rng.uniform(-1, 1, (1, 8, h, w))) for h, w in [(8, 12), (16, 8)]]
    want = [backbone.forward(x).data.tobytes() for x in inputs]
    ops.shifted_windows.cache_clear()        # the threads build the geometries
    got = [[] for _ in range(4)]

    def run(i):
        for _ in range(3):
            got[i].append(backbone.forward(inputs[i % 2]).data.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Tape() as tape:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want[i % 2]] * 3 for i in range(4)]
    assert tape.nodes == []


# the MLP node ------------------------------------------------------------------


def _live_mlp(rng, dim, hidden):
    mlp = swin.Mlp(rng, dim, hidden)
    for t in mlp.parameters():
        t.data[...] = rng.uniform(-1, 1, t.shape)
    return mlp


def _output_and_grads(fn, leaves):
    """(node ops, output, each leaf's gradient) of one recorded sweep."""
    with Tape() as tape:
        out = fn()
    ops_recorded = [node.op for node in tape.nodes]
    with tape:
        loss = weighted_sum_loss(out)
    grads = tape.backward(loss)
    return ops_recorded, out.data, [grads[t] for t in leaves]


@pytest.mark.parametrize("frozen,chain_nodes", [((), 5), (("x",), 5),
                                                 (("x", "fc1_w", "fc1_b"), 2)],
                         ids=["all", "input_constant", "fc1_frozen"])
def test_mlp_is_one_node_byte_equal_to_the_chain(frozen, chain_nodes):
    # a 4-D (B, H, W, C) input, as a swin layer hands it over: every bias and
    # weight gradient sums over three leading axes
    rng = np.random.default_rng(30)
    mlp = _live_mlp(rng, 4, 8)
    x = Tensor(rng.uniform(-2, 2, (2, 3, 5, 4)), requires_grad=True)
    named = {"x": x, "fc1_w": mlp.fc1_w, "fc1_b": mlp.fc1_b, "fc2_w": mlp.fc2_w,
             "fc2_b": mlp.fc2_b}
    for name in frozen:
        named[name].requires_grad = False
    leaves = [t for t in named.values() if t.requires_grad]
    node_ops, got, got_grads = _output_and_grads(lambda: mlp.forward(x), leaves)
    chain_ops, want, want_grads = _output_and_grads(lambda: mlp_chain(mlp, x), leaves)
    assert node_ops == ["mlp"] and len(chain_ops) == chain_nodes
    assert got.tobytes() == want.tobytes()
    for leaf, g, w in zip(leaves, got_grads, want_grads):
        assert g.tobytes() == w.tobytes(), leaf.shape
        assert g.strides == w.strides, leaf.shape


def test_mlp_node_gradients():
    rng = np.random.default_rng(31)
    mlp = _live_mlp(rng, 4, 6)
    x = Tensor(rng.uniform(-2, 2, (2, 2, 3, 4)), requires_grad=True)
    with Tape() as tape:
        mlp.forward(x)
    assert [node.op for node in tape.nodes] == ["mlp"]
    check_gradients(lambda: weighted_sum_loss(mlp.forward(x)), [x] + mlp.parameters(),
                    n_coords=6)


def test_mlp_node_keeps_its_input_rows_pre_activation_and_phi():
    # a * Phi, which the chain's second matmul kept, is rebuilt from two of them
    rng = np.random.default_rng(32)
    mlp = _live_mlp(rng, 16, 32)
    x = Tensor(rng.uniform(-1, 1, (1, 8, 8, 16)), requires_grad=True)
    with Tape() as tape:
        mlp.forward(x)
    (node,) = tape.nodes
    reached = closure_reach(node.backward)
    assert not [obj for obj in reached if isinstance(obj, Tensor)]
    params = {id(p.data) for p in mlp.parameters()}
    kept = [a for a in held_arrays(reached) if id(a) not in params]
    assert sorted(a.shape for a in kept) == [(1, 8, 8, 16), (1, 8, 8, 32), (1, 8, 8, 32)]
    assert any(a is x.data for a in kept)


def test_mlp_rejects_a_wrong_channel_count():
    mlp = swin.Mlp(np.random.default_rng(33), 4, 8)
    with pytest.raises(ops.ShapeError):
        mlp.forward(Tensor(np.ones((1, 2, 2, 5))))
