"""NAF backbone: SimpleGate, SCA, identity-at-init, activation-free audit."""

import numpy as np
import pytest

from dmsr.naf import NafBackbone, NafBlock, ScaParams, sca, simple_gate
from dmsr.tensor import Tensor, Tape, ShapeError, mul, slice_axis

from helpers import check_gradients, weighted_sum_loss

ACTIVATION_OPS = {"gelu", "sigmoid", "tanh", "softmax", "relu", "erf", "exp"}


def test_simple_gate_hadamard():
    x = np.concatenate([np.full((1, 1, 3, 3), 2.0), np.full((1, 1, 3, 3), 3.0)],
                       axis=1)
    out = simple_gate(Tensor(x))
    assert out.shape == (1, 1, 3, 3)
    np.testing.assert_allclose(out.data, 6.0)


def test_simple_gate_identity_when_second_half_ones():
    rng = np.random.default_rng(0)
    y = rng.random((1, 4, 3, 3))
    x = np.concatenate([y, np.ones_like(y)], axis=1)
    out = simple_gate(Tensor(x))
    np.testing.assert_allclose(out.data, y)


def test_simple_gate_halves_channels():
    rng = np.random.default_rng(1)
    x = Tensor(rng.random((2, 8, 4, 4)))
    assert simple_gate(x).shape == (2, 4, 4, 4)


def test_simple_gate_rejects_odd_channels():
    with pytest.raises(ShapeError):
        simple_gate(Tensor(np.ones((1, 3, 2, 2))))


def test_simple_gate_split_order_first_half_is_y():
    x = np.zeros((1, 2, 1, 1))
    x[0, 0] = 5.0  # y-half
    x[0, 1] = 1.0  # z-half: identity gate
    assert simple_gate(Tensor(x)).data.item() == 5.0


def test_simple_gate_is_one_mul_node_byte_equal_to_slices_and_mul():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (2, 8, 5, 4)), requires_grad=True)

    def sliced(x):                      # the two-slice form it replaces
        return mul(slice_axis(x, 1, 0, 4), slice_axis(x, 1, 4, 8))

    results = []
    for gate in (simple_gate, sliced):
        with Tape() as tape:
            out = gate(x)
            loss = weighted_sum_loss(out)
        results.append((out.data.tobytes(), tape.backward(loss)[x].tobytes()))
    assert results[0] == results[1]
    with Tape() as tape:
        simple_gate(x)
    assert [node.op for node in tape.nodes] == ["mul"]


def test_sca_identity_conv_on_constant():
    c = 0.6
    rng = np.random.default_rng(2)
    p = ScaParams(rng, 2)
    p.w.data[:] = 0.0
    for ch in range(2):
        p.w.data[ch, ch, 0, 0] = 1.0
    p.b.data[:] = 0.0
    x = Tensor(np.full((1, 2, 4, 4), c))
    out = sca(x, p)
    np.testing.assert_allclose(out.data, c * c)


def test_sca_zero_projection_annihilates():
    rng = np.random.default_rng(3)
    p = ScaParams(rng, 3)
    p.w.data[:] = 0.0
    p.b.data[:] = 0.0
    x = Tensor(rng.random((1, 3, 4, 4)))
    np.testing.assert_allclose(sca(x, p).data, 0.0)


def test_sca_matches_step_by_step_oracle():
    rng = np.random.default_rng(4)
    p = ScaParams(rng, 3)
    x = rng.uniform(-1, 1, (2, 3, 5, 5))
    got = sca(Tensor(x), p).data
    pooled = x.mean(axis=(2, 3), keepdims=True)
    w = p.w.data.reshape(3, 3)
    scale = np.einsum("oc,bcij->boij", w, pooled) + p.b.data.reshape(1, 3, 1, 1)
    want = x * scale
    assert np.abs(got - want).max() < 1e-10


def test_naf_block_identity_at_init():
    rng = np.random.default_rng(5)
    block = NafBlock(rng, 8)
    x = Tensor(rng.uniform(-1, 1, (1, 8, 6, 6)))
    out = block.forward(x)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_naf_block_channel_bookkeeping():
    rng = np.random.default_rng(6)
    block = NafBlock(rng, 8)
    block.beta.data[...] = 0.3
    block.gamma.data[...] = 0.2
    x = Tensor(rng.uniform(-1, 1, (2, 8, 4, 4)))
    assert block.forward(x).shape == (2, 8, 4, 4)
    assert block.pw1_w.shape[0] == 16  # expand doubles
    assert block.pw3_w.shape[0] == 16


def test_backbone_executes_six_blocks():
    rng = np.random.default_rng(7)
    backbone = NafBackbone(rng, 16, 8, 6)
    calls = []
    for block in backbone.blocks:
        orig = block.forward
        block.forward = (lambda f: lambda x: calls.append(1) or f(x))(orig)
    backbone.forward(Tensor(rng.uniform(-1, 1, (1, 16, 8, 8))))
    assert len(calls) == 6


def test_backbone_shape_preservation():
    rng = np.random.default_rng(8)
    backbone = NafBackbone(rng, 16, 8, 6)
    out = backbone.forward(Tensor(rng.uniform(-1, 1, (1, 16, 8, 8))))
    assert out.shape == (1, 8, 8, 8)


def test_tape_audit_no_activation_nodes_in_blocks():
    rng = np.random.default_rng(9)
    backbone = NafBackbone(rng, 8, 8, 6)
    for block in backbone.blocks:  # make every path live
        block.beta.data[...] = 0.5
        block.gamma.data[...] = 0.5
    x = Tensor(rng.uniform(-1, 1, (1, 8, 8, 8)), requires_grad=True)
    with Tape() as tape:
        backbone.forward(x)
    ops_used = {node.op for node in tape.nodes}
    assert ops_used & ACTIVATION_OPS == set(), f"activations found: {ops_used}"
    # sanity: the forward actually recorded work
    assert {"conv2d", "depthwise_conv2d", "mul", "layer_norm"} <= ops_used


def test_naf_block_gradients():
    rng = np.random.default_rng(10)
    block = NafBlock(rng, 4)
    block.beta.data[...] = 0.3
    block.gamma.data[...] = -0.2
    x = Tensor(rng.uniform(-1, 1, (1, 4, 4, 4)), requires_grad=True)
    leaves = [x] + block.parameters()
    check_gradients(lambda: weighted_sum_loss(block.forward(x)),
                    leaves, n_coords=3)


def test_backbone_end_to_end_gradients_tiny_config():
    rng = np.random.default_rng(11)
    backbone = NafBackbone(rng, 4, 4, 2)
    for block in backbone.blocks:
        block.beta.data[...] = 0.4
        block.gamma.data[...] = 0.4
    x = Tensor(rng.uniform(-1, 1, (1, 4, 4, 4)), requires_grad=True)
    leaves = [x] + backbone.parameters()
    check_gradients(lambda: weighted_sum_loss(backbone.forward(x)),
                    leaves, n_coords=2)
