"""Nonlinear-activation-free feature extractor.

Blocks replace activations with SimpleGate (channel-split Hadamard product)
and rescale channels with simplified channel attention; the only
nonlinearities are multiplications.
"""

import numpy as np

from . import tensor
from .ops import (Module, param_conv, param_depthwise, zeros_param, ones_param,
                  conv2d, depthwise_conv2d, layer_norm, adaptive_avg_pool_global)
from .tensor import ShapeError, add, mul, ensure_tensor, transpose


def simple_gate(x):
    """Split (B, C, H, W) into channel halves y, z and return y * z, as one
    "mul" node whose backward joins (g * z, g * y) along the channels."""
    x = ensure_tensor(x)
    C = x.shape[1]
    if C % 2:
        raise ShapeError(f"simple_gate: odd channel count {C}")
    y, z = x.data[:, :C // 2], x.data[:, C // 2:]
    # through the module attribute, so a wrapper installed on tensor.record (as
    # perfbench/tracing.py does) counts this node with the other tensor ops
    return tensor.record("mul", (x,), y * z,
                         lambda g: (np.concatenate((g * z, g * y), axis=1),))


class ScaParams(Module):
    def __init__(self, rng, channels):
        self.w = param_conv(rng, channels, channels, 1, 1)
        self.b = zeros_param((channels,))


def sca(x, p):
    """Simplified channel attention: x * conv1x1(global_avg_pool(x))."""
    pooled = adaptive_avg_pool_global(x)
    scale = conv2d(pooled, p.w, p.b)
    return mul(x, scale)


def channel_layer_norm(x, gamma, beta):
    """LayerNorm over the channel axis of (B, C, H, W) at every position."""
    y = transpose(x, (0, 2, 3, 1))
    y = layer_norm(y, gamma, beta)
    return transpose(y, (0, 3, 1, 2))


class NafBlock(Module):
    """Fig-style block: LN, 1x1 expand, 3x3 depthwise, SimpleGate, SCA, 1x1,
    residual; then LN, 1x1 expand, SimpleGate, 1x1, residual. Residual scale
    scalars start at zero so a fresh block is the identity."""

    def __init__(self, rng, channels):
        c = channels
        self.norm1_g = ones_param((c,))
        self.norm1_b = zeros_param((c,))
        self.pw1_w = param_conv(rng, 2 * c, c, 1, 1)
        self.pw1_b = zeros_param((2 * c,))
        self.dw_w = param_depthwise(rng, 2 * c, 3, 3)
        self.dw_b = zeros_param((2 * c,))
        self.sca = ScaParams(rng, c)
        self.pw2_w = param_conv(rng, c, c, 1, 1)
        self.pw2_b = zeros_param((c,))
        self.norm2_g = ones_param((c,))
        self.norm2_b = zeros_param((c,))
        self.pw3_w = param_conv(rng, 2 * c, c, 1, 1)
        self.pw3_b = zeros_param((2 * c,))
        self.pw4_w = param_conv(rng, c, c, 1, 1)
        self.pw4_b = zeros_param((c,))
        self.beta = zeros_param(())
        self.gamma = zeros_param(())

    def forward(self, x):
        h = channel_layer_norm(x, self.norm1_g, self.norm1_b)
        h = conv2d(h, self.pw1_w, self.pw1_b)
        h = depthwise_conv2d(h, self.dw_w, self.dw_b, padding=1)
        h = simple_gate(h)
        h = sca(h, self.sca)
        h = conv2d(h, self.pw2_w, self.pw2_b)
        y = add(x, mul(h, self.beta))
        h2 = channel_layer_norm(y, self.norm2_g, self.norm2_b)
        h2 = conv2d(h2, self.pw3_w, self.pw3_b)
        h2 = simple_gate(h2)
        h2 = conv2d(h2, self.pw4_w, self.pw4_b)
        return add(y, mul(h2, self.gamma))


class NafBackbone(Module):
    """Input embedding conv followed by cfg.B NAF blocks in series."""

    def __init__(self, rng, in_ch, width, n_blocks):
        self.conv_in_w = param_conv(rng, width, in_ch, 3, 3)
        self.conv_in_b = zeros_param((width,))
        self.blocks = [NafBlock(rng, width) for _ in range(n_blocks)]

    def forward_blocks(self, x):
        y = x
        for block in self.blocks:
            y = block.forward(y)
        return y

    def forward(self, x):
        """(B, in_ch, H, W) -> (B, width, H, W), spatial extents unchanged."""
        return self.forward_blocks(conv2d(x, self.conv_in_w, self.conv_in_b, padding=1))


def zero_residual_branches(backbone):
    """Residual scales are already the gate; zeroing them makes every block an
    identity map (they start at zero, this restores that state)."""
    for block in backbone.blocks:
        block.beta.data[...] = 0.0
        block.gamma.data[...] = 0.0
