"""Nonlinear-activation-free feature extractor.

Blocks replace activations with SimpleGate (channel-split Hadamard product)
and rescale channels with simplified channel attention; the only
nonlinearities are multiplications.
"""

import numpy as np

from . import tensor
from .ops import (Module, param, param_conv, zeros_param, ones_param, conv2d,
                  depthwise_conv2d, layer_norm)
from .tensor import ShapeError, add, mul, segment, tmean, transpose


class ScaParams(Module):
    def __init__(self, rng, channels):
        self.w = param_conv(rng, channels, channels, 1, 1)
        self.b = zeros_param((channels,))


def simple_gate(x):
    """SimpleGate: split (B, C, H, W) into channel halves y, z and return
    y * z, as one "mul" node whose backward joins (g * z, g * y) along the
    channels."""
    C = x.shape[1]
    if C % 2:
        raise ShapeError(f"simple_gate: odd channel count {C}")
    y, z = x.data[:, :C // 2], x.data[:, C // 2:]
    # through the module attribute, so a wrapper installed on tensor.record (as
    # perfbench/tracing.py does) counts this node with the other tensor ops
    return tensor.record("mul", (x,), y * z,
                         lambda g: (np.concatenate((g * z, g * y), axis=1),))


def _channel_norm(x, gamma, beta):
    """LayerNorm over the channel axis of (B, C, H, W) at every position."""
    return transpose(layer_norm(transpose(x, (0, 2, 3, 1)), gamma, beta), (0, 3, 1, 2))


def _block(x, g1, b1, w1, c1, wd, cd, ws, cs, w2, c2, beta, g2, b2, w3, c3, w4, c4, gamma):
    """The block as tape ops. Parameter names: gN, bN are layer norm N's
    gamma and beta; wN, cN a conv's weight and bias (d the depthwise conv, s
    SCA's)."""
    h = simple_gate(depthwise_conv2d(conv2d(_channel_norm(x, g1, b1), w1, c1), wd, cd,
                                     padding=1))
    h = mul(h, conv2d(tmean(h, axis=(2, 3), keepdims=True), ws, cs))   # SCA
    y = add(x, mul(conv2d(h, w2, c2), beta))
    h = simple_gate(conv2d(_channel_norm(y, g2, b2), w3, c3))
    return add(y, mul(conv2d(h, w4, c4), gamma))


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
        self.dw_w = param(rng, (2 * c, 3, 3), np.sqrt(2.0 / 9))   # fan-in scaled, 3x3 per channel
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
        """One "naf_block" tape node (B, C, H, W) -> (B, C, H, W): a recompute
        segment over _block, so it keeps only its input arrays, and its
        output and every gradient are those of the block's ops recorded flat.
        The inputs are listed, not taken from parameters(), which skips a
        constant."""
        if x.ndim != 4 or x.shape[1] != self.norm1_g.shape[0]:
            raise ShapeError(f"naf_block: input {x.shape} vs {self.norm1_g.shape[0]} channels")
        return segment("naf_block", _block, (
            x, self.norm1_g, self.norm1_b, self.pw1_w, self.pw1_b, self.dw_w, self.dw_b,
            self.sca.w, self.sca.b, self.pw2_w, self.pw2_b, self.beta,
            self.norm2_g, self.norm2_b, self.pw3_w, self.pw3_b, self.pw4_w, self.pw4_b,
            self.gamma))


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
