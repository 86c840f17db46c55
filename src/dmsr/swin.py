"""Swin-style feature extractor: residual transformer blocks over windows.

Layers keep the spatial extents of the resampled input (no downsampling);
attention alternates between unshifted and half-window-shifted grids.
"""

import numpy as np

from . import tensor
from .ops import (Module, AttentionParams, param, param_conv, zeros_param,
                  ones_param, conv2d, layer_norm, multi_head_attention,
                  shifted_windows, window_partition, window_merge)
from .tensor import (ShapeError, add, ensure_tensor, gelu_cdf, gelu_slope, transpose,
                     unbroadcast)


class Mlp(Module):
    def __init__(self, rng, dim, hidden):
        self.fc1_w = param(rng, (dim, hidden))
        self.fc1_b = zeros_param((hidden,))
        self.fc2_w = param(rng, (hidden, dim))
        self.fc2_b = zeros_param((dim,))

    def forward(self, x):
        """One "mlp" tape node over the last axis of x: fc1 and its bias,
        exact GELU, fc2 and its bias.

        Forward and backward do the arithmetic of the matmul, add, gelu,
        matmul, add chain it replaces, op for op, so the output and every
        gradient are bit-equal to that chain's. The backward keeps the input
        rows, the pre-activation a and its Phi, and rebuilds a * Phi for
        fc2's weight gradient.
        """
        x = ensure_tensor(x)
        inputs = (x, self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b)
        if x.shape[-1] != self.fc1_w.shape[0]:
            raise ShapeError(f"mlp: input {x.shape} vs {self.fc1_w.shape[0]} channels")
        x_grad, w1_grad, b1_grad, w2_grad, b2_grad = (t.requires_grad for t in inputs)
        deep = x_grad or w1_grad or b1_grad         # the gradient reaches the GELU
        xd, w1, b1, w2, b2 = (t.data for t in inputs)
        a = np.matmul(xd, w1) + b1
        cdf = gelu_cdf(a)
        out = np.matmul(a * cdf, w2) + b2
        # each array is kept only for a gradient that reads it
        if not w1_grad:
            xd = None
        if not (deep or w2_grad):
            a = cdf = None

        def backward(g):
            gx = gw1 = gb1 = None
            gw2 = (unbroadcast(np.matmul(np.swapaxes(a * cdf, -1, -2), g), w2.shape)
                   if w2_grad else None)
            gb2 = unbroadcast(g, b2.shape) if b2_grad else None
            if deep:
                ga = np.matmul(g, np.swapaxes(w2, -1, -2)) * gelu_slope(a, cdf)
                gb1 = unbroadcast(ga, b1.shape) if b1_grad else None
                if w1_grad:
                    gw1 = unbroadcast(np.matmul(np.swapaxes(xd, -1, -2), ga), w1.shape)
                if x_grad:
                    gx = np.matmul(ga, np.swapaxes(w1, -1, -2))
            return gx, gw1, gb1, gw2, gb2

        # through the module attribute, so a wrapper installed on tensor.record (as
        # perfbench/tracing.py does) counts this node with the other tensor ops
        return tensor.record("mlp", inputs, out, backward)


class SwinLayer(Module):
    """One transformer layer: x + MSA(LN(x)), then + MLP(LN(.))."""

    def __init__(self, rng, dim, window, num_heads, shift, mlp_ratio=2.0,
                 position_bias=False):
        self.window = window
        self.shift = shift
        self.norm1_g = ones_param((dim,))
        self.norm1_b = zeros_param((dim,))
        self.attn = AttentionParams(rng, dim, num_heads, window=window,
                                    position_bias=position_bias)
        self.norm2_g = ones_param((dim,))
        self.norm2_b = zeros_param((dim,))
        self.mlp = Mlp(rng, dim, int(dim * mlp_ratio))

    def forward(self, x):
        """x is (B, H, W, C); window must divide H and W."""
        _, H, W, _ = x.shape
        shortcut = x
        y = layer_norm(x, self.norm1_g, self.norm1_b)
        wins = window_partition(y, self.window, self.shift)
        mask = shifted_windows(H, W, self.window, self.shift)[2]
        wins = multi_head_attention(wins, self.attn, mask=mask)
        y = window_merge(wins, self.window, H, W, self.shift)
        x = add(shortcut, y)
        return add(x, self.mlp.forward(layer_norm(x, self.norm2_g, self.norm2_b)))


class Rstb(Module):
    """Residual block of several SwinLayers plus a trailing 3x3 convolution."""

    def __init__(self, rng, dim, window, num_heads, n_layers, mlp_ratio=2.0,
                 position_bias=False):
        self.layers = [SwinLayer(rng, dim, window, num_heads,
                                 shift=0 if i % 2 == 0 else window // 2,
                                 mlp_ratio=mlp_ratio, position_bias=position_bias)
                       for i in range(n_layers)]
        self.conv_w = param_conv(rng, dim, dim, 3, 3)
        self.conv_b = zeros_param((dim,))

    def forward(self, x):
        """(B, H, W, C) in and out, residual around the whole block."""
        y = x
        for layer in self.layers:
            y = layer.forward(y)
        y = transpose(y, (0, 3, 1, 2))
        y = conv2d(y, self.conv_w, self.conv_b, padding=1)
        y = transpose(y, (0, 2, 3, 1))
        return add(x, y)


class SwinBackbone(Module):
    """Input embedding conv followed by cfg.B residual swin transformer blocks."""

    def __init__(self, rng, in_ch, embed_dim, window, num_heads, n_blocks,
                 n_layers_per_block=2, mlp_ratio=2.0, position_bias=False):
        self.window = window
        self.conv_in_w = param_conv(rng, embed_dim, in_ch, 3, 3)
        self.conv_in_b = zeros_param((embed_dim,))
        self.blocks = [Rstb(rng, embed_dim, window, num_heads, n_layers_per_block,
                            mlp_ratio, position_bias) for _ in range(n_blocks)]

    def forward_blocks(self, x):
        """Run the residual block stack on embedded (B, C, H, W) features."""
        B, C, H, W = x.shape
        if H % self.window or W % self.window:
            raise ShapeError(f"window {self.window} does not divide {H}x{W}")
        y = transpose(x, (0, 2, 3, 1))
        for block in self.blocks:
            y = block.forward(y)
        return transpose(y, (0, 3, 1, 2))

    def forward(self, x):
        """(B, in_ch, H, W) -> (B, embed_dim, H, W), spatial extents unchanged."""
        return self.forward_blocks(conv2d(x, self.conv_in_w, self.conv_in_b, padding=1))


def zero_residual_branches(backbone):
    """Zero every projection feeding a residual sum, making the block stack an
    identity map. Used by initialization-property tests."""
    for block in backbone.blocks:
        for layer in block.layers:
            layer.attn.proj_w.data[:] = 0.0
            layer.attn.proj_b.data[:] = 0.0
            layer.mlp.fc2_w.data[:] = 0.0
            layer.mlp.fc2_b.data[:] = 0.0
        block.conv_w.data[:] = 0.0
        block.conv_b.data[:] = 0.0
