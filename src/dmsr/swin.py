"""Swin-style feature extractor: residual transformer blocks over windows.

Layers keep the spatial extents of the resampled input (no downsampling);
attention alternates between unshifted and half-window-shifted grids.
"""

import numpy as np

from . import tensor
from .ops import (Module, AttentionParams, param, param_conv, zeros_param, ones_param,
                  conv2d, layer_norm_grads, multi_head_attention, normalize)
from .tensor import ShapeError, add, gelu_cdf, gelu_slope, transpose, unbroadcast


class Mlp(Module):
    def __init__(self, rng, dim, hidden):
        self.fc1_w = param(rng, (dim, hidden))
        self.fc1_b = zeros_param((hidden,))
        self.fc2_w = param(rng, (hidden, dim))
        self.fc2_b = zeros_param((dim,))

    def forward(self, x, norm_g, norm_b):
        """A swin layer's MLP sublayer over the last axis of x, before its
        residual sum: layer norm, fc1 and its bias, exact GELU, fc2 and its
        bias. One "mlp" tape node, bit-equal to the layer_norm, matmul, add,
        gelu, matmul, add chain it replaces. It keeps the norm's xhat and inv;
        its backward rebuilds the norm's output, the pre-activation a and
        Phi(a)."""
        inputs = (x, norm_g, norm_b, self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b)
        if x.shape[-1] != self.fc1_w.shape[0]:
            raise ShapeError(f"mlp: input {x.shape} vs {self.fc1_w.shape[0]} channels")
        gd, bd, w1, b1, w2, b2 = (t.data for t in inputs[1:])
        xhat, inv = normalize(x.data)
        a = np.matmul(gd * xhat + bd, w1) + b1
        out = np.matmul(a * gelu_cdf(a), w2) + b2

        def backward(g):
            n = gd * xhat + bd
            a = np.matmul(n, w1) + b1           # the forward's expression, so its bytes
            cdf = gelu_cdf(a)
            gw2 = unbroadcast(np.matmul(np.swapaxes(a * cdf, -1, -2), g), w2.shape)
            gb2 = unbroadcast(g, b2.shape)
            ga = np.matmul(g, np.swapaxes(w2, -1, -2)) * gelu_slope(a, cdf)
            del a, cdf
            gb1 = unbroadcast(ga, b1.shape)
            gw1 = unbroadcast(np.matmul(np.swapaxes(n, -1, -2), ga), w1.shape)
            del n
            gx = np.matmul(ga, np.swapaxes(w1, -1, -2))
            return (*layer_norm_grads(gx, xhat, inv, gd), gw1, gb1, gw2, gb2)

        # through the module attribute, so a wrapper installed on tensor.record (as
        # perfbench/tracing.py does) counts this node with the other tensor ops
        return tensor.record("mlp", inputs, out, backward)


class SwinLayer(Module):
    """One transformer layer: x + MSA(LN(x)), then + MLP(LN(.))."""

    def __init__(self, rng, dim, window, num_heads, shift, mlp_ratio, position_bias):
        self.window = window
        self.shift = shift
        self.norm1_g = ones_param((dim,))
        self.norm1_b = zeros_param((dim,))
        self.attn = AttentionParams(rng, dim, num_heads, window, position_bias)
        self.norm2_g = ones_param((dim,))
        self.norm2_b = zeros_param((dim,))
        self.mlp = Mlp(rng, dim, int(dim * mlp_ratio))

    def forward(self, x):
        """x is (B, H, W, C); window must divide H and W."""
        x = add(x, multi_head_attention(x, self.norm1_g, self.norm1_b, self.attn,
                                        self.window, self.shift))
        return add(x, self.mlp.forward(x, self.norm2_g, self.norm2_b))


class Rstb(Module):
    """Residual block of several SwinLayers plus a trailing 3x3 convolution."""

    def __init__(self, rng, dim, window, num_heads, n_layers, mlp_ratio, position_bias):
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
                 n_layers_per_block, mlp_ratio, position_bias):
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
