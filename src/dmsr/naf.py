"""Nonlinear-activation-free feature extractor.

Blocks replace activations with SimpleGate (channel-split Hadamard product)
and rescale channels with simplified channel attention; the only
nonlinearities are multiplications.
"""

import numpy as np

from . import tensor
from .ops import (Module, param, param_conv, zeros_param, ones_param, conv2d,
                  conv2d_forward, conv2d_grads, depthwise_forward, depthwise_grads,
                  normalize, layer_norm_grads)
from .tensor import ShapeError


class ScaParams(Module):
    def __init__(self, rng, channels):
        self.w = param_conv(rng, channels, channels, 1, 1)
        self.b = zeros_param((channels,))


def _gate(a):
    """SimpleGate: the first channel half of `a` times the second."""
    c = a.shape[1] // 2
    return a[:, :c] * a[:, c:]


def _gate_grad(g, a):
    """(g * second half, g * first half), joined along the channels."""
    c = a.shape[1] // 2
    out = np.empty(a.shape)
    np.multiply(g, a[:, c:], out=out[:, :c])
    np.multiply(g, a[:, :c], out=out[:, c:])
    return out


def _channel_norm(x, gamma, beta):
    """LayerNorm over the channel axis of (B, C, H, W), computed channels-last:
    (the output gamma * xhat + beta as contiguous NCHW, xhat, inv)."""
    xhat, inv = normalize(np.ascontiguousarray(x.transpose(0, 2, 3, 1)))
    B, H, W, C = xhat.shape
    out = np.empty((B, C, H, W))
    nhwc = out.transpose(0, 2, 3, 1)
    np.multiply(gamma, xhat, out=nhwc)
    nhwc += beta
    return out, xhat, inv


def _channel_norm_grads(g, xhat, inv, gamma):
    gx, ggamma, gbeta = layer_norm_grads(g.transpose(0, 2, 3, 1), xhat, inv, gamma)
    return gx.transpose(0, 3, 1, 2), ggamma, gbeta


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
        """One "naf_block" tape node (B, C, H, W) -> (B, C, H, W).

        Forward and backward do the arithmetic of the block written as a
        chain of transpose, layer_norm, conv2d, depthwise_conv2d, SimpleGate,
        mean, mul and add nodes, op for op and in the same memory orders, so
        the output and every gradient are bit-equal to that chain's. The node
        keeps only the input array; its backward re-runs the block on it.
        """
        if x.ndim != 4 or x.shape[1] != self.norm1_g.shape[0]:
            raise ShapeError(f"naf_block: input {x.shape} vs {self.norm1_g.shape[0]} channels")
        inputs = (x, self.norm1_g, self.norm1_b, self.pw1_w, self.pw1_b, self.dw_w, self.dw_b,
                  self.sca.w, self.sca.b, self.pw2_w, self.pw2_b, self.beta,
                  self.norm2_g, self.norm2_b, self.pw3_w, self.pw3_b, self.pw4_w, self.pw4_b,
                  self.gamma)
        params = tuple(t.data for t in inputs[1:])
        xd = x.data
        # through the module attribute, so a wrapper installed on tensor.record (as
        # perfbench/tracing.py does) counts this node with the other tensor ops
        return tensor.record("naf_block", inputs, _block(xd, params)[0],
                             lambda g: _block_backward(g, xd, params))


def _block(x, params):
    """(the block's output, xhat1, inv1, n1, p1, d, s1, pooled, scale, a, o2,
    xhat2, inv2, n2, p3, s2, o4): the output and every intermediate the
    backward reads. Parameter names: gN, bN are layer norm N's gamma and beta;
    wN, cN a conv's weight and bias (d the depthwise conv, s SCA's). No conv
    output is scaled in place, so the backward reads each as it was made."""
    g1, b1, w1, c1, wd, cd, ws, cs, w2, c2, beta, g2, b2, w3, c3, w4, c4, gamma = params
    n1, xhat1, inv1 = _channel_norm(x, g1, b1)
    p1 = conv2d_forward(n1, w1, c1, 0)
    d = depthwise_forward(p1, wd, cd, 1)
    s1 = _gate(d)
    pooled = s1.mean(axis=(2, 3), keepdims=True)
    scale = conv2d_forward(pooled, ws, cs, 0)
    a = s1 * scale
    o2 = conv2d_forward(a, w2, c2, 0)
    y = x + o2 * beta
    n2, xhat2, inv2 = _channel_norm(y, g2, b2)
    p3 = conv2d_forward(n2, w3, c3, 0)
    s2 = _gate(p3)
    o4 = conv2d_forward(s2, w4, c4, 0)
    out = o4 * gamma
    out += y
    return out, xhat1, inv1, n1, p1, d, s1, pooled, scale, a, o2, xhat2, inv2, n2, p3, s2, o4


def _block_backward(g, x, params):
    """The gradient of each input of the block, indexed as the inputs of
    NafBlock.forward's node, from the block re-run on its kept input x."""
    g1, b1, w1, c1, wd, cd, ws, cs, w2, c2, beta, g2, b2, w3, c3, w4, c4, gamma = params
    (_, xhat1, inv1, n1, p1, d, s1, pooled, scale, a, o2, xhat2, inv2, n2, p3, s2,
     o4) = _block(x, params)
    grads = [None] * 19

    o4 *= g
    grads[18] = o4.sum(axis=(0, 1, 2, 3)).reshape(())
    g4 = g * gamma
    gs2, grads[16], grads[17] = conv2d_grads(g4, s2, w4, 0, True)
    gp3 = _gate_grad(gs2, p3)
    gn2, grads[14], grads[15] = conv2d_grads(gp3, n2, w3, 0, True)
    gy, grads[12], grads[13] = _channel_norm_grads(gn2, xhat2, inv2, g2)
    gy = g + gy

    o2 *= gy
    grads[11] = o2.sum(axis=(0, 1, 2, 3)).reshape(())
    g2o = gy * beta
    ga, grads[9], grads[10] = conv2d_grads(g2o, a, w2, 0, True)
    gscale = (ga * s1).sum(axis=(2, 3), keepdims=True)
    gpooled, grads[7], grads[8] = conv2d_grads(gscale, pooled, ws, 0, True)
    gs1 = ga                        # the gate output's gradient: through SCA's mul and pool
    gs1 *= scale
    gs1 += gpooled / (s1.size / pooled.size)
    gd = _gate_grad(gs1, d)
    gp1, grads[5], grads[6] = depthwise_grads(gd, p1, wd, 1, True)
    gn1, grads[3], grads[4] = conv2d_grads(gp1, n1, w1, 0, True)
    gx, grads[1], grads[2] = _channel_norm_grads(gn1, xhat1, inv1, g1)
    grads[0] = gy + gx
    return grads


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
