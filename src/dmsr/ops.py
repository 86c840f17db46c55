"""Neural building blocks shared by both backbones.

All ops are pure functions over Tensors and record themselves on the active
Tape, so gradients come from tensor.Tape.backward. Image tensors are NCHW;
attention operates on (batch*windows, tokens, channels).
"""

from functools import lru_cache

import numpy as np

from .tensor import (Tensor, ShapeError, record, ensure_tensor, matmul, rearrange,
                     transpose, tmean, softmax_lastaxis, add, slice_axis)


class Module:
    """Minimal parameter container: attributes that are Tensors (requires_grad)
    or Modules (or lists of Modules) are walked in insertion order."""

    def named_parameters(self, prefix=""):
        out = []
        for name, value in self.__dict__.items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                out.append((full, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(full + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{full}.{i}."))
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]


def param(rng, shape, std=0.02):
    """Gaussian-initialized trainable tensor."""
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def param_conv(rng, out_ch, in_ch, kh, kw):
    """Fan-in scaled conv weight (He-style)."""
    std = np.sqrt(2.0 / (in_ch * kh * kw))
    return Tensor(rng.normal(0.0, std, size=(out_ch, in_ch, kh, kw)),
                  requires_grad=True)


def param_depthwise(rng, channels, kh, kw):
    """Fan-in scaled depthwise conv weight, one (kh, kw) filter per channel."""
    std = np.sqrt(2.0 / (kh * kw))
    return Tensor(rng.normal(0.0, std, size=(channels, kh, kw)), requires_grad=True)


def zeros_param(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape):
    return Tensor(np.ones(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# convolution (stride 1)


def _conv(op, x, weight, bias, padding, kernel):
    """What conv2d and depthwise_conv2d share: the channel and output-extent
    checks, the zero padding, the tap windows, the optional per-channel bias
    and the input gradient.

    kernel(xp, w, taps, Ho, Wo) gets the padded input, the weight array and,
    for each kernel tap (i, j) in row-major order, the index of its shifted
    (Ho, Wo) window in xp. It returns the output, weight_grad(g) -> gw and
    tap_grads(g) -> the gradients of the tap windows in tap order. Neither is
    called for an input that needs no gradient.
    """
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    _, C, H, W = x.shape
    Cw, kh, kw = weight.shape[-3:]
    if C != Cw:
        raise ShapeError(f"{op}: input has {C} channels, weight expects {Cw}")
    Ho, Wo = H + 2 * padding - kh + 1, W + 2 * padding - kw + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"{op}: non-positive output extent ({Ho}x{Wo})")
    p = padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    taps = [np.s_[..., i:i + Ho, j:j + Wo] for i in range(kh) for j in range(kw)]
    out, weight_grad, tap_grads = kernel(xp, weight.data, taps, Ho, Wo)
    padded_shape = xp.shape   # backward must not keep the padded input alive

    inputs = (x, weight)
    if bias is not None:
        bias = ensure_tensor(bias)
        out = out + bias.data.reshape(1, -1, 1, 1)
        inputs += (bias,)

    def backward(g):
        gx = None
        if x.requires_grad:
            if len(taps) == 1:            # a 1x1 kernel's one window is all of xp
                (gxp,) = tap_grads(g)
            else:
                gxp = np.zeros(padded_shape)
                for t, gt in zip(taps, tap_grads(g)):
                    gxp[t] += gt
            gx = gxp[..., p:p + H, p:p + W]
        gw = weight_grad(g) if weight.requires_grad else None
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3)) if bias.requires_grad else None

    return record(op, inputs, out, backward)


def conv2d(x, weight, bias=None, padding=0):
    """Stride-1 cross-correlation of NCHW input with (out_ch, in_ch, kh, kw)
    weights, zero-padded by `padding` on each side: one matmul over im2col."""

    def im2col_matmul(xp, w, taps, Ho, Wo):
        B, O = xp.shape[0], w.shape[0]
        # (B, C, taps, Ho, Wo); the one window of a 1x1 kernel is xp itself
        cols = xp[:, :, None] if len(taps) == 1 else np.stack([xp[t] for t in taps], axis=2)
        cols = cols.reshape(B, -1, Ho * Wo)
        w2 = w.reshape(O, -1)
        out = np.matmul(w2, cols).reshape(B, O, Ho, Wo)

        def weight_grad(g):
            g2 = g.reshape(B, O, Ho * Wo)
            return np.matmul(g2, cols.swapaxes(1, 2)).sum(axis=0).reshape(w.shape)

        def tap_grads(g):
            dcols = np.matmul(w2.T, g.reshape(B, O, Ho * Wo))
            return np.moveaxis(dcols.reshape(B, -1, len(taps), Ho, Wo), 2, 0)

        return out, weight_grad, tap_grads

    return _conv("conv2d", x, weight, bias, padding, im2col_matmul)


def depthwise_conv2d(x, weight, bias=None, padding=0):
    """Stride-1 per-channel convolution with (C, kh, kw) weights, zero-padded
    by `padding` on each side: one multiply-add per tap, and the forward sums
    the taps in row-major order."""

    def shifted_multiply_adds(xp, w, taps, Ho, Wo):
        wt = w.reshape(len(w), -1, 1, 1)     # (C, taps, 1, 1)
        out = np.zeros((xp.shape[0], len(w), Ho, Wo))
        for n, t in enumerate(taps):
            out += xp[t] * wt[:, n]

        def weight_grad(g):
            gw = np.stack([np.einsum("bchw,bchw->c", g, xp[t]) for t in taps], axis=1)
            return gw.reshape(w.shape)

        def tap_grads(g):
            return (g * wt[:, n] for n in range(len(taps)))

        return out, weight_grad, tap_grads

    return _conv("depthwise_conv2d", x, weight, bias, padding, shifted_multiply_adds)


# ---------------------------------------------------------------------------
# normalization, linear, attention


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    x, gamma, beta = ensure_tensor(x), ensure_tensor(gamma), ensure_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma.data * xhat + beta.data

    def backward(g):
        n = x.shape[-1]
        gx = ggamma = gbeta = None
        if gamma.requires_grad:
            ggamma = (g * xhat).reshape(-1, n).sum(axis=0).reshape(gamma.shape)
        if beta.requires_grad:
            gbeta = g.reshape(-1, n).sum(axis=0).reshape(beta.shape)
        if x.requires_grad:
            gc = g * gamma.data
            gx = inv * (gc - gc.mean(axis=-1, keepdims=True)
                        - xhat * (gc * xhat).mean(axis=-1, keepdims=True))
        return gx, ggamma, gbeta

    return record("layer_norm", (x, gamma, beta), out, backward)


def linear(x, weight, bias=None):
    """x @ weight (+ bias) over the last axis; weight is (in, out)."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


class AttentionParams(Module):
    """QKV/output projections; optional learned relative-position bias over a
    square token window (off by default)."""

    def __init__(self, rng, embed_dim, num_heads, window=None,
                 position_bias=False):
        if embed_dim % num_heads != 0:
            raise ShapeError(f"embed dim {embed_dim} not divisible by {num_heads} heads")
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.qkv_w = param(rng, (embed_dim, 3 * embed_dim))
        self.qkv_b = zeros_param((3 * embed_dim,))
        self.proj_w = param(rng, (embed_dim, embed_dim))
        self.proj_b = zeros_param((embed_dim,))
        self.pos_bias = None
        self._pos_gather = None
        if position_bias:
            if window is None:
                raise ValueError("position_bias needs the window size")
            table_size = (2 * window - 1) ** 2
            self.pos_bias = param(rng, (table_size, num_heads))
            idx = _relative_index(window).reshape(-1)
            gather = np.zeros((idx.size, table_size))
            gather[np.arange(idx.size), idx] = 1.0
            self._pos_gather = gather                      # one-hot row lookup


def _relative_index(window):
    """(w*w, w*w) lookup into the (2w-1)^2 relative-displacement table."""
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window),
                                  indexing="ij"), axis=-1).reshape(-1, 2)
    rel = coords[:, None, :] - coords[None, :, :] + window - 1
    return rel[..., 0] * (2 * window - 1) + rel[..., 1]


def multi_head_attention(x, p, mask=None):
    """Softmax attention over tokens; x is (N, L, C), mask (nW, L, L) or None.

    When a mask is given, N must be a multiple of nW and window i of every
    batch entry receives mask[i] added to its logits.
    """
    N, L, C = x.shape
    h, d = p.num_heads, p.head_dim
    if C != h * d:
        raise ShapeError(f"attention: channels {C} != heads*head_dim {h * d}")
    qkv = linear(x, p.qkv_w, p.qkv_b)                      # (N, L, 3C)
    qkv = rearrange(qkv, (N, L, 3 * h, d), (0, 2, 1, 3))   # (N, 3h, L, d)
    q, k, v = (slice_axis(qkv, 1, i * h, (i + 1) * h) for i in range(3))
    logits = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(d))
    if p.pos_bias is not None:
        if p._pos_gather.shape[0] != L * L:
            raise ShapeError(f"position bias built for "
                             f"{int(np.sqrt(p._pos_gather.shape[0]))} tokens, got {L}")
        bias = matmul(Tensor(p._pos_gather), p.pos_bias)   # (L*L, heads)
        logits = add(logits, rearrange(bias, (L, L, h), (2, 0, 1), (1, h, L, L)))
    if mask is not None:
        # window i of every batch entry, the same for every head
        logits = add(logits, Tensor(np.tile(mask, (N // mask.shape[0], 1, 1))[:, None]))
    attn = softmax_lastaxis(logits)
    out = matmul(attn, v)                                  # (N, h, L, d)
    out = rearrange(out, out.shape, (0, 2, 1, 3), (N, L, C))
    return linear(out, p.proj_w, p.proj_b)


# ---------------------------------------------------------------------------
# rearrangement


@lru_cache
def shifted_windows(H, W, window, shift):
    """(index, inverse, mask) of the (H, W) token grid cyclically shifted up
    and left by `shift`: index lists its row-major token positions window by
    window, inverse is argsort(index), mask is the (windows, w*w, w*w) logits
    mask against attending across the wrap-around (None at shift 0). Cached
    and read-only, so layers of one geometry share one copy."""
    rows = (np.arange(H) + shift) % H
    cols = (np.arange(W) + shift) % W

    def by_window(grid):
        grid = grid.reshape(H // window, window, W // window, window)
        return grid.swapaxes(1, 2).reshape(-1, window * window)

    index = by_window(rows[:, None] * W + cols).reshape(-1)
    inverse = np.argsort(index)
    index.flags.writeable = inverse.flags.writeable = False
    mask = None
    if shift:
        # which seams a token sits beyond, in original coordinates
        label = by_window(2 * (rows[:, None] < shift) + (cols < shift))
        mask = np.where(label[:, :, None] != label[:, None, :], -1e9, 0.0)
        mask.flags.writeable = False
    return index, inverse, mask


def _take_tokens(x, order, inverse, tokens, shape):
    """One "transpose" node: the token axis of x as `tokens` (B, H*W, C) gathered
    by the permutation `order`, reshaped to `shape`; backward gathers by `inverse`."""
    x = ensure_tensor(x)
    out = np.take(x.data.reshape(tokens), order, axis=1).reshape(shape)
    return record("transpose", (x,), out,
                  lambda g: (np.take(g.reshape(tokens), inverse, axis=1).reshape(x.shape),))


def window_partition(x, window, shift=0):
    """(B, H, W, C) -> (B * H/w * W/w, w*w, C) of non-overlapping windows of
    the grid cyclically shifted up and left by `shift`."""
    B, H, W, C = x.shape
    if H % window or W % window:
        raise ShapeError(f"window {window} does not divide {H}x{W}")
    index, inverse, _ = shifted_windows(H, W, window, shift)
    return _take_tokens(x, index, inverse, (B, H * W, C), (-1, window * window, C))


def window_merge(windows, window, H, W, shift=0):
    """Inverse of window_partition at the same shift; bit-exact round trip."""
    nwin, L, C = windows.shape
    if L != window * window or H % window or W % window:
        raise ShapeError("window_merge: inconsistent window geometry")
    B = nwin // ((H // window) * (W // window))
    index, inverse, _ = shifted_windows(H, W, window, shift)
    return _take_tokens(windows, inverse, index, (B, H * W, C), (B, H, W, C))


def pixel_unshuffle(x, r):
    """Space-to-depth: (B, C, H, W) -> (B, C*r*r, H/r, W/r)."""
    B, C, H, W = x.shape
    if H % r or W % r:
        raise ShapeError(f"pixel_unshuffle: factor {r} does not divide {H}x{W}")
    return rearrange(x, (B, C, H // r, r, W // r, r), (0, 1, 3, 5, 2, 4),
                     (B, C * r * r, H // r, W // r))


def pixel_shuffle(x, r):
    """Depth-to-space inverse of pixel_unshuffle."""
    B, Cr2, H, W = x.shape
    if Cr2 % (r * r):
        raise ShapeError(f"pixel_shuffle: channels {Cr2} not divisible by {r * r}")
    C = Cr2 // (r * r)
    return rearrange(x, (B, C, r, r, H, W), (0, 1, 4, 2, 5, 3), (B, C, H * r, W * r))


def adaptive_avg_pool_global(x):
    """Per-channel spatial mean, kept as (B, C, 1, 1)."""
    return tmean(x, axis=(2, 3), keepdims=True)


# ---------------------------------------------------------------------------
# sampling


def bilinear_sample(x, coords):
    """Sample (B, C, H, W) at continuous (y, x) positions, border-clamped.

    coords is (B, Hs, Ws, 2) in pixel units; differentiable w.r.t. both the
    image and the coordinates (coordinate gradient is zero where clamped).
    """
    x, coords = ensure_tensor(x), ensure_tensor(coords)
    B, C, H, W = x.shape
    if coords.shape[0] != B or coords.shape[-1] != 2:
        raise ShapeError(f"bilinear_sample: bad coords shape {coords.shape}")
    cy_raw = coords.data[..., 0]
    cx_raw = coords.data[..., 1]
    cy = np.clip(cy_raw, 0.0, H - 1.0)
    cx = np.clip(cx_raw, 0.0, W - 1.0)
    with np.errstate(invalid="ignore"):  # NaN coords index 0, then stay NaN
        y0 = np.clip(np.floor(cy).astype(np.intp), 0, max(H - 2, 0))
        x0 = np.clip(np.floor(cx).astype(np.intp), 0, max(W - 2, 0))
    y1 = np.minimum(y0 + 1, H - 1)
    x1 = np.minimum(x0 + 1, W - 1)
    ty = (cy - y0)[:, None]                                # (B, 1, Hs, Ws)
    tx = (cx - x0)[:, None]

    bidx = np.arange(B)[:, None, None]
    v00 = x.data[bidx, :, y0, x0].transpose(0, 3, 1, 2)    # (B, C, Hs, Ws)
    v01 = x.data[bidx, :, y0, x1].transpose(0, 3, 1, 2)
    v10 = x.data[bidx, :, y1, x0].transpose(0, 3, 1, 2)
    v11 = x.data[bidx, :, y1, x1].transpose(0, 3, 1, 2)
    out = ((1 - ty) * (1 - tx) * v00 + (1 - ty) * tx * v01
           + ty * (1 - tx) * v10 + ty * tx * v11)

    def backward(g):
        gx = gc = None
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            b4 = np.arange(B)[:, None, None, None]
            c4 = np.arange(C)[None, :, None, None]
            np.add.at(gx, (b4, c4, y0[:, None], x0[:, None]), g * (1 - ty) * (1 - tx))
            np.add.at(gx, (b4, c4, y0[:, None], x1[:, None]), g * (1 - ty) * tx)
            np.add.at(gx, (b4, c4, y1[:, None], x0[:, None]), g * ty * (1 - tx))
            np.add.at(gx, (b4, c4, y1[:, None], x1[:, None]), g * ty * tx)

        if coords.requires_grad:
            dty = (-(1 - tx) * v00 - tx * v01 + (1 - tx) * v10 + tx * v11)
            dtx = (-(1 - ty) * v00 + (1 - ty) * v01 - ty * v10 + ty * v11)
            gy = (g * dty).sum(axis=1) * ((cy_raw > 0) & (cy_raw < H - 1))
            gxc = (g * dtx).sum(axis=1) * ((cx_raw > 0) & (cx_raw < W - 1))
            gc = np.stack([gy, gxc], axis=-1)
        return gx, gc

    return record("bilinear_sample", (x, coords), out, backward)
