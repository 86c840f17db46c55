"""Neural building blocks shared by both backbones.

All ops are pure functions over Tensors and record themselves on the active
Tape, so gradients come from tensor.Tape.backward. Image tensors are NCHW;
attention operates on (batch*windows, tokens, channels).
"""

from functools import lru_cache

import numpy as np

from .tensor import Tensor, ShapeError, record, ensure_tensor, matmul, rearrange, add


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


def zeros_param(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape):
    return Tensor(np.ones(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# convolution (stride 1)
#
# Array-level kernels, shared by the recorded ops below and by the NAF
# block's one node: conv2d_forward and depthwise_forward take the input, the
# weight, the bias (or None) and the padding and return the output;
# conv2d_grads and depthwise_grads take the output gradient, the input, the
# weight and the padding and return (input gradient, weight gradient), None
# for each not asked for. The bias gradient is g.sum(axis=(0, 2, 3)).


def _taps(x_shape, w_shape, p):
    """(Ho, Wo) and, for each kernel tap (i, j) in row-major order, the index
    of its shifted (Ho, Wo) window in the input zero-padded by p."""
    kh, kw = w_shape[-2:]
    Ho, Wo = x_shape[2] + 2 * p - kh + 1, x_shape[3] + 2 * p - kw + 1
    return Ho, Wo, [np.s_[..., i:i + Ho, j:j + Wo] for i in range(kh) for j in range(kw)]


def _pad(x, p):
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x


def _input_grad(tap_grads, taps, x_shape, p):
    """The input gradient from the gradients of its tap windows in tap order,
    each added in before the next is drawn."""
    B, C, H, W = x_shape
    if len(taps) == 1:                # a 1x1 kernel's one window is all of xp
        (gxp,) = tap_grads
    else:
        gxp = np.zeros((B, C, H + 2 * p, W + 2 * p))
        for t, gt in zip(taps, tap_grads):
            gxp[t] += gt
    return gxp[..., p:p + H, p:p + W]


def _im2col(x, w_shape, p):
    """(B, C * taps, Ho * Wo); the one window of a 1x1 kernel is xp itself."""
    Ho, Wo, taps = _taps(x.shape, w_shape, p)
    xp = _pad(x, p)
    cols = xp[:, :, None] if len(taps) == 1 else np.stack([xp[t] for t in taps], axis=2)
    return cols.reshape(x.shape[0], -1, Ho * Wo)


def _add_bias(out, b):
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


def conv2d_forward(x, w, b, p):
    B, O = x.shape[0], w.shape[0]
    Ho, Wo, _ = _taps(x.shape, w.shape, p)
    return _add_bias(np.matmul(w.reshape(O, -1), _im2col(x, w.shape, p)).reshape(B, O, Ho, Wo),
                     b)


def conv2d_grads(g, x, w, p, x_grad, w_grad):
    B, O, Ho, Wo = g.shape
    g2 = g.reshape(B, O, Ho * Wo)
    gx = gw = None
    if x_grad:
        _, _, taps = _taps(x.shape, w.shape, p)
        dcols = np.matmul(w.reshape(O, -1).T, g2)
        gx = _input_grad(np.moveaxis(dcols.reshape(B, -1, len(taps), Ho, Wo), 2, 0),
                         taps, x.shape, p)
    if w_grad:
        # rebuilt, not kept from the forward: taps times the input's size
        gw = np.matmul(g2, _im2col(x, w.shape, p).swapaxes(1, 2)).sum(axis=0).reshape(w.shape)
    return gx, gw


def depthwise_forward(x, w, b, p):
    """The taps' multiply-adds, summed in row-major order."""
    Ho, Wo, taps = _taps(x.shape, w.shape, p)
    xp = _pad(x, p)
    wt = w.reshape(len(w), -1, 1, 1)     # (C, taps, 1, 1)
    out = np.zeros((x.shape[0], len(w), Ho, Wo))
    for n, t in enumerate(taps):
        out += xp[t] * wt[:, n]
    return _add_bias(out, b)


def depthwise_grads(g, x, w, p, x_grad, w_grad):
    _, _, taps = _taps(x.shape, w.shape, p)
    gx = gw = None
    if x_grad:
        wt = w.reshape(len(w), -1, 1, 1)
        gt = np.empty(g.shape)           # one buffer for every tap's gradient
        gx = _input_grad((np.multiply(g, wt[:, n], out=gt) for n in range(len(taps))),
                         taps, x.shape, p)
    if w_grad:
        xp = _pad(x, p)                  # padded again, not kept from the forward
        gw = np.stack([np.einsum("bchw,bchw->c", g, xp[t]) for t in taps], axis=1)
        gw = gw.reshape(w.shape)
    return gx, gw


def _conv(op, x, weight, bias, padding, forward, grads):
    """What conv2d and depthwise_conv2d share: the channel and output-extent
    checks, the optional per-channel bias and the tape node, whose backward
    keeps the input and the weight."""
    x, weight = ensure_tensor(x), ensure_tensor(weight)
    C, Cw = x.shape[1], weight.shape[-3]
    if C != Cw:
        raise ShapeError(f"{op}: input has {C} channels, weight expects {Cw}")
    Ho, Wo, _ = _taps(x.shape, weight.shape, padding)
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"{op}: non-positive output extent ({Ho}x{Wo})")
    xd, wd = x.data, weight.data
    x_grad, w_grad, b_grad = x.requires_grad, weight.requires_grad, None  # None: no bias
    inputs = (x, weight)
    if bias is not None:
        bias = ensure_tensor(bias)
        inputs += (bias,)
        b_grad = bias.requires_grad
    out = forward(xd, wd, None if bias is None else bias.data, padding)

    def backward(g):
        gx, gw = grads(g, xd, wd, padding, x_grad, w_grad)
        if b_grad is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3)) if b_grad else None

    return record(op, inputs, out, backward)


def conv2d(x, weight, bias=None, padding=0):
    """Stride-1 cross-correlation of NCHW input with (out_ch, in_ch, kh, kw)
    weights, zero-padded by `padding` on each side: one matmul over im2col."""
    return _conv("conv2d", x, weight, bias, padding, conv2d_forward, conv2d_grads)


def depthwise_conv2d(x, weight, bias=None, padding=0):
    """Stride-1 per-channel convolution with (C, kh, kw) weights, zero-padded
    by `padding` on each side: one multiply-add per tap, and the forward sums
    the taps in row-major order."""
    return _conv("depthwise_conv2d", x, weight, bias, padding, depthwise_forward,
                 depthwise_grads)


# ---------------------------------------------------------------------------
# normalization, linear, attention


def normalize(x):
    """(xhat, inv): the last axis of x normalised to zero mean and unit
    variance (eps 1e-5), and inv, its inverse standard deviation. Layer norm's
    output is gamma * xhat + beta."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xc *= inv
    return xc, inv


def layer_norm_grads(g, xhat, inv, gamma, x_grad, gamma_grad, beta_grad):
    """(gx, ggamma, gbeta) of gamma * xhat + beta; None where not asked for."""
    n = xhat.shape[-1]
    gx = ggamma = gbeta = None
    if gamma_grad:
        ggamma = (g * xhat).reshape(-1, n).sum(axis=0)
    if beta_grad:
        gbeta = g.reshape(-1, n).sum(axis=0)
    if x_grad:
        # inv * (gc - mean(gc) - xhat * mean(gc * xhat)) in two buffers, each
        # step in the memory order the expression would give it
        gc = g * gamma
        gx = gc * xhat
        m1, m2 = gc.mean(axis=-1, keepdims=True), gx.mean(axis=-1, keepdims=True)
        gc -= m1
        np.multiply(xhat, m2, out=gx)
        np.subtract(gc, gx, out=gx)
        gx *= inv
    return gx, ggamma, gbeta


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = ensure_tensor(x), ensure_tensor(gamma), ensure_tensor(beta)
    xhat, inv = normalize(x.data)
    out = gamma.data * xhat + beta.data
    x_grad = x.requires_grad
    gamma_shape = gamma.shape if gamma.requires_grad else None
    beta_shape = beta.shape if beta.requires_grad else None
    gd = gamma.data if x_grad else None

    def backward(g):
        gx, ggamma, gbeta = layer_norm_grads(g, xhat, inv, gd, x_grad,
                                             gamma_shape is not None, beta_shape is not None)
        return (gx, None if ggamma is None else ggamma.reshape(gamma_shape),
                None if gbeta is None else gbeta.reshape(beta_shape))

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
    batch entry receives mask[i] added to its logits. One tape node: its
    backward repeats the arithmetic of the node chain this op once recorded,
    bit for bit, and packs the q, k and v gradients into one buffer.
    """
    x = ensure_tensor(x)
    N, L, C = x.shape
    h, d = p.num_heads, p.head_dim
    if C != h * d:
        raise ShapeError(f"attention: channels {C} != heads*head_dim {h * d}")
    inputs = (x, p.qkv_w, p.qkv_b, p.proj_w, p.proj_b)
    gather = p._pos_gather
    if gather is not None:
        if gather.shape[0] != L * L:
            raise ShapeError(f"position bias built for {len(gather)} token pairs, got {L * L}")
        inputs += (p.pos_bias,)
    x_grad, qw_grad, qb_grad, pw_grad, pb_grad, *pos_grad = (t.requires_grad for t in inputs)
    pos_grad = any(pos_grad)
    deep = x_grad or qw_grad or qb_grad or pos_grad     # the gradient reaches the logits
    n_in, scale = len(inputs), 1.0 / np.sqrt(d)

    qkv = np.matmul(x.data, p.qkv_w.data) + p.qkv_b.data
    qkv = np.ascontiguousarray(qkv.reshape(N, L, 3 * h, d).transpose(0, 2, 1, 3))
    q, v = qkv[:, :h].copy(), qkv[:, 2 * h:].copy()                     # (N, h, L, d)
    kT = np.ascontiguousarray(qkv[:, h:2 * h].transpose(0, 1, 3, 2))    # (N, h, d, L)
    probs = np.matmul(q, kT) * scale
    if gather is not None:
        probs += np.matmul(gather, p.pos_bias.data).reshape(L, L, h).transpose(2, 0, 1)
    if mask is not None:            # window i of every batch entry, the same for every head
        windows = probs.reshape(-1, mask.shape[0], h, L, L)
        windows += mask[:, None]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    merged = np.ascontiguousarray(np.matmul(probs, v).transpose(0, 2, 1, 3)).reshape(N, L, C)
    out = np.matmul(merged, p.proj_w.data) + p.proj_b.data
    # each operand of a projection is kept only for the gradient that reads it
    xd, qw = (x.data if qw_grad else None), (p.qkv_w.data if x_grad else None)
    pw, merged = (p.proj_w.data if deep else None), (merged if pw_grad else None)

    def backward(g):
        gpw = np.matmul(np.swapaxes(merged, -1, -2), g).sum(axis=0) if pw_grad else None
        gpb = g.sum(axis=(0, 1)) if pb_grad else None
        if not deep:
            return (None, None, None, gpw, gpb, None)[:n_in]
        go = np.matmul(g, pw.T).reshape(N, L, h, d).transpose(0, 2, 1, 3)
        gp = np.matmul(go, np.swapaxes(v, -1, -2))
        glogits = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
        gpos = (np.matmul(gather.T, glogits.sum(axis=0).transpose(1, 2, 0).reshape(L * L, h))
                if pos_grad else None)
        glogits *= scale
        gqkv = np.empty((N, 3 * h, L, d))
        gqkv[:, :h] = np.matmul(glogits, np.swapaxes(kT, -1, -2))
        gqkv[:, h:2 * h] = np.matmul(np.swapaxes(q, -1, -2), glogits).transpose(0, 1, 3, 2)
        gqkv[:, 2 * h:] = np.matmul(np.swapaxes(probs, -1, -2), go)
        gqkv = gqkv.transpose(0, 2, 1, 3).reshape(N, L, 3 * C)
        gqb = gqkv.sum(axis=(0, 1)) if qb_grad else None
        gqw = np.matmul(np.swapaxes(xd, -1, -2), gqkv).sum(axis=0) if qw_grad else None
        gx = np.matmul(gqkv, qw.T) if x_grad else None
        return (gx, gqw, gqb, gpw, gpb, gpos)[:n_in]

    return record("multi_head_attention", inputs, out, backward)


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
    shape_in = x.shape
    return record("transpose", (x,), out,
                  lambda g: (np.take(g.reshape(tokens), inverse, axis=1).reshape(shape_in),))


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


# ---------------------------------------------------------------------------
# sampling: bilinear_sample and joint_filter share _corners, _bilinear,
# _in_range and _scatter_corners


def _corners(cy_raw, cx_raw, H, W):
    """The corners (y0, x0, y1, x1) of (B, Hs, Ws) pixel coordinates clamped
    to an H x W image, and their (B, 1, Hs, Ws) fractions (ty, tx)."""
    cy = np.clip(cy_raw, 0.0, H - 1.0)
    cx = np.clip(cx_raw, 0.0, W - 1.0)
    with np.errstate(invalid="ignore"):  # NaN coords index 0, then stay NaN
        y0 = np.clip(np.floor(cy).astype(np.intp), 0, max(H - 2, 0))
        x0 = np.clip(np.floor(cx).astype(np.intp), 0, max(W - 2, 0))
    y1 = np.minimum(y0 + 1, H - 1)
    x1 = np.minimum(x0 + 1, W - 1)
    return y0, x0, y1, x1, (cy - y0)[:, None], (cx - x0)[:, None]


def _bilinear(x, corners, slopes):
    """The (B, C, Hs, Ws) samples of x (B, C, H, W) at `corners`, and, when
    `slopes` is set, their derivatives along ty and tx (else None, None)."""
    y0, x0, y1, x1, ty, tx = corners
    bidx = np.arange(x.shape[0])[:, None, None]
    v00 = x[bidx, :, y0, x0].transpose(0, 3, 1, 2)         # (B, C, Hs, Ws)
    v01 = x[bidx, :, y0, x1].transpose(0, 3, 1, 2)
    v10 = x[bidx, :, y1, x0].transpose(0, 3, 1, 2)
    v11 = x[bidx, :, y1, x1].transpose(0, 3, 1, 2)
    uy, ux = 1 - ty, 1 - tx
    out = uy * ux * v00 + uy * tx * v01 + ty * ux * v10 + ty * tx * v11
    if not slopes:
        return out, None, None
    dty = -ux * v00 - tx * v01 + ux * v10 + tx * v11
    dtx = -uy * v00 + uy * v01 - ty * v10 + ty * v11
    return out, dty, dtx


def _in_range(cy_raw, cx_raw, H, W):
    """(ymask, xmask): where a coordinate is not clamped, so its gradient flows."""
    return (cy_raw > 0) & (cy_raw < H - 1), (cx_raw > 0) & (cx_raw < W - 1)


def _scatter_corners(gx, g, corners):
    """Add the (B, C, Hs, Ws) sample gradient g into the image gradient gx
    (B, C, H, W) at the four corners, each weighted like its value."""
    y0, x0, y1, x1, ty, tx = corners
    B, C = gx.shape[:2]
    b4 = np.arange(B)[:, None, None, None]
    c4 = np.arange(C)[None, :, None, None]
    np.add.at(gx, (b4, c4, y0[:, None], x0[:, None]), g * (1 - ty) * (1 - tx))
    np.add.at(gx, (b4, c4, y0[:, None], x1[:, None]), g * (1 - ty) * tx)
    np.add.at(gx, (b4, c4, y1[:, None], x0[:, None]), g * ty * (1 - tx))
    np.add.at(gx, (b4, c4, y1[:, None], x1[:, None]), g * ty * tx)


def bilinear_sample(x, coords):
    """Sample (B, C, H, W) at continuous (y, x) positions, border-clamped.

    coords is (B, Hs, Ws, 2) in pixel units; differentiable w.r.t. both the
    image and the coordinates (coordinate gradient is zero where clamped).
    """
    x, coords = ensure_tensor(x), ensure_tensor(coords)
    B, C, H, W = x.shape
    if coords.shape[0] != B or coords.shape[-1] != 2:
        raise ShapeError(f"bilinear_sample: bad coords shape {coords.shape}")
    cy_raw, cx_raw = coords.data[..., 0], coords.data[..., 1]
    x_grad, c_grad = x.requires_grad, coords.requires_grad
    corners = _corners(cy_raw, cx_raw, H, W)
    out, dty, dtx = _bilinear(x.data, corners, c_grad)
    # the backward keeps only what the gradients it computes read
    if not x_grad:
        corners = None
    ymask, xmask = _in_range(cy_raw, cx_raw, H, W) if c_grad else (None, None)

    def backward(g):
        gx = gc = None
        if x_grad:
            gx = np.zeros((B, C, H, W))
            _scatter_corners(gx, g, corners)
        if c_grad:
            gc = np.stack([(g * dty).sum(axis=1) * ymask,
                           (g * dtx).sum(axis=1) * xmask], axis=-1)
        return gx, gc

    return record("bilinear_sample", (x, coords), out, backward)


def joint_filter(x, weights, offsets, k):
    """The kernel-field filter: out = sum over taps t of weights[:, t] times x
    (B, C, H, W) bilinearly sampled, border-clamped, at each pixel's tap
    position: the pixel, plus tap t's (dy, dx) in the k x k window (row-major,
    centred), plus its learned displacement offsets[:, 2t:2t + 2].

    weights is (B, k*k, H, W), offsets (B, 2*k*k, H, W). One tape node,
    recorded as "bilinear_sample". The taps are sampled and added one at a
    time, in order, so no array spans all k*k taps but the per-tap arrays the
    backward reads: the samples (for the weight gradient), their slopes along
    y and x and the clamp masks (for the offset gradient).
    """
    x, weights, offsets = ensure_tensor(x), ensure_tensor(weights), ensure_tensor(offsets)
    B, C, H, W = x.shape
    kk = k * k
    if weights.shape != (B, kk, H, W):
        raise ShapeError(f"joint_filter: weights {weights.shape} vs "
                         f"expected {(B, kk, H, W)}")
    if offsets.shape != (B, 2 * kk, H, W):
        raise ShapeError(f"joint_filter: offsets {offsets.shape} vs "
                         f"expected {(B, 2 * kk, H, W)}")
    x_grad, w_grad, o_grad = x.requires_grad, weights.requires_grad, offsets.requires_grad
    wd, od = weights.data, offsets.data
    rows, cols = np.arange(H)[:, None] - k // 2, np.arange(W) - k // 2

    def tap_coords(t):
        """Tap t's raw (B, H, W) sampling coordinates (y, x)."""
        dy, dx = divmod(t, k)
        return od[:, 2 * t] + (rows + dy), od[:, 2 * t + 1] + (cols + dx)

    samples = np.empty((kk, B, C, H, W)) if w_grad else None
    dty = dtx = ymask = xmask = None
    if o_grad:
        dty, dtx = np.empty((2, kk, B, C, H, W))
        ymask, xmask = np.empty((2, kk, B, H, W), dtype=bool)
    out = None
    for t in range(kk):
        cy_raw, cx_raw = tap_coords(t)
        s, sy, sx = _bilinear(x.data, _corners(cy_raw, cx_raw, H, W), o_grad)
        term = wd[:, t:t + 1] * s
        if out is None:
            out = term
        else:
            out += term
        if w_grad:
            samples[t] = s
        if o_grad:
            dty[t], dtx[t] = sy, sx
            ymask[t], xmask[t] = _in_range(cy_raw, cx_raw, H, W)

    # the backward keeps only what the gradients it computes read
    if not x_grad:
        od = None
    if not (x_grad or o_grad):
        wd = None

    def backward(g):
        gx = np.zeros((B, C, H, W)) if x_grad else None
        gw = np.empty((B, kk, H, W)) if w_grad else None
        go = np.empty((B, 2 * kk, H, W)) if o_grad else None
        for t in range(kk):
            if w_grad:
                gw[:, t] = (g * samples[t]).sum(axis=1)
            if not (x_grad or o_grad):
                continue
            gs = g * wd[:, t:t + 1]                  # the gradient of tap t's samples
            if o_grad:
                go[:, 2 * t] = (gs * dty[t]).sum(axis=1) * ymask[t]
                go[:, 2 * t + 1] = (gs * dtx[t]).sum(axis=1) * xmask[t]
            if x_grad:
                _scatter_corners(gx, gs, _corners(*tap_coords(t), H, W))
        return gx, gw, go

    return record("bilinear_sample", (x, weights, offsets), out, backward)
