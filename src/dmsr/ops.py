"""Neural building blocks shared by both backbones.

All ops are pure functions over Tensors and record themselves on the active
Tape, so gradients come from tensor.Tape.backward. Image tensors are NCHW;
attention operates on (batch*windows, tokens, channels).
"""

from functools import lru_cache

import numpy as np

from .tensor import Tensor, ShapeError, record, recording, rearrange


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
# Array-level kernels of the recorded ops below: conv2d_forward and
# depthwise_forward take the input, the weight, the bias and the padding and
# return the output; conv2d_grads and depthwise_grads take the output
# gradient, the input, the weight, the padding and whether the input needs a
# gradient, and return (input gradient or None, weight gradient, bias
# gradient).


def _taps(x_shape, w_shape, p):
    """(Ho, Wo) and, for each kernel tap (i, j) in row-major order, the index
    of its shifted (Ho, Wo) window in the input zero-padded by p."""
    kh, kw = w_shape[-2:]
    Ho, Wo = x_shape[2] + 2 * p - kh + 1, x_shape[3] + 2 * p - kw + 1
    return Ho, Wo, [np.s_[..., i:i + Ho, j:j + Wo] for i in range(kh) for j in range(kw)]


def _pad(x, ph, pw):
    """x zero-padded by ph rows and pw columns on each side; a negative one crops."""
    x = x[..., max(-ph, 0):x.shape[2] + min(ph, 0), max(-pw, 0):x.shape[3] + min(pw, 0)]
    ph, pw = max(ph, 0), max(pw, 0)
    if not ph and not pw:
        return x
    B, C, H, W = x.shape
    xp = np.zeros((B, C, H + 2 * ph, W + 2 * pw))
    xp[..., ph:ph + H, pw:pw + W] = x
    return xp


def _input_grad(planes, taps, x_shape, p):
    """The input gradient from its tap windows' gradients, (taps, B, C, Ho,
    Wo), added into a zeroed padded buffer in tap order."""
    B, C, H, W = x_shape
    if len(taps) == 1:                # a 1x1 kernel's one window is all of xp
        gxp = planes[0]
    else:
        gxp = np.zeros((B, C, H + 2 * p, W + 2 * p))
        for t, gt in zip(taps, planes):
            gxp[t] += gt
    return gxp[..., p:p + H, p:p + W]


def _im2col(x, w_shape, p):
    """(B, C * taps, Ho * Wo); the one window of a 1x1 kernel is xp itself."""
    Ho, Wo, taps = _taps(x.shape, w_shape, p)
    xp = _pad(x, p, p)
    if len(taps) == 1:
        return xp.reshape(x.shape[0], -1, Ho * Wo)
    cols = np.empty((*x.shape[:2], len(taps), Ho, Wo))
    for n, t in enumerate(taps):
        cols[:, :, n] = xp[t]
    return cols.reshape(x.shape[0], -1, Ho * Wo)


def _add_bias(out, b):
    out += b.reshape(1, -1, 1, 1)
    return out


def conv2d_forward(x, w, b, p):
    B, O = x.shape[0], w.shape[0]
    Ho, Wo, _ = _taps(x.shape, w.shape, p)
    return _add_bias(np.matmul(w.reshape(O, -1), _im2col(x, w.shape, p)).reshape(B, O, Ho, Wo),
                     b)


def conv2d_grads(g, x, w, p, x_grad):
    B, O, Ho, Wo = g.shape
    g2 = g.reshape(B, O, Ho * Wo)
    gx = None
    if x_grad:
        _, _, taps = _taps(x.shape, w.shape, p)
        dcols = np.matmul(w.reshape(O, -1).T, g2)
        gx = _input_grad(np.moveaxis(dcols.reshape(B, -1, len(taps), Ho, Wo), 2, 0),
                         taps, x.shape, p)
        del dcols                       # freed before im2col is rebuilt
    # rebuilt, not kept from the forward: taps times the input's size
    gw = np.matmul(g2, _im2col(x, w.shape, p).swapaxes(1, 2))
    for b in range(1, B):               # the batch summed in order, in place
        gw[0] += gw[b]
    return gx, gw[0].reshape(w.shape), g.sum(axis=(0, 2, 3))


def _tap_sum(xp, w, taps):
    """The sum from +0.0, in tap order, of each tap's window of xp times its
    (C,) column of w: the forward's multiply-adds, and the input gradient's."""
    # einsum forms each product in less time than a broadcast multiply, into
    # one buffer; the two differ only in a zero's sign, which the sum drops
    out = np.zeros(xp[taps[0]].shape)
    product = np.empty(out.shape)
    for t, wn in zip(taps, w.reshape(len(w), -1).T):
        out += np.einsum("bchw,c->bchw", xp[t], wn, out=product)
    return out


def depthwise_forward(x, w, b, p):
    _, _, taps = _taps(x.shape, w.shape, p)
    return _add_bias(_tap_sum(_pad(x, p, p), w, taps), b)


def depthwise_grads(g, x, w, p, x_grad):
    """The input gradient is a gather: the forward's tap loop over g padded
    by k - 1 - p (cropped where negative), tap (i, j) reading its window at
    (k - 1 - i, k - 1 - j). An inf or NaN weight puts NaN into border entries
    that a scatter of each tap's product would leave finite; training never
    gets there, since train_epochs stops on a non-finite loss first."""
    # Every write is contiguous. The sum starts at +0.0, so it never becomes
    # -0.0, the padding's +-0.0 products leave it as it is, and the valid
    # products are the scatter's own, added in the same order: the same bits.
    gx = None
    if x_grad:
        gp = _pad(g, *(k - 1 - p for k in w.shape[-2:]))
        # gp's windows in reverse row-major order: (k - 1 - i, k - 1 - j) for tap (i, j)
        gx = _tap_sum(gp, w, _taps(gp.shape, w.shape, 0)[2][::-1])
    _, _, taps = _taps(x.shape, w.shape, p)
    xp = _pad(x, p, p)                   # padded again, not kept from the forward
    gw = np.stack([np.einsum("bchw,bchw->c", g, xp[t]) for t in taps], axis=1)
    return gx, gw.reshape(w.shape), g.sum(axis=(0, 2, 3))


def _conv(op, x, weight, bias, padding, forward, grads):
    """What conv2d and depthwise_conv2d share: the channel and output-extent
    checks and the tape node, whose backward keeps the input and the weight.
    The one backward that skips a gradient: a constant input gets None,
    since the model's input convs read constant sub-images and their input
    gradient costs more than the weight's."""
    C, Cw = x.shape[1], weight.shape[-3]
    if C != Cw:
        raise ShapeError(f"{op}: input has {C} channels, weight expects {Cw}")
    Ho, Wo, _ = _taps(x.shape, weight.shape, padding)
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"{op}: non-positive output extent ({Ho}x{Wo})")
    xd, wd, x_grad = x.data, weight.data, x.requires_grad
    return record(op, (x, weight, bias), forward(xd, wd, bias.data, padding),
                  lambda g: grads(g, xd, wd, padding, x_grad))


def conv2d(x, weight, bias, padding=0):
    """Stride-1 cross-correlation of NCHW input with (out_ch, in_ch, kh, kw)
    weights plus a per-channel bias, zero-padded by `padding` on each side:
    one matmul over im2col."""
    return _conv("conv2d", x, weight, bias, padding, conv2d_forward, conv2d_grads)


def depthwise_conv2d(x, weight, bias, padding=0):
    """Stride-1 per-channel convolution with (C, kh, kw) weights plus a
    per-channel bias, zero-padded by `padding` on each side: one multiply-add
    per tap, and the forward sums the taps in row-major order."""
    return _conv("depthwise_conv2d", x, weight, bias, padding, depthwise_forward,
                 depthwise_grads)


# ---------------------------------------------------------------------------
# normalization, attention


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


def layer_norm_grads(g, xhat, inv, gamma):
    """(gx, ggamma, gbeta) of gamma * xhat + beta."""
    n = xhat.shape[-1]
    ggamma = (g * xhat).reshape(-1, n).sum(axis=0)
    gbeta = g.reshape(-1, n).sum(axis=0)
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
    """Normalize the last axis to zero mean / unit variance, then affine by
    the (C,) gamma and beta."""
    xhat, inv = normalize(x.data)
    gd = gamma.data
    return record("layer_norm", (x, gamma, beta), gd * xhat + beta.data,
                  lambda g: layer_norm_grads(g, xhat, inv, gd))


class AttentionParams(Module):
    """QKV/output projections; with position_bias, a learned relative-position
    bias table over the square window, each token pair reading its _pos_index row."""

    def __init__(self, rng, embed_dim, num_heads, window, position_bias):
        if embed_dim % num_heads != 0:
            raise ShapeError(f"embed dim {embed_dim} not divisible by {num_heads} heads")
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.qkv_w = param(rng, (embed_dim, 3 * embed_dim))
        self.qkv_b = zeros_param((3 * embed_dim,))
        self.proj_w = param(rng, (embed_dim, embed_dim))
        self.proj_b = zeros_param((embed_dim,))
        self.pos_bias = None
        self._pos_index = None
        if position_bias:
            self.pos_bias = param(rng, ((2 * window - 1) ** 2, num_heads))
            self._pos_index = _relative_index(window)


@lru_cache
def _relative_index(window):
    """(w^4,): the (2w-1)^2 displacement table's row of each (query, key) token
    pair of a w x w window. Cached and read-only: one copy per window."""
    row, col = np.divmod(np.arange(window * window), window)  # each token's row, column
    index = ((row[:, None] - row + window - 1) * (2 * window - 1)
             + col[:, None] - col + window - 1).flatten()
    index.flags.writeable = False
    return index


def _split_heads(x, w, b, h, d):
    """(q, kT, v) of the (N, L, C) rows x: q and v (N, h, L, d), kT (N, h, d, L),
    each its own contiguous array."""
    N, L, _ = x.shape
    qkv = np.matmul(x, w) + b
    qkv = np.ascontiguousarray(qkv.reshape(N, L, 3 * h, d).transpose(0, 2, 1, 3))
    q, v = qkv[:, :h].copy(), qkv[:, 2 * h:].copy()
    kT = np.ascontiguousarray(qkv[:, h:2 * h].transpose(0, 1, 3, 2))
    return q, kT, v


def _merge_heads(probs, v):
    """probs @ v with the heads joined back into (N, L, C) rows."""
    N, h, L, d = v.shape
    return np.ascontiguousarray(np.matmul(probs, v).transpose(0, 2, 1, 3)).reshape(N, L, h * d)


def _attention_probs(q, kT, weights, h, pos_index, mask):
    """The (N, h, L, L) softmax of q kT / sqrt(d) plus, with pos_index, each
    token pair's row of the bias table weights[4]; a mask (nW, L, L), or
    None, adds mask[i] to window i of every batch entry."""
    L, d = q.shape[2], q.shape[3]
    probs = np.matmul(q, kT) * (1.0 / np.sqrt(d))
    if pos_index is not None:
        probs += weights[4][pos_index].reshape(L, L, h).transpose(2, 0, 1)
    if mask is not None:
        windows = probs.reshape(-1, mask.shape[0], h, L, L)
        windows += mask[:, None]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def attention_forward(x, weights, h, pos_index, mask):
    """Softmax attention over the (N, L, C) rows x: weights are qkv_w,
    qkv_b, proj_w, proj_b and, with pos_index, the position bias table;
    pos_index and mask as in _attention_probs."""
    qw, qb, pw, pb = weights[:4]
    q, kT, v = _split_heads(x, qw, qb, h, x.shape[2] // h)
    probs = _attention_probs(q, kT, weights, h, pos_index, mask)
    return np.matmul(_merge_heads(probs, v), pw) + pb


def attention_backward(g, x, weights, h, pos_index, mask):
    """The gradients of the rows x and of each of attention_forward's
    weights, in order, from the output gradient g. q, k, v, the
    probabilities and the merged heads are rebuilt from x with the forward's
    own helpers, and the q, k and v gradients packed into one buffer."""
    N, L, C = x.shape
    d, scale = C // h, 1.0 / np.sqrt(C // h)
    qw, qb, pw = weights[:3]
    q, kT, v = _split_heads(x, qw, qb, h, d)
    probs = _attention_probs(q, kT, weights, h, pos_index, mask)
    gpw = np.matmul(np.swapaxes(_merge_heads(probs, v), -1, -2), g).sum(axis=0)
    gpb = g.sum(axis=(0, 1))
    go = np.matmul(g, pw.T).reshape(N, L, h, d).transpose(0, 2, 1, 3)
    gp = np.matmul(go, np.swapaxes(v, -1, -2))
    glogits = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
    gpos = ()
    if pos_index is not None:           # each pair's logit gradient added into its row
        gpos = (np.zeros(weights[4].shape),)
        np.add.at(gpos[0], pos_index, glogits.sum(axis=0).transpose(1, 2, 0).reshape(L * L, h))
    glogits *= scale
    gqkv = np.empty((N, 3 * h, L, d))
    gqkv[:, :h] = np.matmul(glogits, np.swapaxes(kT, -1, -2))
    gqkv[:, h:2 * h] = np.matmul(np.swapaxes(q, -1, -2), glogits).transpose(0, 1, 3, 2)
    gqkv[:, 2 * h:] = np.matmul(np.swapaxes(probs, -1, -2), go)
    gqkv = gqkv.transpose(0, 2, 1, 3).reshape(N, L, 3 * C)
    gqb = gqkv.sum(axis=(0, 1))
    gqw = np.matmul(np.swapaxes(x, -1, -2), gqkv).sum(axis=0)
    return (np.matmul(gqkv, qw.T), gqw, gqb, gpw, gpb) + gpos


def multi_head_attention(x, norm_g, norm_b, p, window, shift):
    """A swin layer's attention sublayer over x (B, H, W, C), before its
    residual sum: layer norm, the windows of the grid shifted up and left by
    `shift`, attention in each, and the merge back. One tape node, bit-equal
    to the layer_norm, window_partition, attention, window_merge chain it
    replaces. It keeps the norm's xhat and inv; its backward rebuilds the
    window rows from them."""
    B, H, W, C = x.shape
    h, L = p.num_heads, window * window
    params = (p.qkv_w, p.qkv_b, p.proj_w, p.proj_b)
    pos_index = p._pos_index
    if pos_index is not None:
        if pos_index.size != L * L:
            raise ShapeError(f"position bias built for {pos_index.size} pairs, got {L * L}")
        params += (p.pos_bias,)
    index, inverse, mask = shifted_windows(H, W, window, shift)
    weights = tuple(t.data for t in params)
    gd, bd = norm_g.data, norm_b.data
    xhat, inv = normalize(x.data)
    tokens = (B, H * W, C)

    def windows():
        """The window rows of the norm's output, (B * windows, L, C)."""
        return np.take((gd * xhat + bd).reshape(tokens), index, axis=1).reshape(-1, L, C)

    out = attention_forward(windows(), weights, h, pos_index, mask)

    def backward(g):
        g = np.take(g.reshape(tokens), index, axis=1).reshape(-1, L, C)
        gx, *gw = attention_backward(g, windows(), weights, h, pos_index, mask)
        gx = np.take(gx.reshape(tokens), inverse, axis=1).reshape(B, H, W, C)
        return (*layer_norm_grads(gx, xhat, inv, gd), *gw)

    return record("multi_head_attention", (x, norm_g, norm_b) + params,
                  np.take(out.reshape(tokens), inverse, axis=1).reshape(B, H, W, C), backward)


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
# sampling: bilinear_sample and joint_filter share _corners, _bilinear and
# _in_range


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


def _bilinear(x, corners, slopes=True):
    """The (B, C, Hs, Ws) samples of x (B, C, H, W) at `corners` and their
    derivatives along ty and tx, or None for both without `slopes`."""
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


def bilinear_sample(x, coords):
    """Sample the image x (B, C, H, W) at continuous (y, x) positions,
    border-clamped.

    coords is (B, Hs, Ws, 2) in pixel units. x is data and takes no gradient,
    as in joint_filter: an x that requires one raises ValueError. One node
    over coords, whose gradient is zero where a coordinate is clamped.
    """
    if x.requires_grad:
        raise ValueError("bilinear_sample: the sampled image is data and takes no gradient")
    B, C, H, W = x.shape
    if coords.shape[0] != B or coords.shape[-1] != 2:
        raise ShapeError(f"bilinear_sample: bad coords shape {coords.shape}")
    cy_raw, cx_raw = coords.data[..., 0], coords.data[..., 1]
    out, dty, dtx = _bilinear(x.data, _corners(cy_raw, cx_raw, H, W))
    ymask, xmask = _in_range(cy_raw, cx_raw, H, W)
    return record("bilinear_sample", (coords,), out,
                  lambda g: (np.stack([(g * dty).sum(axis=1) * ymask,
                                       (g * dtx).sum(axis=1) * xmask], axis=-1),))


# ---------------------------------------------------------------------------
# the kernel field, tap by tap, in the heads' sub-pixel layout
#
# The heads predict the field in pixel_shuffle's sub-pixel layout: channel
# block t (r*r channels) of a (B, n*r*r, h, w) factor is full-resolution
# channel t. joint_filter weighs, samples and differentiates each tap in that
# layout, so only pixel_shuffle and pixel_unshuffle know the sub-pixel order;
# joint_filter and model.KernelField share tap_mean and tap_weight.


def tap_mean(wg, wt, k):
    """The mean over the k*k taps of the weight factors' product wg * wt,
    (B, r*r, h, w): the products summed in tap order, then divided by k*k,
    as numpy's mean over the taps of the full-resolution product."""
    kk = k * k
    n = wg.shape[1] // kk
    total = wg[:, :n] * wt[:, :n]
    for t in range(1, kk):
        total += wg[:, t * n:(t + 1) * n] * wt[:, t * n:(t + 1) * n]
    total /= kk
    return total


def tap_weight(wg, wt, mean, t, k):
    """Tap t's (B, r*r, h, w) weight, (wg * wt - mean) + 1/k^2 on its
    sub-pixel channels: over the taps the weights sum to one at every pixel."""
    n = mean.shape[1]
    p = wg[:, t * n:(t + 1) * n] * wt[:, t * n:(t + 1) * n]
    p -= mean
    p += 1.0 / (k * k)
    return p


def _factor_grad(planes, other, consume):
    """The gradient of one factor of a product from the product's gradient
    `planes`, one (B, r*r*h, w) plane per channel block of the factors: each
    plane times the other factor's block. With `consume`, each plane leaves
    the list once read."""
    B, C, h, w = other.shape
    n = len(planes)
    out = np.empty((B, n, C // n, h, w))
    other = other.reshape(out.shape)
    for c in range(n):
        np.multiply(planes[c].reshape(other[:, c].shape), other[:, c], out=out[:, c])
        if consume:
            planes[c] = None
    return out.reshape(B, C, h, w)


def joint_filter(x, w_guide, w_target, o_guide, o_target, k, r):
    """The kernel-field filter: out = sum over taps t of tap t's weight times
    x (B, C, H, W) bilinearly sampled, border-clamped, at each pixel's tap
    position: the pixel, plus tap t's (dy, dx) in the k x k window
    (row-major, centred), plus its learned displacement.

    The field comes as the heads' factors in the sub-pixel layout: the
    sigmoid weight factors w_guide and w_target (B, k*k*r*r, H/r, W/r) and
    the raw offset factors o_guide and o_target (B, 2*k*k*r*r, H/r, W/r).
    Each tap is weighed (tap_weight), sampled and differentiated in that
    layout, as (B, r*r*H/r, W/r) planes whose coordinates are its offset
    factors' product plus each plane's pixel_unshuffled row and column. The
    summed output is pixel_shuffled once, and the backward pixel_unshuffles
    its gradient once, so no full-resolution field exists.

    x is data, the bicubic-upsampled depth, and takes no gradient: an x
    that requires one raises ValueError. One tape node over the four
    factors, recorded as "bilinear_sample". It keeps the factors, the tap
    mean and, per tap, each as its own array, the samples (for the weight
    gradients), their slopes along y and x and the clamp masks (for the
    offset gradients); with no tape recording it, none of them. Its backward
    frees each tap's arrays as it reaches the tap, then builds the offset
    factors' gradients and the weight factors', dropping each factor once
    its last reader is done. It runs once; a second call raises RuntimeError.
    """
    if x.requires_grad:
        raise ValueError("joint_filter: the filtered image is data and takes no gradient")
    inputs = wg, wt, og, ot = w_guide, w_target, o_guide, o_target
    B, C, H, W = x.shape
    kk, n, h, w = k * k, r * r, H // r, W // r
    if H % r or W % r or wg.shape != (B, kk * n, h, w) or wt.shape != wg.shape:
        raise ShapeError(f"joint_filter: weight factors {wg.shape} and {wt.shape} vs "
                         f"expected {(B, kk * n, h, w)}")
    if og.shape != (B, 2 * kk * n, h, w) or ot.shape != og.shape:
        raise ShapeError(f"joint_filter: offset factors {og.shape} and {ot.shape} vs "
                         f"expected {(B, 2 * kk * n, h, w)}")
    xd = x.data
    wgd, wtd, ogd, otd = (t.data for t in inputs)
    mean = tap_mean(wgd, wtd, k)
    # each sub-pixel plane's full-resolution rows (r*r, h, 1) and columns (r*r, 1, w)
    rows = pixel_unshuffle(Tensor(np.broadcast_to(np.arange(H)[:, None], (1, 1, H, r))), r)
    cols = pixel_unshuffle(Tensor(np.broadcast_to(np.arange(W), (1, 1, r, W))), r)
    rows, cols = rows.data[0] - k // 2, cols.data[0] - k // 2

    def coords(t):
        """Tap t's raw (B, r*r*h, w) sampling coordinates (y, x)."""
        dy, dx = divmod(t, k)
        ys, xs = slice(2 * t * n, (2 * t + 1) * n), slice((2 * t + 1) * n, (2 * t + 2) * n)
        return ((ogd[:, ys] * otd[:, ys] + (rows + dy)).reshape(B, -1, w),
                (ogd[:, xs] * otd[:, xs] + (cols + dx)).reshape(B, -1, w))

    taped = recording(inputs)
    samples, slopes = [], []                # per tap s, and (dty, dtx, ymask, xmask)
    out = None
    for t in range(kk):
        cy_raw, cx_raw = coords(t)
        s, sy, sx = _bilinear(xd, _corners(cy_raw, cx_raw, H, W), slopes=taped)
        term = tap_weight(wgd, wtd, mean, t, k).reshape(B, 1, n * h, w) * s
        if out is None:
            out = term
        else:
            out += term
        if taped:
            samples.append(s)
            slopes.append((sy, sx, *_in_range(cy_raw, cx_raw, H, W)))
    out = pixel_shuffle(Tensor(out.reshape(B, C * n, h, w)), r).data
    if not taped:
        return record("bilinear_sample", inputs, out, None)
    swept = False

    def backward(g):
        nonlocal wgd, wtd, ogd, otd, mean, samples, slopes, swept
        if swept:
            raise RuntimeError("joint_filter: this node's backward already ran")
        swept = True
        g = pixel_unshuffle(Tensor(g), r).data.reshape(B, C, n * h, w)
        gw, go = [], []         # per tap the gradient of its weight, of its dy and dx
        for t in range(kk):
            s, samples[t] = samples[t], None
            gw.append((g * s).sum(axis=1))
            del s
            # the gradient of tap t's samples
            gs = g * tap_weight(wgd, wtd, mean, t, k).reshape(B, 1, n * h, w)
            (sy, sx, ymask, xmask), slopes[t] = slopes[t], None
            go.append((gs * sy).sum(axis=1) * ymask)
            go.append((gs * sx).sum(axis=1) * xmask)
            del sy, sx, ymask, xmask
        mean = samples = slopes = gs = None
        gog = _factor_grad(go, otd, consume=False)
        otd = None
        got = _factor_grad(go, ogd, consume=True)
        ogd = None
        # the tap mean's gradient: the taps' sum in tap order, over k*k
        total = gw[0].copy()
        for p in gw[1:]:
            total += p
        total /= kk
        for p in gw:
            p -= total
        del p, total
        gwg = _factor_grad(gw, wtd, consume=False)
        wtd = None
        gwt = _factor_grad(gw, wgd, consume=True)
        wgd = None
        return gwg, gwt, gog, got

    return record("bilinear_sample", inputs, out, backward)
