"""Shared test utilities: central finite-difference gradient checking."""

import math

import numpy as np

from dmsr.imageio import MalformedHeaderError, _payload, _read_image
from dmsr.naf import simple_gate
from dmsr.ops import (_bilinear, _corners, _in_range, attention_backward, attention_forward,
                      conv2d, depthwise_conv2d, layer_norm, pixel_shuffle, shifted_windows,
                      window_merge, window_partition)
from dmsr.tensor import (Tape, Tensor, add, gelu_cdf, gelu_slope, matmul, mul, record, sub,
                         tmean, transpose)


def numeric_grad(fn, tensor, idx, eps=1e-4):
    """Central difference of scalar fn() w.r.t. one coordinate of a leaf."""
    orig = tensor.data[idx]
    tensor.data[idx] = orig + eps
    fp = fn()
    tensor.data[idx] = orig - eps
    fm = fn()
    tensor.data[idx] = orig
    return (fp - fm) / (2.0 * eps)


def check_gradients(build, leaves, rel_tol=1e-4, n_coords=6, seed=0):
    """Compare analytic gradients of scalar build() against finite differences
    on randomly sampled coordinates of each leaf. Returns the worst relative
    error seen (and asserts it is under rel_tol)."""
    rng = np.random.default_rng(seed)
    with Tape() as tape:
        loss = build()
    grads = tape.backward(loss)
    worst = 0.0
    for leaf in leaves:
        g = grads.get(leaf)
        assert g is not None, f"no gradient for leaf of shape {leaf.shape}"
        assert g.shape == leaf.data.shape
        size = leaf.data.size
        picks = rng.choice(size, size=min(n_coords, size), replace=False)
        for flat in picks:
            idx = np.unravel_index(flat, leaf.data.shape)
            num = numeric_grad(lambda: build().item(), leaf, idx)
            ana = g[idx]
            err = abs(num - ana) / max(abs(num), abs(ana), 1e-2)
            worst = max(worst, err)
    assert worst < rel_tol, f"gradient mismatch: rel err {worst:.3e} >= {rel_tol}"
    return worst


def tsum(a):
    """The sum of every element as one "sum" node: the full reduction that
    dmsr.tensor recorded before its only callers were tests, kept as the
    reference for the tests' scalar losses."""
    shape = a.shape
    return record("sum", (a,), a.data.sum(), lambda g: (np.broadcast_to(g, shape).copy(),))


def weighted_sum_loss(out, seed=0):
    """sum(out * R) with a fixed random sign-varying R, so the scalar loss is
    sensitive to every output coordinate."""
    rng = np.random.default_rng(seed)
    r = Tensor(rng.uniform(-1.0, 1.0, size=out.shape))
    return tsum(mul(out, r))


def reference_backward(nodes, loss):
    """Tape.backward's sweep before it freed gradients as it went: every
    intermediate gradient stays in `local` until the sweep ends, backwards
    may return gradients for constants, and the leaves (keys no node
    produced) plus the loss's key are copied out at the end."""
    root = loss.handle or loss
    local = {root: np.ones_like(loss.data)}
    produced = {node.out for node in nodes}
    for node in reversed(nodes):
        gout = local.get(node.out)
        if gout is None:
            continue
        for t, g in zip(node.inputs, node.backward(gout)):
            if g is None or t is None:
                continue
            acc = local.get(t)
            local[t] = g if acc is None else acc + g
    return {t: g.copy() for t, g in local.items() if t not in produced or t is root}


def closure_reach(fn):
    """Every object a function's closure reaches, through nested closures and
    containers, each once."""
    seen, found, todo = set(), [], [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (tuple, list, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def held_arrays(objects):
    """The distinct memory-owning arrays behind the ndarrays among `objects`:
    each array itself, or the root of its views."""
    owners = {}
    for obj in objects:
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
    return list(owners.values())


# The slice and softmax nodes that dmsr.tensor had before attention became one
# node, kept as references for tests that compare against the chains they built.


def slice_axis(a, axis, start, stop):
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape = a.shape

    def backward(g):
        gx = np.zeros(shape)
        gx[idx] = g
        return (gx,)

    return record("slice", (a,), a.data[idx].copy(), backward)


def softmax_lastaxis(a):
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    return record("softmax", (a,), s,
                  lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))


# The SCA, channel layer norm and global pool ops that dmsr had before the NAF
# block became one node, and the block as the chain of nodes they built with
# dmsr.naf.simple_gate: references for tests that compare the node against
# that chain.


def adaptive_avg_pool_global(x):
    """Per-channel spatial mean, kept as (B, C, 1, 1)."""
    return tmean(x, axis=(2, 3), keepdims=True)


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


def naf_block_chain(block, x):
    """dmsr.naf.NafBlock.forward as the 20-node chain it recorded."""
    h = channel_layer_norm(x, block.norm1_g, block.norm1_b)
    h = conv2d(h, block.pw1_w, block.pw1_b)
    h = depthwise_conv2d(h, block.dw_w, block.dw_b, padding=1)
    h = simple_gate(h)
    h = sca(h, block.sca)
    h = conv2d(h, block.pw2_w, block.pw2_b)
    y = add(x, mul(h, block.beta))
    h2 = channel_layer_norm(y, block.norm2_g, block.norm2_b)
    h2 = conv2d(h2, block.pw3_w, block.pw3_b)
    h2 = simple_gate(h2)
    h2 = conv2d(h2, block.pw4_w, block.pw4_b)
    return add(y, mul(h2, block.gamma))


def depthwise_reference(x, w, b, g, p):
    """(out, gx, gw, gb) of the stride-1 depthwise conv zero-padded by p, as a
    tap loop over np.pad written apart from dmsr.ops: each tap's product a
    broadcast multiply, the output's taps and the input gradient's summed in
    row-major order, each weight gradient one einsum over its window."""
    C, kh, kw = w.shape
    H, W = x.shape[2:]
    Ho, Wo = H + 2 * p - kh + 1, W + 2 * p - kw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros(x.shape[:2] + (Ho, Wo))
    gxp = np.zeros(xp.shape)
    gw = np.empty(w.shape)
    for i in range(kh):
        for j in range(kw):
            window = xp[..., i:i + Ho, j:j + Wo]
            wij = w[:, i, j].reshape(C, 1, 1)
            out += window * wij
            gxp[..., i:i + Ho, j:j + Wo] += g * wij
            gw[:, i, j] = np.einsum("bchw,bchw->c", g, window)
    out += b.reshape(1, C, 1, 1)
    return out, gxp[..., p:p + H, p:p + W], gw, g.sum(axis=(0, 2, 3))


# The GELU node and the linear layer that dmsr had before each swin MLP became
# one node, and the MLP as the chain of nodes they built: references for tests
# that compare the node against that chain.

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715


def gelu(a, mode="exact"):
    """x * Phi(x) as one "gelu" node; `tanh_approx` uses the cubic tanh form,
    whose cubic coefficient multiplies x**3 (the standard form)."""
    x = a.data
    if mode == "exact":
        phi = gelu_cdf(x)
        out = x * phi

        def backward(g):
            return (g * gelu_slope(x, phi),)

    elif mode == "tanh_approx":
        u = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * x**3)
        t = np.tanh(u)
        out = 0.5 * x * (1.0 + t)

        def backward(g):
            du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x * x)
            return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    else:
        raise ValueError(f"unknown gelu mode {mode!r}")
    return record("gelu", (a,), out, backward)


def linear(x, weight, bias=None):
    """x @ weight (+ bias) over the last axis; weight is (in, out)."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


def mlp_chain(mlp, x, norm_g, norm_b):
    """dmsr.swin.Mlp.forward as the 6-node chain it recorded: layer norm,
    then fc1, GELU and fc2."""
    y = layer_norm(x, norm_g, norm_b)
    return linear(gelu(linear(y, mlp.fc1_w, mlp.fc1_b)), mlp.fc2_w, mlp.fc2_b)


# Window attention as the node dmsr.ops recorded before each swin layer's
# attention sublayer became one node with its layer norm and windowing, and
# the sublayer as the 4-node chain it built: references for tests that
# compare ops.multi_head_attention against that chain.


def attention(x, p, mask):
    """Softmax attention over the (N, L, C) rows x, mask (nW, L, L) or None,
    as one "attention" node on ops.attention_forward and attention_backward."""
    params = [p.qkv_w, p.qkv_b, p.proj_w, p.proj_b]
    gather = p._pos_gather
    if gather is not None:
        params.append(p.pos_bias)
    xd, weights = x.data, tuple(t.data for t in params)
    out = attention_forward(xd, weights, p.num_heads, gather, mask)
    return record("attention", (x, *params), out,
                  lambda g: attention_backward(g, xd, weights, p.num_heads, gather, mask))


def attention_chain(x, norm_g, norm_b, p, window, shift):
    """ops.multi_head_attention as the 4-node chain it recorded: layer norm,
    window partition, attention, window merge."""
    _, H, W, _ = x.shape
    wins = window_partition(layer_norm(x, norm_g, norm_b), window, shift)
    wins = attention(wins, p, shifted_windows(H, W, window, shift)[2])
    return window_merge(wins, window, H, W, shift)


# The kernel field's tail before the joint filter took the heads' factors:
# the weight factors' product stitched to full resolution and normalised over
# the taps (4 nodes), the offset factors' product stitched (2 nodes), and the
# filter over that full-resolution field: the reference for the factor-form
# ops.joint_filter.


def reference_field(w_guide, w_target, o_guide, o_target, k, r):
    """The full-resolution (weights, offsets) of the factors, as 6 nodes."""
    p = pixel_shuffle(mul(w_guide, w_target), r)
    p = sub(p, tmean(p, axis=1, keepdims=True))
    return add(p, Tensor(1.0 / (k * k))), pixel_shuffle(mul(o_guide, o_target), r)


def reference_joint_filter(x, weights, offsets, k):
    """ops.joint_filter over a full-resolution field, weights (B, k*k, H, W)
    and offsets (B, 2*k*k, H, W), as one "bilinear_sample" node; x is data."""
    B, C, H, W = x.shape
    kk = k * k
    w_grad, o_grad = weights.requires_grad, offsets.requires_grad
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
        s, sy, sx = _bilinear(x.data, _corners(cy_raw, cx_raw, H, W))
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
    if not o_grad:
        wd = None

    def backward(g):
        gw = np.empty((B, kk, H, W)) if w_grad else None
        go = np.empty((B, 2 * kk, H, W)) if o_grad else None
        for t in range(kk):
            if w_grad:
                gw[:, t] = (g * samples[t]).sum(axis=1)
            if o_grad:
                gs = g * wd[:, t:t + 1]              # the gradient of tap t's samples
                go[:, 2 * t] = (gs * dty[t]).sum(axis=1) * ymask[t]
                go[:, 2 * t + 1] = (gs * dtx[t]).sum(axis=1) * xmask[t]
        return None, gw, go

    return record("bilinear_sample", (x, weights, offsets), out, backward)


# Functions only the tests call: reading back the PFM files that `infer --out`
# writes, and zeroing a backbone's residual branches (criterion 3).


def load_pfm(path):
    """Load grayscale PFM as (1, H, W) float64 (payload stays bit-exact f32)."""
    blob, scan, w, h = _read_image(path, b"Pf")
    tok = scan.token()
    try:
        scale = float(tok)
    except ValueError:
        raise MalformedHeaderError(f"bad scale {tok!r}", scan.token_start, path)
    if scale == 0:
        raise MalformedHeaderError("zero scale", scan.token_start, path)
    scan.pos += 1
    raw = _payload(blob, scan.pos, w * h * 4, path)
    dtype = "<f4" if scale < 0 else ">f4"
    img = np.frombuffer(raw, dtype=dtype).reshape(h, w)[::-1].astype(np.float64)
    if abs(scale) != 1.0:
        img = img * abs(scale)
    return img[None]


def zero_swin_residual_branches(backbone):
    """Zero every projection feeding a residual sum of a SwinBackbone, making
    its block stack an identity map."""
    for block in backbone.blocks:
        for layer in block.layers:
            layer.attn.proj_w.data[:] = 0.0
            layer.attn.proj_b.data[:] = 0.0
            layer.mlp.fc2_w.data[:] = 0.0
            layer.mlp.fc2_b.data[:] = 0.0
        block.conv_w.data[:] = 0.0
        block.conv_b.data[:] = 0.0


def zero_naf_residual_branches(backbone):
    """Zero the residual scales of a NafBackbone, which gate every block: each
    block becomes an identity map (they start at zero; this restores that)."""
    for block in backbone.blocks:
        block.beta.data[...] = 0.0
        block.gamma.data[...] = 0.0
