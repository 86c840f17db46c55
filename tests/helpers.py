"""Shared test utilities: central finite-difference gradient checking."""

import math

import numpy as np

from dmsr.ops import conv2d, depthwise_conv2d, layer_norm
from dmsr.tensor import (ShapeError, Tape, Tensor, add, ensure_tensor, gelu_cdf, gelu_slope,
                         matmul, mul, record, tmean, transpose)


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
    a = ensure_tensor(a)
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
    a = ensure_tensor(a)
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
    a = ensure_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    return record("softmax", (a,), s,
                  lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))


# The SimpleGate, SCA, channel layer norm and global pool ops that dmsr had
# before the NAF block became one node, and the block as the chain of nodes
# they built: references for tests that compare the node against that chain.


def simple_gate(x):
    """Split (B, C, H, W) into channel halves y, z and return y * z, as one
    "mul" node whose backward joins (g * z, g * y) along the channels."""
    x = ensure_tensor(x)
    C = x.shape[1]
    if C % 2:
        raise ShapeError(f"simple_gate: odd channel count {C}")
    y, z = x.data[:, :C // 2], x.data[:, C // 2:]
    return record("mul", (x,), y * z,
                  lambda g: (np.concatenate((g * z, g * y), axis=1),))


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


# The GELU node and the linear layer that dmsr had before each swin MLP became
# one node, and the MLP as the chain of nodes they built: references for tests
# that compare the node against that chain.

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715


def gelu(a, mode="exact"):
    """x * Phi(x) as one "gelu" node; `tanh_approx` uses the cubic tanh form,
    whose cubic coefficient multiplies x**3 (the standard form)."""
    a = ensure_tensor(a)
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


def mlp_chain(mlp, x):
    """dmsr.swin.Mlp.forward as the 5-node chain it recorded."""
    return linear(gelu(linear(x, mlp.fc1_w, mlp.fc1_b)), mlp.fc2_w, mlp.fc2_b)
