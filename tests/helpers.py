"""Shared test utilities: central finite-difference gradient checking."""

import numpy as np

from dmsr.tensor import Tape


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


def weighted_sum_loss(out, seed=0):
    """sum(out * R) with a fixed random sign-varying R, so the scalar loss is
    sensitive to every output coordinate."""
    from dmsr.tensor import Tensor, tsum, mul
    rng = np.random.default_rng(seed)
    r = Tensor(rng.uniform(-1.0, 1.0, size=out.shape))
    return tsum(mul(out, r))


def reference_backward(nodes, loss):
    """Tape.backward's sweep before it freed gradients as it went: every
    intermediate gradient stays in `local` until the sweep ends, backwards
    may return gradients for constants, and the leaves (tensors no node
    produced) plus the loss are copied out at the end."""
    local = {loss: np.ones_like(loss.data)}
    produced = {node.out for node in nodes}
    for node in reversed(nodes):
        gout = local.get(node.out)
        if gout is None:
            continue
        for t, g in zip(node.inputs, node.backward(gout)):
            if g is None or not t.requires_grad:
                continue
            acc = local.get(t)
            local[t] = g if acc is None else acc + g
    return {t: g.copy() for t, g in local.items() if t not in produced or t is loss}
