"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy float64 arrays. Operations executed while a Tape is active
are recorded as TapeNodes; Tape.backward sweeps the record in reverse and
accumulates gradients keyed by tensor identity.
"""

import math
import threading

import numpy as np
from scipy.special import erf

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """Immutable-by-convention dense array. Do not mutate .data mid-graph."""

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if any(s < 1 for s in self.data.shape):
            raise ShapeError(f"zero-extent shape {self.data.shape}")
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; scalars and ndarrays auto-wrap as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class TapeNode:
    """One executed operation: op name, input/output refs, backward closure.

    backward(grad_out) returns one gradient array per input, None for a
    constant (requires_grad False).
    """

    __slots__ = ("op", "inputs", "out", "backward")

    def __init__(self, op, inputs, out, backward):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.backward = backward


# .tapes: the open tapes of this thread, innermost last; ops run in one thread
# never record onto a tape opened in another
_TAPE_STACK = threading.local()


class Tape:
    """Ordered record of executed operations plus accumulated gradients.

    Single-owner: must not be shared across threads. A tape records the ops
    of the thread that opened it. Nodes are appended in execution order,
    which is topological by construction.
    """

    def __init__(self):
        self.nodes = []
        self.grads = {}

    def __enter__(self):
        vars(_TAPE_STACK).setdefault("tapes", []).append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self
        return False

    def grad(self, tensor):
        return self.grads.get(tensor)

    def backward(self, loss):
        """Reverse sweep from a scalar loss. A node's output gradient is final
        once the node is swept (its consumers were recorded after it), so it is
        freed then, and the sweep ends holding leaf gradients only. Accumulates
        them into self.grads, so repeated calls without reset add up."""
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        local = {loss: np.ones_like(loss.data)}
        for node in reversed(self.nodes):
            gout = local.pop(node.out, None)
            if gout is None:
                continue
            for t, g in zip(node.inputs, node.backward(gout)):
                if g is None:
                    continue
                acc = local.get(t)
                local[t] = g if acc is None else acc + g
        for t, g in local.items():
            acc = self.grads.get(t)
            self.grads[t] = g.copy() if acc is None else acc + g
        return self.grads


def ensure_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def record(op, inputs, out_data, backward):
    """Wrap a computed result and register it on the active tape.

    `backward(grad_out)` returns one gradient per input, and None for each
    input with requires_grad False. All fused ops in this package are built
    on this hook.
    """
    inputs = tuple(ensure_tensor(x) for x in inputs)
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    tapes = getattr(_TAPE_STACK, "tapes", None)
    if tapes and out.requires_grad:
        tapes[-1].nodes.append(TapeNode(op, inputs, out, backward))
    return out


def _unbroadcast(g, shape):
    """Sum a gradient down to `shape` after numpy stretch-extent-1 broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary_data(a, b, op):
    """Apply a numpy ufunc, rewrapping broadcast failures as ShapeError."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ShapeError(f"shapes {a.shape} and {b.shape} are not broadcastable")


# ---------------------------------------------------------------------------
# elementwise


def add(a, b):
    a, b = ensure_tensor(a), ensure_tensor(b)
    return record("add", (a, b), _binary_data(a, b, np.add),
                  lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                             _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a, b):
    a, b = ensure_tensor(a), ensure_tensor(b)
    return record("sub", (a, b), _binary_data(a, b, np.subtract),
                  lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                             _unbroadcast(-g, b.shape) if b.requires_grad else None))


def mul(a, b):
    a, b = ensure_tensor(a), ensure_tensor(b)
    return record("mul", (a, b), _binary_data(a, b, np.multiply),
                  lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                             _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def div(a, b):
    a, b = ensure_tensor(a), ensure_tensor(b)
    if np.any(b.data == 0.0):
        raise ZeroDivisionError("div: denominator contains zero")
    out = _binary_data(a, b, np.divide)
    return record("div", (a, b), out,
                  lambda g: (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                             _unbroadcast(-g * out / b.data, b.shape)
                             if b.requires_grad else None))


def neg(a):
    a = ensure_tensor(a)
    return record("neg", (a,), -a.data, lambda g: (-g,))


def tanh(a):
    a = ensure_tensor(a)
    t = np.tanh(a.data)
    return record("tanh", (a,), t, lambda g: (g * (1.0 - t * t),))


def sigmoid(a):
    a = ensure_tensor(a)
    # stable in both tails
    e = np.exp(-np.abs(a.data))
    s = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return record("sigmoid", (a,), s, lambda g: (g * s * (1.0 - s),))


def sqrt(a):
    a = ensure_tensor(a)
    r = np.sqrt(a.data)
    return record("sqrt", (a,), r, lambda g: (g * 0.5 / r,))


def square(a):
    a = ensure_tensor(a)
    return record("square", (a,), a.data * a.data, lambda g: (g * 2.0 * a.data,))


def absolute(a):
    """|x|; subgradient 0 at exact ties."""
    a = ensure_tensor(a)
    return record("abs", (a,), np.abs(a.data), lambda g: (g * np.sign(a.data),))


def gelu(a, mode="exact"):
    """x * Phi(x); `tanh_approx` uses the cubic tanh form.

    The cubic coefficient multiplies x**3 (the standard form), selectable
    against the exact CDF via `mode` for fidelity checks.
    """
    a = ensure_tensor(a)
    x = a.data
    if mode == "exact":
        phi = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
        out = x * phi

        def backward(g):
            pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            return (g * (phi + x * pdf),)

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


# ---------------------------------------------------------------------------
# reductions and shape ops


def _expand_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims=False):
    a = ensure_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return record("sum", (a,), out,
                  lambda g: (_expand_reduced(g, a.shape, axis, keepdims).copy(),))


def tmean(a, axis=None, keepdims=False):
    a = ensure_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size / out.size
    return record("mean", (a,), out,
                  lambda g: (_expand_reduced(g, a.shape, axis, keepdims) / n,))


def rearrange(a, split, axes=None, shape=None):
    """Reshape `a` to `split`, permute the axes by `axes` (None: keep their
    order) and reshape to `shape` (None: as permuted), as one tape node whose
    backward runs the three steps in reverse. It records op "transpose" when
    it permutes and "reshape" when it does not."""
    a = ensure_tensor(a)
    x = a.data.reshape(split)
    if axes is not None:
        x = np.ascontiguousarray(x.transpose(axes))
    permuted = x.shape

    def backward(g):
        g = g.reshape(permuted)
        return ((g if axes is None else g.transpose(np.argsort(axes))).reshape(a.shape),)

    return record("reshape" if axes is None else "transpose", (a,),
                  x if shape is None else x.reshape(shape), backward)


def reshape(a, shape):
    return rearrange(a, shape)


def transpose(a, axes):
    return rearrange(a, ensure_tensor(a).shape, axes)


def slice_axis(a, axis, start, stop):
    a = ensure_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward(g):
        gx = np.zeros(a.shape)
        gx[idx] = g
        return (gx,)

    return record("slice", (a,), a.data[idx].copy(), backward)


# ---------------------------------------------------------------------------
# contractions


def matmul(a, b):
    a, b = ensure_tensor(a), ensure_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul expects at least 2-d operands")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents {a.shape[-1]} != {b.shape[-2]}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch extents {a.shape[:-2]} vs {b.shape[:-2]}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return record("matmul", (a, b), out, backward)


def softmax_lastaxis(a):
    a = ensure_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    return record("softmax", (a,), s,
                  lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))
