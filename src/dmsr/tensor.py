"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy float64 arrays. Operations executed while a Tape is active
are recorded as TapeNodes; Tape.backward sweeps the record in reverse,
consuming it, and accumulates gradients keyed by identity: a recorded op
output by its GradHandle, a leaf by the Tensor itself. A node keeps no
Tensor, and each backward closure only the shapes, flags and arrays it reads,
so an activation that no backward reads is freed as soon as the forward drops
it.
"""

import math
import threading

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """Immutable-by-convention dense array. Do not mutate .data mid-graph."""

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if any(s < 1 for s in self.data.shape):
            raise ShapeError(f"zero-extent shape {self.data.shape}")
        self.requires_grad = bool(requires_grad)
        self.handle = None      # the GradHandle of an op output recorded on a tape

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


class GradHandle:
    """The tape's key for the gradient of a recorded op output: its shape,
    never its data."""

    __slots__ = ("shape",)

    def __init__(self, shape):
        self.shape = shape


class TapeNode:
    """One executed operation: op name, input keys, output handle, backward
    closure.

    Each input is the GradHandle of a recorded op output, the Tensor itself
    for a leaf that needs a gradient, or None for a constant (requires_grad
    False). backward(grad_out) returns an array for every input, and the
    sweep drops a constant's.
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
    """Ordered record of executed operations, then the leaf gradients of its
    one reverse sweep.

    Single-owner: must not be shared across threads. A tape records the ops
    of the thread that opened it. Nodes are appended in execution order,
    which is topological by construction.
    """

    def __init__(self):
        self.nodes = []
        self.grads = None       # the leaf gradients of the one sweep

    def __enter__(self):
        vars(_TAPE_STACK).setdefault("tapes", []).append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self
        return False

    def backward(self, loss):
        """Reverse sweep from a scalar loss; returns self.grads, a copy of
        each leaf gradient. The sweep consumes the tape (see sweep). A tape is
        swept once; a second call raises RuntimeError."""
        if self.grads is not None:
            raise RuntimeError("this tape was already swept; record the step again")
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        self.grads = {}         # a sweep that raises midway is spent too
        local = self.sweep(loss.handle or loss, np.ones_like(loss.data))
        # each leaf's gradient leaves `local` as it is copied, so the end of the
        # sweep holds one set and one copy; copied, since add hands one array
        # to both its inputs
        for t in list(local):
            self.grads[t] = local.pop(t).copy()
        return self.grads

    def sweep(self, out, grad):
        """Reverse sweep from the key `out` (an output's GradHandle or a leaf)
        with gradient `grad`; returns {key: gradient} for the keys no node of
        the tape produced, the leaves, uncopied. Each node is popped off
        self.nodes as it is swept, so its closure and saved arrays are freed
        before the next node runs, and its output gradient, final once the
        node is swept (its consumers were recorded after it), goes with it."""
        local = {out: grad}
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            gout = local.pop(node.out, None)
            if gout is None:
                continue
            for t, g in zip(node.inputs, node.backward(gout)):
                if t is None:           # a constant's gradient is dropped
                    continue
                acc = local.get(t)
                local[t] = g if acc is None else acc + g
        return local


def _grad_key(t):
    """A tensor as a node input: its handle, itself (a leaf), None (a constant)."""
    if t.handle is not None:
        return t.handle
    return t if t.requires_grad else None


def recording(inputs):
    """Whether an op over `inputs` records a node: a tape is open on this
    thread and an input requires a gradient. An op that records none keeps
    nothing for a backward."""
    return bool(getattr(_TAPE_STACK, "tapes", None)) and any(t.requires_grad for t in inputs)


def record(op, inputs, out_data, backward):
    """Wrap a computed result and register it on the active tape. `inputs`
    are the Tensors the op read.

    `backward(grad_out)` returns an array for every input, and Tape.backward
    drops each constant's (requires_grad False). The one exception is
    ops._conv, whose backward returns None for a constant data input: the
    model's input convs read constant sub-images, and their input gradient
    would cost more than the rest of the node. It must not reach a Tensor:
    it keeps the shapes and arrays it reads, nothing more.
    """
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if recording(inputs):
        out.handle = GradHandle(out.shape)
        _TAPE_STACK.tapes[-1].nodes.append(TapeNode(op, tuple(map(_grad_key, inputs)),
                                                    out.handle, backward))
    return out


def segment(op, fn, inputs):
    """fn(*inputs) as one `op` node that keeps only the input arrays: a
    recompute segment (gradient checkpointing). The forward runs fn with this
    thread's tapes suspended, so fn's ops record and keep nothing. The
    backward wraps the kept arrays as fresh leaves, re-runs fn on them under
    an inner Tape and sweeps it from the node's output gradient; it hands the
    leaf gradients over uncopied, in the memory order fn's ops made them, so
    they are the bits and strides of fn recorded flat. fn must read every
    input and close over no Tensor."""
    tapes = vars(_TAPE_STACK).setdefault("tapes", [])
    _TAPE_STACK.tapes = []
    try:
        out = fn(*inputs).data
    finally:
        _TAPE_STACK.tapes = tapes
    arrays = tuple(t.data for t in inputs)

    def backward(g):
        leaves = tuple(Tensor(a, requires_grad=True) for a in arrays)
        with Tape() as inner:
            key = fn(*leaves).handle        # the re-run output's data is dropped here
        grads = inner.sweep(key, g)
        return tuple(grads[t] for t in leaves)

    return record(op, inputs, out, backward)


def unbroadcast(g, shape):
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
    sa, sb = a.shape, b.shape
    return record("add", (a, b), _binary_data(a, b, np.add),
                  lambda g: (unbroadcast(g, sa), unbroadcast(g, sb)))


def sub(a, b):
    sa, sb = a.shape, b.shape
    return record("sub", (a, b), _binary_data(a, b, np.subtract),
                  lambda g: (unbroadcast(g, sa), unbroadcast(-g, sb)))


def mul(a, b):
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    # each gradient reads the other operand
    return record("mul", (a, b), _binary_data(a, b, np.multiply),
                  lambda g: (unbroadcast(g * bd, sa), unbroadcast(g * ad, sb)))


def sigmoid(a):
    """1 / (1 + e) where x >= 0, else (NaN too) e / (1 + e), e = exp(-|x|):
    stable in both tails, in two buffers, e and 1 + e divided in place."""
    x = a.data
    e = np.negative(np.abs(x))
    np.exp(e, out=e)
    s = 1.0 + e
    pos = x >= 0
    np.divide(1.0, s, out=s, where=pos)
    np.divide(e, s, out=s, where=~pos)
    return record("sigmoid", (a,), s, lambda g: (g * s * (1.0 - s),))


def absolute(a):
    """|x|; subgradient 0 at exact ties."""
    x = a.data
    return record("abs", (a,), np.abs(x), lambda g: (g * np.sign(x),))


# Cephes ndtr.c (Moshier), the tables scipy.special.erf evaluates: erf(x) is
# x T(x^2)/U(x^2) for |x| <= 1, else 1 - exp(-x^2) P(|x|)/Q(|x|) with the sign
# of x. Cephes leaves out the leading 1 of U and Q; a leading 1 multiplies
# exactly, so the same Horner loop serves all four.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
          3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
          2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(z, coefs):
    """Cephes polevl: c0 z^n + ... + cn, the same multiply-adds in the same
    order, in place on one fresh array."""
    out = z * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c
    return out


def _erf(x):
    """scipy.special.erf in numpy: bit-equal for |x| <= 1, elsewhere within
    1 ulp (numpy's exp is not libm's); NaN stays NaN. The |x| > 1 branch runs
    on its own elements only. Its result rounds to exactly +-1 from |x| = 6
    on, so clamping |x| at 8, where Cephes switches to its asymptotic R/S
    tables, changes no result and keeps inf finite."""
    shape, x = np.shape(x), np.ravel(x)
    s = np.clip(x, -1.0, 1.0)
    z = s * s
    out = _horner(z, _ERF_T)
    out *= s
    out /= _horner(z, _ERF_U)
    big = np.flatnonzero(s != x)            # |x| > 1, and NaN
    if big.size:
        a = np.minimum(np.abs(x[big]), 8.0)
        erfc = np.exp(-a * a)
        erfc *= _horner(a, _ERF_P)
        erfc /= _horner(a, _ERF_Q)
        out[big] = np.copysign(1.0 - erfc, x[big])
    return out.reshape(shape)


def gelu_cdf(x):
    """Phi(x), the standard normal CDF: exact GELU is x * Phi(x)."""
    return 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


def gelu_slope(x, cdf):
    """The derivative of exact GELU at x, given cdf = gelu_cdf(x)."""
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


# ---------------------------------------------------------------------------
# reductions and shape ops


def tmean(a, axis=None, keepdims=False):
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size / out.size
    shape = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / n,)

    return record("mean", (a,), out, backward)


def rearrange(a, split, axes, shape=None):
    """Reshape `a` to `split`, permute the axes by `axes` and reshape to
    `shape` (None: as permuted), as one "transpose" node whose backward runs
    the three steps in reverse."""
    x = np.ascontiguousarray(a.data.reshape(split).transpose(axes))
    shape_in, permuted = a.shape, x.shape
    return record("transpose", (a,), x if shape is None else x.reshape(shape),
                  lambda g: (g.reshape(permuted).transpose(np.argsort(axes)).reshape(shape_in),))


def transpose(a, axes):
    return rearrange(a, a.shape, axes)


# ---------------------------------------------------------------------------
# contractions


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul expects at least 2-d operands")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents {a.shape[-1]} != {b.shape[-2]}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch extents {a.shape[:-2]} vs {b.shape[:-2]}")
    ad, bd = a.data, b.data
    out = np.matmul(ad, bd)
    sa, sb = a.shape, b.shape

    def backward(g):
        # each gradient reads the other operand
        return (unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa),
                unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb))

    return record("matmul", (a, b), out, backward)

