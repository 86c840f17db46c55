"""Tensor core: elementwise ops, matmul, GELU, tape mechanics, gradients."""

import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from dmsr import tensor as T
from dmsr.tensor import Tensor, Tape, ShapeError

from helpers import check_gradients, gelu, mul, tsum, weighted_sum_loss


def square(x):
    return mul(x, x)


def test_mul_elementwise():
    out = mul(Tensor([2.0, 3.0]), Tensor([4.0, 5.0]))
    np.testing.assert_array_equal(out.data, [8.0, 15.0])


def test_sigmoid_at_zero():
    assert T.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_bit_equal_to_the_three_exp_form():
    rng = np.random.default_rng(25)
    x = np.concatenate([rng.normal(0.0, 40.0, 10**5),
                        [0.0, -0.0, 800.0, -800.0, np.nan, np.inf, -np.inf]])
    # the former body, which evaluated exp(-|x|) three times
    want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert T.sigmoid(Tensor(x)).data.tobytes() == want.tobytes()


def test_sigmoid_bit_equal_to_the_where_form_in_two_buffers():
    # the np.where form allocated about four input-sized temporaries
    rng = np.random.default_rng(26)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e-300, -1e-300]
    for x in (np.array(special), rng.normal(0.0, 5.0, (3, 4, 5)), rng.normal(0.0, 1.0, 10**6)):
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert T.sigmoid(Tensor(x)).data.tobytes() == want.tobytes()
    t = Tensor(x)
    tracemalloc.start()
    try:
        T.sigmoid(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # e, 1 + e (the output) and the two branch masks
    assert peak <= 2.3 * x.nbytes, f"{peak / x.nbytes:.2f} x the input"


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(square(x))
    g = tape.backward(loss)
    np.testing.assert_allclose(g[x], [2.0, 4.0, 6.0])


def test_backward_sigmoid_quarter():
    x = Tensor([0.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(T.sigmoid(x))
    g = tape.backward(loss)
    assert g[x][0] == pytest.approx(0.25)


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = square(x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_second_backward_raises():
    # the sweep consumes the tape: its nodes are gone, its gradients stay
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(square(x))
    grads = tape.backward(loss)
    assert tape.nodes == []
    with pytest.raises(RuntimeError):
        tape.backward(loss)
    assert tape.grads is grads
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])


def test_grads_hold_leaf_gradients_only():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    with Tape() as tape:
        loss = tsum(mul(square(x), c))
    assert set(tape.backward(loss)) == {x}
    np.testing.assert_array_equal(tape.grads[x], [6.0, 16.0])


def test_sweep_drops_a_gradient_computed_for_a_constant():
    # a fused node may return an array for a constant input, as it does for a
    # parameter made constant; the sweep keeps no entry for it, and the live
    # leaf gets the bytes it gets from a backward that returns None
    rng = np.random.default_rng(0)
    xd, cd = rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (2, 3))
    swept = []
    for constant_grad in (lambda g: None, lambda g: g * xd):
        x, c = Tensor(xd, requires_grad=True), Tensor(cd)
        with Tape() as tape:
            out = T.record("mul", (x, c), xd * cd, lambda g: (g * cd, constant_grad(g)))
            grads = tape.backward(weighted_sum_loss(out))
        assert None not in grads and set(grads) == {x}
        swept.append(grads[x].tobytes())
    assert swept[0] == swept[1]


def test_backward_peak_does_not_grow_with_chain_length():
    # each swept node's output gradient is freed, so a chain of n elementwise
    # ops on a 1 MB array holds a few gradients at a time, not n
    peaks = {}
    for n in (4, 32):
        x = Tensor(np.linspace(-1.0, 1.0, 2**17), requires_grad=True)   # 1 MB
        with Tape() as tape:
            y = x
            for _ in range(n):
                y = T.sigmoid(y)
            loss = tsum(y)
        tracemalloc.start()
        try:
            tape.backward(loss)
            peaks[n] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    assert peaks[32] < peaks[4] + 0.5, peaks
    assert peaks[32] < 6.0, peaks


def test_sweep_hands_each_leaf_gradient_over_as_it_copies_it():
    # the end of the sweep holds the leaf gradients and one copy at a time,
    # not two full sets; add hands one array to both its inputs, which is
    # why each leaf gets a copy
    leaves = [Tensor(np.linspace(-1.0, 1.0, 2**16) + i, requires_grad=True)   # 0.5 MB
              for i in range(12)]
    with Tape() as tape:
        loss = tsum(T.add(leaves[0], leaves[1]))
        for x in leaves[2:]:
            loss = T.add(loss, tsum(T.sigmoid(x)))
    tracemalloc.start()
    try:
        grads = tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    total = sum(g.nbytes for g in grads.values()) / 1e6
    assert peak < 1.5 * total, f"sweep {peak:.1f} MB, leaf gradients {total:.1f} MB"
    held = [grads[x] for x in leaves]
    assert not [(i, j) for i in range(12) for j in range(i)
                if np.shares_memory(held[i], held[j])]


def test_non_broadcastable_shapes_rejected():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.ones((3,))), Tensor(np.ones((4,))))


def test_broadcast_stretches_extent_one():
    out = T.add(Tensor(np.ones((2, 1, 3))), Tensor(np.ones((4, 1))))
    assert out.shape == (2, 4, 3)


def test_broadcast_shape_associative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        shapes = []
        for _ in range(3):
            nd = rng.integers(1, 4)
            shapes.append(tuple(int(rng.choice([1, 2, 3, 5])) for _ in range(nd)))
        a, b, c = shapes
        try:
            left = np.broadcast_shapes(np.broadcast_shapes(a, b), c)
            right = np.broadcast_shapes(a, np.broadcast_shapes(b, c))
        except ValueError:
            continue
        assert left == right


def test_zero_extent_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 0)))


# matmul ------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.random((2, 2))
    out = T.matmul(Tensor(np.eye(2)), Tensor(x))
    np.testing.assert_allclose(out.data, x)


def test_matmul_dot_product():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_allclose(out.data, [[11.0]])


def _matmul_loops(a, b):
    m, p = a.shape
    p2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for kk in range(p):
                out[i, j] += a[i, kk] * b[kk, j]
    return out


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data,
                               _matmul_loops(a, b), atol=1e-12)


def test_matmul_8x8_oracle_tolerance():
    rng = np.random.default_rng(11)
    a = rng.uniform(-2, 2, (8, 8))
    b = rng.uniform(-2, 2, (8, 8))
    diff = np.abs(T.matmul(Tensor(a), Tensor(b)).data - _matmul_loops(a, b))
    assert diff.max() < 1e-10


def test_matmul_inner_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


# gelu ---------------------------------------------------------------------


def test_gelu_at_zero_and_saturation():
    assert gelu(Tensor([0.0])).data[0] == 0.0
    assert abs(gelu(Tensor([6.0])).data[0] - 6.0) < 1e-6


def test_gelu_tanh_approx_close_to_exact():
    grid = np.arange(-5.0, 5.0 + 1e-9, 0.01)
    exact = gelu(Tensor(grid), mode="exact").data
    approx = gelu(Tensor(grid), mode="tanh_approx").data
    assert np.max(np.abs(exact - approx)) < 1e-3


def test_erf_is_scipys_bit_for_bit_on_the_unit_interval():
    x = np.random.default_rng(0).uniform(-1.0, 1.0, 200_000)
    x[:4] = (-1.0, 1.0, np.nextafter(1.0, 0.0), 5e-324)
    assert T._erf(x).tobytes() == erf(x).tobytes()


def test_erf_is_within_one_ulp_of_scipys_on_a_wide_sample():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(-9.0, 9.0, 200_000),
                        rng.normal(size=100_000) * 10.0 ** rng.uniform(-300, 300, 100_000),
                        np.nextafter([1.0, -1.0, 8.0, -8.0], [2.0, -2.0, 0.0, 0.0])])
    got, want = T._erf(x), erf(x)
    assert (np.sign(got) == np.sign(want)).all()
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 1


def test_erf_is_exact_at_zeros_edges_and_infinities():
    x = np.array([0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 27.0, -27.0, np.inf, -np.inf])
    assert T._erf(x).tobytes() == erf(x).tobytes()
    got = T._erf(np.array([[np.nan, 2.0], [-np.nan, 0.5]]))
    assert got.shape == (2, 2) and np.isnan(got[:, 0]).all() and np.isfinite(got[:, 1]).all()
    assert T._erf(np.float64(0.3)) == erf(0.3)


def test_gelu_bad_mode():
    with pytest.raises(ValueError):
        gelu(Tensor([1.0]), mode="nope")


# tape bookkeeping ----------------------------------------------------------


def test_tape_topological_order():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(T.add(x, Tensor(1.0)), T.sigmoid(x))
        tsum(square(y))
    seen = set()
    for node in tape.nodes:
        for inp in node.inputs:
            assert inp is x or inp in seen or inp is None
        seen.add(node.out)


def test_leaf_gradients_have_leaf_shapes():
    rng = np.random.default_rng(5)
    a = Tensor(rng.random((3, 1, 4)), requires_grad=True)
    b = Tensor(rng.random((2, 4)), requires_grad=True)
    with Tape() as tape:
        loss = tsum(mul(a, b))
    g = tape.backward(loss)
    assert g[a].shape == a.shape
    assert g[b].shape == b.shape


def test_ops_in_another_thread_stay_off_this_threads_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    foreign, own_nodes = [], []

    def worker():
        for _ in range(5):
            foreign.append(square(x))       # no tape is open in this thread
        with Tape() as own:
            T.sigmoid(x)
        own_nodes.extend(own.nodes)

    with Tape() as tape:
        loss = tsum(square(x))
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert len(foreign) == 5
    assert [node.op for node in tape.nodes] == ["mul", "sum"]
    assert all(t.handle is None for t in foreign)     # no tape recorded them
    assert [node.op for node in own_nodes] == ["sigmoid"]
    np.testing.assert_array_equal(tape.backward(loss)[x], [2.0, 4.0])


def test_no_tape_records_nothing():
    x = Tensor([1.0], requires_grad=True)
    y = square(x)
    assert y.requires_grad
    with Tape() as tape:
        pass
    assert tape.nodes == []


# finite differences ---------------------------------------------------------


UNARY_CASES = [
    ("sigmoid", T.sigmoid, (-2.0, 2.0)),
    ("abs", T.absolute, (0.2, 2.0)),
    ("gelu_exact", lambda t: gelu(t, "exact"), (-2.0, 2.0)),
    ("gelu_tanh", lambda t: gelu(t, "tanh_approx"), (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,fn,rng_range", UNARY_CASES,
                         ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients(name, fn, rng_range):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = Tensor(rng.uniform(*rng_range, size=(3, 5)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(fn(x)), [x], n_coords=8)


BINARY_CASES = [
    ("add", T.add), ("sub", T.sub), ("mul", mul),
]


@pytest.mark.parametrize("name,fn", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_gradients_with_broadcast(name, fn):
    rng = np.random.default_rng(hash(name) % 2**32)
    a = Tensor(rng.uniform(0.5, 2.0, size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, size=(3, 1)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(fn(a, b)), [a, b], n_coords=8)


def test_matmul_gradients():
    rng = np.random.default_rng(21)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(T.matmul(a, b)), [a, b], n_coords=8)


def test_batched_matmul_gradients():
    rng = np.random.default_rng(22)
    a = Tensor(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (2, 4, 2)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(T.matmul(a, b)), [a, b], n_coords=8)


REARRANGE_CASES = [
    ("split_permute_merge", lambda t: T.rearrange(t, (2, 3, 2, 2), (2, 0, 3, 1), (4, 6))),
    ("split_permute", lambda t: T.rearrange(t, (2, 3, 2, 2), (3, 1, 0, 2))),
    ("transpose", lambda t: T.transpose(t, (1, 2, 0))),
]


@pytest.mark.parametrize("name,fn", REARRANGE_CASES, ids=[c[0] for c in REARRANGE_CASES])
def test_rearrange_gradients(name, fn):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(2, 3, 4)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(fn(x)), [x], n_coords=10)


def test_reduction_and_shape_op_gradients():
    rng = np.random.default_rng(23)
    x = Tensor(rng.uniform(-2, 2, (2, 3, 4)), requires_grad=True)

    def build():
        y = T.tmean(x, axis=1)
        y = T.rearrange(y, (2, 2, 2), (1, 0, 2), (4, 2))
        y = T.transpose(y, (1, 0))
        return weighted_sum_loss(y)

    check_gradients(build, [x], n_coords=10)


def test_mean_keepdims_gradient():
    rng = np.random.default_rng(24)
    x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    check_gradients(lambda: weighted_sum_loss(T.tmean(x, axis=0, keepdims=True)),
                    [x], n_coords=8)


def test_rearrange_is_one_node_named_by_whether_it_permutes():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    with Tape() as tape:
        moved = T.rearrange(x, (2, 3, 2, 2), (0, 2, 1, 3), (4, 6))
        T.transpose(x, (2, 0, 1))
    # every rearrange permutes, so each records "transpose"
    assert [node.op for node in tape.nodes] == ["transpose", "transpose"]
    np.testing.assert_array_equal(
        moved.data, x.data.reshape(2, 3, 2, 2).transpose(0, 2, 1, 3).reshape(4, 6))
