import contextlib
import threading
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from diffumamba import tensor as T
from diffumamba.oracles import finite_difference_check
from diffumamba.tensor import GradError, NumericError, Rng, ShapeError, Tensor


class TestElementwise:
    def test_add_hand_case(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        npt.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_identity(self, rng):
        x = Tensor(rng.normal((3, 4)))
        npt.assert_array_equal((x * T.ones((3, 4))).data, x.data)

    def test_sub_self_cancels(self, rng):
        x = Tensor(rng.normal((5,)))
        npt.assert_array_equal((x - x).data, np.zeros(5))

    def test_broadcast_trailing_dims(self, rng):
        a = Tensor(rng.normal((2, 3, 4)))
        b = Tensor(rng.normal((4,)))
        npt.assert_array_equal((a + b).data, a.data + b.data)

    def test_python_scalar_keeps_f64_graph_dtype(self, rng):
        # the default dtype is f32; the constant must not round to it
        t = Tensor(rng.normal((4, 5)), dtype=np.float64, requires_grad=True)
        for got, want in [(t * (1 / 6), t.data * (1 / 6)), ((1 / 6) * t, (1 / 6) * t.data),
                          (t + 0.1, t.data + 0.1), (0.1 - t, 0.1 - t.data),
                          (t / 3.0, t.data / 3.0), (1.0 / (t + 3.0), 1.0 / (t.data + 3.0)),
                          (T.mul(t, 1 / 6), t.data * (1 / 6))]:
            assert got.dtype == np.float64
            npt.assert_array_equal(got.data, want)
        (t * (1 / 6)).sum().backward()
        assert t.grad.dtype == np.float64
        npt.assert_array_equal(t.grad, np.full(t.shape, np.float64(1 / 6)))

    def test_python_scalar_leaves_f32_graph_values(self, rng):
        x = rng.normal((4, 5)).astype(np.float32)
        t = Tensor(x)
        for got, want in [(t * (1 / 6), x * np.float32(1 / 6)), (t + 0.1, x + np.float32(0.1)),
                          (2.0 - t, np.float32(2.0) - x), (t / 3.0, x / np.float32(3.0))]:
            assert got.dtype == np.float32
            npt.assert_array_equal(got.data, want)
        # also while the default is f64: the constant no longer promotes the graph
        T.set_default_dtype("f64")
        assert (t * (1 / 6)).dtype == np.float32
        npt.assert_array_equal((t * (1 / 6)).data, x * np.float32(1 / 6))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4,\)"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros(4))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_raises(self):
        with pytest.raises(NumericError, match="log"):
            T.log(Tensor([-1.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_raises(self):
        with pytest.raises(NumericError, match="exp"):
            T.exp(Tensor([1000.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_div_by_zero_raises(self):
        with pytest.raises(NumericError):
            Tensor([1.0]) / Tensor([0.0])


class TestMatmul:
    def test_hand_case(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[5.0, 6.0], [7.0, 8.0]])
        npt.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_triple_loop_oracle(self, rng):
        a = rng.normal((4, 5), dtype=np.float64)
        b = rng.normal((5, 3), dtype=np.float64)
        expect = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expect[i, j] += a[i, k] * b[k, j]
        out = Tensor(a, dtype=np.float64) @ Tensor(b, dtype=np.float64)
        npt.assert_allclose(out.data, expect, rtol=1e-12)

    def test_identity(self, rng):
        a = Tensor(rng.normal((3, 3)))
        npt.assert_allclose((a @ Tensor(np.eye(3))).data, a.data, rtol=1e-6)

    def test_annihilator(self, rng):
        a = Tensor(rng.normal((3, 3)))
        npt.assert_array_equal((a @ T.zeros((3, 3))).data, np.zeros((3, 3)))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner dims"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal((4,)), requires_grad=True)
        x.sum().backward()
        npt.assert_array_equal(x.grad, np.ones(4))

    def test_square_sum_hand_case(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        npt.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-6)

    def test_square_sum_fd_oracle(self):
        # central differences, h = 1e-4, computed in the test
        x0 = np.array([1.0, 2.0, 3.0])
        f = lambda v: float((v * v).sum())
        h = 1e-4
        fd = np.array([(f(x0 + h * e) - f(x0 - h * e)) / (2 * h)
                       for e in np.eye(3)])
        x = Tensor(x0, dtype=np.float64, requires_grad=True)
        (x * x).sum().backward()
        npt.assert_allclose(x.grad, fd, rtol=1e-6)

    def test_matmul_grad_vs_fd(self, rng):
        a = Tensor(rng.normal((3, 4)), requires_grad=True)
        b = Tensor(rng.normal((4, 2)), requires_grad=True)
        rel, _ = finite_difference_check(lambda: a @ b, [a, b], rel_tol=1e-3, seed=5)
        assert rel < 1e-3

    def test_non_scalar_root_rejected(self, rng):
        x = Tensor(rng.normal((3,)), requires_grad=True)
        with pytest.raises(GradError, match="scalar"):
            (x * x).backward()

    def test_detached_root_rejected(self):
        with pytest.raises(GradError, match="detached"):
            Tensor(1.0, requires_grad=True).backward()

    def test_double_backward_rejected(self, rng):
        x = Tensor(rng.normal((3,)), requires_grad=True)
        loss = x.sum()
        loss.backward()
        with pytest.raises(GradError, match="already ran"):
            loss.backward()

    def test_each_node_visited_once(self, rng):
        # diamond graph: y = (x*2) + (x*2); grad must be exactly 4, not 8
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        (y + y).sum().backward()
        npt.assert_array_equal(x.grad, [4.0])

    def test_grad_accumulates_across_uses(self, rng):
        x = Tensor(rng.normal((3,)), requires_grad=True)
        (x.sum() + (x * 3.0).sum()).backward()
        npt.assert_allclose(x.grad, np.full(3, 4.0), rtol=1e-6)

    @pytest.mark.parametrize("g", [np.arange(6.0, dtype=np.float32).reshape(2, 3),
                                   np.arange(6.0, dtype=np.float32).reshape(3, 2).T,
                                   np.broadcast_to(np.arange(3.0, dtype=np.float32), (2, 3))],
                             ids=["buffer", "transposed", "read-only"])
    def test_first_gradient_is_kept_uncopied(self, g):
        # an adjoint of the data's shape and dtype becomes the grad as it
        # is, whatever its layout or writeability
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        x._accumulate(g)
        assert x.grad is g

    @pytest.mark.parametrize("g", [np.arange(6.0).reshape(2, 3)], ids=["buffer"])
    def test_first_gradient_is_a_fresh_copy(self, g):
        # an f64 buffer into an f32 tensor is cast: the grad is its own
        # buffer, and a later gradient adds to it without writing into g
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        before = g.copy()
        x._accumulate(g)
        assert x.grad.flags["WRITEABLE"] and x.grad.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(x.grad, g) and x.grad.dtype == np.float32
        x._accumulate(g)
        npt.assert_array_equal(x.grad, 2 * before)
        npt.assert_array_equal(g, before)

    @pytest.mark.parametrize("g", [np.arange(6.0).reshape(2, 3)], ids=["f64"])
    def test_owned_buffer_of_another_layout_is_copied(self, g):
        # an adjoint of another dtype cannot become the grad as it is: the
        # first gradient is one fresh C-ordered f32 copy
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        x._accumulate(g)
        assert not np.shares_memory(x.grad, g)
        assert x.grad.flags["C_CONTIGUOUS"] and x.grad.dtype == np.float32
        npt.assert_array_equal(x.grad, np.broadcast_to(g, (2, 3)))

    @pytest.mark.parametrize("g", [np.broadcast_to(np.arange(3.0), (2, 3)),
                                   np.arange(3.0, dtype=np.float32),
                                   np.arange(3.0)],
                             ids=["f64-view", "broadcast", "f64-broadcast"])
    def test_first_gradient_is_broadcast_and_cast(self, g):
        # an f64 adjoint into an f32 tensor is cast; one of a broadcastable
        # shape is broadcast (a view of g when no cast is needed)
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        before = g.copy()
        x._accumulate(g)
        assert x.grad.shape == (2, 3) and x.grad.dtype == np.float32
        npt.assert_array_equal(x.grad, np.broadcast_to(before.astype(np.float32), (2, 3)))
        assert np.shares_memory(x.grad, g) == (g.dtype == np.float32)
        npt.assert_array_equal(g, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_later_gradient_leaves_handed_over_buffers_unchanged(self, rng, dtype):
        # the sum is a new buffer, rounded to the data's dtype as an
        # in-place += would round it; neither adjoint is written
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        g1 = rng.normal((3, 4), dtype=np.float32)
        g2 = rng.normal((3, 4), dtype=np.float64).astype(dtype) / 3.0
        before1, before2 = g1.copy(), g2.copy()
        x._accumulate(g1)
        x._accumulate(g2)
        want = before1.copy()
        want += before2
        assert x.grad.dtype == np.float32
        npt.assert_array_equal(x.grad, want)
        npt.assert_array_equal(g1, before1)
        npt.assert_array_equal(g2, before2)
        assert not np.shares_memory(x.grad, g1) and not np.shares_memory(x.grad, g2)

    def test_permute_hands_on_a_contiguous_adjoint(self, rng):
        # a transposed view would make a downstream reduction (an
        # _unbroadcast, a bias sum) add in another order than on the
        # input's own layout
        x = Tensor(rng.normal((3, 4, 5)), requires_grad=True)
        (x.permute(2, 0, 1) * Tensor(rng.normal((5, 3, 4)))).sum().backward()
        assert x.grad.flags["C_CONTIGUOUS"]

    def test_shared_operands_of_add_and_mul(self, rng):
        # add and mul pass one g to both parents: when both are the same
        # tensor, the second gradient must not write into the first
        data = rng.normal((3, 4))
        x = Tensor(data, requires_grad=True)
        ((x + x) * 3.0 + x * x).sum().backward()
        npt.assert_allclose(x.grad, 6.0 + 2.0 * data, rtol=1e-6)
        y = Tensor(data, requires_grad=True)
        z = y * y
        (z * z).sum().backward()
        npt.assert_allclose(y.grad, 4.0 * data ** 3, rtol=1e-5)
        # two leaves of one add get one g, and both keep its values
        a, b = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
        ((a + b) * 2.0).sum().backward()
        npt.assert_array_equal(a.grad, np.full((3, 4), 2.0))
        npt.assert_array_equal(b.grad, np.full((3, 4), 2.0))

    def test_backward_writes_into_no_adjoint(self, rng, frozen_grads):
        # a graph through the hand-written adjoints of a residual and a
        # mamba block, with every stored grad read-only: no closure writes
        # into the adjoint it receives
        from diffumamba import nnops, ssm
        p = ssm.init_mamba_block(rng, channels=4, n_state=3)
        conv = nnops.init_conv(rng, 1, 4, (3, 3, 3))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(rng.normal((2, 1, 4, 4, 4)), requires_grad=True)
        h = nnops.leaky_relu(nnops.instance_norm(nnops.conv3d(x, conv), gamma, beta))
        out = ssm.mamba_block(h, p) + h
        (out * out).sum().backward()
        leaves = [x, gamma, beta, conv.weight, conv.bias,
                  *(t for t in vars(p).values() if isinstance(t, Tensor))]
        assert len(leaves) > 10
        assert all(not t.grad.flags["WRITEABLE"] for t in leaves)
        assert all(np.isfinite(t.grad).all() and np.any(t.grad) for t in leaves)

    def test_only_leaves_keep_grads(self, rng):
        x = Tensor(rng.normal((3,)), requires_grad=True)
        w = Tensor(rng.normal((3,)), requires_grad=True)
        hidden = x * w
        loss = T.exp(hidden).sum()
        loss.backward()
        npt.assert_allclose(x.grad, w.data * np.exp(x.data * w.data), rtol=1e-6)
        npt.assert_allclose(w.grad, x.data * np.exp(x.data * w.data), rtol=1e-6)
        assert hidden.grad is None and loss.grad is None


def _probe(a, on_backward):
    """Identity op whose backward calls ``on_backward`` before passing
    the gradient on."""
    def backward(g):
        on_backward()
        a._accumulate(g)

    return T.make_op(a.data.copy(), (a,), "probe", backward)


class TestTapeRelease:
    """Backward consumes the tape: an interior node drops its closure,
    parent links and grad once its closure has run."""

    def test_interior_nodes_released_leaves_keep_grads(self, rng):
        x = Tensor(rng.normal((3,)), requires_grad=True)
        w = Tensor(rng.normal((3,)), requires_grad=True)
        loss = T.exp(x * w).sum()
        nodes = T._toposort(loss)
        interior = [n for n in nodes if n._parents]
        assert len(interior) == 3
        loss.backward()
        for n in interior:
            assert n._backward_fn is None and n._parents == () and n.grad is None
            assert n._backward_ran
        for leaf in (x, w):
            assert leaf.grad is not None and not leaf._backward_ran
        npt.assert_allclose(x.grad, w.data * np.exp(x.data * w.data), rtol=1e-6)

    def test_saved_buffer_dies_before_upstream_closure_runs(self, rng):
        # chain x -> probe -> mul by a constant -> sum; the constant's
        # buffer is saved by the mul closure and nothing else.  When the
        # probe's closure runs, that closure and the buffer are gone
        x = Tensor(rng.normal((4,)), requires_grad=True)
        c = rng.normal((4,))
        saved = weakref.ref(c)
        seen = []
        loss = (_probe(x, lambda: seen.append(saved() is None)) * Tensor(c)).sum()
        expected = c.copy()
        del c
        assert saved() is not None
        loss.backward()
        assert seen == [True] and saved() is None
        npt.assert_array_equal(x.grad, expected)

    def test_shared_subgraph_feeds_one_backward(self, rng):
        x = Tensor(rng.normal((3,)), requires_grad=True)
        w = Tensor(rng.normal((3,)), requires_grad=True)
        shared = x * w
        first = T.exp(shared).sum()
        second = (shared * 2.0).sum()
        first.backward()
        gx, gw = x.grad.copy(), w.grad.copy()
        with pytest.raises(GradError, match="released"):
            second.backward()
        # no closure of the second graph ran: leaves and the shared node
        # are as the first backward left them
        npt.assert_array_equal(x.grad, gx)
        npt.assert_array_equal(w.grad, gw)
        assert shared.grad is None and not second._backward_ran


class TestSoftplus:
    @pytest.mark.parametrize("dtype, ulps", [(np.float32, 4), (np.float64, 4)],
                             ids=["f32", "f64"])
    def test_matches_logaddexp(self, dtype, ulps):
        x = np.concatenate([np.linspace(-40.0, 40.0, 20001), [0.0, -0.0, 100.0, -100.0]])
        if dtype == np.float64:
            x = np.concatenate([x, [1e4, -1e4, 1e300, -1e300]])
        x = x.astype(dtype)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = T.softplus(Tensor(x, dtype=dtype)).data
        want = np.logaddexp(np.zeros((), dtype=dtype), x)
        assert got.dtype == dtype
        tol = ulps * np.finfo(dtype).eps * np.maximum(np.abs(want), np.finfo(dtype).tiny)
        assert np.all(np.abs(got - want) <= tol)

    def test_gradient_is_the_sigmoid(self, f64_mode):
        x = np.array([-1e4, -100.0, -30.0, -1.0, 0.0, 1.0, 30.0, 100.0, 1e4])
        t = Tensor(x, requires_grad=True)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            T.softplus(t).sum().backward()
        want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        npt.assert_allclose(t.grad, want, rtol=1e-15, atol=0)


class TestShapeOps:
    def test_reshape_round_trip(self, rng):
        x = Tensor(rng.normal((2, 3)))
        npt.assert_array_equal(x.reshape((3, 2)).reshape((2, 3)).data, x.data)

    def test_permute_round_trip(self, rng):
        x = Tensor(rng.normal((2, 3, 4)))
        npt.assert_array_equal(x.permute(2, 0, 1).permute(1, 2, 0).data, x.data)

    def test_permute_preserves_multiset(self, rng):
        x = Tensor(rng.normal((2, 3, 4, 5)))
        y = x.permute(3, 1, 0, 2)
        npt.assert_array_equal(np.sort(y.data.ravel()), np.sort(x.data.ravel()))

    def test_reshape_count_mismatch(self):
        with pytest.raises(ShapeError, match="reshape"):
            Tensor(np.zeros((2, 3))).reshape((7,))

    def test_invalid_permutation(self):
        with pytest.raises(ShapeError, match="permutation"):
            Tensor(np.zeros((2, 3))).permute(0, 0)

    def test_token_flatten_row_major_oracle(self, rng):
        # (1, C, D, H, W) -> (L, C) tokens; token i is voxel at row-major
        # index i = (d*H + h)*W + w
        c, d, h, w = 2, 2, 2, 2
        x = Tensor(rng.normal((1, c, d, h, w)))
        tokens = x.permute(0, 2, 3, 4, 1).reshape((1, d * h * w, c))
        for token_idx in range(d * h * w):
            di, rem = divmod(token_idx, h * w)
            hi, wi = divmod(rem, w)
            for ci in range(c):
                assert tokens.data[0, token_idx, ci] == x.data[0, ci, di, hi, wi]

    def test_narrow_and_pad_inverse(self, rng):
        x = Tensor(rng.normal((3, 4)))
        padded = T.pad(x, ((1, 1), (0, 2)))
        back = padded.narrow(0, 1, 3).narrow(1, 0, 4)
        npt.assert_array_equal(back.data, x.data)

    def test_concat_matches_numpy(self, rng):
        a, b = rng.normal((2, 3)), rng.normal((4, 3))
        out = T.concat([Tensor(a), Tensor(b)], axis=0)
        npt.assert_array_equal(out.data, np.concatenate([a, b], axis=0))


# every differentiable primitive, checked against central differences;
# the second flag says whether the op consumes the y operand
_OP_CASES = {
    "add": (lambda x, y: x + y, True),
    "sub": (lambda x, y: x - y, True),
    "mul": (lambda x, y: x * y, True),
    "div": (lambda x, y: x / (y * y + 1.0), True),
    "exp": (lambda x, y: T.exp(x), False),
    "log": (lambda x, y: T.log(x * x + 0.5), False),
    "sqrt": (lambda x, y: T.sqrt(x * x + 0.5), False),
    "pow": (lambda x, y: (x * x + 1.0) ** 1.7, False),
    "neg": (lambda x, y: -x, False),
    "sigmoid": (lambda x, y: T.sigmoid(x), False),
    "softplus": (lambda x, y: T.softplus(x), False),
    "where": (lambda x, y: T.where(x.data > 0, x * 2.0, y), True),
    "sum_axis": (lambda x, y: x.sum(axis=1), False),
    "sum_all": (lambda x, y: (x * y).sum(), True),
    "mean": (lambda x, y: x.mean(axis=0, keepdims=True), False),
    "matmul": (lambda x, y: x @ y.permute(1, 0), True),
    "reshape": (lambda x, y: (x * y).reshape((20,)), True),
    "permute": (lambda x, y: (x * y).permute(1, 0), True),
    "narrow": (lambda x, y: x.narrow(1, 1, 3), False),
    "pad": (lambda x, y: T.pad(x * y, ((1, 0), (0, 2))), True),
    "concat": (lambda x, y: T.concat([x, y], axis=1), True),
    "log_softmax": (lambda x, y: T.log_softmax(x, axis=1), False),
    "broadcast_mul": (lambda x, y: x * y.narrow(0, 0, 1), True),
}


def _run_op_check(op, seed, rel_tol):
    r = Rng(seed)
    x = Tensor(r.normal((4, 5)), requires_grad=True)
    y = Tensor(r.normal((4, 5)) + 0.1, requires_grad=True)
    fn, uses_y = _OP_CASES[op]
    wiggle = [x, y] if uses_y else [x]
    rel, _ = finite_difference_check(lambda: fn(x, y), wiggle, rel_tol=rel_tol, seed=seed)
    assert rel < rel_tol


@pytest.mark.parametrize("op", sorted(_OP_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_op_gradients_f32(op, seed, frozen_grads):
    _run_op_check(op, seed, 1e-3)


@pytest.mark.parametrize("op", sorted(_OP_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_op_gradients_f64(op, seed, f64_mode, frozen_grads):
    _run_op_check(op, seed + 10, 1e-6)


class TestProperties:
    def test_tape_determinism_bitwise(self):
        def run():
            r = Rng(77)
            x = Tensor(r.normal((6, 6)), requires_grad=True)
            w = Tensor(r.normal((6, 6)), requires_grad=True)
            (T.sigmoid(x @ w) * x).sum().backward()
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        npt.assert_array_equal(g1[0], g2[0])
        npt.assert_array_equal(g1[1], g2[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_broadcast_then_reduce_matches_unbroadcast(self, seed):
        r = Rng(seed)
        a = r.normal((3, 4), dtype=np.float64)
        b = r.normal((4,), dtype=np.float64)
        # broadcast b over rows then sum rows == 3 * (a summed) pattern
        out = (Tensor(a, dtype=np.float64) + Tensor(b, dtype=np.float64)).sum(axis=0)
        expect = a.sum(axis=0) + 3 * b
        npt.assert_allclose(out.data, expect, rtol=1e-12)

    def test_no_grad_builds_no_graph(self, rng):
        x = Tensor(rng.normal((3,)), requires_grad=True)
        with T.no_grad():
            y = x * 2.0
        assert y._parents == () and not y.requires_grad


class TestThreadIsolation:
    """Tape switches set in one thread leave every other thread alone."""

    def _in_worker(self, setup):
        # run ``setup`` in a worker thread and hold it there until released
        ready, release = threading.Event(), threading.Event()

        def work():
            with setup():
                ready.set()
                release.wait(timeout=60)

        worker = threading.Thread(target=work)
        worker.start()
        assert ready.wait(timeout=60)
        return release, worker

    def test_no_grad_in_other_thread_keeps_this_tape(self):
        release, worker = self._in_worker(T.no_grad)
        try:
            x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
            y = (x * x).sum()
            assert y.requires_grad
            y.backward()
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        npt.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_dtype_and_fault_in_other_thread_stay_there(self):
        @contextlib.contextmanager
        def f64_and_fault():
            T.set_default_dtype("f64")
            T.set_gradient_fault(2.0)
            assert Tensor([1.0]).dtype == np.float64
            yield

        release, worker = self._in_worker(f64_and_fault)
        try:
            a = Tensor([[1.0, 2.0]], requires_grad=True)
            assert a.dtype == np.float32
            (a @ Tensor([[3.0], [4.0]])).sum().backward()
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        npt.assert_array_equal(a.grad, [[3.0, 4.0]])


class TestRng:
    def test_deterministic(self):
        a = Rng(42).normal((8,))
        b = Rng(42).normal((8,))
        npt.assert_array_equal(a, b)

    def test_derive_independent_streams(self):
        r = Rng(42)
        a = r.derive("a").normal((8,))
        b = r.derive("b").normal((8,))
        assert not np.array_equal(a, b)
        npt.assert_array_equal(a, Rng(42).derive("a").normal((8,)))

    def test_seed_sequence_seed_is_the_integer_stream(self):
        # an integer seed and its SeedSequence give one stream, derived children too
        ss = np.random.SeedSequence(7)
        npt.assert_array_equal(Rng(ss).normal((5,)), Rng(7).normal((5,)))
        npt.assert_array_equal(Rng(ss).derive("a").normal((5,)),
                               Rng(7).derive("a").normal((5,)))
