import importlib.util
import pathlib

import numpy as np
import numpy.testing as npt
import pytest

from diffumamba import tensor as T
from diffumamba.oracles import (_rel_gap, _value_and_grads, downsample_reference,
                                finite_difference_check)
from diffumamba.nnops import init_conv
from diffumamba.nrm import aggregate, downsample_stage, init_nrm, nrm_forward, nrm_param_count
from diffumamba.ssm import mamba_param_count
from diffumamba.tensor import NumericError, Rng, ShapeError, Tensor

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _lambdas(n, value=0.5):
    return Tensor(np.full(n, value), requires_grad=True)


def _fused_and_reference(x, conv, target):
    """downsample_stage and downsample_reference, each as its output and the
    x/W(/b) gradients of sum(out * one fixed projection)."""
    wiggle = [x, conv.weight] + ([] if conv.bias is None else [conv.bias])
    shape = (x.shape[0], conv.weight.shape[0]) + tuple(target)
    proj = Rng(9).normal(shape, dtype=np.result_type(x.data, conv.weight.data))
    return [_value_and_grads(lambda: fn(x, conv, target), wiggle, proj)
            for fn in (downsample_stage, downsample_reference)]


class TestDownsampleStage:
    def test_output_matches_bottleneck_shape(self, rng):
        # stage feature (16, 16, 16, 16) squeezed to a (32, 2, 2, 2) bottleneck
        ds = init_conv(rng, 16, 32, (1, 1, 1))
        f = Tensor(rng.normal((1, 16, 16, 16, 16)))
        e = downsample_stage(f, ds, (2, 2, 2))
        assert e.shape == (1, 32, 2, 2, 2)

    def test_identity_conv_constant_input(self, rng):
        ds = init_conv(rng, 3, 3, (1, 1, 1))
        w = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        for i in range(3):
            w[i, i, 0, 0, 0] = 1.0
        ds.weight.data = w
        ds.bias.data = np.zeros(3, dtype=np.float32)
        f = Tensor(np.full((1, 3, 4, 4, 4), 2.5, dtype=np.float32))
        e = downsample_stage(f, ds, (2, 2, 2))
        npt.assert_allclose(e.data, 2.5, rtol=1e-6)

    def test_negative_constant_clamps_to_zero(self, rng):
        ds = init_conv(rng, 2, 2, (1, 1, 1))
        w = np.zeros((2, 2, 1, 1, 1), dtype=np.float32)
        w[0, 0] = w[1, 1] = 1.0
        ds.weight.data = w
        ds.bias.data = np.zeros(2, dtype=np.float32)
        f = Tensor(np.full((1, 2, 4, 4, 4), -1.0, dtype=np.float32))
        e = downsample_stage(f, ds, (2, 2, 2))
        npt.assert_array_equal(e.data, np.zeros((1, 2, 2, 2, 2)))

    def test_stage_smaller_than_target_rejected(self, rng):
        ds = init_conv(rng, 2, 2, (1, 1, 1))
        with pytest.raises(ShapeError, match="target"):
            downsample_stage(Tensor(rng.normal((1, 2, 2, 2, 2))), ds, (4, 4, 4))


class TestFusedDownsample:
    """downsample_stage against the three-node composition it fuses."""

    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    @pytest.mark.parametrize("shape,c_out,target", [
        # the desk model's five stages (pool factors 16, 8, 4, 2, 1) onto its 2^3 bottleneck
        ((2, 8, 32, 32, 32), 128, (2, 2, 2)),
        ((2, 16, 16, 16, 16), 128, (2, 2, 2)),
        ((2, 32, 8, 8, 8), 128, (2, 2, 2)),
        ((2, 64, 4, 4, 4), 128, (2, 2, 2)),
        ((2, 128, 2, 2, 2), 128, (2, 2, 2)),
        # non-cubic stages and targets; pool factors (2, 2, 2) and (3, 1, 4)
        ((1, 3, 6, 4, 2), 5, (3, 2, 1)),
        ((2, 3, 6, 4, 8), 5, (2, 4, 2)),
        # 1152 cells of 8 voxels: 18 blocks of 64 whole cells
        ((3, 4, 16, 16, 12), 6, (8, 8, 6)),
        # pool factors (9, 8, 8): 576-voxel cells, each a 512-voxel block and a 64-voxel one
        ((2, 3, 18, 16, 16), 4, (2, 2, 2)),
    ], ids=["desk1", "desk2", "desk3", "desk4", "desk5", "noncubic", "factor314", "chunks",
            "split"])
    def test_matches_reference(self, shape, c_out, target, dtype, tol):
        T.set_default_dtype(dtype)
        r = Rng(4)
        conv = init_conv(r.derive("c"), shape[1], c_out, (1, 1, 1))
        x = Tensor(r.normal(shape), requires_grad=True)
        fused, ref = _fused_and_reference(x, conv, target)
        assert fused[0].shape == (shape[0], c_out) + target
        for got, want in zip(fused, ref):
            assert got.dtype == want.dtype
            assert _rel_gap(got, want) < tol

    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    @pytest.mark.parametrize("shape,c_out,target", [
        ((2, 8, 32, 32, 32), 16, (2, 2, 2)),          # 4096-voxel cells over 8 blocks each
        ((2, 3, 18, 16, 16), 4, (2, 2, 2)),           # split cells
        ((3, 4, 16, 16, 12), 6, (8, 8, 6)),           # whole cells, many blocks
        ((2, 5, 3, 4, 6), 7, (3, 4, 6)),              # pool factor 1
    ], ids=["desk1", "split", "chunks", "factor1"])
    def test_without_bias_matches_reference(self, shape, c_out, target, dtype, tol):
        T.set_default_dtype(dtype)
        r = Rng(8)
        conv = init_conv(r.derive("c"), shape[1], c_out, (1, 1, 1), bias=False)
        x = Tensor(r.normal(shape), requires_grad=True)
        fused, ref = _fused_and_reference(x, conv, target)
        assert len(fused) == 3
        for got, want in zip(fused, ref):
            assert got.dtype == want.dtype
            assert _rel_gap(got, want) < tol

    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    @pytest.mark.parametrize("shape,c_out", [
        ((2, 5, 3, 4, 6), 7),           # non-cubic
        ((1, 3, 1, 1, 1), 2),           # one voxel
        ((2, 4, 8, 8, 12), 3),          # 1536 cells: above DOWNSAMPLE_CHUNK
    ], ids=["noncubic", "voxel", "wide"])
    def test_pool_factor_one_matches_reference(self, shape, c_out, dtype, tol):
        T.set_default_dtype(dtype)
        r = Rng(10)
        conv = init_conv(r.derive("c"), shape[1], c_out, (1, 1, 1))
        conv.bias.data = r.derive("b").normal((c_out,))
        x = Tensor(r.normal(shape), requires_grad=True)
        fused, ref = _fused_and_reference(x, conv, shape[2:])
        for got, want in zip(fused, ref):
            assert got.dtype == want.dtype
            assert _rel_gap(got, want) < tol

    def test_input_without_grad(self, f64_mode):
        r = Rng(5)
        conv = init_conv(r.derive("c"), 4, 3, (1, 1, 1))
        x = Tensor(r.normal((2, 4, 4, 4, 4)))
        fused, ref = _fused_and_reference(x, conv, (2, 2, 2))
        assert fused[1] is None and ref[1] is None
        for i in (0, 2, 3):
            assert _rel_gap(fused[i], ref[i]) < 1e-12

    def test_relu_slope_at_zero_matches_reference(self, f64_mode):
        # zero weights and bias make every pre-activation exactly 0
        r = Rng(7)
        conv = init_conv(r.derive("c"), 3, 2, (1, 1, 1))
        conv.weight.data[...] = 0.0
        conv.bias.data[...] = 0.0
        x = Tensor(r.normal((1, 3, 4, 4, 2)), requires_grad=True)
        fused, ref = _fused_and_reference(x, conv, (2, 2, 1))
        assert np.all(ref[3] != 0)
        for got, want in zip(fused, ref):
            npt.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_gradients_fd(self, f64_mode):
        r = Rng(6)
        conv = init_conv(r.derive("c"), 3, 4, (1, 1, 1))
        x = Tensor(r.normal((2, 3, 4, 6, 2)), requires_grad=True)
        rel, _ = finite_difference_check(lambda: downsample_stage(x, conv, (2, 3, 1)),
                                         [x, conv.weight, conv.bias], rel_tol=1e-6,
                                         n_coords=8, seed=2)
        assert rel < 1e-6

    def test_no_grad_records_no_tape(self, rng):
        conv = init_conv(rng, 2, 3, (1, 1, 1))
        x = Tensor(rng.normal((1, 2, 4, 4, 4)), requires_grad=True)
        with T.no_grad():
            e = downsample_stage(x, conv, (2, 2, 2))
        assert not e.requires_grad
        assert e._parents == () and e._backward_fn is None

    def test_target_must_divide_stage(self, rng):
        conv = init_conv(rng, 2, 2, (1, 1, 1))
        with pytest.raises(ShapeError, match="target"):
            downsample_stage(Tensor(rng.normal((1, 2, 5, 4, 4))), conv, (2, 2, 2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_negative_overflow_raises_like_reference(self, rng):
        # an f32 pre-activation of -1e40 overflows to -inf; ReLU would zero it,
        # but the unfused conv3d node raised before the ReLU, and so does the op
        conv = init_conv(rng, 2, 2, (1, 1, 1))
        conv.weight.data[...] = -1e20
        conv.bias.data[...] = 0.0
        x = Tensor(np.full((1, 2, 2, 2, 2), 1e20, dtype=np.float32))
        with pytest.raises(NumericError, match="conv3d"):
            downsample_reference(x, conv, (1, 1, 1))
        with pytest.raises(NumericError, match="downsample_stage"):
            downsample_stage(x, conv, (1, 1, 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("target", [(1, 1, 1), (2, 2, 2), (16, 16, 16)],
                             ids=["split", "cells", "factor1"])
    def test_negative_overflow_in_one_of_many_blocks_raises(self, rng, target):
        # one voxel of 4096 overflows to -inf: no bound holds, so the blocks
        # are checked, and the block that holds it raises
        conv = init_conv(rng, 2, 2, (1, 1, 1))
        conv.weight.data[...] = -1e20
        x = np.full((1, 2, 16, 16, 16), 0.5, dtype=np.float32)
        x[0, :, 11, 3, 7] = 1e20
        with pytest.raises(NumericError, match="downsample_stage"):
            downsample_stage(Tensor(x), conv, target)


def test_tracer_bindings_resolve():
    """perfbench's tracer wraps layers by (owner, attribute): each must exist."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, _, _ in tracer.BINDINGS:
        assert callable(getattr(owner, attr)), (owner, attr)


class TestAggregate:
    def _e(self, rng, n=3, shape=(1, 2, 2, 2, 2)):
        return [Tensor(rng.normal(shape)) for _ in range(n)]

    def test_zero_weights(self, rng):
        lam = _lambdas(3, 0.0)
        out = aggregate(self._e(rng), lam)
        npt.assert_array_equal(out.data, np.zeros(out.shape))

    def test_selector_weights(self, rng):
        e = self._e(rng)
        lam = _lambdas(3, 0.0)
        lam.data[0] = 1.0
        npt.assert_allclose(aggregate(e, lam).data, e[0].data, rtol=1e-6)

    def test_half_weights_of_ones(self):
        lam = _lambdas(5, 0.5)
        e = [T.ones((1, 2, 2, 2, 2)) for _ in range(5)]
        npt.assert_allclose(aggregate(e, lam).data, 2.5, rtol=1e-6)

    def test_shape_mismatch_rejected(self, rng):
        e = [Tensor(rng.normal((1, 2, 2, 2, 2))), Tensor(rng.normal((1, 2, 1, 2, 2)))]
        with pytest.raises(ShapeError, match="stage feature"):
            aggregate(e, _lambdas(2))

    def test_count_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError, match="lambdas"):
            aggregate(self._e(rng, n=2), _lambdas(3))

    def test_bilinearity_swap_stages_and_weights(self, rng):
        # swapping two same-shaped stages and their weights leaves the sum unchanged
        e = self._e(rng)
        lam = _lambdas(3)
        lam.data[:] = [0.3, 1.2, -0.7]
        base = aggregate(e, lam).data.copy()
        lam.data[:] = [1.2, 0.3, -0.7]
        swapped = aggregate([e[1], e[0], e[2]], lam).data
        npt.assert_allclose(swapped, base, rtol=1e-6)

    def test_gradient_reaches_weights_and_features(self, rng):
        e = [Tensor(rng.normal((1, 2, 2, 2, 2)), requires_grad=True) for _ in range(3)]
        lam = _lambdas(3)
        aggregate(e, lam).sum().backward()
        assert lam.grad is not None and np.all(lam.grad != 0)
        assert all(t.grad is not None for t in e)


def _tiny_nrm(rng, stages=(2, 3), bottleneck=3):
    return init_nrm(rng, stages, bottleneck, n_state=2, expand=2, conv_width=3)


class TestNrmForward:
    def _features(self, rng, stages=(2, 3)):
        shapes = [(1, stages[0], 4, 4, 4), (1, stages[1], 2, 2, 2)]
        return [Tensor(rng.normal(s)) for s in shapes]

    def test_zero_lambda_zero_bias_passthrough(self, rng):
        p = _tiny_nrm(rng)
        p.lambdas.data[...] = 0.0
        for name, t in p.m2.named("m2"):
            if name.endswith(("_b", "bias", "beta")):
                t.data[...] = 0.0
        feats = self._features(rng)
        m1 = Tensor(rng.normal((1, 3, 2, 2, 2)))
        cap = {}
        m_hat = nrm_forward(p, feats, m1, capture=cap)
        npt.assert_array_equal(cap["m2"].data, np.zeros((1, 3, 2, 2, 2)))
        npt.assert_array_equal(m_hat.data, m1.data)

    def test_m2_equals_m1_cancels(self, rng):
        p = _tiny_nrm(rng)
        m1 = Tensor(rng.normal((1, 3, 2, 2, 2)))
        cap = {}
        nrm_forward(p, self._features(rng), m1, capture=cap)
        # inject m2 == m1 by hand and check the subtraction contract
        diff = (m1 - m1).data
        npt.assert_array_equal(diff, np.zeros_like(m1.data))
        npt.assert_array_equal(cap["m_hat"].data, m1.data - cap["m2"].data)

    def test_subtraction_is_exact_elementwise(self, rng):
        p = _tiny_nrm(rng)
        m1 = Tensor(rng.normal((1, 3, 2, 2, 2)))
        cap = {}
        m_hat = nrm_forward(p, self._features(rng), m1, capture=cap)
        npt.assert_array_equal(m_hat.data, m1.data - cap["m2"].data)
        # reconstruction: m_hat + m2 == m1 exactly
        npt.assert_array_equal(m_hat.data + cap["m2"].data, m1.data)

    def test_all_captured_shapes_equal_bottleneck(self, rng):
        p = _tiny_nrm(rng)
        m1 = Tensor(rng.normal((1, 3, 2, 2, 2)))
        cap = {}
        nrm_forward(p, self._features(rng), m1, capture=cap)
        for e in cap["e_list"]:
            assert e.shape == m1.shape
        assert cap["e_hat"].shape == m1.shape
        assert cap["m2"].shape == m1.shape
        assert cap["m_hat"].shape == m1.shape

    def test_lambda_grads_nonzero(self, rng):
        p = _tiny_nrm(rng)
        feats = [Tensor(rng.normal((1, 2, 4, 4, 4)), requires_grad=True),
                 Tensor(rng.normal((1, 3, 2, 2, 2)), requires_grad=True)]
        m1 = Tensor(rng.normal((1, 3, 2, 2, 2)), requires_grad=True)
        out = nrm_forward(p, feats, m1)
        (out * out).sum().backward()
        assert p.lambdas.grad is not None
        assert np.all(np.abs(p.lambdas.grad) > 0)

    def test_gradients_fd(self, f64_mode):
        r = Rng(3)
        p = _tiny_nrm(r)
        feats = [Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True),
                 Tensor(r.normal((1, 3, 2, 2, 2)), requires_grad=True)]
        m1 = Tensor(r.normal((1, 3, 2, 2, 2)), requires_grad=True)
        wiggle = [feats[0], m1, p.lambdas, p.downsample[0].weight, p.m2.a_log]
        rel, _ = finite_difference_check(lambda: nrm_forward(p, feats, m1),
                                         wiggle, rel_tol=1e-6, seed=7)
        assert rel < 1e-6


class TestParamCount:
    def test_disabled_module_counts_zero(self):
        assert nrm_param_count(None) == 0

    def test_toy_config_hand_ledger(self, rng):
        stages = (2, 3)
        bottleneck = 3
        p = _tiny_nrm(rng, stages, bottleneck)
        # 1x1x1 convs: (C_i * C' + C') each; lambdas: one per stage
        expect = sum(c * bottleneck + bottleneck for c in stages)
        expect += len(stages)
        expect += mamba_param_count(p.m2)
        assert nrm_param_count(p) == expect
