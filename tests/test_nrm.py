import numpy as np
import numpy.testing as npt
import pytest

from diffumamba import tensor as T
from diffumamba.oracles import finite_difference_check
from diffumamba.nnops import init_conv
from diffumamba.nrm import aggregate, downsample_stage, init_nrm, nrm_forward, nrm_param_count
from diffumamba.ssm import mamba_param_count
from diffumamba.tensor import Rng, ShapeError, Tensor


def _lambdas(n, value=0.5):
    return Tensor(np.full(n, value), requires_grad=True)


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
        r = Rng(3, "nrm-fd")
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
