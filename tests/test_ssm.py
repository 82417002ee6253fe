import math
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from diffumamba import ssm
from diffumamba import tensor as T
from diffumamba.nnops import normalize, silu
from diffumamba.oracles import (finite_difference_check, kernel_apply, lti_scan,
                                ssm_kernel, zoh_discretize)
from diffumamba.ssm import (PHI_SERIES_CUTOFF, causal_depthwise_conv1d,
                            init_mamba_block, mamba_block, mamba_param_count,
                            selective_scan_t, _token_layer_norm)
from diffumamba.tensor import Rng, ShapeError, Tensor


def taped_expm1(u):
    """expm1 as a tape op: the oracle forms e^u and phi from it, as the
    fused scan does."""
    em1 = np.expm1(u.data)
    return T.make_op(em1, (u,), "expm1", lambda g: u._accumulate(g * (em1 + 1.0)))


def taped_phi(u, em1):
    """phi(u) = expm1(u)/u on the tape, and its Taylor series through u^8
    below the cutoff, so that autodiff gives phi' the same series branch
    as the fused scan."""
    small = np.abs(u.data) < PHI_SERIES_CUTOFF
    # coefficients 1/(m+1)! in u's dtype: a bare float would take the default
    series = Tensor(1.0 / math.factorial(9), dtype=u.dtype)
    for m in range(7, -1, -1):
        series = series * u + Tensor(1.0 / math.factorial(m + 1), dtype=u.dtype)
    return T.where(small, series, em1 / T.where(small, 1.0, u))


def taped_selective_scan(x, dt, b_sel, c_sel, a):
    """Reference oracle for ``selective_scan_t``: the recurrence unrolled
    per token into elementary tape ops, so autodiff derives its adjoint."""
    bsz, length, ch = x.shape
    n = a.shape[1]
    a_r = a.reshape((1, ch, n))
    h = T.zeros((bsz, ch, n), dtype=x.dtype)
    ys = []
    for t in range(length):
        d_t = dt.narrow(1, t, 1).reshape((bsz, ch, 1))
        x_t = x.narrow(1, t, 1).reshape((bsz, ch, 1))
        b_t = b_sel.narrow(1, t, 1).reshape((bsz, 1, n))
        c_t = c_sel.narrow(1, t, 1).reshape((bsz, 1, n))
        u = d_t * a_r
        em1 = taped_expm1(u)
        h = (em1 + 1.0) * h + (d_t * taped_phi(u, em1)) * b_t * x_t
        ys.append((h * c_t).sum(axis=2).reshape((bsz, 1, ch)))
    return T.concat(ys, axis=1)


def taped_causal_conv1d(x, weight, bias):
    """Reference oracle for ``causal_depthwise_conv1d``: zero-pad the
    token axis, then one taped multiply-add per kernel tap."""
    width = weight.shape[1]
    length = x.shape[1]
    xp = T.pad(x, ((0, 0), (width - 1, 0), (0, 0)))
    acc = None
    for k in range(width):
        seg = xp.narrow(1, k, length)
        w_k = weight.narrow(1, k, 1).reshape((weight.shape[0],))
        term = seg * w_k
        acc = term if acc is None else acc + term
    return acc + bias


def token_layer_norm_reference(t, gamma, beta, eps=1e-5):
    """The 11-node autodiff composition of the token LayerNorm, kept as
    the reference for the one-node ``_token_layer_norm``."""
    mean = t.mean(axis=2, keepdims=True)
    centered = t - mean
    var = (centered * centered).mean(axis=2, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def scan64(x, dt, b_sel, c_sel, a):
    """``selective_scan_t`` on plain arrays in f64; returns y (B, L, C)."""
    return selective_scan_t(*(Tensor(v, dtype=np.float64)
                              for v in (x, dt, b_sel, c_sel, a))).data


def hand_selective_scan(x, dt, b_sel, c_sel, a):
    """Per-row, per-channel NumPy loop of the ZOH selective recursion."""
    bsz, L, C = x.shape
    y = np.zeros((bsz, L, C))
    for bi in range(bsz):
        for ch in range(C):
            h = np.zeros(a.shape[1])
            for t in range(L):
                u = dt[bi, t, ch] * a[ch]
                phi = np.where(u == 0, 1.0, np.expm1(u) / np.where(u == 0, 1.0, u))
                h = np.exp(u) * h + dt[bi, t, ch] * phi * b_sel[bi, t] * x[bi, t, ch]
                y[bi, t, ch] = h @ c_sel[bi, t]
    return y


def _random_scan_inputs(r, bsz, L, C, N):
    """Selective (per-token) x, dt, b, c and a stable a, as f64 arrays."""
    a = -np.exp(r.normal((C, N), dtype=np.float64))
    dt = np.exp(r.normal((bsz, L, C), dtype=np.float64) - 1.5)
    return [r.normal((bsz, L, C), dtype=np.float64), dt,
            r.normal((bsz, L, N), dtype=np.float64),
            r.normal((bsz, L, N), dtype=np.float64), a]


def _tape_nodes(root):
    """Number of nodes with a backward closure reachable from ``root``."""
    seen, todo, count = set(), [root], 0
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward_fn is not None
        todo.extend(node._parents)
    return count


class TestZohDiscretize:
    def test_scalar_closed_form(self):
        abar, bbar = zoh_discretize(-1.0, 1.0, 0.1)
        npt.assert_allclose(abar, 0.9048374180, rtol=1e-9)
        npt.assert_allclose(bbar, 0.0951625820, rtol=1e-8)

    def test_delta_to_zero_limit(self):
        abar, bbar = zoh_discretize(-2.0, 1.5, 1e-9)
        npt.assert_allclose(abar, 1.0, atol=1e-8)
        npt.assert_allclose(bbar, 1.5e-9, rtol=1e-6)

    def test_a_zero_fallback_is_exact(self):
        abar, bbar = zoh_discretize(0.0, 2.0, 0.25)
        assert abar == 1.0
        assert bbar == 0.5   # delta * b exactly

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            zoh_discretize(-1.0, 1.0, 0.0)

    def test_series_matches_exact_at_cutoff(self):
        # expm1(u)/u on both sides of |u| = 1e-4, where a 1 + u/2 branch
        # used to switch in
        for u in (9.9e-5, 1.01e-4):
            abar, bbar = zoh_discretize(-1.0, 1.0, u)
            expect = u * (np.expm1(-u)) / (-u)
            npt.assert_allclose(bbar, expect, rtol=1e-8)

    def test_broadcasts_over_channel_state(self, rng):
        a = -np.exp(rng.normal((3, 4), dtype=np.float64))
        abar, bbar = zoh_discretize(a, np.ones(4), 0.3)
        assert abar.shape == (3, 4) and bbar.shape == (3, 4)


class TestSsmScan:
    """The recurrence as ``selective_scan_t`` computes it."""

    def test_hand_recursion(self):
        ones = np.ones((1, 3, 1))
        y = scan64(ones, ones, ones, ones, np.zeros((1, 1)))
        npt.assert_array_equal(y[0, :, 0], [1.0, 2.0, 3.0])

    def test_zero_input_zero_output(self, rng):
        x, dt, bs, cs, a = _random_scan_inputs(rng, 2, 8, 3, 4)
        npt.assert_array_equal(scan64(np.zeros_like(x), dt, bs, cs, a), np.zeros_like(x))

    def test_strictly_causal(self, rng):
        x, dt, bs, cs, a = _random_scan_inputs(rng, 2, 10, 2, 3)
        y = scan64(x, dt, bs, cs, a)
        x2 = x.copy()
        x2[:, -1] += 100.0
        y2 = scan64(x2, dt, bs, cs, a)
        npt.assert_array_equal(y[:, :-1], y2[:, :-1])
        assert np.all(y[:, -1] != y2[:, -1])

    def test_selective_tokens_hand_loop(self, rng):
        # per-token b, c, delta against an explicit reference recursion
        x, dt, bs, cs, a = _random_scan_inputs(rng, 1, 6, 2, 3)
        npt.assert_allclose(scan64(x, dt, bs, cs, a), hand_selective_scan(x, dt, bs, cs, a),
                            rtol=1e-12)

    def test_state_bounded_under_bounded_input(self, rng):
        a = -np.exp(rng.normal((1, 4), dtype=np.float64))
        y = lti_scan(a, rng.normal((4,), dtype=np.float64),
                     rng.normal((4,), dtype=np.float64), 1.0, np.ones((512, 1)))
        assert np.all(np.isfinite(y))
        assert np.abs(y[256:]).max() <= np.abs(y).max() + 1e-9  # settled, no blow-up


class TestSsmKernel:
    def test_unit_kernel(self):
        kernel = ssm_kernel(np.zeros((1, 1)), np.ones(1), np.ones(1), 1.0, 3)
        npt.assert_array_equal(kernel.ravel(), [1.0, 1.0, 1.0])

    def test_term_by_term_oracle(self, rng):
        n = 3
        a = -np.exp(rng.normal((1, n), dtype=np.float64))
        b = rng.normal((n,), dtype=np.float64)
        c = rng.normal((n,), dtype=np.float64)
        abar, bbar = zoh_discretize(a, b[None, :], 0.4)
        m = 5
        expect = [float((c * (abar[0] ** i) * bbar[0]).sum()) for i in range(m)]
        npt.assert_allclose(ssm_kernel(a, b, c, 0.4, m)[:, 0], expect, rtol=1e-12)

    def test_kernel_conv_equals_scan(self):
        args = (np.zeros((1, 1)), np.ones(1), np.ones(1), 1.0)
        x = np.ones((3, 1))
        npt.assert_allclose(kernel_apply(ssm_kernel(*args, 3), x), lti_scan(*args, x),
                            rtol=1e-12)

    def test_zero_output_map(self):
        kernel = ssm_kernel(-np.ones((1, 2)), np.ones(2), np.zeros(2), 0.7, 4)
        npt.assert_array_equal(kernel, np.zeros((4, 1)))

    @pytest.mark.parametrize("seed", range(8))
    def test_lti_equivalence_random(self, seed):
        r = Rng(seed)
        n, ch, L = 4, 3, 48
        a = -np.exp(r.normal((ch, n), dtype=np.float64))
        b = r.normal((n,), dtype=np.float64)
        c = r.normal((n,), dtype=np.float64)
        delta = float(np.exp(r.uniform(-3.0, 0.0)))
        x = r.normal((L, ch), dtype=np.float64)
        diff = np.abs(lti_scan(a, b, c, delta, x)
                      - kernel_apply(ssm_kernel(a, b, c, delta, L), x)).max()
        assert diff < 1e-5

    def test_stability_abar_below_one(self, rng):
        a = -np.exp(rng.normal((5, 6), dtype=np.float64))
        for delta in (1e-3, 0.1, 1.0, 10.0):
            abar, _ = zoh_discretize(a, np.ones(6), delta)
            assert np.all(np.abs(abar) < 1.0)


class TestSelectiveScanTape:
    def test_matches_numpy_scan(self, rng):
        # batched per-token b, c, dt: each row is its own recursion
        x, dt, bs, cs, a = _random_scan_inputs(rng, 2, 6, 3, 2)
        y = scan64(x, dt, bs, cs, a)
        npt.assert_allclose(y, hand_selective_scan(x, dt, bs, cs, a), rtol=1e-12)
        for bi in range(x.shape[0]):
            row = [v[bi:bi + 1] for v in (x, dt, bs, cs)]
            npt.assert_allclose(y[bi:bi + 1], scan64(*row, a), rtol=1e-12)

    def test_gradients(self, f64_mode):
        r = Rng(4)
        bsz, L, C, N = 1, 4, 2, 2
        a = Tensor(-np.exp(r.normal((C, N), dtype=np.float64)), requires_grad=True)
        dt = Tensor(np.exp(r.normal((bsz, L, C), dtype=np.float64) - 1), requires_grad=True)
        bs = Tensor(r.normal((bsz, L, N)), requires_grad=True)
        cs = Tensor(r.normal((bsz, L, N)), requires_grad=True)
        x = Tensor(r.normal((bsz, L, C)), requires_grad=True)
        rel, _ = finite_difference_check(lambda: selective_scan_t(x, dt, bs, cs, a),
                                         [x, dt, bs, cs, a], rel_tol=1e-6, seed=4)
        assert rel < 1e-6

    def test_gradients_series_branch(self, f64_mode):
        # every |dt * a| below the cutoff: checks the phi' = 1/2 adjoint
        r = Rng(5)
        bsz, L, C, N = 1, 4, 2, 2
        a = Tensor(-np.exp(r.normal((C, N), dtype=np.float64)), requires_grad=True)
        dt = Tensor(r.uniform(2e-6, 1e-5, (bsz, L, C), dtype=np.float64), requires_grad=True)
        assert np.all(np.abs(dt.data[..., None] * a.data) < PHI_SERIES_CUTOFF)
        bs = Tensor(r.normal((bsz, L, N)), requires_grad=True)
        cs = Tensor(r.normal((bsz, L, N)), requires_grad=True)
        x = Tensor(r.normal((bsz, L, C)), requires_grad=True)
        rel, _ = finite_difference_check(lambda: selective_scan_t(x, dt, bs, cs, a),
                                         [x, dt, bs, cs, a], rel_tol=1e-6, seed=5)
        assert rel < 1e-6


def _phi_series(u):
    """(e^u, phi(u), phi'(u)) from the scan's block helpers, each written
    into a fresh buffer."""
    e, phi, dphi = (np.empty_like(u) for _ in range(3))
    ssm._exp_phi(u, e, phi)
    ssm._dphi(u, e, phi, dphi)
    return e, phi, dphi


class TestPhi:
    """phi(u) = expm1(u)/u and phi'(u) as the fused scan forms them."""

    def test_f32_against_f64_expm1(self):
        # a log grid of |u| over [1e-7, 1], both signs: f32 (e - phi)/u
        # cancels just above the series cutoff unless the series covers it
        mag = np.exp(np.linspace(np.log(1e-7), 0.0, 4001))
        u64 = np.concatenate([-mag, mag])
        phi_ref = np.expm1(u64) / u64
        dphi_ref = (np.exp(u64) - phi_ref) / u64      # f64: within 3e-9 here
        u = u64.astype(np.float32)
        e, phi, dphi = _phi_series(u)
        assert phi.dtype == dphi.dtype == np.float32
        assert np.abs(phi / phi_ref - 1).max() < 1e-6
        assert np.abs(dphi / dphi_ref - 1).max() < 1e-4
        assert np.abs(e / np.exp(u64) - 1).max() < 1e-6

    def test_zero_is_the_limit(self):
        for dtype in (np.float32, np.float64):
            u = np.array([0.0, -0.0], dtype=dtype)
            e, phi, dphi = _phi_series(u)
            npt.assert_array_equal(e, 1.0)
            npt.assert_array_equal(phi, 1.0)
            npt.assert_array_equal(dphi, 0.5)


class TestSelectiveScanFused:
    """The fused op against the per-token taped oracle."""

    @staticmethod
    def _inputs(shape, dtype, seed):
        bsz, L, C, N = shape
        r = Rng(seed)
        a = -np.exp(r.normal((C, N), dtype=np.float64))
        # log-uniform dt over [1e-7, 1]: both sides of the phi series cutoff
        dt = np.exp(r.uniform(np.log(1e-7), 0.0, (bsz, L, C), dtype=np.float64))
        dt.reshape(-1)[0] = 1e-7
        dt.reshape(-1)[-1] = 0.5
        arrays = [r.normal((bsz, L, C), dtype=np.float64), dt,
                  r.normal((bsz, L, N), dtype=np.float64),
                  r.normal((bsz, L, N), dtype=np.float64), a]
        return [Tensor(v, requires_grad=True, dtype=dtype) for v in arrays]

    @staticmethod
    def _rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    def _check_against_oracle(self, arrays, dtype, tol, seed):
        """y and all five gradients of the fused op against the taped
        oracle, under a random projection of y."""
        fused_in = [Tensor(v, requires_grad=True, dtype=dtype) for v in arrays]
        taped_in = [Tensor(v, requires_grad=True, dtype=dtype) for v in arrays]
        y = selective_scan_t(*fused_in)
        y_ref = taped_selective_scan(*taped_in)
        assert y.dtype == y_ref.dtype == dtype
        proj = Rng(seed).normal(y.shape, dtype=dtype)
        (y * Tensor(proj, dtype=dtype)).sum().backward()
        (y_ref * Tensor(proj, dtype=dtype)).sum().backward()
        assert self._rel(y.data, y_ref.data) < tol
        for name, t, t_ref in zip("x dt b c a".split(), fused_in, taped_in):
            assert t.grad.shape == t_ref.grad.shape
            assert self._rel(t.grad, t_ref.grad) < tol, name

    @classmethod
    def _arrays(cls, shape, seed):
        """The inputs as f64 arrays, for cases that edit them first."""
        return [v.data for v in cls._inputs(shape, np.float64, seed)]

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("shape", [(2, 1, 3, 2), (2, 9, 3, 4), (2, 64, 8, 4)],
                             ids=["L1", "L9", "L64"])
    def test_matches_taped_oracle(self, shape, dtype, tol):
        arrays = self._arrays(shape, seed=sum(shape))
        u = arrays[1][..., None] * arrays[4]
        small = np.abs(u) < PHI_SERIES_CUTOFF
        assert small.any() and (~small).any()
        self._check_against_oracle(arrays, dtype, tol, seed=7)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    def test_series_branch_edges(self, dtype, tol):
        # state 0 has a = 0, so u = 0 exactly; in channel 0, state 1 has
        # a = -1 and dt a hair below or above the cutoff on alternate tokens,
        # so |u| straddles the branch switch
        bsz, L, C, N = 2, 12, 3, 4
        arrays = self._arrays((bsz, L, C, N), 11)
        arrays[4][:, 0] = 0.0
        arrays[4][0, 1] = -1.0
        arrays[1][:, 0::2, 0] = PHI_SERIES_CUTOFF * 0.999
        arrays[1][:, 1::2, 0] = PHI_SERIES_CUTOFF * 1.001
        u = arrays[1][..., None] * arrays[4]
        assert np.all(u[..., 0] == 0)
        assert np.all(np.abs(u[:, 0::2, 0, 1]) < PHI_SERIES_CUTOFF)
        assert np.all(np.abs(u[:, 1::2, 0, 1]) >= PHI_SERIES_CUTOFF)
        self._check_against_oracle(arrays, dtype, tol, seed=8)

    # B = 3 and token counts that are no multiple of the tokens per block:
    # (shape, SCAN_BLOCK), with the block lengths that gives
    BLOCKED = [((3, 23, 3, 4), 36 * 5),                 # 5, 5, 5, 5, 3
               ((3, 7, 2, 2), 12 * 2),                  # 2, 2, 2, 1
               ((3, 6, 2, 3), 18 * 4),                  # 4, 2
               ((1, 5, 2, 2), 1),                       # 1 token per block
               ((3, 100, 64, 4), ssm.SCAN_BLOCK)]       # the module's own: 42, 42, 16

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("shape, block", BLOCKED,
                             ids=["L23-per5", "L7-per2", "L6-per4", "L5-per1", "L100-default"])
    def test_blocks_carry_state_and_adjoint(self, monkeypatch, shape, block, dtype, tol):
        # several blocks with a ragged last one: the forward carries h and
        # the backward carries dh across every block edge
        monkeypatch.setattr(ssm, "SCAN_BLOCK", block)
        bsz, length, ch, n = shape
        blocks, step = ssm._token_blocks(length, bsz * n * ch)
        assert len(blocks) > 1 and blocks[-1][1] == length
        assert step == 1 or length % step
        self._check_against_oracle(self._arrays(shape, seed=sum(shape)), dtype, tol, seed=9)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    def test_series_straddle_at_block_edge(self, monkeypatch, dtype, tol):
        # 4 tokens per block; in channel 0, state 1 (a = -1) the last token
        # of each block sits a hair below the cutoff and the first token of
        # the next a hair above, so the series switch meets the block edge
        bsz, length, ch, n = 2, 13, 3, 4
        monkeypatch.setattr(ssm, "SCAN_BLOCK", 4 * bsz * n * ch)
        assert [t0 for t0, _ in ssm._token_blocks(length, bsz * n * ch)[0]] == [0, 4, 8, 12]
        arrays = self._arrays((bsz, length, ch, n), seed=12)
        arrays[4][0, 1] = -1.0
        arrays[1][:, 3::4, 0] = PHI_SERIES_CUTOFF * 0.999
        arrays[1][:, 4::4, 0] = PHI_SERIES_CUTOFF * 1.001
        u = arrays[1][..., None] * arrays[4]
        assert np.all(np.abs(u[:, 3::4, 0, 1]) < PHI_SERIES_CUTOFF)
        assert np.all(np.abs(u[:, 4::4, 0, 1]) >= PHI_SERIES_CUTOFF)
        self._check_against_oracle(arrays, dtype, tol, seed=10)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    def test_one_dt_exactly_zero(self, monkeypatch, dtype, tol):
        # min|dt| * min|a| is 0, so the u == 0 pass runs, in the middle
        # block of three; the zero dt gives phi = 1 in all four states
        monkeypatch.setattr(ssm, "SCAN_BLOCK", 3 * 2 * 4 * 3)
        arrays = self._arrays((2, 8, 3, 4), seed=13)
        arrays[1][1, 4, 2] = 0.0
        assert np.count_nonzero(arrays[1][..., None] * arrays[4] == 0) == 4
        self._check_against_oracle(arrays, dtype, tol, seed=11)

    def test_one_tape_node(self):
        inputs = self._inputs((2, 9, 3, 4), np.float32, seed=3)
        y = selective_scan_t(*inputs)
        assert _tape_nodes(y) == 1 and y._parents == tuple(inputs)

    def test_tape_keeps_states_only(self):
        # f32 at the long-sequence size: the node retains the states h, one
        # full-size array; u, exp(u) and phi live in block buffers
        bsz, L, C, N = 2, 512, 64, 8
        inputs = self._inputs((bsz, L, C, N), np.float32, seed=5)
        full = bsz * L * C * N * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = selective_scan_t(*inputs)
            retained = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        assert retained <= 1.25 * full, retained / full

    def test_backward_temporaries_stay_in_blocks(self):
        # the backward closure's peak: its five gradients, which it hands
        # over, plus the block buffers, under half a full-size array
        bsz, L, C, N = 2, 512, 64, 8
        inputs = self._inputs((bsz, L, C, N), np.float32, seed=6)
        y = selective_scan_t(*inputs)
        g = Rng(6).normal(y.shape, dtype=np.float32)
        full = bsz * L * C * N * np.dtype(np.float32).itemsize
        grads = sum(t.data.nbytes for t in inputs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for t in inputs)
        assert peak <= grads + 0.5 * full, (peak - grads) / full

    def test_no_grad_records_no_tape(self):
        inputs = self._inputs((2, 9, 3, 4), np.float32, seed=3)
        with T.no_grad():
            y = selective_scan_t(*inputs)
        assert not y.requires_grad and y._parents == () and y._backward_fn is None


    @pytest.mark.parametrize("shape, block", BLOCKED[:3],
                             ids=["L23-per5", "L7-per2", "L6-per4"])
    def test_no_grad_carries_state_too(self, monkeypatch, shape, block):
        # without a tape the states live in one block buffer, and the last
        # one is carried over: y is bit-equal to the taped forward's
        monkeypatch.setattr(ssm, "SCAN_BLOCK", block)
        inputs = self._inputs(shape, np.float64, seed=sum(shape))
        with T.no_grad():
            y = selective_scan_t(*inputs)
        npt.assert_array_equal(y.data, selective_scan_t(*inputs).data)

    def test_threads_match_serial(self):
        # forward passes over disjoint inputs share no buffer: two threads
        # scanning their own inputs over and over give the serial outputs
        shapes = [(2, 100, 64, 4), (3, 77, 32, 8)]
        inputs = [self._inputs(shape, np.float32, seed=20 + i) for i, shape in enumerate(shapes)]
        with T.no_grad():
            serial = [selective_scan_t(*v).data for v in inputs]
        results = [[], []]

        def work(i):
            with T.no_grad():
                for _ in range(20):
                    results[i].append(selective_scan_t(*inputs[i]).data)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for want, got in zip(serial, results):
            assert len(got) == 20
            for y in got:
                npt.assert_array_equal(y, want)


class TestCausalConv1d:
    def test_matches_manual_conv(self, rng):
        bsz, L, C, width = 1, 6, 2, 3
        x = rng.normal((bsz, L, C), dtype=np.float64)
        w = rng.normal((C, width), dtype=np.float64)
        b = rng.normal((C,), dtype=np.float64)
        out = causal_depthwise_conv1d(Tensor(x, dtype=np.float64),
                                      Tensor(w, dtype=np.float64),
                                      Tensor(b, dtype=np.float64))
        expect = np.zeros((bsz, L, C))
        for t in range(L):
            for k in range(width):
                src = t + k - (width - 1)
                if src >= 0:
                    expect[:, t, :] += x[:, src, :] * w[:, k]
        expect += b
        npt.assert_allclose(out.data, expect, rtol=1e-12)

    @pytest.mark.parametrize("width, length", [(1, 5), (2, 5), (3, 7), (4, 6), (3, 2),
                                               (4, 1), (4, 3)])
    def test_matches_taped_oracle(self, width, length):
        r = Rng(10 * width + length)
        arrays = [r.normal((2, length, 3), dtype=np.float64),
                  r.normal((3, width), dtype=np.float64), r.normal((3,), dtype=np.float64)]
        fused_in = [Tensor(v, requires_grad=True, dtype=np.float64) for v in arrays]
        taped_in = [Tensor(v, requires_grad=True, dtype=np.float64) for v in arrays]
        y = causal_depthwise_conv1d(*fused_in)
        y_ref = taped_causal_conv1d(*taped_in)
        npt.assert_allclose(y.data, y_ref.data, rtol=0, atol=1e-12 * np.abs(y_ref.data).max())
        proj = Tensor(r.normal(y.shape, dtype=np.float64), dtype=np.float64)
        (y * proj).sum().backward()
        (y_ref * proj).sum().backward()
        for name, t, t_ref in zip(("x", "w", "b"), fused_in, taped_in):
            scale = np.abs(t_ref.grad).max()
            npt.assert_allclose(t.grad, t_ref.grad, rtol=0, atol=1e-12 * scale, err_msg=name)

    def test_one_tape_node(self, rng):
        x = Tensor(rng.normal((2, 6, 3)), requires_grad=True)
        w = Tensor(rng.normal((3, 3)), requires_grad=True)
        b = Tensor(rng.normal((3,)), requires_grad=True)
        y = causal_depthwise_conv1d(x, w, b)
        assert _tape_nodes(y) == 1 and y._parents == (x, w, b)

    def test_causality(self, rng):
        x = rng.normal((1, 5, 2))
        w = Tensor(rng.normal((2, 3)))
        b = Tensor(np.zeros(2))
        out1 = causal_depthwise_conv1d(Tensor(x), w, b).data.copy()
        x2 = x.copy()
        x2[0, -1] += 10
        out2 = causal_depthwise_conv1d(Tensor(x2), w, b).data
        npt.assert_array_equal(out1[:, :-1], out2[:, :-1])


class TestTokenLayerNorm:
    """``_token_layer_norm``: ``normalize`` over the channels of each token."""

    @staticmethod
    def _run(norm, x, gamma, beta, g):
        xt, gt, bt = (Tensor(v, requires_grad=True) for v in (x, gamma, beta))
        y = norm(xt, gt, bt)
        (y * Tensor(g)).sum().backward()
        return y, xt.grad, gt.grad, bt.grad

    # the longseq and desk mamba inputs, a short odd one and one channel
    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    @pytest.mark.parametrize("shape", [(2, 512, 32), (2, 8, 128), (3, 5, 7), (2, 4, 1)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_matches_composition(self, shape, dtype, tol):
        T.set_default_dtype(dtype)
        r = Rng(sum(shape))
        x = r.normal(shape) * 3 + 1
        gamma, beta = r.normal(shape[2:]), r.normal(shape[2:])
        g = r.normal(shape)
        got = self._run(_token_layer_norm, x, gamma, beta, g)
        want = self._run(token_layer_norm_reference, x, gamma, beta, g)
        # the forward is the composition's arithmetic, op for op
        npt.assert_array_equal(got[0].data, want[0].data)
        for name, a, e in zip(("x", "gamma", "beta"), got[1:], want[1:]):
            assert a.shape == e.shape and a.dtype == e.dtype, name
            err = np.abs(a - e).max()
            assert err <= tol * max(np.abs(e).max(), 1e-30), f"{name}: error {err:.2e}"

    def test_one_tape_node(self, rng):
        x = Tensor(rng.normal((2, 6, 4)), requires_grad=True)
        g = Tensor(rng.normal((4,)), requires_grad=True)
        b = Tensor(rng.normal((4,)), requires_grad=True)
        y = _token_layer_norm(x, g, b)
        assert y._parents == (x, g, b) and _tape_nodes(y) == 1

    def test_gradients(self, f64_mode):
        r = Rng(6)
        x = Tensor(r.normal((2, 3, 5)), requires_grad=True)
        g = Tensor(r.normal((5,)), requires_grad=True)
        b = Tensor(r.normal((5,)), requires_grad=True)
        rel, _ = finite_difference_check(lambda: _token_layer_norm(x, g, b), [x, g, b],
                                         rel_tol=1e-6, seed=6)
        assert rel < 1e-6

    def test_eps_is_the_only_default(self):
        # TestLambdaScale sets eps through this tuple
        assert _token_layer_norm.__defaults__ == (1e-5,)

    @pytest.mark.parametrize("axes, channel_axis, width", [
        ((1,), 2, 4),        # axes that are not trailing
        ((1, 2), 2, 4),      # the channel axis among several normalized ones
        ((2,), 0, 2),        # a channel axis that is not just before the axes
        ((2,), 2, 3),        # gamma of the wrong length for axis 2
    ])
    def test_normalize_rejects_other_layouts(self, axes, channel_axis, width):
        x = Tensor(np.ones((2, 3, 4)))
        gamma = Tensor(np.ones(width))
        with pytest.raises(ShapeError):
            normalize(x, axes, gamma, gamma, 1e-5, channel_axis=channel_axis)


class TestMambaBlock:
    def test_output_shape_preserved(self, rng):
        p = init_mamba_block(rng, channels=4)
        x = Tensor(rng.normal((1, 4, 4, 4, 4)))
        assert mamba_block(x, p).shape == (1, 4, 4, 4, 4)

    def test_zero_input_zero_biases_zero_output(self, rng):
        p = init_mamba_block(rng, channels=3)
        for t in (p.in_x_b, p.in_z_b, p.conv_b, p.dt_bias, p.out_b, p.norm_beta):
            t.data[...] = 0.0
        out = mamba_block(T.zeros((2, 3, 2, 2, 2)), p)
        npt.assert_array_equal(out.data, np.zeros((2, 3, 2, 2, 2)))

    def test_saturated_gate_two_path_composition(self, rng):
        # force the gate input large so SiLU(z) ~= z, then reproduce the
        # block output by composing the two paths manually
        p = init_mamba_block(rng, channels=2, n_state=2)
        p.in_z_w.data[...] = 0.0
        p.in_z_b.data[...] = 25.0   # silu(25) = 25 to float precision
        x = Tensor(rng.normal((1, 2, 2, 2, 1)))
        out = mamba_block(x, p)

        tokens = x.permute(0, 2, 3, 4, 1).reshape((1, 4, 2))
        tokens = _token_layer_norm(tokens, p.norm_gamma, p.norm_beta)
        xa = silu(causal_depthwise_conv1d(
            tokens.matmul(p.in_x_w) + p.in_x_b, p.conv_w, p.conv_b))
        proj = xa.matmul(p.x_proj_w)
        r, n = p.dt_rank, p.n_state
        dt = T.softplus(proj.narrow(2, 0, r).matmul(p.dt_w) + p.dt_bias)
        y = selective_scan_t(xa, dt, proj.narrow(2, r, n), proj.narrow(2, r + n, n),
                             -T.exp(p.a_log))
        manual = (y * 25.0).matmul(p.out_w) + p.out_b
        manual = manual.reshape((1, 2, 2, 1, 2)).permute(0, 4, 1, 2, 3)
        npt.assert_allclose(out.data, manual.data, atol=1e-3)

    def test_selective_delta_positive(self, rng):
        p = init_mamba_block(rng, channels=4)
        x = Tensor(rng.normal((1, 4, 2, 2, 2)) * 10)
        tokens = x.permute(0, 2, 3, 4, 1).reshape((1, 8, 4))
        tokens = _token_layer_norm(tokens, p.norm_gamma, p.norm_beta)
        xa = silu(causal_depthwise_conv1d(
            tokens.matmul(p.in_x_w) + p.in_x_b, p.conv_w, p.conv_b))
        dt = T.softplus(xa.matmul(p.x_proj_w).narrow(2, 0, p.dt_rank).matmul(p.dt_w)
                        + p.dt_bias)
        assert np.all(dt.data > 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_f32(self, seed):
        r = Rng(seed)
        p = init_mamba_block(r, channels=3, n_state=2)
        x = Tensor(r.normal((1, 3, 2, 2, 2)), requires_grad=True)
        wiggle = [x, p.in_x_w, p.a_log, p.dt_bias, p.out_w, p.conv_w, p.norm_gamma]
        rel, _ = finite_difference_check(lambda: mamba_block(x, p), wiggle,
                                         rel_tol=1e-3, seed=seed)
        assert rel < 1e-3

    def test_gradients_f64(self, f64_mode):
        r = Rng(2)
        p = init_mamba_block(r, channels=3, n_state=2)
        x = Tensor(r.normal((1, 3, 2, 2, 2)), requires_grad=True)
        wiggle = [x, p.in_x_w, p.in_z_b, p.a_log, p.dt_bias, p.x_proj_w, p.dt_w]
        rel, _ = finite_difference_check(lambda: mamba_block(x, p), wiggle,
                                         rel_tol=1e-6, seed=6)
        assert rel < 1e-6

    def test_tape_size_flat_in_token_count(self, rng):
        p = init_mamba_block(rng, channels=2, n_state=2)
        counts = []
        for side in (2, 8):                       # L = 8 and L = 512 tokens
            x = Tensor(rng.normal((1, 2, side, side, side)), requires_grad=True)
            counts.append(_tape_nodes(mamba_block(x, p)))
        assert counts[0] == counts[1]

    def test_param_count_matches_field_sum(self, rng):
        p = init_mamba_block(rng, channels=4, n_state=3)
        total = sum(t.size for _, t in p.named("x"))
        assert mamba_param_count(p) == total > 0
