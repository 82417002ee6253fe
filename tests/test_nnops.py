import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from diffumamba import nnops
from diffumamba import tensor as T
from diffumamba.oracles import conv_transpose_taps, finite_difference_check
from diffumamba.nnops import (ConvParams, ConvTransposeParams, adaptive_avg_pool3d,
                              conv3d, conv_output_shape, conv_transpose3d,
                              dice_ce_loss, init_conv, init_conv_transpose,
                              instance_norm, leaky_relu, relu, silu, softmax)
from diffumamba.tensor import NumericError, Rng, ShapeError, Tensor, make_op


def im2col_conv3d(x, p):
    """The im2col + single-GEMM conv3d with its col2im input adjoint,
    kept as the reference for the blocked ``conv3d``."""
    c_out, c_in, kd, kh, kw = p.weight.shape
    b, spatial = x.shape[0], x.shape[2:]
    out_spatial = conv_output_shape(spatial, (kd, kh, kw), p.stride, p.padding)
    do, ho, wo = out_spatial
    pd, ph, pw = p.padding
    sd, sh, sw = p.stride
    xp = np.pad(x.data, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    view = np.lib.stride_tricks.sliding_window_view(xp, (kd, kh, kw), axis=(2, 3, 4))
    # one row per output voxel: (B*Do*Ho*Wo, C_in*kd*kh*kw)
    cols = view[:, :, ::sd, ::sh, ::sw].transpose(0, 2, 3, 4, 1, 5, 6, 7).reshape(
        b * do * ho * wo, c_in * kd * kh * kw)
    w_mat = p.weight.data.reshape(c_out, -1)
    out = cols @ w_mat.T
    if p.bias is not None:
        out += p.bias.data
    out = out.reshape(b, do, ho, wo, c_out).transpose(0, 4, 1, 2, 3)
    weight, bias = p.weight, p.bias

    def backward(g):
        g_mat = g.transpose(0, 2, 3, 4, 1).reshape(-1, c_out)
        weight._accumulate((g_mat.T @ cols).reshape(weight.shape))
        if bias is not None:
            bias._accumulate(g_mat.sum(axis=0))
        dcols = (g_mat @ w_mat).reshape(b, do, ho, wo, c_in, kd, kh, kw)
        dxp = np.zeros_like(xp)
        for i in range(kd):
            for j in range(kh):
                for k in range(kw):
                    dxp[:, :, i:i + do * sd:sd, j:j + ho * sh:sh, k:k + wo * sw:sw] += \
                        dcols[:, :, :, :, :, i, j, k].transpose(0, 4, 1, 2, 3)
        x._accumulate(dxp[:, :, pd:pd + spatial[0], ph:ph + spatial[1], pw:pw + spatial[2]])

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_op(out, parents, "im2col_conv3d", backward)


def instance_norm_reference(x, gamma, beta, eps=nnops.EPS_NORM):
    """The 13-node autodiff composition of instance norm, kept as the
    reference for the one-node ``instance_norm``."""
    axes = (2, 3, 4)
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    xhat = centered / (var + eps).sqrt()
    c = x.shape[1]
    return xhat * gamma.reshape((1, c, 1, 1, 1)) + beta.reshape((1, c, 1, 1, 1))


def _conv(weight, bias=None, stride=(1, 1, 1), padding=(0, 0, 0)):
    return ConvParams(weight=Tensor(weight, requires_grad=True),
                      bias=None if bias is None else Tensor(bias, requires_grad=True),
                      stride=stride, padding=padding)


class TestConv3d:
    def test_identity_kernel(self, rng):
        c = 3
        w = np.zeros((c, c, 1, 1, 1), dtype=np.float32)
        for i in range(c):
            w[i, i, 0, 0, 0] = 1.0
        x = Tensor(rng.normal((2, c, 4, 4, 4)))
        out = conv3d(x, _conv(w, np.zeros(c)))
        npt.assert_array_equal(out.data, x.data)

    def test_all_ones_kernel_interior_sum(self):
        c_in = 2
        x = Tensor(np.ones((1, c_in, 5, 5, 5), dtype=np.float32))
        w = np.ones((1, c_in, 3, 3, 3), dtype=np.float32)
        out = conv3d(x, _conv(w, padding=(1, 1, 1)))
        # interior voxel sees the full 3^3 window over every channel
        assert out.data[0, 0, 2, 2, 2] == 27.0 * c_in
        # corner voxel (zero padding) sees only 2^3
        assert out.data[0, 0, 0, 0, 0] == 8.0 * c_in

    def test_direct_sum_oracle(self, rng):
        x = rng.normal((1, 2, 4, 4, 4), dtype=np.float64)
        w = rng.normal((3, 2, 3, 3, 3), dtype=np.float64)
        out = conv3d(Tensor(x, dtype=np.float64),
                     ConvParams(Tensor(w, dtype=np.float64), None,
                                stride=(1, 1, 1), padding=(1, 1, 1)))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        expect = np.zeros((1, 3, 4, 4, 4))
        for o in range(3):
            for d in range(4):
                for h in range(4):
                    for wi in range(4):
                        expect[0, o, d, h, wi] = (
                            xp[0, :, d:d + 3, h:h + 3, wi:wi + 3] * w[o]).sum()
        npt.assert_allclose(out.data, expect, rtol=1e-10)

    def test_output_shape_formula_and_stride(self):
        assert conv_output_shape((8, 9, 10), (3, 3, 3), (2, 2, 2), (1, 1, 1)) == (4, 5, 5)

    def test_degenerate_extent_raises(self):
        with pytest.raises(ShapeError, match="degenerate"):
            conv_output_shape((2, 2, 2), (5, 5, 5), (1, 1, 1), (0, 0, 0))

    def test_channel_mismatch(self, rng):
        p = _conv(rng.normal((2, 3, 1, 1, 1)))
        with pytest.raises(ShapeError, match="channel mismatch"):
            conv3d(Tensor(rng.normal((1, 4, 2, 2, 2))), p)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_same_padding_preserves_shape(self, rng, k):
        p = init_conv(rng, 2, 2, (k, k, k))
        out = conv3d(Tensor(rng.normal((1, 2, 6, 6, 6))), p)
        assert out.shape == (1, 2, 6, 6, 6)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_f32(self, seed):
        r = Rng(seed)
        x = Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True)
        p = init_conv(r, 2, 3, (3, 3, 3), stride=(2, 2, 2))
        rel, _ = finite_difference_check(lambda: conv3d(x, p),
                                         [x, p.weight, p.bias], rel_tol=1e-3, seed=seed)
        assert rel < 1e-3

    def test_gradients_f64(self, f64_mode):
        r = Rng(3)
        x = Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True)
        p = init_conv(r, 2, 2, (3, 3, 3))
        rel, _ = finite_difference_check(lambda: conv3d(x, p),
                                         [x, p.weight, p.bias], rel_tol=1e-6, seed=1)
        assert rel < 1e-6


class TestConv3dAgainstIm2col:
    """The blocked conv3d against the im2col oracle, on every shape class
    the network uses and on shapes that span several gather chunks."""

    # (B, C_in, spatial, C_out, k, stride, padding); k and padding are
    # one int for every axis or per-axis tuples
    CASES = [
        (2, 3, (6, 6, 6), 4, 3, 1, 1),      # residual conv
        (2, 3, (6, 6, 6), 4, 3, 2, 1),      # downsampling residual conv
        (2, 3, (6, 6, 6), 4, 3, 1, 0),      # no padding
        (2, 3, (6, 6, 6), 5, 1, 1, 0),      # head, NRM 1x1 downsampling
        (2, 3, (6, 6, 6), 5, 1, 2, 0),      # strided shortcut projection
        (2, 1, (6, 6, 6), 4, 3, 1, 1),      # C_in = 1 stem
        (2, 4, (2, 2, 2), 4, 3, 1, 1),      # 2^3 bottleneck
        (2, 4, (2, 2, 2), 4, 3, 2, 1),      # 2^3 bottleneck, strided
        (2, 3, (5, 6, 7), 4, 3, 2, 1),      # odd non-cubic extent
        (2, 3, (5, 6, 7), 4, 1, 2, 0),
        (2, 3, (6, 1, 5), 4, 3, 1, 1),      # H = 1: rows of one voxel's padding
        (2, 2, (5, 6, 1), 3, 3, 2, 1),      # W = 1, strided: a pitch of 1
        (3, 3, (7, 5, 9), 4, 3, 2, 1),      # strided, odd extents, B = 3
        (2, 3, (5, 6, 7), 4, 3, 1, 3),      # padding = k: dx reads g from an offset
        (2, 2, (6, 6, 6), 3, 4, 2, 1),      # even kernel: phases of unequal tap counts
        (2, 3, (5, 6, 7), 4, 2, 1, 1),      # even kernel at stride 1: output grows by one
        (2, 3, (6, 6, 6), 4, (3, 3, 1), 1, (1, 1, 0)),  # kw = 1: no shifted adds
        (2, 3, (6, 6, 6), 4, (1, 3, 3), 1, (0, 1, 1)),  # kd = 1: one plane shift
        (2, 3, (6, 6, 6), 4, (3, 1, 3), 1, (1, 0, 1)),  # kh = 1: one row shift
        (2, 3, (5, 6, 7), 4, (3, 3, 1), 1, 1),  # kw = 1 with pw = 1: padding past the kernel in W
        (2, 3, (5, 6, 7), 4, 3, 2, 3),      # strided, padding = k: so does every phase
        (2, 4, (22, 48, 48), 3, 3, 2, 1),   # strided, one 6875-anchor chunk per phase
        (2, 3, (6, 6, 6), 4, 3, 2, 0),      # strided without padding: the last voxel is never read
        (2, 3, (5, 6, 7), 4, 1, 2, 1),      # k < s with padding: one phase, odd voxels never read
        # stride 1 with fewer, as many and more output than input channels
        (2, 16, (12, 24, 24), 8, 3, 1, 1),  # 2C -> C decoder conv
        (1, 8, (6, 7, 5), 3, 3, 1, 0),      # C_in > C_out without padding, B = 1
        (3, 6, (5, 6, 7), 2, 3, 1, 1),      # B = 3
        (2, 4, (8, 8, 8), 8, 3, 1, 1),      # widening
        (2, 4, (11, 24, 24), 3, 3, 1, 1),
        (2, 16, (10, 14, 14), 4, 3, 1, 0),
        (1, 2, (9, 30, 30), 3, 3, 1, 1),
        # several chunks of anchors per sample, the last one partial
        (2, 4, (32, 64, 64), 3, 3, 2, 1),   # strided, the 16-row phases: 16384 + 1040
        (2, 1, (20, 32, 32), 8, 3, 1, 1),   # C_in = 1 stem, kw*C_out rows: 10922 + 10858
        (2, 4, (12, 30, 30), 3, 3, 1, 1),   # 7281 + 4251
        (2, 16, (14, 14, 14), 4, 3, 1, 0),  # C_in = 16 without padding: 1820 + 532
        (2, 8, (10, 20, 20), 16, 3, 1, 1),  # widening: 3640 + 770, dx in 1820-anchor chunks
        (1, 8, (9, 30, 30), 3, 3, 1, 1),    # 3640 + 3640 + 1369: the last taps read the tail
    ]
    MULTI_CHUNK = 6     # the last six cases
    STRIDED = [c for c in CASES if c[5] != 1]

    @staticmethod
    def _axes(v):
        return tuple(v) if isinstance(v, tuple) else (v,) * 3

    @staticmethod
    def _id(c):
        return "{}-k{}s{}p{}c{}".format("x".join(map(str, c[2])), *(
            "".join(map(str, v)) if isinstance(v, tuple) else v for v in c[4:7]), c[1])

    @classmethod
    def _run(cls, conv, x, w, bias, g, stride, padding, x_grad=True):
        xt = Tensor(x, requires_grad=x_grad)
        p = ConvParams(Tensor(w, requires_grad=True), Tensor(bias, requires_grad=True),
                       stride=cls._axes(stride), padding=cls._axes(padding))
        y = conv(xt, p)
        (y * Tensor(g)).sum().backward()
        return y.data, xt.grad, p.weight.grad, p.bias.grad

    @classmethod
    def _check(cls, case, tol, x_grad=True):
        b, c_in, spatial, c_out, k, stride, padding = case
        r = Rng(sum(spatial) + sum(cls._axes(k)) // 3 + stride)
        x = r.normal((b, c_in) + spatial)
        w = r.normal((c_out, c_in) + cls._axes(k))
        bias = r.normal((c_out,))
        out_spatial = conv_output_shape(spatial, cls._axes(k), cls._axes(stride),
                                        cls._axes(padding))
        g = r.normal((b, c_out) + out_spatial)
        got = cls._run(conv3d, x, w, bias, g, stride, padding, x_grad)
        want = cls._run(im2col_conv3d, x, w, bias, g, stride, padding)
        for name, a, e in zip(("out", "x", "weight", "bias"), got, want):
            if name == "x" and not x_grad:
                assert a is None
                continue
            assert a.shape == e.shape and a.dtype == e.dtype, name
            err = np.abs(a - e).max() / np.abs(e).max()
            assert err < tol, f"{name}: relative error {err:.2e}"

    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    @pytest.mark.parametrize("case", CASES, ids=_id)
    def test_matches_im2col(self, case, dtype, tol):
        T.set_default_dtype(dtype)
        self._check(case, tol)

    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    @pytest.mark.parametrize("case", STRIDED, ids=_id)
    def test_strided_weight_only_matches_im2col(self, case, dtype, tol):
        # x needs no gradient: dW comes from each phase's own gather of x
        T.set_default_dtype(dtype)
        self._check(case, tol, x_grad=False)

    @classmethod
    def _layout(cls, case):
        """(grid, anchors per sample, rows per anchor that the forward
        chunks by) of a case's flat layout: the larger of the partial
        gather (C_in*nd*nh) and the stacked product (nw*C_out) of the
        first stride phase, whose taps (nd, nh, nw) are ceil(k / s), the
        most of any phase (k itself at stride 1)."""
        _, c_in, spatial, c_out, k, stride, padding = case
        geometry = (cls._axes(k), cls._axes(stride), cls._axes(padding))
        out = conv_output_shape(spatial, *geometry)
        grid = nnops._grid(spatial, *geometry, out)
        nd, nh, nw = nnops._phases(*geometry[:2])[0][1]
        return grid, out[0] * grid[1] * grid[2], max(c_in * nd * nh, nw * c_out)

    def test_cases_span_several_chunks(self):
        # the multi-chunk cases each run several chunks of a sample's
        # anchors, ending on a partial one
        for case in self.CASES[-self.MULTI_CHUNK:]:
            _, anchors, rows = self._layout(case)
            sizes = [q1 - q0 for q0, q1 in nnops._chunks(anchors, rows)]
            assert len(sizes) > 1 and 0 < sizes[-1] < sizes[0], case
            assert sum(sizes) == anchors

    def test_last_taps_read_the_tail(self):
        # with same padding the rows share their border zeros, so the
        # farthest tap of the last real anchor reads past the last grid
        # plane, into the tail, from the last of several chunks
        case = self.CASES[-1]
        (dr, hr, wr), anchors, rows = self._layout(case)
        spatial, k = case[2], case[4]
        last = (spatial[0] - 1) * hr * wr + (spatial[1] - 1) * wr + spatial[2] - 1
        farthest = last + (k - 1) * (hr * wr + wr + 1)
        tail = (k - 1) * wr + k - 1
        assert dr * hr * wr <= farthest < dr * hr * wr + tail
        chunks = list(nnops._chunks(anchors, rows))
        assert len(chunks) > 1 and chunks[-1][0] <= last < chunks[-1][1]

    def test_partial_gather_chunks(self):
        # the 2C -> C decoder conv's forward and its flipped-kernel dx
        # (C_out*kd*kh gathered rows against kw*C_in product rows) each
        # run several partial-gather chunks per sample, and the gather of
        # a chunk is n + kw - 1 columns wide, reading at most to the tail
        case = (2, 16, (12, 24, 24), 8, 3, 1, 1)
        assert case in self.CASES
        b, c_in, spatial, c_out, k, _, _ = case
        grid, anchors, rows = self._layout(case)
        assert rows == c_in * k * k
        for chunk_rows in (rows, max(c_out * k * k, k * c_in)):
            sizes = [q1 - q0 for q0, q1 in nnops._chunks(anchors, chunk_rows)]
            assert len(sizes) > 1 and 0 < sizes[-1] < sizes[0]
        plane, pitch = grid[1] * grid[2], grid[2]
        length = grid[0] * plane + (k - 1) * pitch + k - 1
        src = np.arange(b * c_in * length, dtype=np.float64).reshape(b, 1, c_in, length)
        seen = 0
        for bi, _, q0, cols in nnops._partial(src, [(0, 0, (k,) * 3)], grid, anchors, c_out):
            n = cols.shape[1] - (k - 1)
            assert cols.shape == (c_in * k * k, n + k - 1)
            # row (c, i, j) holds the flat input from q0 + i*plane + j*pitch
            c, i, j = c_in - 1, k - 1, k - 1
            start = q0 + i * plane + j * pitch
            npt.assert_array_equal(cols[(c * k + i) * k + j], src[bi, 0, c, start:start + n + k - 1])
            seen += n
        assert seen == b * anchors and start + n + k - 1 == length

    def test_gradients_f64_reducing_multi_chunk(self, f64_mode):
        r = Rng(9)
        x = Tensor(r.normal((1, 4, 11, 40, 40)), requires_grad=True)
        p = init_conv(r, 4, 2, (3, 3, 3))      # 36 gathered rows: 7281 + 7281 + 3929 anchors
        rel, _ = finite_difference_check(lambda: conv3d(x, p),
                                         [x, p.weight, p.bias], rel_tol=1e-6, seed=8)
        assert rel < 1e-6

    def test_gradients_f64_multi_chunk(self, f64_mode):
        r = Rng(6)
        x = Tensor(r.normal((1, 2, 10, 40, 40)), requires_grad=True)
        p = init_conv(r, 2, 2, (3, 3, 3))      # 14563 + 2247 anchors, both passes
        rel, _ = finite_difference_check(lambda: conv3d(x, p),
                                         [x, p.weight, p.bias], rel_tol=1e-6, seed=7)
        assert rel < 1e-6

    def test_gradients_f64_shared_gather_multi_chunk(self, f64_mode):
        # x and W both need gradients: dW comes from the dx gather, here
        # of a widening conv's 8-channel gradient buffer in 3640 + 3640 +
        # 1369-anchor chunks
        r = Rng(10)
        x = Tensor(r.normal((1, 3, 9, 30, 30)), requires_grad=True)
        p = init_conv(r, 3, 8, (3, 3, 3))
        rel, _ = finite_difference_check(lambda: conv3d(x, p),
                                         [x, p.weight, p.bias], rel_tol=1e-6, seed=9)
        assert rel < 1e-6

    def test_gradients_f64_weight_only_multi_chunk(self, f64_mode):
        # x needs no gradient (the stem on the image): dW comes from x's
        # own partial gather, in 10922 + 2526-anchor chunks
        r = Rng(11)
        x = Tensor(r.normal((1, 1, 8, 40, 40)))
        p = init_conv(r, 1, 8, (3, 3, 3))
        rel, _ = finite_difference_check(lambda: conv3d(x, p),
                                         [p.weight, p.bias], rel_tol=1e-6, seed=10)
        assert rel < 1e-6

    def test_no_gather_buffer_on_tape(self, f64_mode):
        # the tape keeps the padded input and the output, not the gather
        r = Rng(8)
        x = Tensor(r.normal((1, 4, 16, 16, 16)), requires_grad=True)
        p = init_conv(r, 4, 4, (3, 3, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv3d(x, p)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        padded = 4 * 18 ** 3 * 8                        # the gather is 9 planes, 2 MB
        assert kept < padded + out.data.nbytes + 2 ** 16
        # without padding the tape keeps x.data itself, not a copy of it
        for stride in (1, 2):
            p = init_conv(r, 4, 4, (1, 1, 1), stride=(stride,) * 3, padding=(0, 0, 0))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = conv3d(x, p)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert kept < out.data.nbytes + x.data.nbytes // 2, stride

    def test_input_without_grad_gets_none(self, rng):
        x = Tensor(rng.normal((2, 2, 4, 4, 4)))
        p = init_conv(rng, 2, 3, (3, 3, 3))
        conv3d(x, p).sum().backward()
        assert x.grad is None and p.weight.grad is not None

    def test_gradients_f64_strided_batch(self, f64_mode):
        r = Rng(4)
        x = Tensor(r.normal((2, 2, 5, 6, 7)), requires_grad=True)
        p = init_conv(r, 2, 3, (3, 3, 3), stride=(2, 2, 2))
        rel, _ = finite_difference_check(lambda: conv3d(x, p),
                                         [x, p.weight, p.bias], rel_tol=1e-6, seed=5)
        assert rel < 1e-6


class TestConvTranspose3d:
    def test_shape_doubles(self, rng):
        p = init_conv_transpose(rng, 4, 2, (2, 2, 2))
        out = conv_transpose3d(Tensor(rng.normal((1, 4, 3, 3, 3))), p)
        assert out.shape == (1, 2, 6, 6, 6)

    def test_block_expansion_oracle(self, rng):
        # kernel == stride: each input voxel paints a disjoint 2^3 block
        x = rng.normal((1, 2, 2, 2, 2), dtype=np.float64)
        w = rng.normal((2, 3, 2, 2, 2), dtype=np.float64)
        p = ConvTransposeParams(Tensor(w, dtype=np.float64), None, stride=(2, 2, 2))
        out = conv_transpose3d(Tensor(x, dtype=np.float64), p)
        for o in range(3):
            for d in range(2):
                for h in range(2):
                    for wi in range(2):
                        block = np.einsum("c,cijk->ijk", x[0, :, d, h, wi], w[:, o])
                        npt.assert_allclose(
                            out.data[0, o, 2 * d:2 * d + 2, 2 * h:2 * h + 2,
                                     2 * wi:2 * wi + 2], block, rtol=1e-12)

    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    @pytest.mark.parametrize("shape,c_out,stride", [
        ((2, 3, 3, 4, 2), 4, (2, 1, 2)),     # anisotropic kernel, non-cubic extents
        ((2, 4, 2, 3, 1), 16, (1, 2, 2)),    # rows of one voxel, more channels than voxels
        ((2, 5, 2, 3, 4), 3, (1, 1, 1)),     # pointwise
    ], ids=["aniso", "wide", "pointwise"])
    def test_matches_per_tap_oracle(self, f64_mode, shape, c_out, stride, with_bias):
        r = Rng(13)
        p = init_conv_transpose(r.derive("w"), shape[1], c_out, stride)
        if with_bias:
            p.bias.data = r.derive("b").normal((c_out,))
        else:
            p = ConvTransposeParams(p.weight, None, stride)
        x = Tensor(r.derive("x").normal(shape), requires_grad=True)
        out = conv_transpose3d(x, p)
        g = r.derive("g").normal(out.shape)
        (out * Tensor(g)).sum().backward()
        bias = None if p.bias is None else p.bias.data
        want = conv_transpose_taps(x.data, p.weight.data, bias, g)
        got = [out.data, x.grad, p.weight.grad, None if p.bias is None else p.bias.grad]
        assert out.shape == (shape[0], c_out) + tuple(s * k for s, k in zip(shape[2:], stride))
        for a, b in zip(got, want):
            if b is None:
                assert a is None
            else:
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_kernel_must_equal_stride(self, rng):
        p = ConvTransposeParams(Tensor(rng.normal((2, 2, 3, 3, 3))), None, stride=(2, 2, 2))
        with pytest.raises(ShapeError, match="kernel == stride"):
            conv_transpose3d(Tensor(rng.normal((1, 2, 2, 2, 2))), p)

    def test_gradients(self, f64_mode):
        r = Rng(9)
        x = Tensor(r.normal((1, 3, 2, 2, 2)), requires_grad=True)
        p = init_conv_transpose(r, 3, 2, (2, 2, 2))
        rel, _ = finite_difference_check(lambda: conv_transpose3d(x, p),
                                         [x, p.weight, p.bias], rel_tol=1e-6, seed=2)
        assert rel < 1e-6


class TestInstanceNorm:
    def _affine(self, c):
        return Tensor(np.ones(c), requires_grad=True), Tensor(np.zeros(c), requires_grad=True)

    def test_constant_slice_becomes_zero(self):
        g, b = self._affine(2)
        x = Tensor(np.full((1, 2, 3, 3, 3), 7.0, dtype=np.float32))
        out = instance_norm(x, g, b)
        npt.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_already_normalized_fixed_point(self):
        g, b = self._affine(1)
        x = np.zeros((1, 1, 1, 1, 2), dtype=np.float64)
        x[..., 0], x[..., 1] = -1.0, 1.0
        out = instance_norm(Tensor(x, dtype=np.float64), g, b, eps=1e-12)
        npt.assert_allclose(out.data, x, atol=1e-6)

    def test_moments_oracle(self, rng):
        g, b = self._affine(3)
        x = Tensor(rng.normal((2, 3, 4, 4, 4)) * 5 + 2)
        out = instance_norm(x, g, b).data
        for bi in range(2):
            for ci in range(3):
                sl = out[bi, ci]
                assert abs(sl.mean()) < 1e-5
                assert abs(sl.var() - 1.0) < 1e-3

    def test_spatial_size_one_passthrough(self):
        g, b = self._affine(2)
        x = Tensor(np.full((1, 2, 1, 1, 1), 3.0, dtype=np.float32))
        out = instance_norm(x, g, b)
        npt.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_one_tape_node(self, rng):
        g, b = self._affine(3)
        x = Tensor(rng.normal((2, 3, 4, 4, 4)), requires_grad=True)
        y = instance_norm(x, g, b)
        assert y._parents == (x, g, b)
        assert sum(n._backward_fn is not None for n in T._toposort(y)) == 1

    # every desk block map (B = 2; 8 channels at 32^3 down to 128 at 2^3),
    # a non-cubic map and the 1-voxel slice
    SHAPES = [(2, 8, 32, 32, 32), (2, 16, 16, 16, 16), (2, 32, 8, 8, 8),
              (2, 64, 4, 4, 4), (2, 128, 2, 2, 2), (2, 3, 5, 6, 7), (2, 4, 1, 1, 1)]

    @staticmethod
    def _run(norm, x, gamma, beta, g):
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        y = norm(xt, gt, bt)
        (y * Tensor(g)).sum().backward()
        return y.data, xt.grad, gt.grad, bt.grad

    @pytest.mark.parametrize("dtype,tol", [("f64", 1e-12), ("f32", 1e-5)])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_matches_composition(self, shape, dtype, tol):
        T.set_default_dtype(dtype)
        r = Rng(sum(shape))
        x = r.normal(shape) * 3 + 1
        gamma, beta = r.normal(shape[1:2]), r.normal(shape[1:2])
        g = r.normal(shape)
        got = self._run(instance_norm, x, gamma, beta, g)
        want = self._run(instance_norm_reference, x, gamma, beta, g)
        # the forward is the composition's arithmetic, op for op: its
        # pairwise sums included (an einsum variance fails here)
        npt.assert_array_equal(got[0], want[0])
        for name, a, e in zip(("x", "gamma", "beta"), got[1:], want[1:]):
            assert a.shape == e.shape and a.dtype == e.dtype, name
            err = np.abs(a - e).max()
            assert err <= tol * np.abs(e).max(), f"{name}: error {err:.2e}"

    def test_gradients(self, f64_mode):
        r = Rng(5)
        x = Tensor(r.normal((1, 2, 3, 3, 3)), requires_grad=True)
        g = Tensor(np.ones(2) * 1.3, requires_grad=True)
        b = Tensor(np.full(2, 0.2), requires_grad=True)
        rel, _ = finite_difference_check(lambda: instance_norm(x, g, b),
                                         [x, g, b], rel_tol=1e-6, seed=4)
        assert rel < 1e-6


class TestActivations:
    def test_leaky_relu_formula(self):
        out = leaky_relu(Tensor([-1.0, 0.0, 2.0]), alpha=0.01)
        npt.assert_allclose(out.data, [-0.01, 0.0, 2.0], rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.3])
    def test_leaky_relu_bit_equals_where(self, dtype, alpha):
        # max(x, alpha x) and the slope max(x >= 0, alpha) against the
        # select, on +-0.0, negative and positive inputs
        r = Rng(14)
        x = np.concatenate([[0.0, -0.0, -1e-30, 1e-30, -3.5, 2.0],
                            r.normal((64,), dtype=np.float64)]).astype(dtype)
        g = np.concatenate([[1.5, -2.0, -0.0, 0.0, 0.7, -0.3],
                            r.normal((64,), dtype=np.float64)]).astype(dtype)
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        y = leaky_relu(xt, alpha)
        (y * Tensor(g, dtype=dtype)).sum().backward()
        mask = x >= 0
        assert y.data.dtype == xt.grad.dtype == dtype
        assert y.data.tobytes() == np.where(mask, x, x * alpha).tobytes()
        assert xt.grad.tobytes() == np.where(mask, g, g * alpha).tobytes()

    @pytest.mark.parametrize("alpha", [-0.01, 1.5, float("nan")])
    def test_leaky_relu_slope_outside_unit_interval_raises(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            leaky_relu(Tensor([1.0, -1.0]), alpha)

    def test_silu_zero(self):
        assert silu(Tensor([0.0])).data[0] == 0.0

    def test_silu_formula(self, rng):
        x = rng.normal((10,), dtype=np.float64)
        out = silu(Tensor(x, dtype=np.float64))
        npt.assert_allclose(out.data, x / (1 + np.exp(-x)), rtol=1e-10)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_silu_matches_composition(self, dtype, tol):
        # the one-node silu against its oracle, x * sigmoid(x) on the tape,
        # out to where e^-x overflows
        v = Rng(14).normal((4, 50), dtype=np.float64) * 8
        v[0, :4] = [-120.0, -800.0, 120.0, 0.0]
        g = Rng(15).normal(v.shape, dtype=np.float64)
        results = []
        for act in (silu, lambda t: T.mul(t, T.sigmoid(t))):
            x = Tensor(v, requires_grad=True, dtype=dtype)
            with np.errstate(over="raise", invalid="raise"):
                y = act(x)
                (y * Tensor(g, dtype=dtype)).sum().backward()
            results.append((y.data, x.grad))
        for got, want in zip(*results):
            assert got.dtype == dtype
            npt.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())

    def test_silu_one_tape_node(self, rng):
        x = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        y = silu(x)
        assert y._parents == (x,)
        assert sum(n._backward_fn is not None for n in T._toposort(y)) == 1

    def test_silu_gradients_f64(self, f64_mode):
        x = Tensor(Rng(16).normal((2, 3, 4, 5)) * 3, requires_grad=True)
        rel, _ = finite_difference_check(lambda: silu(x), [x], rel_tol=1e-6, seed=11)
        assert rel < 1e-6

    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]), axis=0)
        npt.assert_allclose(out.data, [0.5, 0.5], rtol=1e-6)

    def test_softmax_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal((4, 7)) * 10), axis=1)
        npt.assert_allclose(out.data.sum(axis=1), 1.0, rtol=1e-5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_softmax_rejects_non_finite(self):
        x = Tensor([0.0, 1.0])
        x.data[0] = np.inf
        with pytest.raises(NumericError, match="finite"):
            softmax(x, axis=0)

    def test_relu_clamps(self, rng):
        x = rng.normal((20,))
        out = relu(Tensor(x))
        npt.assert_array_equal(out.data, np.maximum(x, 0))

    def test_relu_of_negative_is_negative_zero(self):
        out = relu(Tensor([-2.0, 3.0])).data
        assert out[0] == 0.0 and np.signbit(out[0]) and out[1] == 3.0

    @pytest.mark.parametrize("act", [relu, leaky_relu])
    def test_zero_input_passes_value_and_unit_slope(self, act):
        x = Tensor([0.0, 0.0], requires_grad=True)
        y = act(x)
        npt.assert_array_equal(y.data, [0.0, 0.0])
        assert not np.signbit(y.data).any()
        (y * Tensor([1.5, -2.0])).sum().backward()
        npt.assert_array_equal(x.grad, [1.5, -2.0])

    @pytest.mark.parametrize("act", [relu, leaky_relu])
    def test_one_tape_node(self, rng, act):
        x = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        y = act(x)
        assert y._parents == (x,)
        assert sum(n._backward_fn is not None for n in T._toposort(y)) == 1

    @pytest.mark.parametrize("act", [relu, lambda x: leaky_relu(x, 0.01),
                                     lambda x: leaky_relu(x, 0.3)])
    def test_gradients_f64(self, f64_mode, act):
        r = Rng(12)
        v = r.normal((2, 3, 3, 3, 3))
        # keep every input at least 0.1 away from the kink at 0
        x = Tensor(np.where(v >= 0, v + 0.1, v - 0.1), requires_grad=True)
        rel, _ = finite_difference_check(lambda: act(x), [x], rel_tol=1e-6,
                                         n_coords=8, seed=9)
        assert rel < 1e-6

    def test_gradients_f64_negative_side(self, f64_mode):
        # every coordinate on the alpha branch, so the slope itself is checked
        r = Rng(13)
        x = Tensor(-np.abs(r.normal((2, 4, 3))) - 0.1, requires_grad=True)
        rel, _ = finite_difference_check(lambda: leaky_relu(x, 0.2), [x], rel_tol=1e-6,
                                         seed=10)
        assert rel < 1e-6
        x.zero_grad()
        leaky_relu(x, 0.2).sum().backward()
        npt.assert_allclose(x.grad, 0.2, rtol=1e-12)


class TestAdaptivePool:
    def test_constant_input(self):
        x = Tensor(np.full((1, 2, 4, 4, 4), 3.5, dtype=np.float32))
        out = adaptive_avg_pool3d(x, (2, 2, 2))
        npt.assert_allclose(out.data, 3.5, rtol=1e-6)

    def test_1d_window_mean_oracle(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 1, 1, 1, 4))
        out = adaptive_avg_pool3d(x, (1, 1, 2))
        npt.assert_allclose(out.data.ravel(), [1.5, 3.5], rtol=1e-6)

    def test_identity_when_target_equals_source(self, rng):
        x = Tensor(rng.normal((1, 2, 3, 4, 5)))
        out = adaptive_avg_pool3d(x, (3, 4, 5))
        npt.assert_array_equal(out.data, x.data)

    def test_target_exceeding_source_raises(self, rng):
        with pytest.raises(ShapeError, match="target"):
            adaptive_avg_pool3d(Tensor(rng.normal((1, 1, 2, 2, 2))), (3, 2, 2))

    def test_non_dividing_target_raises(self):
        x = Tensor(np.arange(5.0).reshape(1, 1, 1, 1, 5))
        with pytest.raises(ShapeError, match="divide"):
            adaptive_avg_pool3d(x, (1, 1, 2))

    @pytest.mark.parametrize("target", [(2, 2, 2), (3, 2, 4)])
    def test_gradients(self, f64_mode, target):
        r = Rng(6)
        x = Tensor(r.normal((1, 2, 6, 4, 4)), requires_grad=True)
        rel, _ = finite_difference_check(lambda: adaptive_avg_pool3d(x, target),
                                         [x], rel_tol=1e-6, seed=3)
        assert rel < 1e-6


class TestDiceCeLoss:
    def test_saturated_prediction_drives_loss_to_zero(self):
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        labels[0, 0] = 1
        logits = np.zeros((1, 2, 2, 2, 2), dtype=np.float32)
        # margin 20 toward the true class everywhere
        logits[0, 1][labels[0] == 1] = 20.0
        logits[0, 0][labels[0] == 0] = 20.0
        lv = dice_ce_loss(Tensor(logits), labels)
        assert lv.total.item() < 1e-3

    def test_uniform_logits_ce_is_ln2(self):
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        labels[0, 0, 0, 0] = 1
        lv = dice_ce_loss(T.zeros((1, 2, 2, 2, 2)), labels)
        assert abs(lv.ce_part.item() - math.log(2.0)) < 1e-6

    def test_total_is_exact_sum(self, rng):
        labels = (rng.random((2, 4, 4, 4)) > 0.7).astype(np.int64)
        lv = dice_ce_loss(Tensor(rng.normal((2, 2, 4, 4, 4))), labels)
        assert lv.total.item() == lv.dice_part.item() + lv.ce_part.item()

    def test_one_hot_prediction_dice_near_one(self):
        labels = np.zeros((1, 3, 3, 3), dtype=np.int64)
        labels[0, :2] = 1
        logits = np.full((1, 2, 3, 3, 3), -30.0, dtype=np.float32)
        logits[0, 1][labels[0] == 1] = 30.0
        logits[0, 0][labels[0] == 0] = 30.0
        lv = dice_ce_loss(Tensor(logits), labels)
        assert lv.dice_part.item() < 1e-4   # dice of perfect match is 1 - O(eps)

    def test_three_class_value_matches_numpy(self, rng):
        labels = rng.integers(0, 3, (2, 4, 4, 4))
        logits = rng.normal((2, 3, 4, 4, 4))
        lv = dice_ce_loss(Tensor(logits), labels)
        z = logits.astype(np.float64)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        y = np.stack([labels == c for c in range(3)], axis=1)
        inter = (p * y).sum(axis=(0, 2, 3, 4))
        denom = p.sum(axis=(0, 2, 3, 4)) + y.sum(axis=(0, 2, 3, 4))
        dice = (2 * inter + nnops.EPS_DICE) / (denom + nnops.EPS_DICE)
        ce = -np.log((p * y).sum(axis=1)).mean()
        npt.assert_allclose(lv.dice_part.item(), 1 - dice[1:].mean(), rtol=1e-5)
        npt.assert_allclose(lv.ce_part.item(), ce, rtol=1e-5)

    def test_keeps_logits_dtype_under_f64_default(self, rng):
        logits = Tensor(rng.normal((1, 2, 2, 2, 2)))
        T.set_default_dtype("f64")
        lv = dice_ce_loss(logits, np.zeros((1, 2, 2, 2), dtype=np.int64))
        assert {lv.total.dtype, lv.dice_part.dtype, lv.ce_part.dtype} == {np.dtype(np.float32)}

    def test_out_of_range_label_raises(self, rng):
        labels = np.full((1, 2, 2, 2), 5, dtype=np.int64)
        with pytest.raises(ValueError, match="label"):
            dice_ce_loss(Tensor(rng.normal((1, 2, 2, 2, 2))), labels)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_f32(self, seed):
        r = Rng(seed)
        labels = (r.random((1, 3, 3, 3)) > 0.6).astype(np.int64)
        x = Tensor(r.normal((1, 2, 3, 3, 3)), requires_grad=True)
        rel, _ = finite_difference_check(lambda: dice_ce_loss(x, labels).total,
                                         [x], rel_tol=1e-3, seed=seed)
        assert rel < 1e-3

    def test_gradients_f64(self, f64_mode):
        r = Rng(11)
        labels = (r.random((1, 3, 3, 3)) > 0.6).astype(np.int64)
        x = Tensor(r.normal((1, 3, 3, 3, 3)), requires_grad=True)
        rel, _ = finite_difference_check(lambda: dice_ce_loss(x, labels).total,
                                         [x], rel_tol=1e-6, seed=8)
        assert rel < 1e-6

    def test_needs_two_classes(self, rng):
        with pytest.raises(ShapeError, match="classes"):
            dice_ce_loss(Tensor(rng.normal((1, 1, 2, 2, 2))),
                         np.zeros((1, 2, 2, 2), dtype=np.int64))
