"""Neural network layers and losses on top of the tensor engine.

3D convolution runs on one flat zero-padded layout: each phase of the
stride of each sample's padded input is a (C, grid + tail) buffer, so
the input of every kernel tap for a run of output anchors is a
contiguous slice.  Every conv that is not pointwise is the sum over its
stride phases (one at stride 1) of stride-1 correlations of a phase
with its sub-kernel, all on one path: a chunk gathers only the plane
and row shifts of the taps, one GEMM with the weight's kw tap columns
stacked as output rows gives every tap's product, and row block k is
added back shifted by k anchors.  Backward runs the same correlation
per phase on the output gradient with the flipped sub-kernel for the
input gradient, and takes the weight gradient from that same gather.
Chunks hold about CONV_CHUNK elements, and the output is written over
whole grid planes.  The buffers live only inside the forward or the
backward call; backward gathers again rather than caching them, which
keeps the live graph small.  Normalization (instance norm, and the
mamba block's token LayerNorm) is one tape node with a hand-written
adjoint, and the rectifiers are max(x, alpha * x) without a select.
The segmentation loss is the unweighted sum of soft Dice (per class
over the whole batch, averaged over foreground classes) and mean voxel
cross-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, exp, log_softmax, make_op

EPS_NORM = 1e-5       # instance norm variance floor
EPS_DICE = 1e-5       # soft Dice smooth term
LEAKY_SLOPE = 0.01    # default negative slope
CONV_CHUNK = 1 << 18  # elements of one conv3d gather buffer, about 1 MB in f32


@dataclass
class ConvParams:
    """Weights for a 3D convolution.

    weight: (C_out, C_in, kd, kh, kw); bias: (C_out,).
    Output extent per axis is floor((in + 2*pad - k) / stride) + 1.
    """
    weight: Tensor
    bias: Tensor
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)


def conv_output_shape(spatial, kernel, stride, padding):
    out = []
    for s, k, st, p in zip(spatial, kernel, stride, padding):
        o = (s + 2 * p - k) // st + 1
        if o <= 0:
            raise ShapeError(f"degenerate conv output extent {o} "
                             f"(in={s}, k={k}, stride={st}, pad={p})")
        out.append(o)
    return tuple(out)


def _phases(kernel, stride):
    """[(phase, taps)] for every phase of the strided grid that a kernel
    tap reads.  Tap (i, j, k) reads phase (i mod s, j mod s, k mod s) at
    grid offset (i div s, j div s, k div s); ``taps`` is the (nd, nh, nw)
    extent of those offsets.  At stride 1 there is one phase holding
    every tap."""
    return [(ph, tuple(len(range(a, k, s)) for a, k, s in zip(ph, kernel, stride)))
            for ph in np.ndindex(*(min(k, s) for k, s in zip(kernel, stride)))]


def _span(n, pad, s, a, reach):
    """[lo, end) of the grid indices of phase ``a`` of an axis of ``n``
    voxels that hold input, clipped to ``reach``: grid index t holds
    input index s*t + a - pad."""
    lo = max(0, -((a - pad) // s))
    return lo, max(lo, min(reach, (n - 1 + pad - a) // s + 1))


def _grid(spatial, kernel, stride, padding, out_spatial):
    """(D, H, W) extents of the flat grid that every phase is laid out in.

    D is the Do + (kd-1) div s planes that the taps read.  Along H and W
    a phase holds zeros at [0, lo), input at [lo, end) and zeros up to
    the pitch, and the taps of the real anchors read [0, reach).  A read
    past the pitch lands in the next row's leading zeros, so the pitch
    needs only max(Wo, end, reach - lo): rows share their padding.
    """
    dims = [out_spatial[0] + (kernel[0] - 1) // stride[0]]
    for n, k, s, q, o in list(zip(spatial, kernel, stride, padding, out_spatial))[1:]:
        need = o
        for a in range(min(k, s)):
            reach = o + len(range(a, k, s)) - 1
            lo, end = _span(n, q, s, a, reach)
            need = max(need, end, reach - lo)
        dims.append(need)
    return tuple(dims)


def _phase_slices(spatial, padding, stride, phase, grid):
    """(grid index, input index) of the input voxels that ``phase``
    holds within ``grid``."""
    dst, src = [], []
    for n, q, s, a, r in zip(spatial, padding, stride, phase, grid):
        lo, hi = _span(n, q, s, a, r)
        start = s * lo + a - q
        dst.append(slice(lo, hi))
        src.append(slice(start, start + s * (hi - lo), s))
    return (Ellipsis, *dst), (Ellipsis, *src)


def _stacked(w):
    """The (kw*C_out, C*kd*kh) GEMM rows of a (C_out, C, kd, kh, kw)
    weight: tap column k's rows are row block k."""
    c_out, c, kd, kh, kw = w.shape
    return w.transpose(4, 0, 1, 2, 3).reshape(kw * c_out, c * kd * kh)


def _chunks(anchors, rows):
    """(q0, q1) for every chunk of a sample's first ``anchors`` grid
    anchors: as many anchors as keep ``rows`` elements per anchor
    (gathered, or of a stacked product) within about CONV_CHUNK, at
    least one."""
    per = max(1, CONV_CHUNK // rows)
    for q0 in range(0, anchors, per):
        yield q0, min(q0 + per, anchors)


def _partial(src, terms, grid, anchors, c_out):
    """(bi, t, q0, cols) for every sample bi, term t and chunk of
    ``_chunks`` over ``anchors``, gathering only the kd*kh plane and row
    shifts of the term's taps.

    ``src`` is a C-contiguous (B, P, C, L): per sample and phase, C flat
    grids of ``grid``'s (H, W) geometry.  Term t = (p, start, (kd, kh, kw))
    reads phase p from element ``start`` on.  Its chunks are sized by the
    larger of the C*kd*kh gathered rows and the kw*c_out rows of a
    product with every tap column stacked.  cols is (C*kd*kh, n + kw - 1),
    its rows in (channel, i, j) order: the row of channel c and taps
    (i, j) holds src[bi, p, c, start + q0 + m + i*H*W + j*W] for
    m < n + kw - 1, so the input of tap (i, j, k) for the n anchors of the
    chunk is cols[:, k:k + n].  The gather is one ``copyto`` from a
    strided view whose inner rows are the whole chunk, into one buffer
    that grows to the widest chunk.
    """
    b, _, c, length = src.shape
    es = src.itemsize
    strides = (src.strides[2], grid[1] * grid[2] * es, grid[2] * es, es)
    buf = np.empty(0, dtype=src.dtype)
    for bi in range(b):
        for t, (p, start, (kd, kh, kw)) in enumerate(terms):
            span = c * kd * kh
            view = np.ndarray((c, kd, kh, anchors + kw - 1), src.dtype, src,
                              bi * src.strides[0] + (p * c * length + start) * es, strides)
            for q0, q1 in _chunks(anchors, max(span, kw * c_out)):
                size = span * (q1 - q0 + kw - 1)
                if buf.size < size:
                    buf = np.empty(size, dtype=src.dtype)
                cols = buf[:size].reshape(c, kd, kh, -1)
                np.copyto(cols, view[..., q0:q1 + kw - 1])
                yield bi, t, q0, cols.reshape(span, -1)


def _correlate(src, terms, w_rows, grid, out, bias=None, visit=None):
    """Fill ``out`` (B, C_out, Do, Ho, Wo) with the sum over ``terms`` of
    the stride-1 correlations of ``src``'s flat grids (``_partial``) with
    their ``_stacked`` weights ``w_rows``.

    Each sample's output is built extended over whole grid planes.  For
    every chunk of a term, one GEMM of its (kw*C_out, C*kd*kh) rows and
    the gathered columns gives the products of all kw tap columns over
    n + kw - 1 anchors, and row block k goes into the output shifted by
    k anchors (the first term writes, the others add).  One (bias-fused)
    copy per sample keeps the Ho x Wo corner of each plane.
    ``visit(bi, t, q0, cols)`` sees every chunk's gather.  The product
    buffer grows to the widest chunk and serves every chunk.
    """
    c_out, (do, ho, wo) = out.shape[1], out.shape[2:]
    _, hr, wr = grid
    ext = np.empty((c_out, do * hr * wr), dtype=out.dtype)
    corner = ext.reshape(c_out, do, hr, wr)[:, :, :ho, :wo]
    buf = np.empty(0, dtype=out.dtype)
    for bi, t, q0, cols in _partial(src, terms, grid, ext.shape[1], c_out):
        kw = terms[t][2][2]
        n = cols.shape[1] - kw + 1
        acc = ext[:, q0:q0 + n]
        if t == 0 and kw == 1:
            np.matmul(w_rows[t], cols, out=acc)
        else:
            size = kw * c_out * cols.shape[1]
            if buf.size < size:
                buf = np.empty(size, dtype=out.dtype)
            prod = buf[:size].reshape(kw, c_out, -1)
            np.matmul(w_rows[t], cols, out=prod.reshape(kw * c_out, -1))
            blocks = range(kw)
            if t == 0:
                np.add(prod[0, :, :n], prod[1, :, 1:n + 1], out=acc)
                blocks = range(2, kw)
            for k in blocks:
                acc += prod[k, :, k:k + n]
        if visit is not None:
            visit(bi, t, q0, cols)
        if t == len(terms) - 1 and q0 + n == ext.shape[1]:
            if bias is None:
                np.copyto(out[bi], corner)
            else:
                np.add(corner, bias[:, None, None, None], out=out[bi])


def _pointwise(x, p, out_spatial):
    """A 1x1x1 conv without padding: the (strided) input times the
    weight matrix, with no gather.  The tape keeps ``x.data``."""
    b, c_in = x.shape[:2]
    c_out = p.weight.shape[0]
    sd, sh, sw = p.stride
    w = p.weight.data.reshape(c_out, c_in)
    weight, bias = p.weight, p.bias

    def cols():
        return x.data[:, :, ::sd, ::sh, ::sw].reshape(b, c_in, -1)

    out = np.matmul(w, cols())
    out += bias.data[:, None]

    def backward(g):
        g_flat = g.reshape(b, c_out, -1)
        if weight.requires_grad:
            xs = cols()
            # dWᵀ = x @ gᵀ: BLAS runs this shape about twice as fast as g @ xᵀ
            dw_t = sum(xs[bi] @ g_flat[bi].T for bi in range(b))
            weight._accumulate(dw_t.T.reshape(weight.shape))
        if bias.requires_grad:
            bias._accumulate(g_flat.sum(axis=(0, 2)))
        if x.requires_grad:
            dxs = np.matmul(w.T, g_flat)
            if p.stride == (1, 1, 1):
                x._accumulate(dxs.reshape(x.shape))
                return
            dx = np.zeros_like(x.data)
            dx[:, :, ::sd, ::sh, ::sw] = dxs.reshape((b, c_in) + tuple(out_spatial))
            x._accumulate(dx)

    return make_op(out.reshape((b, c_out) + tuple(out_spatial)), (x, weight, bias), "conv3d",
                   backward)


def _weight_grad(xp, g_at, terms, grid, dw, subs):
    """Fill ``dw`` from the flat input ``xp`` and the output gradient
    ``g_at`` at the forward anchors, when x needs no gradient: the
    transposed gradient of term t's sub-kernel ``dw[subs[t]]`` is x's own
    partial gather of that phase, shifted by k for each tap column k,
    times gᵀ (BLAS runs this shape about twice as fast as g @ colsᵀ)."""
    c_in, c_out = xp.shape[2], g_at.shape[1]
    # dw_t[t][k] row (c, i, j) holds the sub-kernel's dW[:, c, i, j, k]
    dw_t = [np.zeros((kw, c_in * kd * kh, c_out), dtype=g_at.dtype)
            for _, _, (kd, kh, kw) in terms]
    for bi, t, q0, cols in _partial(xp, terms, grid, g_at.shape[2], c_out):
        kw = terms[t][2][2]
        n = cols.shape[1] - kw + 1
        g_n = g_at[bi, :, q0:q0 + n]
        for k in range(kw):
            dw_t[t][k] += cols[:, k:k + n] @ g_n.T
    for (_, _, (kd, kh, kw)), acc, sub in zip(terms, dw_t, subs):
        dw[sub] = acc.reshape(kw, c_in, kd, kh, c_out).transpose(4, 1, 2, 3, 0)


def _flipped_input_grad(gp, start, xs, w, grid, dx, dw):
    """Fill ``dx``, the strided view of the input gradient at the voxels
    one stride phase holds, with the stride-1 correlation of the gradient
    buffer ``gp`` from ``start`` on and the phase's flipped sub-kernel
    ``w``, C_in and C_out swapped.

    When ``dw``, the sub-kernel's view of the weight gradient, is given,
    it is taken from the same gather.  ``xs`` is the phase's flat input
    from its first held voxel on, so for dx anchor q, cols[:, q - q0 + k']
    holds gp at start + q + offset(i', j', k') and xs holds x at q, which
    meet in dW[o, :, kd-1-i', kh-1-j', kw-1-k'].  One GEMM per chunk
    multiplies cols with the x slice stacked kw times, block k' shifted
    by k' columns between zeros.  x is zero at the junk dx anchors (the
    shared padding) and gp at the junk forward anchors, so this is the
    forward-side sum reordered."""
    c_out, c_in, kd, kh, kw = w.shape
    terms = [(0, start, (kd, kh, kw))]
    w_rows = [_stacked(w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))]
    if dw is None:
        _correlate(gp, terms, w_rows, grid, dx)
        return
    # row (o, i', j'), column (k', c) holds dW[o, c, kd-1-i', kh-1-j', kw-1-k']
    dw_flip = np.zeros((c_out * kd * kh, kw * c_in), dtype=gp.dtype)

    def visit(bi, _, q0, cols):
        n = cols.shape[1] - kw + 1
        seg = xs[bi, :, q0:q0 + n]          # shorter past the layout's end, where x is 0
        xk = np.zeros((kw, c_in, cols.shape[1]), dtype=gp.dtype)
        for k in range(kw):
            xk[k, :, k:k + seg.shape[1]] = seg
        dw_flip[...] += cols @ xk.reshape(kw * c_in, -1).T

    _correlate(gp, terms, w_rows, grid, dx, visit=visit)
    dw[...] = dw_flip.reshape(c_out, kd, kh, kw, c_in)[:, ::-1, ::-1, ::-1].transpose(0, 4, 1, 2, 3)


def conv3d(x: Tensor, p: ConvParams) -> Tensor:
    """3D cross-correlation with zero padding, on one flat padded layout.

    The zero-padded input is split into the phases of the stride (s^3 of
    them, one at stride 1), and each phase of each sample is flattened to
    (C, D'*H'*W' + tail) over one grid (``_grid``): D' = Do + (kd-1) div s
    planes, and rows and planes that share their border zeros, so W' is
    W + p rather than W + 2p at stride 1.  The input of tap (i, j, k)
    for output anchor q = d*H'W' + h*W' + w is then element
    q + (i div s)*H'W' + (j div s)*W' + (k div s) of phase
    (a, b, c) = (i mod s, j mod s, k mod s), so the conv is the sum over
    the phases of the stride-1 correlation of each phase with its
    sub-kernel weight[:, :, a::s, b::s, c::s] (``_correlate``), built
    extended over whole grid planes.  One bias-fused copy keeps the
    Do x Ho x Wo voxels.  The tape keeps only the flat buffer.

    Backward places the output gradient once in the same grid, behind a
    front margin and zero on the border columns.  Each phase's share of
    the input gradient is the stride-1 correlation of that buffer with
    the phase's flipped sub-kernel, C_in and C_out swapped, over the
    anchors of the input voxels the phase holds; its corner copy writes
    straight into dx's strided view of those voxels.  The sub-kernel's
    weight gradient is taken from that correlation's gather, against the
    input at the same anchors, so the backward gathers once; when x needs
    no gradient, it comes from each phase's own gather of x.  A 1x1x1
    conv without padding skips the gather and multiplies the input
    directly.
    """
    if x.ndim != 5:
        raise ShapeError(f"conv3d expects (B,C,D,H,W), got {x.shape}")
    c_out, c_in, kd, kh, kw = p.weight.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv3d channel mismatch: input has {x.shape[1]}, weight expects {c_in}")
    b, spatial = x.shape[0], x.shape[2:]
    kernel, stride, padding = (kd, kh, kw), tuple(p.stride), tuple(p.padding)
    out_spatial = conv_output_shape(spatial, kernel, stride, padding)
    if kernel == (1, 1, 1) and not any(padding):
        return _pointwise(x, p, out_spatial)
    do, ho, wo = out_spatial
    phases = _phases(kernel, stride)
    grid = _grid(spatial, kernel, stride, padding, out_spatial)
    plane, pitch = grid[1] * grid[2], grid[2]
    size = grid[0] * plane
    # the farthest in-plane tap offset: the tail past the last grid plane
    tail = (kh - 1) // stride[1] * pitch + (kw - 1) // stride[2]
    slices = [_phase_slices(spatial, padding, stride, ph, grid) for ph, _ in phases]
    xp = np.zeros((b, len(phases), c_in, size + tail), dtype=x.dtype)
    for n, (dst, src) in enumerate(slices):
        xp[:, n, :, :size].reshape((b, c_in) + grid)[dst] = x.data[src]
    # phase (a, b, c)'s tap (i, j, k) is the weight's tap (a + s*i, b + s*j, c + s*k)
    subs = [(Ellipsis, *(slice(a, None, s) for a, s in zip(ph, stride))) for ph, _ in phases]
    terms = [(n, 0, taps) for n, (_, taps) in enumerate(phases)]
    weight, bias = p.weight, p.bias
    out = np.empty((b, c_out) + out_spatial, dtype=np.result_type(xp, weight.data))
    _correlate(xp, terms, [_stacked(weight.data[sub]) for sub in subs], grid, out, bias.data)

    def backward(g):
        # per phase, the flat offsets of its first held voxel and of its
        # last tap; g sits in the grid behind a front margin so that every
        # phase's flipped taps, read from margin - last + first on, meet
        # its dx anchors
        steps = (plane, pitch, 1)
        firsts = [sum(s.start * m for s, m in zip(dst[1:], steps)) for dst, _ in slices]
        lasts = [sum((t - 1) * m for t, m in zip(taps, steps)) for _, taps in phases]
        margin = max(0, *(last - first for first, last in zip(firsts, lasts)))
        # the flipped taps of a phase's last dx anchor reach its planes past its first voxel
        length = margin + max(do * plane, *(first + (dst[1].stop - dst[1].start) * plane
                                            for first, (dst, _) in zip(firsts, slices)))
        gp = np.zeros((b, 1, c_out, length), dtype=g.dtype)
        g_at = gp[:, 0, :, margin:margin + do * plane]       # g at the forward anchors
        g_at.reshape(b, c_out, do, grid[1], pitch)[:, :, :, :ho, :wo] = g
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))
        dw = np.empty(weight.shape, dtype=g.dtype) if weight.requires_grad else None
        if x.requires_grad:
            # voxels that no tap reads (kernel < stride, or past the last
            # anchor's taps) belong to no phase and keep a zero gradient
            held = sum(x.data[src].size for _, src in slices)
            dx = (np.empty if held == x.data.size else np.zeros)(x.shape, dtype=g.dtype)
            for n, (sub, (_, src), first, last) in enumerate(zip(subs, slices, firsts, lasts)):
                _flipped_input_grad(gp, margin - last + first, xp[:, n, :, first:],
                                    weight.data[sub], grid, dx[src],
                                    None if dw is None else dw[sub])
            x._accumulate(dx)
        elif dw is not None:
            _weight_grad(xp, g_at, terms, grid, dw, subs)
        if dw is not None:
            weight._accumulate(dw)

    return make_op(out, (x, weight, bias), "conv3d", backward)


@dataclass
class ConvTransposeParams:
    """Transposed 3D conv used for decoder upsampling.

    weight: (C_in, C_out, kd, kh, kw); bias: (C_out,).  Only the
    kernel == stride, zero-padding case is supported: each input voxel
    expands into a disjoint k-sized output block, so output extent is
    in * stride.
    """
    weight: Tensor
    bias: Tensor
    stride: tuple[int, int, int]


def conv_transpose3d(x: Tensor, p: ConvTransposeParams) -> Tensor:
    """Transposed conv with kernel == stride: input voxel v of sample b
    paints the disjoint block out[b, :, v * k : (v + 1) * k] with
    sum_c x[b, c, v] * weight[c] + bias.

    Forward is one GEMM per sample in the input's own (C_in, D*H*W)
    layout, w_mat^T @ x_b with w_mat = weight as (C_in, C_out*k^3); its
    (C_out, kd, kh, kw, D, H, W) rows are added to the bias straight
    into the output's strided view.  Backward lays the output gradient
    out once as g of shape (B, C_out*k^3, D*H*W): dW = sum_b x_b g_b^T
    and dx = w_mat @ g, both already in their parents' layouts.
    """
    c_in, c_out, kd, kh, kw = p.weight.shape
    if p.stride != (kd, kh, kw):
        raise ShapeError(f"conv_transpose3d supports kernel == stride only, "
                         f"got kernel {(kd, kh, kw)} stride {p.stride}")
    if x.shape[1] != c_in:
        raise ShapeError(f"conv_transpose3d channel mismatch: input has {x.shape[1]}, "
                         f"weight expects {c_in}")
    b, _, d, h, w = x.shape
    weight, bias = p.weight, p.bias
    w_mat = weight.data.reshape(c_in, -1)               # (C_in, C_out*k^3)
    x_mat = x.data.reshape(b, c_in, d * h * w)
    prod = np.matmul(w_mat.T, x_mat).reshape(b, c_out, kd, kh, kw, d, h, w)
    out = np.empty((b, c_out, d * kd, h * kh, w * kw), dtype=prod.dtype)
    # out[b, o, d*kd + i, h*kh + j, w*kw + l] as [b, o, i, j, l, d, h, w]
    blocks = out.reshape(b, c_out, d, kd, h, kh, w, kw).transpose(0, 1, 3, 5, 7, 2, 4, 6)
    np.add(prod, bias.data.reshape(-1, 1, 1, 1, 1, 1, 1), out=blocks)

    def backward(g):
        g_mat = g.reshape(b, c_out, d, kd, h, kh, w, kw).transpose(0, 1, 3, 5, 7, 2, 4, 6)
        g_mat = g_mat.reshape(b, c_out * kd * kh * kw, d * h * w)
        if weight.requires_grad:
            dw = x_mat[0] @ g_mat[0].T
            for i in range(1, b):
                dw += x_mat[i] @ g_mat[i].T
            weight._accumulate(dw.reshape(weight.shape))
        if bias.requires_grad:
            bias._accumulate(g_mat.reshape(b, c_out, -1).sum(axis=(0, 2)))
        if x.requires_grad:
            x._accumulate(np.matmul(w_mat, g_mat).reshape(x.shape))

    return make_op(out, (x, weight, bias), "conv_transpose3d", backward)


def normalize(x: Tensor, axes, gamma: Tensor, beta: Tensor, eps: float,
              channel_axis: int = 1) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta over ``axes``, the
    trailing axes of x in order, with the biased variance, as one tape
    node.  gamma and beta are 1-D along ``channel_axis``, the axis just
    before ``axes`` or the one axis in them: instance norm normalizes the
    spatial axes of (B, C, D, H, W) with a per-channel affine on axis 1;
    the token LayerNorm normalizes the channel axis of (B, L, C), which
    carries its own affine.

    The forward runs the arithmetic of the autodiff composition op for
    op (pairwise ``np.sum`` means, x̂ = (x - mean) / sqrt(var + eps),
    then γx̂ + β), so its values are bit-equal to it.  The tape keeps
    only x̂ and rstd = 1/sqrt(var + eps).  Backward, with the sums over
    the normalized axes: dβ = Σ g and dγ = Σ g·x̂ over every axis but
    the channel's, and dx = rstd·(h - mean(h) - x̂·mean(h·x̂)) for
    h = gγ; γ factors out of the means when it is constant over the
    normalized axes.

    A normalized size of 1 is not an error: variance collapses to zero
    and the eps floor turns the slice into zeros before the affine map.
    """
    shape = x.shape
    nd = len(shape)
    k = nd - len(axes)
    ch = channel_axis % nd
    if not axes or axes != tuple(range(k, nd)) or ch not in (k - 1, k) or \
            (ch == k and k < nd - 1):
        raise ShapeError(f"normalize needs a tuple of the trailing axes in order, with the "
                         f"channel axis just before them or alone in them; got axes {axes} "
                         f"of {shape} and channel axis {channel_axis}")
    if gamma.shape != (shape[ch],) or beta.shape != gamma.shape:
        raise ShapeError(f"normalize affine gamma{gamma.shape} beta{beta.shape} does not "
                         f"match axis {ch} of {shape}")
    n = math.prod(shape[k:])
    affine = (-1,) + (1,) * (k - ch)           # gamma's shape against the (*lead, n) view
    gam, bet = gamma.data.reshape(affine), beta.data.reshape(affine)
    flat = x.data.reshape(shape[:k] + (n,))
    xhat = flat - flat.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = np.square(xhat).sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt(var + eps)
    xhat /= std
    rstd = 1.0 / std
    out = xhat * gam
    out += bet

    def backward(g):
        g = g.reshape(xhat.shape)
        if ch < k:                             # γ is constant over each slice
            g_sum = g.sum(axis=-1)
            gx = g * xhat
            gx_sum = gx.sum(axis=-1)
            d_beta, d_gamma = g_sum, gx_sum
        else:                                  # γ runs along the normalized axis
            gx = g * xhat
            d_beta, d_gamma = g, gx
        # the channel is the last axis of both: sum over all the others
        if beta.requires_grad:
            beta._accumulate(d_beta.reshape(-1, shape[ch]).sum(axis=0))
        if gamma.requires_grad:
            gamma._accumulate(d_gamma.reshape(-1, shape[ch]).sum(axis=0))
        if not x.requires_grad:
            return
        if ch < k:
            scale = rstd * gam
        else:
            g = g * gam
            np.multiply(g, xhat, out=gx)
            g_sum, gx_sum = g.sum(axis=-1), gx.sum(axis=-1)
            scale = rstd
        # rstd·(h - mean(h) - x̂·mean(h·x̂)), h = gγ, built in the h·x̂ buffer
        dx = np.multiply(xhat, gx_sum[..., None] * (1.0 / n), out=gx)
        np.subtract(g, dx, out=dx)
        dx -= g_sum[..., None] * (1.0 / n)
        dx *= scale
        x._accumulate(dx.reshape(shape))

    return make_op(out.reshape(shape), (x, gamma, beta), "normalize", backward)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = EPS_NORM) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta per (batch, channel)
    slice of a (B, C, D, H, W) map: ``normalize`` over the spatial axes."""
    if x.ndim != 5:
        raise ShapeError(f"instance_norm expects (B,C,D,H,W), got {x.shape}")
    return normalize(x, (2, 3, 4), gamma, beta, eps)


def leaky_relu(x: Tensor, alpha: float = LEAKY_SLOPE) -> Tensor:
    """x where x >= 0, else alpha * x; the slope at 0 is 1.

    For 0 <= alpha <= 1 that is max(x, alpha * x), without a select;
    other slopes raise.  Backward rebuilds the slope max(x >= 0, alpha)
    from the input.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"leaky_relu needs 0 <= alpha <= 1, got {alpha}")
    out = np.maximum(x.data, x.data * alpha)

    def backward(g):
        slope = (x.data >= 0).astype(g.dtype)
        np.maximum(slope, alpha, out=slope)
        slope *= g
        x._accumulate(slope)

    return make_op(out, (x,), "leaky_relu", backward)


def relu(x: Tensor) -> Tensor:
    """leaky_relu with slope 0 (negative inputs give -0.0)."""
    return leaky_relu(x, 0.0)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) as one tape node, with sigmoid(x) = 1 / (1 + e^-x)
    from one ``exp`` (e^-x overflowing to inf gives sigmoid 0, not a
    select).  The tape keeps sigmoid(x); backward is
    g * sigmoid * (1 + x * (1 - sigmoid))."""
    with np.errstate(over="ignore"):
        sig = np.exp(-x.data)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    out = x.data * sig

    def backward(g):
        dx = np.subtract(1.0, sig)
        dx *= x.data
        dx += 1.0
        dx *= sig
        dx *= g
        x._accumulate(dx)

    return make_op(out, (x,), "silu", backward)


def softmax(x: Tensor, axis: int) -> Tensor:
    return exp(log_softmax(x, axis))


def adaptive_avg_pool3d(x: Tensor, target) -> Tensor:
    """Resize spatial dims to ``target`` by the mean over equal windows.

    Every target extent must divide its source extent; window i along an
    axis of size S resized to T covers source indices [i*S/T, (i+1)*S/T).
    target == source is the identity.
    """
    td, th, tw = (int(t) for t in target)
    b, c, d, h, w = x.shape
    for t, s in zip((td, th, tw), (d, h, w)):
        if t < 1 or s % t:
            raise ShapeError(f"pool target {(td, th, tw)} does not divide source {(d, h, w)}")
    fd, fh, fw = d // td, h // th, w // tw
    out = x.data.reshape(b, c, td, fd, th, fh, tw, fw).mean(axis=(3, 5, 7))

    def backward(g):
        gg = g / (fd * fh * fw)
        gg = np.broadcast_to(gg[:, :, :, None, :, None, :, None],
                             (b, c, td, fd, th, fh, tw, fw))
        x._accumulate(gg.reshape(b, c, d, h, w))

    return make_op(out, (x,), "adaptive_avg_pool3d", backward)


@dataclass
class LossValue:
    """Decomposed segmentation loss; total == dice_part + ce_part."""
    total: Tensor
    dice_part: Tensor
    ce_part: Tensor


def one_hot(labels: np.ndarray, n_classes: int, dtype) -> np.ndarray:
    # labels (B,D,H,W) int -> (B,K,D,H,W)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label values outside [0, {n_classes}): "
                         f"min={labels.min()}, max={labels.max()}")
    oh = np.zeros((labels.shape[0], n_classes) + labels.shape[1:], dtype=dtype)
    b_idx = np.arange(labels.shape[0])[:, None, None, None]
    d_idx, h_idx, w_idx = np.ogrid[:labels.shape[1], :labels.shape[2], :labels.shape[3]]
    oh[b_idx, labels, d_idx, h_idx, w_idx] = 1
    return oh


def dice_ce_loss(logits: Tensor, labels: np.ndarray, eps: float = EPS_DICE) -> LossValue:
    """Unweighted sum of soft Dice loss and voxel cross-entropy.

    Dice is computed per class with sums over the whole batch (axes 0
    and 2-4 at once, one node for all classes), then averaged over
    foreground classes (class 0 is background).
    """
    if logits.ndim != 5:
        raise ShapeError(f"dice_ce_loss expects logits (B,K,D,H,W), got {logits.shape}")
    n_classes = logits.shape[1]
    if n_classes < 2:
        raise ShapeError("dice_ce_loss needs at least 2 classes")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],) + logits.shape[2:]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    onehot = Tensor(one_hot(labels.astype(np.int64), n_classes, logits.dtype), dtype=logits.dtype)

    logp = log_softmax(logits, axis=1)
    ce = -(logp * onehot).sum(axis=1).mean()

    probs = exp(logp)
    axes = (0, 2, 3, 4)
    inter = (probs * onehot).sum(axis=axes)
    denom = probs.sum(axis=axes) + Tensor(onehot.data.sum(axis=axes), dtype=logits.dtype)
    dice = (inter * 2.0 + eps) / (denom + eps)
    dice_loss = 1.0 - dice.narrow(0, 1, n_classes - 1).mean()

    total = dice_loss + ce
    return LossValue(total=total, dice_part=dice_loss, ce_part=ce)


# ----------------------------------------------------------------------
# parameter initialization helpers


def init_conv(rng, c_in, c_out, kernel, stride=(1, 1, 1), padding=None,
              gain=2.0) -> ConvParams:
    # gain 2 (He) ahead of rectifiers; gain 1 for linear paths
    # (shortcut projections, logit heads), which must not amplify
    kernel = tuple(kernel)
    if padding is None:
        if any(k % 2 == 0 for k in kernel):
            raise ValueError("'same' padding needs odd kernel extents")
        padding = tuple(k // 2 for k in kernel)
    fan_in = c_in * int(np.prod(kernel))
    weight = Tensor(rng.normal((c_out, c_in) + kernel, std=float(np.sqrt(gain / fan_in))),
                    requires_grad=True)
    b = Tensor(np.zeros(c_out), requires_grad=True)
    return ConvParams(weight=weight, bias=b, stride=tuple(stride), padding=tuple(padding))


def init_conv_transpose(rng, c_in, c_out, stride) -> ConvTransposeParams:
    stride = tuple(stride)
    weight = Tensor(rng.normal((c_in, c_out) + stride, std=float(np.sqrt(1.0 / c_in))),
                    requires_grad=True)
    b = Tensor(np.zeros(c_out), requires_grad=True)
    return ConvTransposeParams(weight=weight, bias=b, stride=stride)


def init_linear(rng, n_in, n_out, bias=True):
    w = Tensor(rng.normal((n_in, n_out), std=float(np.sqrt(1.0 / n_in))), requires_grad=True)
    b = Tensor(np.zeros(n_out), requires_grad=True) if bias else None
    return w, b
