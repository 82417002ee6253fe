"""Neural network layers and losses on top of the tensor engine.

3D convolution runs on one flat zero-padded layout: each phase of the
stride of each sample's padded input is a (C, grid + tail) buffer, so
the input of every kernel tap for a run of output anchors is a
contiguous slice.  For each chunk of about CONV_CHUNK gathered
elements, one strided copy per phase fills the im2col buffer and one
BLAS matmul writes the output over whole grid planes.  A stride-1
correlation with fewer output rows than input channels gathers
nothing: it multiplies the stacked weight rows of each depth tap with
contiguous slices of the buffer and adds the products back shifted.
The buffers live only inside the forward or the backward call;
backward gathers again rather than caching them, which keeps the live
graph small.  Instance norm is one tape node with a hand-written
adjoint, and the rectifiers are max(x, alpha * x) without a select.
The segmentation loss is the unweighted sum of soft Dice (per class
over the whole batch, averaged over foreground classes) and mean voxel
cross-entropy.
"""

from __future__ import annotations

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

    weight: (C_out, C_in, kd, kh, kw); bias: (C_out,) or None.
    Output extent per axis is floor((in + 2*pad - k) / stride) + 1.
    """
    weight: Tensor
    bias: Tensor | None
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


def _chunks(b, anchors, rows):
    """(bi, q0, q1) for every chunk of the first ``anchors`` grid anchors
    of every sample: as many anchors as keep ``rows`` elements per
    anchor (gathered, or of a stacked product) within about CONV_CHUNK,
    at least one."""
    per = max(1, CONV_CHUNK // rows)
    for bi in range(b):
        for q0 in range(0, anchors, per):
            yield bi, q0, min(q0 + per, anchors)


def _gathered(src, kernel, stride, grid, anchors):
    """(bi, q0, cols) for every chunk of ``_chunks`` over ``anchors``.

    ``src`` is a C-contiguous (B, P, C, L): per sample and phase, C flat
    grids of ``grid``'s (H, W) geometry.  cols is (C*kd*kh*kw, n), its rows in
    the weight's (channel, tap) order: the row of channel c and tap
    (i, j, k) holds src[bi, p, c, q0 + m + (i div s)*H*W + (j div s)*W
    + (k div s)] for the n anchors q0 + m of the chunk, p being phase
    (i mod s, j mod s, k mod s).  Each phase's rows are one ``copyto``
    from a strided view whose inner rows are the whole chunk.  One
    buffer serves every chunk.
    """
    b, _, c, length = src.shape
    es = src.itemsize
    steps = (grid[1] * grid[2] * es, grid[2] * es, es)
    phases = _phases(kernel, stride)
    views = [np.ndarray((b, c) + taps + (anchors,), src.dtype, src, p * length * c * es,
                        (src.strides[0], src.strides[2]) + steps + (es,))
             for p, (_, taps) in enumerate(phases)]
    rows = c * int(np.prod(kernel))
    buf = np.empty(rows * min(anchors, max(1, CONV_CHUNK // rows)), dtype=src.dtype)
    for bi, q0, q1 in _chunks(b, anchors, rows):
        cols = buf[:rows * (q1 - q0)].reshape((c,) + kernel + (-1,))
        for ((a, bb, cc), _), v in zip(phases, views):
            np.copyto(cols[:, a::stride[0], bb::stride[1], cc::stride[2]], v[bi, ..., q0:q1])
        yield bi, q0, cols.reshape(rows, -1)


def _correlate(src, w_mat, kernel, stride, grid, out, bias=None):
    """Fill ``out`` (B, C_out, Do, Ho, Wo) with the correlation of ``src``
    and the (C_out, C*taps) ``w_mat``.  Each sample's output is built
    extended over whole grid planes, a block of anchors at a time, by
    ``_output_side`` for a stride-1 conv with fewer output rows than
    input channels and by ``_input_side`` otherwise; one (bias-fused)
    copy per sample keeps the Ho x Wo corner of each plane."""
    c_out = w_mat.shape[0]
    _, hr, wr = grid
    do, ho, wo = out.shape[2:]
    ext = np.empty((c_out, do * hr * wr), dtype=out.dtype)
    corner = ext.reshape(c_out, do, hr, wr)[:, :, :ho, :wo]
    if stride == (1, 1, 1) and c_out < src.shape[2]:
        blocks = _output_side(src, w_mat, kernel, grid, ext)
    else:
        blocks = _input_side(src, w_mat, kernel, stride, grid, ext)
    for bi, q1 in blocks:
        if q1 < ext.shape[1]:
            continue
        if bias is None:
            np.copyto(out[bi], corner)
        else:
            np.add(corner, bias[:, None, None, None], out=out[bi])


def _input_side(src, w_mat, kernel, stride, grid, ext):
    """For every chunk of ``_gathered``, one GEMM of ``w_mat`` and the
    gathered columns into ``ext``; yields (bi, q1) once ext[:, :q1] of
    sample bi is filled."""
    for bi, q0, cols in _gathered(src, kernel, stride, grid, ext.shape[1]):
        q1 = q0 + cols.shape[1]
        np.matmul(w_mat, cols, out=ext[:, q0:q1])
        yield bi, q1


def _output_side(src, w_mat, kernel, grid, ext):
    """The stride-1 correlation without a gather, as ``_input_side``
    yields it.  For a block of n anchors from q0 and each depth tap i,
    one GEMM multiplies the (kh*kw*C_out, C) weight of that tap's plane
    with the contiguous slice src[bi, 0, :, q0 + i*H*W:][:n + halo], halo
    being the farthest in-plane offset (kh-1)*W + kw-1; row block (j, k)
    of the product, shifted by j*W + k, is then added into the block's
    output.  Blocks hold about CONV_CHUNK elements of the product."""
    c_out, c_in = w_mat.shape[0], src.shape[2]
    kd, kh, kw = kernel
    plane, pitch = grid[1] * grid[2], grid[2]
    halo = (kh - 1) * pitch + kw - 1
    offsets = [j * pitch + k for j in range(kh) for k in range(kw)]
    rows = kh * kw * c_out
    # (kd, kh*kw*C_out, C): per depth tap, the weight rows in (j, k, channel) order
    w_taps = w_mat.reshape(c_out, c_in, kd, kh * kw).transpose(2, 3, 0, 1).reshape(kd, rows, c_in)
    anchors = ext.shape[1]
    buf = np.empty(rows * (min(anchors, max(1, CONV_CHUNK // rows)) + halo), dtype=ext.dtype)
    for bi, q0, q1 in _chunks(src.shape[0], anchors, rows):
        n = q1 - q0
        prod = buf[:rows * (n + halo)].reshape(rows, n + halo)
        taps = prod.reshape(kh * kw, c_out, n + halo)
        acc = ext[:, q0:q1]
        for i in range(kd):
            start = q0 + i * plane
            np.matmul(w_taps[i], src[bi, 0, :, start:start + n + halo], out=prod)
            for t, off in enumerate(offsets):
                if i or t:
                    acc += taps[t, :, off:off + n]
                else:
                    np.copyto(acc, taps[0, :, :n])
        yield bi, q1


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
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        g_flat = g.reshape(b, c_out, -1)
        if weight.requires_grad:
            xs = cols()
            # dWᵀ = x @ gᵀ: BLAS runs this shape about twice as fast as g @ xᵀ
            dw_t = sum(xs[bi] @ g_flat[bi].T for bi in range(b))
            weight._accumulate(dw_t.T.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_flat.sum(axis=(0, 2)))
        if x.requires_grad:
            dxs = np.matmul(w.T, g_flat)
            if p.stride == (1, 1, 1):
                x._accumulate(dxs.reshape(x.shape), owned=True)
                return
            dx = np.zeros_like(x.data)
            dx[:, :, ::sd, ::sh, ::sw] = dxs.reshape((b, c_in) + tuple(out_spatial))
            x._accumulate(dx, owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_op(out.reshape((b, c_out) + tuple(out_spatial)), parents, "conv3d", backward)


def conv3d(x: Tensor, p: ConvParams) -> Tensor:
    """3D cross-correlation with zero padding, on one flat padded layout.

    The zero-padded input is split into the phases of the stride (s^3 of
    them, one at stride 1), and each phase of each sample is flattened to
    (C, D'*H'*W' + tail) over one grid (``_grid``): D' = Do + (kd-1) div s
    planes, and rows and planes that share their border zeros, so W' is
    W + p rather than W + 2p at stride 1.  The input of tap (i, j, k)
    for output anchor q = d*H'W' + h*W' + w is then element
    q + (i div s)*H'W' + (j div s)*W' + (k div s) of phase
    (i mod s, j mod s, k mod s): the gather of a chunk of anchors is one
    ``copyto`` per phase whose inner rows are the whole chunk, and one
    GEMM writes the output extended over whole grid planes.  At stride 1
    with C_out < C_in (every decoder block) the output side is cheaper:
    per block of anchors and depth tap, one GEMM of the (kh*kw*C_out,
    C_in) stacked weight with a contiguous slice of the buffer, then
    kh*kw shifted adds (``_output_side``).  One bias-fused copy keeps
    the Do x Ho x Wo voxels.  The tape keeps only the flat buffer.

    Backward places the output gradient once in the same grid, zero on
    the border columns, and gathers the input again for the weight
    gradient.  At stride 1 (with padding < kernel) the input gradient is
    the same correlation, run on that gradient buffer behind a front
    margin, against the flipped kernel with C_in and C_out swapped; it
    runs output-side when the forward widens (C_in < C_out).  Otherwise
    the GEMM's transpose adds each tap's rows back into the flat
    buffer's gradient as contiguous slices.  A 1x1x1 conv without
    padding skips the gather and multiplies the input directly.
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
    w_mat = p.weight.data.reshape(c_out, -1)
    weight, bias = p.weight, p.bias
    out = np.empty((b, c_out) + out_spatial, dtype=np.result_type(xp, w_mat))
    _correlate(xp, w_mat, kernel, stride, grid, out, None if bias is None else bias.data)
    # the flipped-kernel adjoint needs a padding k - 1 - p >= 0
    flip = stride == (1, 1, 1) and all(q < k for q, k in zip(padding, kernel))

    def backward(g):
        # g in the grid, after a front margin that aligns the flipped
        # kernel's taps with dx: g[q] meets dx[q + margin - offset(tap)]
        margin = sum((k - 1 - q) * m for k, q, m in zip(kernel, padding, (plane, pitch, 1))) \
            if flip else 0
        # the flipped taps of the last dx anchor reach (D + kd - 1) planes
        length = max((spatial[0] + kd - 1) * plane + (kh - 1) * pitch + kw - 1,
                     margin + do * plane) if flip else do * plane
        gp = np.zeros((b, 1, c_out, length), dtype=g.dtype)
        g_at = gp[:, 0, :, margin:margin + do * plane]       # g at the forward anchors
        g_at.reshape(b, c_out, do, grid[1], pitch)[:, :, :, :ho, :wo] = g
        if weight.requires_grad:
            # dWᵀ = cols @ gᵀ: BLAS runs this shape about twice as fast as g @ colsᵀ
            dw_t = np.zeros(w_mat.shape[::-1], dtype=g.dtype)
            for bi, q0, cols in _gathered(xp, kernel, stride, grid, do * plane):
                dw_t += cols @ g_at[bi, :, q0:q0 + cols.shape[1]].T
            weight._accumulate(dw_t.T.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))
        if not x.requires_grad:
            return
        if flip:
            w_flip = weight.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4).reshape(c_in, -1)
            dx = np.empty(x.shape, dtype=g.dtype)
            _correlate(gp, w_flip, kernel, (1, 1, 1), grid, dx)
            x._accumulate(dx, owned=True)
            return
        dxp = np.zeros_like(xp)
        rows = w_mat.shape[1]
        for bi, q0, q1 in _chunks(b, do * plane, rows):
            n = q1 - q0
            dcols = (w_mat.T @ g_at[bi, :, q0:q0 + n]).reshape((c_in,) + kernel + (n,))
            for ph, ((a, bb, c), taps) in enumerate(phases):
                for i, j, k in np.ndindex(taps):
                    off = q0 + i * plane + j * pitch + k
                    dxp[bi, ph, :, off:off + n] += dcols[:, a + i * stride[0], bb + j * stride[1],
                                                         c + k * stride[2]]
        dx = np.zeros(x.shape, dtype=g.dtype)
        for n, (dst, src) in enumerate(slices):
            dx[src] = dxp[:, n, :, :size].reshape((b, c_in) + grid)[dst]
        x._accumulate(dx, owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_op(out, parents, "conv3d", backward)


@dataclass
class ConvTransposeParams:
    """Transposed 3D conv used for decoder upsampling.

    weight: (C_in, C_out, kd, kh, kw).  Only the kernel == stride,
    zero-padding case is supported: each input voxel expands into a
    disjoint k-sized output block, so output extent is in * stride.
    """
    weight: Tensor
    bias: Tensor | None
    stride: tuple[int, int, int]


def conv_transpose3d(x: Tensor, p: ConvTransposeParams) -> Tensor:
    c_in, c_out, kd, kh, kw = p.weight.shape
    if p.stride != (kd, kh, kw):
        raise ShapeError(f"conv_transpose3d supports kernel == stride only, "
                         f"got kernel {(kd, kh, kw)} stride {p.stride}")
    if x.shape[1] != c_in:
        raise ShapeError(f"conv_transpose3d channel mismatch: input has {x.shape[1]}, "
                         f"weight expects {c_in}")
    b, _, d, h, w = x.shape
    w_mat = p.weight.data.reshape(c_in, -1)            # (C_in, C_out*k^3)
    x_mat = x.data.transpose(0, 2, 3, 4, 1).reshape(-1, c_in)
    out = x_mat @ w_mat                                # (B*D*H*W, C_out*k^3)
    out = out.reshape(b, d, h, w, c_out, kd, kh, kw)
    out = out.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(b, c_out, d * kd, h * kh, w * kw)
    if p.bias is not None:
        out = out + p.bias.data.reshape(1, c_out, 1, 1, 1)

    weight, bias = p.weight, p.bias

    def backward(g):
        g_blocks = g.reshape(b, c_out, d, kd, h, kh, w, kw)
        g_mat = g_blocks.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(-1, c_out * kd * kh * kw)
        if weight.requires_grad:
            weight._accumulate((x_mat.T @ g_mat).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3, 4)))
        if x.requires_grad:
            dx = (g_mat @ w_mat.T).reshape(b, d, h, w, c_in).transpose(0, 4, 1, 2, 3)
            x._accumulate(np.ascontiguousarray(dx), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_op(out, parents, "conv_transpose3d", backward)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = EPS_NORM) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta per (batch, channel)
    slice, with the biased variance, as one tape node.

    The forward runs the arithmetic of the autodiff composition op for
    op (pairwise ``np.sum`` means, x̂ = (x - mean) / sqrt(var + eps)),
    so its values are bit-equal to it.  The tape keeps only x̂ and
    rstd = 1/sqrt(var + eps).  Backward: dβ = Σ g, dγ = Σ g·x̂ and
    dx = rstd·(gγ - mean(gγ) - x̂·mean(gγ·x̂)), with the sums over each
    slice.

    A spatial size of 1 is not an error: variance collapses to zero and
    the eps floor turns the slice into zeros before the affine map.
    """
    if x.ndim != 5:
        raise ShapeError(f"instance_norm expects (B,C,D,H,W), got {x.shape}")
    b, c = x.shape[:2]
    n = x.size // (b * c)
    flat = x.data.reshape(b, c, n)
    xhat = flat - flat.sum(axis=2, keepdims=True) * (1.0 / n)
    var = np.square(xhat).sum(axis=2, keepdims=True) * (1.0 / n)
    std = np.sqrt(var + eps)
    xhat /= std
    rstd = 1.0 / std
    out = xhat * gamma.data[:, None]
    out += beta.data[:, None]

    def backward(g):
        g = g.reshape(b, c, n)
        g_sum = g.sum(axis=2)
        gx = g * xhat
        gx_sum = gx.sum(axis=2)
        if beta.requires_grad:
            beta._accumulate(g_sum.sum(axis=0))
        if gamma.requires_grad:
            gamma._accumulate(gx_sum.sum(axis=0))
        if x.requires_grad:
            # rstd·γ·(g - mean(g) - x̂·mean(g·x̂)), built in the g·x̂ buffer
            dx = np.multiply(xhat, gx_sum[:, :, None] * (1.0 / n), out=gx)
            np.subtract(g, dx, out=dx)
            dx -= g_sum[:, :, None] * (1.0 / n)
            dx *= rstd * gamma.data[:, None]
            x._accumulate(dx.reshape(x.shape), owned=True)

    return make_op(out.reshape(x.shape), (x, gamma, beta), "instance_norm", backward)


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
        x._accumulate(slope, owned=True)

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
        x._accumulate(dx, owned=True)

    return make_op(out, (x,), "silu", backward)


def softmax(x: Tensor, axis: int) -> Tensor:
    return exp(log_softmax(x, axis))


def adaptive_avg_pool3d(x: Tensor, target) -> Tensor:
    """Resize spatial dims to ``target`` by mean over half-open windows.

    Window i along an axis of size S resized to T covers source indices
    [floor(i*S/T), ceil((i+1)*S/T)).  target == source is the identity.
    """
    td, th, tw = (int(t) for t in target)
    b, c, d, h, w = x.shape
    for t, s in zip((td, th, tw), (d, h, w)):
        if t < 1 or t > s:
            raise ShapeError(f"pool target {(td, th, tw)} invalid for source {(d, h, w)}")

    def bounds(s, t):
        return [(int(np.floor(i * s / t)), int(np.ceil((i + 1) * s / t))) for i in range(t)]

    bd, bh, bw = bounds(d, td), bounds(h, th), bounds(w, tw)

    if d % td == 0 and h % th == 0 and w % tw == 0:
        # equal partition fast path: reshape + mean
        fd, fh, fw = d // td, h // th, w // tw
        out = x.data.reshape(b, c, td, fd, th, fh, tw, fw).mean(axis=(3, 5, 7))

        def backward(g):
            gg = g / (fd * fh * fw)
            gg = np.broadcast_to(gg[:, :, :, None, :, None, :, None],
                                 (b, c, td, fd, th, fh, tw, fw))
            x._accumulate(gg.reshape(b, c, d, h, w).astype(x.dtype, copy=False))

        return make_op(out, (x,), "adaptive_avg_pool3d", backward)

    out = np.empty((b, c, td, th, tw), dtype=x.dtype)
    for i, (d0, d1) in enumerate(bd):
        for j, (h0, h1) in enumerate(bh):
            for k, (w0, w1) in enumerate(bw):
                out[:, :, i, j, k] = x.data[:, :, d0:d1, h0:h1, w0:w1].mean(axis=(2, 3, 4))

    def backward(g):
        dx = np.zeros_like(x.data)
        for i, (d0, d1) in enumerate(bd):
            for j, (h0, h1) in enumerate(bh):
                for k, (w0, w1) in enumerate(bw):
                    n = (d1 - d0) * (h1 - h0) * (w1 - w0)
                    dx[:, :, d0:d1, h0:h1, w0:w1] += g[:, :, i:i + 1, j:j + 1, k:k + 1] / n
        x._accumulate(dx)

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

    Dice is computed per class with sums over the whole batch, then
    averaged over foreground classes (class 0 is background).
    """
    if logits.ndim != 5:
        raise ShapeError(f"dice_ce_loss expects logits (B,K,D,H,W), got {logits.shape}")
    n_classes = logits.shape[1]
    if n_classes < 2:
        raise ShapeError("dice_ce_loss needs at least 2 classes")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],) + logits.shape[2:]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    onehot = one_hot(labels.astype(np.int64), n_classes, logits.dtype)

    logp = log_softmax(logits, axis=1)
    ce = -(logp * onehot).sum(axis=1).mean()

    probs = exp(logp)
    dice_terms = []
    for c in range(1, n_classes):
        p_c = probs.narrow(1, c, 1)
        y_c = onehot[:, c:c + 1]
        inter = (p_c * y_c).sum()
        denom = p_c.sum() + float(y_c.sum())
        dice_terms.append((inter * 2.0 + eps) / (denom + eps))
    mean_dice = dice_terms[0]
    for t in dice_terms[1:]:
        mean_dice = mean_dice + t
    mean_dice = mean_dice * (1.0 / len(dice_terms))
    dice_loss = 1.0 - mean_dice

    total = dice_loss + ce
    return LossValue(total=total, dice_part=dice_loss, ce_part=ce)


# ----------------------------------------------------------------------
# parameter initialization helpers


def init_conv(rng, c_in, c_out, kernel, stride=(1, 1, 1), padding=None, bias=True,
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
    b = Tensor(np.zeros(c_out), requires_grad=True) if bias else None
    return ConvParams(weight=weight, bias=b, stride=tuple(stride), padding=tuple(padding))


def init_conv_transpose(rng, c_in, c_out, stride) -> ConvTransposeParams:
    stride = tuple(stride)
    weight = Tensor(rng.normal((c_in, c_out) + stride, std=float(np.sqrt(1.0 / c_in))),
                    requires_grad=True)
    b = Tensor(np.zeros(c_out), requires_grad=True)
    return ConvTransposeParams(weight=weight, bias=b, stride=stride)


def init_linear(rng, n_in, n_out, bias=True, std=None):
    w = Tensor(rng.normal((n_in, n_out), std=std if std is not None else float(np.sqrt(1.0 / n_in))),
               requires_grad=True)
    b = Tensor(np.zeros(n_out), requires_grad=True) if bias else None
    return w, b
