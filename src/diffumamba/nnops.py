"""Neural network layers and losses on top of the tensor engine.

3D convolution is a blocked im2col: for each chunk of whole output
depth planes, the windows of all kernel taps are copied into one
buffer of about CONV_CHUNK elements and multiplied by the weight
matrix in one BLAS matmul.  The buffer lives only inside the forward
or the backward call; backward gathers again rather than caching it,
which keeps the live graph small.  Instance norm is one tape node with
a hand-written adjoint, and the rectifiers are max(x, alpha * x)
without a select.  The segmentation loss is the unweighted sum of soft
Dice (per class over the whole batch, averaged over foreground
classes) and mean voxel cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, exp, log_softmax, make_op, mul, sigmoid

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


def _plane_chunks(b, do, plane):
    """(bi, d0, d1) for every chunk of whole output depth planes of every
    sample: as many planes as keep ``plane`` elements per plane within
    about CONV_CHUNK, at least one."""
    per = max(1, CONV_CHUNK // plane)
    for bi in range(b):
        for d0 in range(0, do, per):
            yield bi, d0, min(d0 + per, do)


def _pad(a, widths):
    """Zero-pad the spatial axes of ``a`` by ``widths``; no copy when all are 0."""
    if not any(widths):
        return a
    return np.pad(a, ((0, 0), (0, 0)) + tuple((q, q) for q in widths))


def _gathered(xp, kernel, stride, out_spatial):
    """(bi, d0, d1, cols) for every chunk of ``_plane_chunks``.

    cols is (kd*kh*kw*C_in, n): the window of the padded ``xp`` that each
    tap meets, for the n output voxels of depth planes [d0, d1) of sample
    bi.  Rows run tap-major, then input channel.  One buffer serves every
    chunk and is freed when the generator ends.
    """
    b, c_in = xp.shape[:2]
    do, ho, wo = out_spatial
    rows = c_in * int(np.prod(kernel))
    sd, sh, sw = stride
    # (B, kd, kh, kw, C_in, Do, Ho, Wo): every tap's window, as a view
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3, 4))
    windows = windows[:, :, ::sd, ::sh, ::sw].transpose(0, 5, 6, 7, 1, 2, 3, 4)
    plane = rows * ho * wo
    buf = np.empty(min(do, max(1, CONV_CHUNK // plane)) * plane, dtype=xp.dtype)
    for bi, d0, d1 in _plane_chunks(b, do, plane):
        cols = buf[:(d1 - d0) * plane]
        np.copyto(cols.reshape(kernel + (c_in, d1 - d0, ho, wo)), windows[bi, ..., d0:d1, :, :])
        yield bi, d0, d1, cols.reshape(rows, -1)


def _correlate(xp, w_mat, kernel, stride, out_spatial, bias=None):
    """(B, C_out) + out_spatial cross-correlation of the padded ``xp`` with
    the (C_out, kd*kh*kw*C_in) tap-major ``w_mat``: one GEMM per chunk,
    written straight into the output."""
    b, c_out = xp.shape[0], w_mat.shape[0]
    hw = out_spatial[1] * out_spatial[2]
    out = np.empty((b, c_out) + tuple(out_spatial), dtype=np.result_type(xp, w_mat))
    flat = out.reshape(b, c_out, -1)
    for bi, d0, d1, cols in _gathered(xp, kernel, stride, out_spatial):
        chunk = flat[bi, :, d0 * hw:d1 * hw]
        np.matmul(w_mat, cols, out=chunk)
        if bias is not None:
            chunk += bias[:, None]
    return out


def conv3d(x: Tensor, p: ConvParams) -> Tensor:
    """3D cross-correlation with zero padding, as a blocked im2col.

    Each chunk of whole output depth planes gathers all kd*kh*kw tap
    windows into one buffer and runs one GEMM.  Backward gathers the
    input again for the weight gradient.  At stride 1 the input gradient
    is itself a stride-1 correlation: the output gradient, padded by
    k - 1 - p, against the flipped kernel with C_in and C_out swapped,
    so it runs through the same kernel.  Strided convs scatter each
    chunk's Wᵀ @ g into the padded input gradient instead.
    """
    if x.ndim != 5:
        raise ShapeError(f"conv3d expects (B,C,D,H,W), got {x.shape}")
    c_out, c_in, kd, kh, kw = p.weight.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv3d channel mismatch: input has {x.shape[1]}, weight expects {c_in}")
    b, spatial = x.shape[0], x.shape[2:]
    kernel = (kd, kh, kw)
    out_spatial = conv_output_shape(spatial, kernel, p.stride, p.padding)
    do, ho, wo = out_spatial
    pd, ph, pw = p.padding
    xp = _pad(x.data, p.padding)
    w_mat = p.weight.data.transpose(0, 2, 3, 4, 1).reshape(c_out, -1)
    weight, bias = p.weight, p.bias
    out = _correlate(xp, w_mat, kernel, p.stride, out_spatial,
                     None if bias is None else bias.data)
    # the flipped-kernel adjoint needs a padding k - 1 - p >= 0
    flip = p.stride == (1, 1, 1) and all(q < k for q, k in zip(p.padding, kernel))

    def backward(g):
        g_flat = g.reshape(b, c_out, -1)
        hw = ho * wo
        if weight.requires_grad:
            # dWᵀ = cols @ gᵀ: BLAS runs this shape about twice as fast as g @ colsᵀ
            dw_t = np.zeros(w_mat.shape[::-1], dtype=g.dtype)
            for bi, d0, d1, cols in _gathered(xp, kernel, p.stride, out_spatial):
                dw_t += cols @ g_flat[bi, :, d0 * hw:d1 * hw].T
            weight._accumulate(dw_t.T.reshape(c_out, kd, kh, kw, c_in).transpose(0, 4, 1, 2, 3))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_flat.sum(axis=(0, 2)))
        if not x.requires_grad:
            return
        if flip:
            gp = _pad(g, tuple(k - 1 - q for k, q in zip(kernel, p.padding)))
            w_flip = w_mat.reshape(c_out, kd, kh, kw, c_in)[:, ::-1, ::-1, ::-1]
            w_flip = w_flip.transpose(4, 1, 2, 3, 0).reshape(c_in, -1)
            x._accumulate(_correlate(gp, w_flip, kernel, (1, 1, 1), spatial), owned=True)
            return
        sd, sh, sw = p.stride
        dxp = np.zeros_like(xp)
        for bi, d0, d1 in _plane_chunks(b, do, w_mat.shape[1] * hw):
            dcols = (w_mat.T @ g_flat[bi, :, d0 * hw:d1 * hw]).reshape(
                kernel + (c_in, d1 - d0, ho, wo))
            for i, j, k in np.ndindex(kernel):
                dxp[bi, :, d0 * sd + i:d1 * sd + i:sd, j:j + ho * sh:sh,
                    k:k + wo * sw:sw] += dcols[i, j, k]
        x._accumulate(dxp[:, :, pd:pd + spatial[0], ph:ph + spatial[1], pw:pw + spatial[2]],
                      owned=True)

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
    return mul(x, sigmoid(x))


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
