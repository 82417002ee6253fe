"""Noise reduction module: learn noise features per encoder stage and
subtract their estimate from the bottleneck.

Every encoder stage output F_i is squeezed through a dedicated
downsampling block (1x1x1 conv -> ReLU -> adaptive average pool, one
tape node) so all e_i share the bottleneck shape.  A learnable scalar
per stage weights the sum e_hat = sum_i lambda_i e_i, a second mamba
block turns e_hat into the noise estimate m2, and the denoised
bottleneck is m1 - m2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# conv3d, relu and adaptive_avg_pool3d stay bound here: perfbench/tracer.py wraps them by name
from .nnops import ConvParams, adaptive_avg_pool3d, conv3d, init_conv, relu  # noqa: F401
from .ssm import MambaBlockParams, init_mamba_block, mamba_block
from .tensor import ShapeError, Tensor, _check_finite, concat, make_op

DOWNSAMPLE_CHUNK = 512    # voxels per block of downsample_stage: a 128-row f32 block is 256 KB


def downsample_stage(f_i: Tensor, conv: ConvParams, target) -> Tensor:
    """e_i = AdapPool(ReLU(Conv_1x1x1(F_i))) resized to ``target``, as one node.

    The pooling target is the bottleneck spatial shape, taken from m1
    at forward time so one parameter set serves any input size; it must
    divide the stage extent.  A cell is one pooling window of one
    sample (n voxels).  The input is written once, cell by cell, into a
    (C + 1, cells * n) buffer whose last row is ones, so the bias is the
    last column of the (C', C + 1) weight matrix (zero without a bias)
    and each block's conv is one GEMM.  The conv, ReLU and sum run over
    blocks of at most ``DOWNSAMPLE_CHUNK`` voxels, in one reused (C',
    block) pre-activation buffer: a block holds whole cells when n is at
    most that, and consecutive parts of one cell otherwise.  A block's
    per-cell sums are a matrix-vector product with ones, added into its
    cells' sums, and the pool is sum / n, so the C' x D x H x W
    activation never exists.  At n = 1 the activation is the output: one
    GEMM per sample writes it in the output's layout, and backward takes
    all cells as one block.  An overflow to -inf that the ReLU
    would hide still raises: each block's minimum is checked unless
    max|input| * max_o sum|weight row o| bounds every pre-activation
    below half the dtype's largest value.  Backward recomputes each
    block's pre-activation for the ReLU mask; the weight gradient's
    ones column is the bias gradient.
    """
    if f_i.ndim != 5 or conv.weight.shape[1:] != (f_i.shape[1], 1, 1, 1):
        raise ShapeError(f"downsample_stage needs (B,C,D,H,W) input and a 1x1x1 conv "
                         f"from C, got {f_i.shape} and weight {conv.weight.shape}")
    b, c_in, *spatial = f_i.shape
    c_out = conv.weight.shape[0]
    td, th, tw = (int(t) for t in target)
    if any(t < 1 or s % t for s, t in zip(spatial, (td, th, tw))):
        raise ShapeError(f"pool target {(td, th, tw)} does not divide stage extent "
                         f"{tuple(spatial)}")
    fd, fh, fw = spatial[0] // td, spatial[1] // th, spatial[2] // tw
    n = fd * fh * fw
    cells = b * td * th * tw
    n_cols = cells * n
    weight, bias = conv.weight, conv.bias
    dtype = np.result_type(weight.data, f_i.data)
    # (C_in + 1, cells * n): the columns of one cell are adjacent, the last row is ones
    cell_order = (1, 0, 2, 4, 6, 3, 5, 7)
    x_aug = np.empty((c_in + 1, n_cols), dtype=dtype)
    x_aug[:c_in].reshape(c_in, b, td, th, tw, fd, fh, fw)[...] = \
        f_i.data.reshape(b, c_in, td, fd, th, fh, tw, fw).transpose(cell_order)
    x_aug[c_in] = 1
    w_aug = np.empty((c_out, c_in + 1), dtype=dtype)
    w_aug[:, :c_in] = weight.data.reshape(c_out, c_in)
    w_aug[:, c_in] = 0 if bias is None else bias.data
    chunk = n_cols if n == 1 else DOWNSAMPLE_CHUNK  # one-voxel cells: one block, the output's size
    group = max(1, chunk // n) * n                 # columns of whole cells
    # [s, e) per block; min(n, e - s) columns of each of its cells
    blocks = [(s, min(s + chunk, g + group, n_cols))
              for g in range(0, n_cols, group)
              for s in range(g, min(g + group, n_cols), chunk)]
    buf = np.empty(c_out * max(e - s for s, e in blocks), dtype=dtype)
    # max|x_aug| * max_o sum|w_aug[o]| bounds every pre-activation; below half
    # the dtype's max none overflows and the blocks' minima need no check.  One
    # block is checked directly, which costs less than the bound.  float() lets
    # an overflowing or NaN bound fail the test without a warning
    check_blocks = len(blocks) == 1 or not (
        float(max(x_aug.max(), -x_aug.min())) * float(np.abs(w_aug).sum(axis=1).max())
        < np.finfo(dtype).max / 2)

    def pre_activation(s, e):
        """The block's (C', cells, columns per cell) pre-activation, and
        the index of its first cell."""
        y = np.matmul(w_aug, x_aug[:, s:e], out=buf[:c_out * (e - s)].reshape(c_out, e - s))
        return y.reshape(c_out, -1, min(n, e - s)), s // n

    if n == 1:
        # one-voxel cells: the activation is the output, one GEMM per sample
        out = np.matmul(w_aug, x_aug.reshape(c_in + 1, b, cells // b).transpose(1, 0, 2))
        _check_finite(out.min(), "downsample_stage")
        out = np.maximum(out, 0, out=out).reshape(b, c_out, td, th, tw)
    else:
        ones = np.ones(min(n, chunk), dtype=dtype)
        sums = np.zeros((c_out, cells), dtype=dtype)
        for s, e in blocks:
            y, c0 = pre_activation(s, e)
            if check_blocks:
                _check_finite(y.min(), "downsample_stage")    # NaN and -inf reach the min
            k, m = y.shape[1:]
            np.maximum(y, 0, out=y)
            sums[:, c0:c0 + k] += (y.reshape(-1, m) @ ones[:m]).reshape(c_out, k)
        out = np.empty((b, c_out, td, th, tw), dtype=dtype)
        np.divide(sums.reshape(c_out, b, td, th, tw).transpose(1, 0, 2, 3, 4), n, out=out)

    def backward(g):
        g_cells = g.transpose(1, 0, 2, 3, 4).reshape(c_out, cells, 1) / n
        dw = np.zeros(w_aug.shape, dtype=g.dtype)
        dx = np.empty((c_in, n_cols), dtype=dtype) if f_i.requires_grad else None
        for s, e in blocks:
            y, c0 = pre_activation(s, e)
            # the ReLU slope is 1 at 0, as in nnops.leaky_relu
            gy = np.multiply(y >= 0, g_cells[:, c0:c0 + y.shape[1]], out=y).reshape(c_out, -1)
            dw += gy @ x_aug[:, s:e].T
            if dx is not None:
                np.matmul(w_aug[:, :c_in].T, gy, out=dx[:, s:e])
        if weight.requires_grad:
            weight._accumulate(dw[:, :c_in].reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(dw[:, c_in])
        if dx is not None:
            dx = dx.reshape(c_in, b, td, th, tw, fd, fh, fw).transpose(np.argsort(cell_order))
            f_i._accumulate(dx.reshape(f_i.shape), owned=True)

    parents = (f_i, weight) if bias is None else (f_i, weight, bias)
    return make_op(out, parents, "downsample_stage", backward)


def aggregate(e_list, lambdas: Tensor) -> Tensor:
    """Weighted sum e_hat = sum_i lambda_i e_i; gradients reach every term.

    The stages are stacked on a new leading axis, scaled once by lambda
    broadcast along it, and summed over it: the same additions in the
    same order as a running sum over i, in a fixed number of tape nodes.
    """
    if len(e_list) != lambdas.shape[0]:
        raise ShapeError(f"{len(e_list)} stage features for {lambdas.shape[0]} lambdas")
    shape = e_list[0].shape
    for i, e in enumerate(e_list):
        if e.shape != shape:
            raise ShapeError(f"stage feature {i} has shape {e.shape}, expected {shape}")
    stacked = concat([e.reshape((1,) + shape) for e in e_list], axis=0)
    return (stacked * lambdas.reshape((len(e_list),) + (1,) * len(shape))).sum(axis=0)


@dataclass
class NRMParams:
    downsample: list[ConvParams]     # one 1x1x1 conv C_i -> C' per stage
    lambdas: Tensor                  # shape (l,), unconstrained
    m2: MambaBlockParams

    def named(self, prefix="nrm"):
        for i, conv in enumerate(self.downsample):
            yield f"{prefix}.ds{i + 1}.conv.weight", conv.weight
            yield f"{prefix}.ds{i + 1}.conv.bias", conv.bias
        yield f"{prefix}.lambdas", self.lambdas
        yield from self.m2.named(f"{prefix}.m2")


def init_nrm(rng, stage_channels, bottleneck_channels, lambda_init=0.5,
             n_state=8, expand=2, conv_width=3) -> NRMParams:
    downsample = [init_conv(rng.derive(f"nrm.ds{i}"), c, bottleneck_channels, (1, 1, 1))
                  for i, c in enumerate(stage_channels)]
    lambdas = Tensor(np.full(len(stage_channels), lambda_init), requires_grad=True)
    m2 = init_mamba_block(rng.derive("nrm.m2"), bottleneck_channels,
                          n_state=n_state, expand=expand, conv_width=conv_width)
    return NRMParams(downsample=downsample, lambdas=lambdas, m2=m2)


def nrm_forward(p: NRMParams, stage_features, m1: Tensor, capture=None) -> Tensor:
    """Denoise the bottleneck: m_hat = m1 - M2(sum_i lambda_i e_i).

    ``stage_features`` are the encoder outputs F_1..F_l; the pooling
    target is m1's spatial shape.  Intermediate e_i / e_hat / m2 land in
    ``capture`` when a dict is supplied.
    """
    target = m1.shape[2:]
    e_list = [downsample_stage(f, conv, target)
              for f, conv in zip(stage_features, p.downsample)]
    e_hat = aggregate(e_list, p.lambdas)
    m2 = mamba_block(e_hat, p.m2)
    m_hat = m1 - m2
    if capture is not None:
        capture["e_list"] = e_list
        capture["e_hat"] = e_hat
        capture["m2"] = m2
        capture["m_hat"] = m_hat
    return m_hat


def nrm_param_count(p: NRMParams | None) -> int:
    if p is None:
        return 0
    return sum(t.size for _, t in p.named())
