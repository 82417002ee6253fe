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
from .tensor import ShapeError, Tensor, _check_finite, make_op

DOWNSAMPLE_CHUNK = 512    # voxels per block of downsample_stage: a 128-row f32 block is 256 KB


def downsample_stage(f_i: Tensor, conv: ConvParams, target) -> Tensor:
    """e_i = AdapPool(ReLU(Conv_1x1x1(F_i))) resized to ``target``, as one node.

    The pooling target is the bottleneck spatial shape, taken from m1
    at forward time so one parameter set serves any input size; it must
    divide the stage extent.  A cell is one pooling window of one
    sample (n voxels).  The conv, ReLU and sum run over blocks of at
    most ``DOWNSAMPLE_CHUNK`` voxels, in one reused (C', block)
    pre-activation buffer: a block holds whole cells when n is at most
    that, and consecutive parts of one cell otherwise.  Each block's
    sums are added into its cells' sums, and the pool is sum / n, so the
    C' x D x H x W activation never exists.  A block whose minimum is
    not finite raises, so an overflow to -inf that the ReLU would hide
    still does.  Backward recomputes each block's pre-activation for the
    ReLU mask.
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
    # (C_in, cells * n): the columns of one cell are adjacent
    cell_order = (1, 0, 2, 4, 6, 3, 5, 7)
    x_cols = f_i.data.reshape(b, c_in, td, fd, th, fh, tw, fw).transpose(cell_order)
    x_cols = x_cols.reshape(c_in, n_cols)
    weight, bias = conv.weight, conv.bias
    w_mat = weight.data.reshape(c_out, c_in)
    b_col = 0.0 if bias is None else bias.data[:, None]
    group = max(1, DOWNSAMPLE_CHUNK // n) * n        # columns of whole cells
    # [s, e) per block; min(n, e - s) columns of each of its cells
    blocks = [(s, min(s + DOWNSAMPLE_CHUNK, g + group, n_cols))
              for g in range(0, n_cols, group)
              for s in range(g, min(g + group, n_cols), DOWNSAMPLE_CHUNK)]
    buf = np.empty(c_out * max(e - s for s, e in blocks), dtype=np.result_type(w_mat, x_cols))

    def pre_activation(s, e):
        """The block's (C', cells, columns per cell) pre-activation, and
        the index of its first cell."""
        y = np.matmul(w_mat, x_cols[:, s:e], out=buf[:c_out * (e - s)].reshape(c_out, e - s))
        y += b_col
        return y.reshape(c_out, -1, min(n, e - s)), s // n

    sums = np.zeros((c_out, cells), dtype=buf.dtype)
    for s, e in blocks:
        y, c0 = pre_activation(s, e)
        _check_finite(y.min(), "downsample_stage")        # NaN and -inf reach the min
        sums[:, c0:c0 + y.shape[1]] += np.maximum(y, 0, out=y).sum(axis=2)
    out = (sums / n).reshape(c_out, b, td, th, tw).transpose(1, 0, 2, 3, 4)

    def backward(g):
        g_cells = g.transpose(1, 0, 2, 3, 4).reshape(c_out, cells, 1) / n
        dw = np.zeros(w_mat.shape, dtype=g.dtype)
        db = np.zeros(c_out, dtype=g.dtype)
        dx = np.empty_like(x_cols) if f_i.requires_grad else None
        for s, e in blocks:
            y, c0 = pre_activation(s, e)
            # the ReLU slope is 1 at 0, as in nnops.leaky_relu
            gy = np.multiply(y >= 0, g_cells[:, c0:c0 + y.shape[1]], out=y)
            gy = gy.reshape(c_out, -1)
            dw += gy @ x_cols[:, s:e].T
            db += gy.sum(axis=1)
            if dx is not None:
                np.matmul(w_mat.T, gy, out=dx[:, s:e])
        if weight.requires_grad:
            weight._accumulate(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(db)
        if dx is not None:
            dx = dx.reshape(c_in, b, td, th, tw, fd, fh, fw).transpose(np.argsort(cell_order))
            f_i._accumulate(dx.reshape(f_i.shape), owned=True)

    parents = (f_i, weight) if bias is None else (f_i, weight, bias)
    return make_op(out, parents, "downsample_stage", backward)


def aggregate(e_list, lambdas: Tensor) -> Tensor:
    """Weighted sum e_hat = sum_i lambda_i e_i; gradients reach every term."""
    if len(e_list) != lambdas.shape[0]:
        raise ShapeError(f"{len(e_list)} stage features for {lambdas.shape[0]} lambdas")
    shape = e_list[0].shape
    for i, e in enumerate(e_list):
        if e.shape != shape:
            raise ShapeError(f"stage feature {i} has shape {e.shape}, expected {shape}")
    out = None
    for i, e in enumerate(e_list):
        lam_i = lambdas.narrow(0, i, 1).reshape(())
        term = e * lam_i
        out = term if out is None else out + term
    return out


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
