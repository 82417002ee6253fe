"""Selective state-space machinery.

The continuous dynamics h'(t) = A h(t) + B x(t), y(t) = C h(t) are
discretized with a zero-order hold at timescale delta:

    Abar = exp(delta * A)
    Bbar = (delta * A)^-1 (exp(delta * A) - I) * delta * B

A is diagonal throughout, so both expressions are elementwise.  Bbar is
computed via phi(u) = (e^u - 1)/u with a second-order series fallback
phi(u) ~= 1 + u/2 for |u| < 1e-4, which also covers the a = 0 limit
(Abar = 1, Bbar = delta * b) exactly.

The mamba block runs the input-dependent (selective) recurrence as one
fused tape op, ``selective_scan_t``, with a hand-written reverse-scan
adjoint.  Its independent check, the LTI global-convolution kernel with
its own ``expm1``-based discretization, lives in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nnops import init_linear, silu
from .tensor import Tensor, ShapeError, exp, softplus

PHI_SERIES_CUTOFF = 1e-4


# ----------------------------------------------------------------------
# selective scan as one fused tape op


def selective_scan_t(x: Tensor, dt: Tensor, b_sel: Tensor, c_sel: Tensor, a: Tensor) -> Tensor:
    """Batched selective recurrence as a single tape node.

    x, dt: (B, L, C); b_sel, c_sel: (B, L, N); a: (C, N) with entries <= 0.
    Returns y (B, L, C) with h_t = exp(u_t) h_{t-1} + dt_t phi(u_t) b_t x_t,
    u_t = dt_t a, y_t = h_t . c_t and h_0 = 0.

    The discretization runs vectorized over a token-major (L, B, C, N)
    layout; only the two-op recurrence loops over tokens.  The per-token
    states are kept for the backward pass, which runs the adjoint
    recurrence dh_t = g_t c_t + exp(u_{t+1}) dh_{t+1} in reverse and then
    forms all five input gradients at once.
    """
    bsz, length, ch = x.shape
    n = a.shape[1]
    if dt.shape != x.shape or b_sel.shape != (bsz, length, n) or \
            c_sel.shape != (bsz, length, n) or a.shape != (ch, n):
        raise ShapeError(f"selective scan shapes x{x.shape} dt{dt.shape} b{b_sel.shape} "
                         f"c{c_sel.shape} a{a.shape} do not form (B, L, C)/(B, L, N)/(C, N)")
    xs = x.data.transpose(1, 0, 2)[..., None]              # (L, B, C, 1)
    ds = dt.data.transpose(1, 0, 2)[..., None]             # (L, B, C, 1)
    bs = b_sel.data.transpose(1, 0, 2)[:, :, None, :]      # (L, B, 1, N)
    cs = c_sel.data.transpose(1, 0, 2)[:, :, None, :]      # (L, B, 1, N)
    u = ds * a.data                                        # (L, B, C, N)
    e = np.exp(u)
    small = np.abs(u) < PHI_SERIES_CUTOFF
    safe_u = np.where(small, 1.0, u)
    # exp(u) - 1 rather than expm1 keeps f64 results equal to the taped oracle
    phi = np.where(small, u * 0.5 + 1.0, (e - 1.0) / safe_u)
    hs = ds * phi * bs * xs
    for t in range(1, length):
        hs[t] += e[t] * hs[t - 1]
    y = (hs * cs).sum(axis=3).transpose(1, 0, 2)

    def backward(g):
        gs = g.transpose(1, 0, 2)[..., None]                # (L, B, C, 1)
        dh = gs * cs                                       # g_t c_t, then the adjoint
        for t in range(length - 2, -1, -1):
            dh[t] += e[t + 1] * dh[t + 1]
        if c_sel.requires_grad:
            c_sel._accumulate((gs * hs).sum(axis=2).transpose(1, 0, 2))
        dt_phi = ds * phi                                  # Bbar / b
        if x.requires_grad:
            x._accumulate((dh * dt_phi * bs).sum(axis=3).transpose(1, 0, 2))
        if b_sel.requires_grad:
            b_sel._accumulate((dh * dt_phi * xs).sum(axis=2).transpose(1, 0, 2))
        d_inc = dh * bs * xs                               # adjoint of dt * phi
        # phi'(u) = (e - phi) / u, and 1/2 on the series branch
        du = d_inc * ds * np.where(small, 0.5, (e - phi) / safe_u)
        du[1:] += dh[1:] * e[1:] * hs[:-1]                 # through exp(u_t) h_{t-1}
        if dt.requires_grad:
            ddt = (d_inc * phi + du * a.data).sum(axis=3)
            dt._accumulate(ddt.transpose(1, 0, 2))
        if a.requires_grad:
            a._accumulate((du * ds).sum(axis=(0, 1)))

    return T.make_op(y, (x, dt, b_sel, c_sel, a), "selective_scan", backward)


def causal_depthwise_conv1d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-channel causal conv over the token axis; x (B, L, C), weight (C, w)."""
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


# ----------------------------------------------------------------------
# mamba block


@dataclass
class MambaBlockParams:
    """Two-path gated SSM block over flattened volume tokens.

    Tokens are layer-normalized on entry (selective timescale and
    projection magnitudes compound multiplicatively, so unnormalized
    deep-encoder features blow the state up).  Token width C then
    expands to E*C on both paths.  Path one runs a causal depthwise
    conv, SiLU and the selective scan; path two is the SiLU gate.  The
    Hadamard product of the two is projected back to C.
    """
    norm_gamma: Tensor
    norm_beta: Tensor
    in_x_w: Tensor
    in_x_b: Tensor
    in_z_w: Tensor
    in_z_b: Tensor
    conv_w: Tensor
    conv_b: Tensor
    x_proj_w: Tensor
    dt_w: Tensor
    dt_bias: Tensor
    a_log: Tensor
    out_w: Tensor
    out_b: Tensor
    n_state: int
    dt_rank: int

    def named(self, prefix: str):
        for f in ("norm_gamma", "norm_beta", "in_x_w", "in_x_b", "in_z_w", "in_z_b",
                  "conv_w", "conv_b", "x_proj_w", "dt_w", "dt_bias", "a_log",
                  "out_w", "out_b"):
            yield f"{prefix}.{f}", getattr(self, f)


def init_mamba_block(rng, channels, n_state=8, expand=2, conv_width=3) -> MambaBlockParams:
    inner = expand * channels
    dt_rank = max(1, int(np.ceil(channels / 16)))
    norm_gamma = Tensor(np.ones(channels), requires_grad=True)
    norm_beta = Tensor(np.zeros(channels), requires_grad=True)
    in_x_w, in_x_b = init_linear(rng, channels, inner)
    in_z_w, in_z_b = init_linear(rng, channels, inner)
    conv_w = Tensor(rng.normal((inner, conv_width), std=float(np.sqrt(1.0 / conv_width))),
                    requires_grad=True)
    conv_b = Tensor(np.zeros(inner), requires_grad=True)
    x_proj_w, _ = init_linear(rng, inner, dt_rank + 2 * n_state, bias=False)
    dt_w, _ = init_linear(rng, dt_rank, inner, bias=False)
    # softplus(dt_bias) lands log-uniformly in [1e-3, 0.1]
    dt0 = np.exp(rng.uniform(np.log(1e-3), np.log(0.1), (inner,), dtype=np.float64))
    dt_bias = Tensor(np.log(np.expm1(dt0)), requires_grad=True)
    # S4D-real style init: state n decays at rate n+1, per channel
    a_log = Tensor(np.tile(np.log(np.arange(1, n_state + 1, dtype=np.float64)), (inner, 1)),
                   requires_grad=True)
    out_w, out_b = init_linear(rng, inner, channels)
    return MambaBlockParams(norm_gamma=norm_gamma, norm_beta=norm_beta,
                            in_x_w=in_x_w, in_x_b=in_x_b, in_z_w=in_z_w, in_z_b=in_z_b,
                            conv_w=conv_w, conv_b=conv_b, x_proj_w=x_proj_w, dt_w=dt_w,
                            dt_bias=dt_bias, a_log=a_log, out_w=out_w, out_b=out_b,
                            n_state=n_state, dt_rank=dt_rank)


def _token_layer_norm(t: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mean = t.mean(axis=2, keepdims=True)
    centered = t - mean
    var = (centered * centered).mean(axis=2, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def mamba_block(x: Tensor, p: MambaBlockParams) -> Tensor:
    """Apply the block to a (B, C, D, H, W) volume; output keeps the shape.

    The volume is flattened to L = D*H*W tokens of width C in row-major
    (D, then H, then W) order, processed, and reshaped back.
    """
    bsz, ch, d, h, w = x.shape
    length = d * h * w
    tokens = x.permute(0, 2, 3, 4, 1).reshape((bsz, length, ch))
    tokens = _token_layer_norm(tokens, p.norm_gamma, p.norm_beta)

    xs = tokens.matmul(p.in_x_w) + p.in_x_b
    z = tokens.matmul(p.in_z_w) + p.in_z_b

    xa = silu(causal_depthwise_conv1d(xs, p.conv_w, p.conv_b))

    proj = xa.matmul(p.x_proj_w)
    r, n = p.dt_rank, p.n_state
    dt = softplus(proj.narrow(2, 0, r).matmul(p.dt_w) + p.dt_bias)
    b_sel = proj.narrow(2, r, n)
    c_sel = proj.narrow(2, r + n, n)
    a = -exp(p.a_log)

    y = selective_scan_t(xa, dt, b_sel, c_sel, a)
    gated = y * silu(z)
    out = gated.matmul(p.out_w) + p.out_b
    return out.reshape((bsz, d, h, w, ch)).permute(0, 4, 1, 2, 3)


def mamba_param_count(p: MambaBlockParams) -> int:
    return sum(t.size for _, t in p.named("m"))
