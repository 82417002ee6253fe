"""Selective state-space machinery.

The continuous dynamics h'(t) = A h(t) + B x(t), y(t) = C h(t) are
discretized with a zero-order hold at timescale delta:

    Abar = exp(delta * A)
    Bbar = (delta * A)^-1 (exp(delta * A) - I) * delta * B

A is diagonal throughout, so both expressions are elementwise.  Bbar is
computed via phi(u) = (e^u - 1)/u, taken as expm1(u)/u (1 at u = 0,
the a = 0 limit Abar = 1, Bbar = delta * b), with e^u = 1 + expm1(u)
from the same pass.  The scan's adjoint needs phi'(u) = (e^u - phi)/u,
which cancels for small |u|; below PHI_SERIES_CUTOFF it is a Taylor
series instead.

The mamba block runs the input-dependent (selective) recurrence as one
fused tape op, ``selective_scan_t``, with a hand-written reverse-scan
adjoint.  It works in a state-major (L, B, N, C) layout, so its
full-size elementwise passes run along the channel axis and its
contractions over N and C are matmuls, and its tape keeps only
u = dt * a and the states.  Its independent check, the LTI
global-convolution kernel with its own discretization, lives in
``oracles``.  The causal depthwise conv ahead of the scan is one tape
node as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nnops import init_linear, silu
from .tensor import Tensor, ShapeError, exp, softplus

PHI_SERIES_CUTOFF = 2e-2   # |u| below which phi' is a Taylor series


# ----------------------------------------------------------------------
# selective scan as one fused tape op


def _exp_phi(u):
    """(e^u, phi(u)) from one ``expm1`` pass: phi = expm1(u)/u, accurate
    to a few ulps at every u != 0, and 1 at u = 0."""
    phi = np.expm1(u)
    e = phi + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        phi /= u
    zero = u == 0
    if zero.any():
        phi[zero] = 1.0
    return e, phi


def _dphi(e, phi, u):
    """phi'(u) = (e - phi)/u, and its Taylor series
    sum_m m u^(m-1)/(m+1)! through u^7 where |u| < PHI_SERIES_CUTOFF:
    there the difference would cancel (in f32 it loses up to 2.5e-4
    relative at |u| = 1e-3), while the series is exact to f64 precision."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.subtract(e, phi)
        d /= u
    small = np.flatnonzero(np.abs(u) < PHI_SERIES_CUTOFF)     # take and put beat a mask
    if small.size:
        us = u.reshape(-1).take(small)
        series = np.zeros_like(us)
        for m in range(8, 0, -1):
            series *= us
            series += m / math.factorial(m + 1)
        d.reshape(-1).put(small, series)
    return d


def _blc(arr):
    """``arr`` with its first two axes swapped, (B, L, ...) <-> (L, B, ...),
    C-ordered: a copy unless that layout is already contiguous."""
    return np.ascontiguousarray(arr.swapaxes(0, 1))


def selective_scan_t(x: Tensor, dt: Tensor, b_sel: Tensor, c_sel: Tensor, a: Tensor) -> Tensor:
    """Batched selective recurrence as a single tape node.

    x, dt: (B, L, C); b_sel, c_sel: (B, L, N); a: (C, N) with entries <= 0.
    Returns y (B, L, C) with h_t = exp(u_t) h_{t-1} + dt_t phi(u_t) b_t x_t,
    u_t = dt_t a, y_t = h_t . c_t and h_0 = 0.

    Everything runs in a state-major (L, B, N, C) layout: each input is
    copied once into token-major order, so every full-size elementwise
    pass has the channel axis innermost, and the contractions over N and
    C (y and the x, b, c gradients) are matmuls.  Only the two-op
    recurrence loops over tokens.  The tape keeps u and the states h of
    the full-size arrays; backward recomputes exp(u) and phi from one
    ``expm1`` pass, runs the adjoint recurrence
    dh_t = g_t c_t + exp(u_{t+1}) dh_{t+1} in reverse and then forms all
    five input gradients at once.
    """
    bsz, length, ch = x.shape
    n = a.shape[1]
    if dt.shape != x.shape or b_sel.shape != (bsz, length, n) or \
            c_sel.shape != (bsz, length, n) or a.shape != (ch, n):
        raise ShapeError(f"selective scan shapes x{x.shape} dt{dt.shape} b{b_sel.shape} "
                         f"c{c_sel.shape} a{a.shape} do not form (B, L, C)/(B, L, N)/(C, N)")
    xs = _blc(x.data)                                      # (L, B, C)
    ds = _blc(dt.data)                                     # (L, B, C)
    bs = _blc(b_sel.data)                                  # (L, B, N)
    cs = _blc(c_sel.data)                                  # (L, B, N)
    a_t = np.ascontiguousarray(a.data.T)                   # (N, C)
    u = ds[:, :, None, :] * a_t                            # (L, B, N, C)
    e, hs = _exp_phi(u)                                    # hs: dt phi b x, built in place
    hs *= (ds * xs)[:, :, None, :]
    hs *= bs[..., None]
    h_t, e_t = list(hs), list(e)
    for t in range(1, length):
        np.multiply(e_t[t], h_t[t - 1], out=e_t[t])
        np.add(h_t[t], e_t[t], out=h_t[t])
    y = np.matmul(cs[:, :, None, :], hs)[:, :, 0].swapaxes(0, 1)

    def backward(g):
        # the closure holds u and hs; the rest is laid out again
        xs, ds, bs, cs, gs = (_blc(v) for v in (x.data, dt.data, b_sel.data, c_sel.data, g))
        e, phi = _exp_phi(u)
        dh = cs[..., None] * gs[:, :, None, :]             # g_t c_t, then the adjoint
        step = np.empty_like(dh[0])
        dh_t, e_t = list(dh), list(e)
        for t in range(length - 2, -1, -1):
            np.multiply(e_t[t + 1], dh_t[t + 1], out=step)
            np.add(dh_t[t], step, out=dh_t[t])
        if c_sel.requires_grad:
            c_sel._accumulate(_blc(np.matmul(hs, gs[..., None])[..., 0]), owned=True)
        # du = dh (b dt x phi'(u) + exp(u_t) h_{t-1})
        du = _dphi(e, phi, u)
        dsx = ds * xs
        du *= dsx[:, :, None, :]
        du *= bs[..., None]
        np.multiply(e[1:], hs[:-1], out=e[1:])
        np.add(du[1:], e[1:], out=du[1:])
        du *= dh
        p = np.multiply(phi, dh, out=phi)                  # dh phi
        if b_sel.requires_grad:
            db = np.matmul(p, dsx[..., None])[..., 0]
            b_sel._accumulate(_blc(db), owned=True)
        s = np.matmul(bs[:, :, None, :], p)[:, :, 0]       # sum_n dh phi b
        if x.requires_grad:
            x._accumulate(_blc(ds * s), owned=True)
        if dt.requires_grad:
            ddt = np.einsum("lbnc,nc->lbc", du, a_t)
            ddt += xs * s
            dt._accumulate(_blc(ddt), owned=True)
        if a.requires_grad:
            a._accumulate(np.ascontiguousarray(np.einsum("lbnc,lbc->nc", du, ds).T), owned=True)

    return T.make_op(y, (x, dt, b_sel, c_sel, a), "selective_scan", backward)


def causal_depthwise_conv1d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-channel causal conv over the token axis as one tape node.

    x (B, L, C), weight (C, w), bias (C,):
    y[b, t, c] = sum_k weight[c, k] x[b, t - (w - 1) + k, c] + bias[c],
    with x = 0 before the first token.  Tap k reads x shifted by
    s = w - 1 - k tokens.  Backward: dx is the reverse correlation
    (g shifted back by s against the same taps), dw[c, k] is the sum
    over (b, t) of g times the shifted x, and db is the sum of g.
    """
    length, ch = x.shape[1:]
    width = weight.shape[1]
    if weight.shape != (ch, width) or bias.shape != (ch,):
        raise ShapeError(f"causal conv shapes x{x.shape} weight{weight.shape} "
                         f"bias{bias.shape} do not form (B, L, C)/(C, w)/(C,)")
    xd, w = x.data, weight.data
    # (tap, shift) of every tap that reaches back less than L tokens
    taps = [(k, width - 1 - k) for k in range(width - 1) if width - 1 - k < length]
    y = xd * w[:, -1]
    for k, s in taps:
        seg = y[:, s:]
        seg += xd[:, :length - s] * w[:, k]
    y += bias.data

    def backward(g):
        if x.requires_grad:
            dx = g * w[:, -1]
            for k, s in taps:
                seg = dx[:, :length - s]
                seg += g[:, s:] * w[:, k]
            x._accumulate(dx, owned=True)
        if weight.requires_grad:
            dw = np.zeros(weight.shape, dtype=weight.dtype)
            dw[:, -1] = np.einsum("btc,btc->c", g, xd)
            for k, s in taps:
                dw[:, k] = np.einsum("btc,btc->c", g[:, s:], xd[:, :length - s])
            weight._accumulate(dw, owned=True)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 1)))

    return T.make_op(y, (x, weight, bias), "causal_conv1d", backward)


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
