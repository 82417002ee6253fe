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
elementwise passes run along the channel axis and its contractions
over N and C are matmuls.  Forward and backward walk blocks of
consecutive tokens of about SCAN_BLOCK elements through buffers
allocated once per call, and the tape keeps only the states.  Its
independent check, the LTI global-convolution kernel with its own
discretization, lives in ``oracles``.  The causal depthwise conv ahead
of the scan and the token LayerNorm (``nnops.normalize``) are one tape
node each as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nnops import init_linear, normalize, silu
from .tensor import Tensor, ShapeError, exp, softplus

PHI_SERIES_CUTOFF = 2e-2   # |u| below which phi' is a Taylor series
SCAN_BLOCK = 1 << 15       # elements of (tokens, B, N, C) in one scan block buffer
SSM_EXPAND = 2             # mamba block inner width per token channel
SSM_CONV_WIDTH = 3         # taps of the causal depthwise conv ahead of the scan


# ----------------------------------------------------------------------
# selective scan as one fused tape op


def _exp_phi(u, e, phi, zero_possible=True):
    """Write e^u into ``e`` and phi(u) = expm1(u)/u into ``phi`` from one
    ``expm1`` pass: accurate to a few ulps at every u != 0, and 1 at
    u = 0.  ``phi`` may be ``u`` itself; ``e`` must not be.  With
    ``zero_possible`` false the caller has shown that no u is 0, and the
    u == 0 pass is skipped."""
    zero = np.flatnonzero(u == 0) if zero_possible else ()   # before phi overwrites u
    np.expm1(u, out=e)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(e, u, out=phi)
    e += 1.0
    if len(zero):
        phi.reshape(-1)[zero] = 1.0


def _dphi(u, e, phi, out):
    """Write phi'(u) = (e - phi)/u into ``out`` (which aliases none of
    the inputs), and its Taylor series sum_m m u^(m-1)/(m+1)! through
    u^7 where |u| < PHI_SERIES_CUTOFF: there the difference would cancel
    (in f32 it loses up to 2.5e-4 relative at |u| = 1e-3), while the
    series is exact to f64 precision."""
    np.subtract(e, phi, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= u
    small = np.flatnonzero(np.abs(u) < PHI_SERIES_CUTOFF)     # indices beat a mask
    u_flat, out_flat = u.reshape(-1), out.reshape(-1)
    part = max(1, u.size // 4)                 # bounds the series' own temporaries
    for lo in range(0, small.size, part):
        idx = small[lo:lo + part]
        us = u_flat.take(idx)
        series = np.zeros_like(us)
        for m in range(8, 0, -1):
            series *= us
            series += m / math.factorial(m + 1)
        out_flat[idx] = series                 # 3x faster than put


def _blc(arr):
    """``arr`` with its first two axes swapped, (B, L, ...) <-> (L, B, ...),
    C-ordered: a copy unless that layout is already contiguous."""
    return np.ascontiguousarray(arr.swapaxes(0, 1))


def _token_blocks(length, per_token):
    """(t0, t1) of the consecutive token blocks of about SCAN_BLOCK
    elements, ``per_token`` = B*N*C of them per token; the last block
    holds what is left."""
    step = max(1, SCAN_BLOCK // max(1, per_token))
    return [(t0, min(t0 + step, length)) for t0 in range(0, length, step)], step


def selective_scan_t(x: Tensor, dt: Tensor, b_sel: Tensor, c_sel: Tensor, a: Tensor) -> Tensor:
    """Batched selective recurrence as a single tape node.

    x, dt: (B, L, C); b_sel, c_sel: (B, L, N); a: (C, N) with entries <= 0.
    Returns y (B, L, C) with h_t = exp(u_t) h_{t-1} + dt_t phi(u_t) b_t x_t,
    u_t = dt_t a, y_t = h_t . c_t and h_0 = 0.

    The states run in a state-major (L, B, N, C) layout, so every
    full-size elementwise pass has the channel axis innermost and the
    contractions over N and C (y and the x, b, c gradients) are
    matmuls.  Both directions walk over blocks of consecutive tokens of
    about SCAN_BLOCK elements of (tokens, B, N, C): each block's inputs
    are laid out token-major, u, exp(u) and phi fill block buffers that
    are allocated once per call, and only the two-op recurrence loops
    over tokens.  The state buffer starts with a row holding h_0 = 0, so
    every token, the first included, reads its h_{t-1} from the row
    before its own.  The tape keeps the states h_0..h_L, one full-size
    array; without a tape the buffer holds one block of states, and its
    row 0 carries the previous block's last state.  Backward walks the
    blocks in reverse, carrying dh from zero: it recomputes u, exp(u),
    phi and phi' per block from dt and a, runs the adjoint recurrence
    dh_t = g_t c_t + exp(u_{t+1}) dh_{t+1}, writes the block's slices of
    the x, dt, b and c gradients and sums a's gradient over the blocks.

    u = dt a is 0 only where some dt or some a is; the u == 0 pass of
    phi runs only when min|dt| * min|a| rounds to 0, which is exact
    because rounding is monotonic.  All buffers are locals of the call.
    """
    bsz, length, ch = x.shape
    n = a.shape[1]
    if dt.shape != x.shape or b_sel.shape != (bsz, length, n) or \
            c_sel.shape != (bsz, length, n) or a.shape != (ch, n):
        raise ShapeError(f"selective scan shapes x{x.shape} dt{dt.shape} b{b_sel.shape} "
                         f"c{c_sel.shape} a{a.shape} do not form (B, L, C)/(B, L, N)/(C, N)")
    a_t = np.ascontiguousarray(a.data.T)                   # (N, C)
    dtype = np.result_type(dt.data, a_t)
    zero_possible = not np.abs(dt.data).min(initial=np.inf) * \
        np.abs(a_t).min(initial=np.inf) > 0
    blocks, step = _token_blocks(length, bsz * n * ch)
    block = (min(step, length), bsz, n, ch)
    u_buf, e_buf = np.empty(block, dtype), np.empty(block, dtype)
    taped = T.records_tape((x, dt, b_sel, c_sel, a))
    # row 0 is h_0 = 0; without a tape, one block of states after it
    hs = np.empty(((length if taped else block[0]) + 1,) + block[1:], dtype)
    hs[0] = 0
    y = np.empty((bsz, length, ch), np.result_type(c_sel.data, dtype))
    e_tok, h_tok = list(e_buf), list(hs)                  # per-token views, made once
    for t0, t1 in blocks:
        k = t1 - t0
        r0 = t0 if taped else 0                            # the row of h_{t0}
        xs, ds, bs, cs = (_blc(v.data[:, t0:t1]) for v in (x, dt, b_sel, c_sel))
        u, e = u_buf[:k], e_buf[:k]
        np.multiply(ds[:, :, None, :], a_t, out=u)
        _exp_phi(u, e, u, zero_possible)                    # phi in u's buffer
        h = hs[r0 + 1:r0 + k + 1]
        np.multiply(u, (ds * xs)[:, :, None, :], out=h)    # dt phi b x
        h *= bs[..., None]
        rows = h_tok[r0:r0 + k + 1]
        for e_t, h_prev, h_t in zip(e_tok[:k], rows, rows[1:]):
            np.multiply(e_t, h_prev, out=e_t)
            np.add(h_t, e_t, out=h_t)
        y[:, t0:t1] = np.matmul(cs[:, :, None, :], h)[:, :, 0].swapaxes(0, 1)
        if not taped:
            hs[0] = h[-1]
    if not taped:
        return T.make_op(y, (x, dt, b_sel, c_sel, a), "selective_scan", None)

    def backward(g):
        # the closure holds only hs; everything else is recomputed per block
        u_buf, e_buf, p_buf, d_buf = (np.empty(block, dtype) for _ in range(4))
        carry = np.zeros(block[1:], dtype)                # dh from past the last token
        e_tok, dh_tok = list(e_buf), list(u_buf)          # dh takes u's buffer
        dx, ddt, db, dc = (np.empty(v.shape, v.dtype) if v.requires_grad else None
                           for v in (x, dt, b_sel, c_sel))
        da = np.zeros((n, ch), dtype) if a.requires_grad else None
        for t0, t1 in reversed(blocks):
            k = t1 - t0
            xs, ds, bs, cs, gs = (_blc(v[:, t0:t1]) for v in
                                  (x.data, dt.data, b_sel.data, c_sel.data, g))
            u, e, phi, du = u_buf[:k], e_buf[:k], p_buf[:k], d_buf[:k]
            np.multiply(ds[:, :, None, :], a_t, out=u)
            _exp_phi(u, e, phi, zero_possible)
            _dphi(u, e, phi, du)
            dh = np.multiply(cs[..., None], gs[:, :, None, :], out=u)   # g_t c_t
            dh[-1] += carry
            e_blk, dh_blk = e_tok[:k], dh_tok[:k]
            for t in range(k - 2, -1, -1):
                np.multiply(e_blk[t + 1], dh_blk[t + 1], out=carry)
                np.add(dh_blk[t], carry, out=dh_blk[t])
            np.multiply(e[0], dh[0], out=carry)            # into the block before
            if dc is not None:
                dc[:, t0:t1] = np.matmul(hs[t0 + 1:t1 + 1], gs[..., None])[..., 0].swapaxes(0, 1)
            # du = dh (b dt x phi'(u) + exp(u_t) h_{t-1})
            dsx = ds * xs
            du *= dsx[:, :, None, :]
            du *= bs[..., None]
            np.multiply(e, hs[t0:t1], out=e)
            du += e
            du *= dh
            p = np.multiply(phi, dh, out=phi)              # dh phi
            if db is not None:
                db[:, t0:t1] = np.matmul(p, dsx[..., None])[..., 0].swapaxes(0, 1)
            s = np.matmul(bs[:, :, None, :], p)[:, :, 0]   # sum_n dh phi b
            if dx is not None:
                dx[:, t0:t1] = (ds * s).swapaxes(0, 1)
            if ddt is not None:
                ddt_k = np.einsum("lbnc,nc->lbc", du, a_t)
                ddt_k += xs * s
                ddt[:, t0:t1] = ddt_k.swapaxes(0, 1)
            if da is not None:
                da += np.einsum("lbnc,lbc->nc", du, ds)
        for v, grad in ((x, dx), (dt, ddt), (b_sel, db), (c_sel, dc)):
            if grad is not None:
                v._accumulate(grad)
        if da is not None:
            a._accumulate(da.T)

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
            x._accumulate(dx)
        if weight.requires_grad:
            dw = np.zeros(weight.shape, dtype=weight.dtype)
            dw[:, -1] = np.einsum("btc,btc->c", g, xd)
            for k, s in taps:
                dw[:, k] = np.einsum("btc,btc->c", g[:, s:], xd[:, :length - s])
            weight._accumulate(dw)
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


def init_mamba_block(rng, channels, n_state=8) -> MambaBlockParams:
    inner = SSM_EXPAND * channels
    dt_rank = max(1, int(np.ceil(channels / 16)))
    norm_gamma = Tensor(np.ones(channels), requires_grad=True)
    norm_beta = Tensor(np.zeros(channels), requires_grad=True)
    in_x_w, in_x_b = init_linear(rng, channels, inner)
    in_z_w, in_z_b = init_linear(rng, channels, inner)
    conv_w = Tensor(rng.normal((inner, SSM_CONV_WIDTH), std=float(np.sqrt(1 / SSM_CONV_WIDTH))),
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
    """LayerNorm of each token of a (B, L, C) sequence over its C channels."""
    return normalize(t, (2,), gamma, beta, eps, channel_axis=2)


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
