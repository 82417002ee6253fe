"""Verification oracles, shared by ``diffumamba selfcheck`` and the tests.

Each oracle is an independent route to a quantity the package computes:
central finite differences for the hand-written adjoints, the LTI
global-convolution kernel for the selective scan, an O(n^2) pairwise
search for HD95.  The measurement functions return the largest gap
between the production route and its oracle; the acceptance criteria
call them with their own inputs and tolerances.  ``SELFCHECKS`` is the
built-in sanity pass: (name, tolerance, fn(seed) -> measured) in
report order; a check passes when the measured gap is <= its tolerance.

Finite-difference gradient checking: ``out_fn`` returns any output
tensor; the checked scalar is its dot product with a fixed random
projection.  The analytic side differentiates the taped sum(out * w) at
the tensors' native precision.  The finite-difference side is the
oracle, so it runs at full accuracy: the probed tensors are temporarily
upcast to float64 (subgraphs that do not depend on the perturbed
coordinate keep identical rounding across the +/-h evaluations and
cancel in the difference), the dot product is accumulated in float64,
and each coordinate is measured with three stencils (two small-step
central differences and a wider 4th-order five-point rule, which covers
functions with large high derivatives); the best agreement counts.  A
genuinely wrong adjoint fails all three.

Coordinates whose gradient sits below the dtype's absolute floor are
held to that floor instead of a pure ratio: a float32 backward pass
cannot resolve ratios of gradients at its own rounding level.
"""

from __future__ import annotations

import contextvars
from dataclasses import replace

import numpy as np

from .analysis import kmeans_silhouette, pearson
from .metrics import dsc_iou, hd95, surface_voxels
from .network import ModelConfig, Network, copy_shared_weights
from .nnops import (adaptive_avg_pool3d, conv3d, conv_transpose3d, init_conv,
                    init_conv_transpose, instance_norm, leaky_relu, relu)
from .nrm import downsample_stage
from .ssm import init_mamba_block, mamba_block, selective_scan_t
from .tensor import Rng, ShapeError, Tensor, concat, no_grad, set_default_dtype

# ----------------------------------------------------------------------
# finite-difference gradients


def _pick_coords(analytic, n_coords, rng: Rng):
    flat = np.abs(analytic).ravel()
    order = np.argsort(-flat)
    picks = list(order[:max(1, n_coords // 2)])
    pool = order[len(picks):max(len(picks) + 1, len(order) // 3)]
    while len(picks) < n_coords and len(pool):
        picks.append(int(pool[int(rng.integers(0, len(pool)))]))
    return sorted(set(int(p) for p in picks))


def finite_difference_check(out_fn, wiggle, rel_tol, n_coords=4, seed=0):
    """Compare analytic grads of sum(out_fn() * w) against central FD.

    ``wiggle`` lists the tensors whose gradients are checked; their
    ``.data`` buffers are perturbed in place and restored.  Raises
    AssertionError when any coordinate exceeds ``rel_tol``; returns
    (max relative error, per-coordinate records) otherwise.
    """
    rng = Rng(seed)
    for t in wiggle:
        t.zero_grad()
    out = out_fn()
    proj = Tensor(rng.normal(out.shape, dtype=out.dtype))
    proj64 = proj.data.astype(np.float64)
    (out * proj).sum().backward()
    analytic = []
    for t in wiggle:
        if t.grad is None:
            raise AssertionError("checked tensor received no gradient")
        analytic.append(t.grad.copy())

    def value():
        with no_grad():
            return float(np.dot(out_fn().data.astype(np.float64).ravel(),
                                proj64.ravel()))

    records = []
    saved = [t.data for t in wiggle]
    try:
        for t in wiggle:
            t.data = t.data.astype(np.float64)
        for t, grad, orig in zip(wiggle, analytic, saved):
            atol = 1e-5 if orig.dtype == np.float32 else 1e-10
            floor = atol / rel_tol
            flat_data = t.data.reshape(-1)
            flat_grad = grad.reshape(-1)
            for idx in _pick_coords(grad, n_coords, rng):
                x0 = float(flat_data[idx])
                scale = max(1.0, abs(x0))
                a = float(flat_grad[idx])

                def probe(offset):
                    flat_data[idx] = x0 + offset
                    return value()

                estimates = []
                for h in (3e-6 * scale, 3e-5 * scale):
                    estimates.append((probe(h) - probe(-h)) / (2.0 * h))
                h = 1e-3 * scale
                estimates.append((-probe(2 * h) + 8.0 * probe(h)
                                  - 8.0 * probe(-h) + probe(-2 * h)) / (12.0 * h))
                flat_data[idx] = x0
                rel, fd = min(((abs(a - f) / max(abs(a), abs(f), floor), f)
                               for f in estimates), key=lambda p: p[0])
                records.append({"coord": idx, "analytic": a, "fd": fd, "rel": rel})
    finally:
        for t, data in zip(wiggle, saved):
            t.data = data
    max_rel = max(r["rel"] for r in records)
    if max_rel >= rel_tol:
        worst = max(records, key=lambda r: r["rel"])
        raise AssertionError(f"gradient check failed: rel={worst['rel']:.3e} "
                             f"(analytic={worst['analytic']:.6e}, fd={worst['fd']:.6e}, "
                             f"tol={rel_tol:g})")
    return max_rel, records


# ----------------------------------------------------------------------
# LTI kernel route for the selective scan


def zoh_discretize(a, b, delta):
    """Zero-order-hold discretization of a diagonal system.

    Abar = exp(delta a), Bbar = delta b phi(delta a) with
    phi(u) = expm1(u) / u, and 1 at u = 0 (exact at a = 0).  This route
    is independent of the production scan: a global convolution with
    the kernel, not a recurrence.  Broadcasts over any common shape of
    ``a``, ``b``, ``delta``; raises on nonpositive delta.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta <= 0):
        raise ValueError("zoh_discretize: timescale delta must be positive")
    u = delta * a
    zero = u == 0
    phi = np.where(zero, 1.0, np.expm1(u) / np.where(zero, 1.0, u))
    return np.exp(u), delta * b * phi


def ssm_kernel(a, b, c, delta, m: int):
    """Global-convolution kernel (c Bbar, c Abar Bbar, ..., c Abar^{m-1} Bbar).

    a: (C, N) diagonal state matrix; b, c: (N,) shared by every token;
    delta: one positive scalar.  Returns shape (m, C).
    """
    abar, bbar = zoh_discretize(a, np.asarray(b)[None, :], float(delta))
    c = np.asarray(c, dtype=np.float64)
    kernel = np.zeros((m, abar.shape[0]))
    for i in range(m):
        kernel[i] = bbar @ c
        bbar = bbar * abar
    return kernel


def kernel_apply(kernel, x):
    """Causal convolution of ``x`` (L, C) with an ``ssm_kernel`` result."""
    L, C = np.shape(x)
    if kernel.shape[0] < L:
        raise ShapeError(f"kernel length {kernel.shape[0]} shorter than sequence {L}")
    y = np.zeros((L, C))
    for ch in range(C):
        y[:, ch] = np.convolve(x[:, ch], kernel[:, ch])[:L]
    return y


def lti_scan(a, b, c, delta, x):
    """The production ``selective_scan_t`` run on an LTI system, in f64.

    One batch element: ``dt`` is ``delta`` at every token and channel,
    and ``b``/``c`` are tiled over the L tokens of ``x`` (L, C).
    Returns y (L, C).
    """
    length, ch = np.shape(x)
    n = np.shape(b)[-1]

    def f64(v):
        return Tensor(v, dtype=np.float64)

    with no_grad():
        y = selective_scan_t(f64(np.asarray(x)[None]), f64(np.full((1, length, ch), delta)),
                             f64(np.broadcast_to(b, (1, length, n))),
                             f64(np.broadcast_to(c, (1, length, n))), f64(a))
    return y.data[0]


def lti_case(r: Rng):
    """A random stable LTI system and its input: (a, b, c, delta, x).

    N in [2, 8), C in [1, 4), L in [4, 65) tokens, log delta uniform
    in [-3, 0], a = -exp(normal).
    """
    n = int(r.integers(2, 8))
    ch = int(r.integers(1, 4))
    length = int(r.integers(4, 65))
    a = -np.exp(r.normal((ch, n), dtype=np.float64))
    b = r.normal((n,), dtype=np.float64)
    c = r.normal((n,), dtype=np.float64)
    delta = float(np.exp(r.uniform(-3.0, 0.0)))
    return a, b, c, delta, r.normal((length, ch), dtype=np.float64)


def scan_kernel_gap(rngs):
    """Max |fused scan - kernel convolution| over one ``lti_case`` per stream."""
    worst = 0.0
    for r in rngs:
        a, b, c, delta, x = lti_case(r)
        y_kernel = kernel_apply(ssm_kernel(a, b, c, delta, len(x)), x)
        worst = max(worst, float(np.abs(lti_scan(a, b, c, delta, x) - y_kernel).max()))
    return worst


def worked_case_gap():
    """a = 0 and b = c = delta = x = 1: the scan counts, y = [1, 2, 3] exactly."""
    y = lti_scan(np.zeros((1, 1)), np.ones(1), np.ones(1), 1.0, np.ones((3, 1)))
    return float(np.abs(y[:, 0] - [1.0, 2.0, 3.0]).max())


# ----------------------------------------------------------------------
# slow paths of the fused nodes


def downsample_reference(f_i, conv, target):
    """The unfused composition downsample_stage replaces: three tape nodes."""
    return adaptive_avg_pool3d(relu(conv3d(f_i, conv)), target)


def conv_transpose_taps(x, weight, bias, g):
    """A kernel == stride transposed conv and its adjoint, one tap at a time.

    Tap (i, j, l) of ``weight`` (C_in, C_out, kd, kh, kw) writes
    out[:, :, i::kd, j::kh, l::kw] = einsum(x, weight[..., i, j, l]).
    Returns (out, dx, dW, db) for the output adjoint ``g``.
    """
    _, c_out, kd, kh, kw = weight.shape
    b, _, d, h, w = x.shape
    out = np.zeros((b, c_out, d * kd, h * kh, w * kw), dtype=np.result_type(x, weight))
    dx = np.zeros(x.shape, dtype=out.dtype)
    dw = np.zeros(weight.shape, dtype=out.dtype)
    for i, j, l in np.ndindex(kd, kh, kw):
        tap = (slice(None), slice(None), slice(i, None, kd), slice(j, None, kh),
               slice(l, None, kw))
        out[tap] = np.einsum("bcdhw,co->bodhw", x, weight[:, :, i, j, l])
        dx += np.einsum("bodhw,co->bcdhw", g[tap], weight[:, :, i, j, l])
        dw[:, :, i, j, l] = np.einsum("bcdhw,bodhw->co", x, g[tap])
    return out + bias.reshape(1, -1, 1, 1, 1), dx, dw, g.sum(axis=(0, 2, 3, 4))


def _rel_gap(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


def _value_and_grads(out_fn, wiggle, proj):
    """Output and the gradients of sum(out_fn() * proj) for ``wiggle``."""
    for t in wiggle:
        t.zero_grad()
    out = out_fn()
    (out * Tensor(proj)).sum().backward()
    return [out.data] + [t.grad for t in wiggle]


def fused_downsample_gap(rng: Rng):
    """Max relative gap of downsample_stage's output and x/W/b gradients to
    the three-node composition, at the default dtype: cells split across
    blocks (pool factors (9, 8, 8)) and one-voxel cells (pool factor 1)."""
    worst = 0.0
    for i, (shape, target) in enumerate((((2, 3, 18, 16, 16), (2, 2, 2)),
                                         ((2, 4, 4, 4, 4), (4, 4, 4)))):
        r = rng.derive(f"ds{i}")
        conv = init_conv(r.derive("c"), shape[1], 5, (1, 1, 1))
        conv.bias.data = r.derive("b").normal((5,))
        x = Tensor(r.derive("x").normal(shape), requires_grad=True)
        proj = r.derive("p").normal((shape[0], 5) + target)
        wiggle = [x, conv.weight, conv.bias]
        fused = _value_and_grads(lambda: downsample_stage(x, conv, target), wiggle, proj)
        ref = _value_and_grads(lambda: downsample_reference(x, conv, target), wiggle, proj)
        worst = max([worst] + [_rel_gap(a, b) for a, b in zip(fused, ref)])
    return worst


def fused_conv_transpose_gap(rng: Rng):
    """Max relative gap of conv_transpose3d's output and x/W/b gradients to
    ``conv_transpose_taps``, at the default dtype, for an anisotropic
    kernel (2, 1, 2) on a non-cubic batch of two."""
    p = init_conv_transpose(rng.derive("up"), 3, 4, (2, 1, 2))
    p.bias.data = rng.derive("b").normal((4,))
    x = Tensor(rng.derive("x").normal((2, 3, 3, 4, 2)), requires_grad=True)
    proj = rng.derive("p").normal((2, 4, 6, 4, 4))
    fused = _value_and_grads(lambda: conv_transpose3d(x, p), [x, p.weight, p.bias], proj)
    ref = conv_transpose_taps(x.data, p.weight.data, p.bias.data, proj)
    return max(_rel_gap(a, b) for a, b in zip(fused, ref))


# ----------------------------------------------------------------------
# module-off equivalence


def nrm_off_gap(cfg: ModelConfig, inputs):
    """Max |logit difference| between a zeroed-module model and its baseline.

    The baseline (``nrm_enabled=False``) takes the shared weights of a
    ``cfg`` model whose aggregation weights and second-block biases are
    zeroed, so the module subtracts exactly nothing.
    """
    diff_model = Network(cfg)
    base_model = Network(replace(cfg, nrm_enabled=False))
    copy_shared_weights(diff_model, base_model)
    diff_model.nrm.lambdas.data[...] = 0.0
    for name, t in diff_model.nrm.m2.named("m2"):
        if name.endswith(("_b", "bias", "beta")):
            t.data[...] = 0.0
    worst = 0.0
    with no_grad():
        for x in inputs:
            gap = np.abs(diff_model.forward(x).data - base_model.forward(x).data).max()
            worst = max(worst, float(gap))
    return worst


# ----------------------------------------------------------------------
# batch invariance


def batch_invariance_gap(model, inputs):
    """Max |logit difference| between one no-grad ``forward_rest`` on the
    stacked stems of ``inputs`` and its B = 1 calls on each stem.

    The perturbation grid scores a noise level's cells as the rows of
    one batch, so its cells equal per-cell forwards only while this gap
    is exactly zero under the local BLAS.
    """
    with no_grad():
        stems = [model.forward_stem(x) for x in inputs]
        batched = model.forward_rest(concat(stems, axis=0)).data
        return max(float(np.abs(batched[i:i + 1] - model.forward_rest(h).data).max())
                   for i, h in enumerate(stems))


# ----------------------------------------------------------------------
# metric and analysis oracles


def brute_hd95(pred, gt, spacing=(1.0, 1.0, 1.0)):
    """O(n^2) HD95: all pairwise surface distances, pooled 95th percentile."""
    sp = np.argwhere(surface_voxels(pred)).astype(float) * np.asarray(spacing)
    sg = np.argwhere(surface_voxels(gt)).astype(float) * np.asarray(spacing)
    d = np.sqrt(((sp[:, None, :] - sg[None, :, :]) ** 2).sum(axis=2))
    pooled = np.concatenate([d.min(axis=1), d.min(axis=0)])
    return float(np.percentile(pooled, 95, method="linear"))


def hd95_brute_gap(pairs):
    """(max |hd95 - brute_hd95|, pairs checked) over mask pairs, both nonempty."""
    worst, checked = 0.0, 0
    for pred, gt in pairs:
        if pred.any() and gt.any():
            worst = max(worst, abs(hd95(pred, gt) - brute_hd95(pred, gt)))
            checked += 1
    return worst, checked


def dsc_iou_identity_gap(pairs):
    """Max |DSC - 2 IoU / (1 + IoU)| over mask pairs."""
    worst = 0.0
    for pred, gt in pairs:
        d, i = dsc_iou(pred, gt)
        worst = max(worst, abs(d - 2 * i / (1 + i)))
    return worst


def pearson_hand_gap():
    """|pearson([1, 2, 3], [1, 2, 4]) - 0.98198...| (r = 5 / sqrt(26), hand value)."""
    return abs(pearson([1, 2, 3], [1, 2, 4]) - 0.9819805060619659)


# ----------------------------------------------------------------------
# the selfcheck registry


def _grad_check(build):
    """Selfcheck fn: f32-tolerance FD check of the case ``build(rng)`` returns."""
    def fn(seed):
        out_fn, wiggle = build(Rng(seed))
        return finite_difference_check(out_fn, wiggle, rel_tol=1e-3, seed=seed)[0]
    return fn


def _matmul_case(rng):
    a = Tensor(rng.normal((4, 5)), requires_grad=True)
    b = Tensor(rng.normal((5, 3)), requires_grad=True)
    return (lambda: a @ b), [a, b]


def _conv_case(rng):
    """A stride-1 conv, instance norm and LeakyReLU, then a stride-2 conv:
    the one-phase and the eight-phase sum of the conv's correlations."""
    conv = init_conv(rng.derive("c"), 2, 3, (3, 3, 3))
    down = init_conv(rng.derive("down"), 3, 3, (3, 3, 3), stride=(2, 2, 2))
    x = Tensor(rng.derive("x").normal((1, 2, 4, 4, 4)), requires_grad=True)
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3), requires_grad=True)
    return (lambda: conv3d(leaky_relu(instance_norm(conv3d(x, conv), gamma, beta)), down)), \
        [x, conv.weight, gamma, down.weight]


def _mamba_case(rng):
    mp = init_mamba_block(rng.derive("m"), 3, n_state=4)
    x = Tensor(rng.derive("xm").normal((1, 3, 2, 2, 2)), requires_grad=True)
    return (lambda: mamba_block(x, mp)), [x, mp.a_log, mp.dt_bias]


def _scan_kernel_check(seed):
    rng = Rng(seed)
    return scan_kernel_gap(rng.derive(f"lti{i}") for i in range(10))


def _nrm_off_check(seed):
    rng = Rng(seed)
    cfg = ModelConfig(channels=(4, 8), strides=(1, 2), n_stages=2, seed=seed)
    return nrm_off_gap(cfg, (Tensor(rng.derive(f"eq{i}").normal((1, 1, 8, 8, 8)))
                             for i in range(3)))


def _batch_invariance_check(seed):
    rng = Rng(seed)
    cfg = ModelConfig(channels=(4, 4, 8), strides=(1, 2, 1), n_stages=3, ssm_state=2, seed=seed)
    return batch_invariance_gap(Network(cfg), [Tensor(rng.derive(f"bi{i}").normal((1, 1, 8, 8, 8)))
                                               for i in range(3)])


def _mask_pairs(seed, n, shape, density):
    r = Rng(seed).derive(f"masks{shape}")
    return [(r.random(shape) < density, r.random(shape) < density) for _ in range(n)]


def _silhouette_shortfall(seed):
    """1 - mean silhouette of two well-separated point pairs (about 0.01)."""
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    return 1.0 - kmeans_silhouette(pts, k_range=(2,), seed=0)[2]


def _in_f64(check):
    """Selfcheck fn: ``check(Rng(seed))`` with float64 as the
    default dtype in a copy of the current context, so the caller's default
    stays as it was."""
    def fn(seed):
        def run():
            set_default_dtype("f64")
            return check(Rng(seed))
        return contextvars.copy_context().run(run)
    return fn


SELFCHECKS = [
    ("grad: matmul", 1e-3, _grad_check(_matmul_case)),
    ("grad: conv3d+instancenorm+lrelu", 1e-3, _grad_check(_conv_case)),
    ("grad: mamba block", 1e-3, _grad_check(_mamba_case)),
    ("ssm: scan == kernel conv (10 seeds)", 1e-5, _scan_kernel_check),
    ("ssm: worked case y=[1,2,3]", 0.0, lambda seed: worked_case_gap()),
    ("equivalence: module-off == baseline", 1e-6, _nrm_off_check),
    ("batch invariance: B=3 == 3 x B=1", 0.0, _batch_invariance_check),
    ("fused: downsample == conv+relu+pool", 1e-12, _in_f64(fused_downsample_gap)),
    ("fused: conv_transpose3d == per-tap", 1e-12, _in_f64(fused_conv_transpose_gap)),
    ("metrics: hd95 == brute force", 1e-6,
     lambda seed: hd95_brute_gap(_mask_pairs(seed, 5, (6, 6, 6), 0.2))[0]),
    ("metrics: dsc == 2*iou/(1+iou)", 1e-6,
     lambda seed: dsc_iou_identity_gap(_mask_pairs(seed, 1, (5, 5, 5), 0.3))),
    ("analysis: pearson hand case", 1e-5, lambda seed: pearson_hand_gap()),
    ("analysis: silhouette 2-cluster fixture", 0.2, _silhouette_shortfall),
]
