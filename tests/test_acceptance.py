"""Acceptance criteria, one test per criterion, each printing a
pass/fail line with the measured value and its tolerance.

Criteria 7, 9 and 10 share one overfit training run (session fixture).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from diffumamba import tensor as T
from diffumamba.analysis import kmeans_silhouette, lambda_report, pearson, silhouette_samples, kmeans
from diffumamba.data import NOISE_FAMILIES, PhantomConfig, gen_phantoms
from diffumamba.metrics import dsc_iou, evaluate_model, hd95, perturbation_grid
from diffumamba.network import ModelConfig, Network, desk_config, paper_scale_config
from diffumamba.nnops import (adaptive_avg_pool3d, conv3d, conv_transpose3d,
                              dice_ce_loss, init_conv, init_conv_transpose,
                              instance_norm, leaky_relu, silu, softmax)
from diffumamba.nrm import downsample_stage, init_nrm, nrm_forward
from diffumamba.oracles import (dsc_iou_identity_gap, finite_difference_check,
                                hd95_brute_gap, nrm_off_gap, pearson_hand_gap,
                                scan_kernel_gap, worked_case_gap)
from diffumamba.ssm import init_mamba_block, mamba_block
from diffumamba.tensor import Rng, Tensor
from diffumamba.train import TrainConfig, paired_comparison, train_run


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(f"\n{line}")
    assert ok, line


# ----------------------------------------------------------------------
# shared overfit run (criteria 7, 9, 10)


@pytest.fixture(scope="session")
def overfit_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("overfit")
    samples = gen_phantoms(4, 42)
    model = Network(desk_config(seed=0))
    t0 = time.monotonic()
    result = train_run(model, samples, TrainConfig(epochs=100, seed=0),
                       out, quiet=True)
    wall = time.monotonic() - t0
    return {"model": model, "samples": samples, "result": result,
            "out": out, "wall": wall}


# ----------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    """Every differentiable op and composite passes central FD checks."""
    t0 = time.monotonic()
    cases = 0
    worst = {"f32": 0.0, "f64": 0.0}

    def run(mode, rel_tol, out_fn, wiggle, seed, n_coords=3):
        nonlocal cases
        rel, _ = finite_difference_check(out_fn, wiggle, rel_tol=rel_tol,
                                         n_coords=n_coords, seed=seed)
        worst[mode] = max(worst[mode], rel)
        cases += 1

    prim_ops = {
        "add": (lambda x, y: x + y, True),
        "sub": (lambda x, y: x - y, True),
        "mul": (lambda x, y: x * y, True),
        "div": (lambda x, y: x / (y * y + 1.0), True),
        "neg": (lambda x, y: -x, False),
        "exp": (lambda x, y: T.exp(x), False),
        "log": (lambda x, y: T.log(x * x + 0.5), False),
        "sqrt": (lambda x, y: T.sqrt(x * x + 0.5), False),
        "pow": (lambda x, y: (x * x + 1.0) ** 1.7, False),
        "sigmoid": (lambda x, y: T.sigmoid(x), False),
        "softplus": (lambda x, y: T.softplus(x), False),
        "where": (lambda x, y: T.where(x.data > 0, x * 2.0, y), True),
        "sum": (lambda x, y: x.sum(axis=1), False),
        "mean": (lambda x, y: (x * y).mean(), True),
        "matmul": (lambda x, y: x @ y.permute(1, 0), True),
        "reshape": (lambda x, y: (x * y).reshape((20,)), True),
        "permute": (lambda x, y: (x * y).permute(1, 0), True),
        "narrow": (lambda x, y: x.narrow(1, 1, 3), False),
        "pad": (lambda x, y: T.pad(x * y, ((1, 0), (0, 2))), True),
        "concat": (lambda x, y: T.concat([x, y], axis=1), True),
        "log_softmax": (lambda x, y: T.log_softmax(x, axis=1), False),
    }

    for mode, rel_tol, seeds in (("f32", 1e-3, (0, 1)), ("f64", 1e-6, (2, 3))):
        T.set_default_dtype(mode)
        try:
            for name, (fn, uses_y) in prim_ops.items():
                for seed in seeds:
                    r = Rng(seed, name)
                    x = Tensor(r.normal((4, 5)), requires_grad=True)
                    y = Tensor(r.normal((4, 5)) + 0.1, requires_grad=True)
                    run(mode, rel_tol, lambda: fn(x, y),
                        [x, y] if uses_y else [x], seed)

            for seed in seeds:
                r = Rng(seed, "layers")
                # conv3d (strided) and transposed conv
                x = Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True)
                p = init_conv(r.derive("c"), 2, 3, (3, 3, 3), stride=(2, 2, 2))
                run(mode, rel_tol, lambda: conv3d(x, p), [x, p.weight, p.bias], seed)
                xu = Tensor(r.normal((1, 2, 2, 2, 2)), requires_grad=True)
                pu = init_conv_transpose(r.derive("u"), 2, 3, (2, 2, 2))
                run(mode, rel_tol, lambda: conv_transpose3d(xu, pu),
                    [xu, pu.weight, pu.bias], seed)
                # norm + activations + pooling + loss
                g = Tensor(np.ones(2) * 1.1, requires_grad=True)
                b = Tensor(np.zeros(2), requires_grad=True)
                run(mode, rel_tol, lambda: instance_norm(x, g, b), [x, g], seed)
                run(mode, rel_tol, lambda: leaky_relu(x), [x], seed)
                run(mode, rel_tol, lambda: silu(x), [x], seed)
                run(mode, rel_tol, lambda: softmax(x, axis=1), [x], seed)
                run(mode, rel_tol, lambda: adaptive_avg_pool3d(x, (2, 2, 2)), [x], seed)
                labels = (r.random((1, 4, 4, 4)) > 0.6).astype(np.int64)
                xl = Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True)
                run(mode, rel_tol, lambda: dice_ce_loss(xl, labels).total, [xl], seed)

            for seed in seeds:
                r = Rng(seed, "composites")
                # residual block
                from diffumamba.network import init_residual_block, residual_block
                rb = init_residual_block(r.derive("rb"), 2, 3, stride=2)
                xr = Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True)
                run(mode, rel_tol, lambda: residual_block(xr, rb),
                    [xr, rb.conv.weight, rb.gamma, rb.proj.weight], seed)
                # mamba block
                mp = init_mamba_block(r.derive("m"), 3, n_state=2)
                xm = Tensor(r.normal((1, 3, 2, 2, 2)), requires_grad=True)
                run(mode, rel_tol, lambda: mamba_block(xm, mp),
                    [xm, mp.a_log, mp.dt_bias, mp.in_x_w], seed)
                # downsample block
                ds = init_conv(r.derive("ds"), 2, 3, (1, 1, 1))
                xd = Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True)
                run(mode, rel_tol, lambda: downsample_stage(xd, ds, (2, 2, 2)),
                    [xd, ds.weight], seed)
                # noise reduction module
                nrm = init_nrm(r.derive("nrm"), (2, 3), 3, n_state=2)
                feats = [Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True),
                         Tensor(r.normal((1, 3, 2, 2, 2)), requires_grad=True)]
                m1 = Tensor(r.normal((1, 3, 2, 2, 2)), requires_grad=True)
                run(mode, rel_tol, lambda: nrm_forward(nrm, feats, m1),
                    [feats[0], m1, nrm.lambdas, nrm.m2.a_log], seed)

            # full model on a 16^3 input
            seed = seeds[0]
            cfg = ModelConfig(channels=(2, 3, 4, 5), strides=(1, 2, 2, 2),
                              n_stages=4, ssm_state=2, seed=seed)
            model = Network(cfg)
            xf = Tensor(Rng(seed, "fm").normal((1, 1, 16, 16, 16)), requires_grad=True)
            params = model.named_parameters()
            run(mode, rel_tol, lambda: model.forward(xf),
                [xf, params["enc.s1.b1.conv.weight"], params["m1.a_log"],
                 params["nrm.lambdas"], params["head.weight"]], seed, n_coords=2)
        finally:
            T.set_default_dtype("f32")

    wall = time.monotonic() - t0
    ok = cases >= 100 and worst["f32"] < 1e-3 and worst["f64"] < 1e-6 and wall < 300
    report(1, ok, f"gradient suite: {cases} cases, worst rel f32={worst['f32']:.2e} "
                  f"(tol 1e-3), f64={worst['f64']:.2e} (tol 1e-6), {wall:.0f}s (< 300s)")


def test_criterion_2_ssm_oracle():
    """The fused selective scan, run on LTI systems, agrees with the
    global-convolution kernel; worked case exact."""
    t0 = time.monotonic()
    worst = scan_kernel_gap(Rng(seed, "lti") for seed in range(50))
    exact = worked_case_gap() == 0.0
    wall = time.monotonic() - t0
    ok = worst < 1e-5 and exact and wall < 60
    report(2, ok, f"fused scan vs kernel max|diff|={worst:.2e} (tol 1e-5, 50 seeds, L<=64); "
                  f"worked case exact={exact}; {wall:.1f}s (< 60s)")


def test_criterion_3_nrm_off_equivalence():
    """Zeroed module reproduces the baseline bit-for-bit (to 1e-6)."""
    t0 = time.monotonic()
    r = Rng(7, "eq")
    worst = nrm_off_gap(desk_config(seed=33),
                        (Tensor(r.derive(i).normal((1, 1, 32, 32, 32))) for i in range(10)))
    wall = time.monotonic() - t0
    ok = worst < 1e-6 and wall < 60
    report(3, ok, f"module-off logits max|diff|={worst:.2e} over 10 inputs "
                  f"(tol 1e-6); {wall:.1f}s (< 60s)")


def test_criterion_4_shape_contract():
    """Stage features, both bottleneck embeddings and the noise estimate
    all share the bottleneck shape in the default 5-stage config."""
    model = Network(desk_config(seed=4))
    cap = {}
    with T.no_grad():
        model.forward(Tensor(Rng(4, "sc").normal((1, 1, 32, 32, 32))), capture=cap)
    bshape = cap["m1"].shape
    shapes = {f"e_{i + 1}": e.shape for i, e in enumerate(cap["e_list"])}
    shapes.update(m1=cap["m1"].shape, m2=cap["m2"].shape,
                  e_hat=cap["e_hat"].shape, m_hat=cap["m_hat"].shape)
    ok = (len(cap["e_list"]) == 5 and all(s == bshape for s in shapes.values())
          and bshape == (1, 128, 2, 2, 2))
    report(4, ok, f"e_1..e_5, m1, m2, e_hat, m_hat all {bshape}")


def test_criterion_5_parameter_accounting():
    """Module share in [0.5%, 5%] at paper scale; counts add exactly."""
    t0 = time.monotonic()
    cfg = paper_scale_config()
    diff_model = Network(cfg)
    base_model = Network(replace(cfg, nrm_enabled=False))
    total = diff_model.param_count()
    nrm = diff_model.nrm_param_count()
    base = base_model.param_count()
    share = nrm / total
    wall = time.monotonic() - t0
    ok = 0.005 <= share <= 0.05 and total == base + nrm and wall < 10
    report(5, ok, f"share={share:.3%} (window [0.5%, 5%]); "
                  f"{total} == {base} + {nrm} exact={total == base + nrm}; "
                  f"{wall:.1f}s (< 10s)")


def test_criterion_6_metric_oracles():
    """DSC / IoU / HD95 match O(n^2) brute force on small masks."""
    t0 = time.monotonic()
    pairs = []
    for seed in range(60):
        r = Rng(seed, "masks")
        shape = tuple(int(r.integers(3, 9)) for _ in range(3))
        density = float(r.uniform(0.05, 0.6))
        a = r.random(shape) < density
        b = r.random(shape) < density
        pairs.append((a, b))
        d, i = dsc_iou(a, b)
        assert 0 <= d <= 1 and 0 <= i <= 1
        # brute-force DSC/IoU by direct voxel counting
        inter = int((a & b).sum())
        na, nb = int(a.sum()), int(b.sum())
        if na + nb:
            assert d == 2 * inter / (na + nb)
            assert i == inter / (na + nb - inter)
    worst_ident = dsc_iou_identity_gap(pairs)
    worst_hd, checked = hd95_brute_gap(pairs)
    # hand case: two voxels three apart
    single_a = np.zeros((8, 8, 8), dtype=bool)
    single_b = np.zeros((8, 8, 8), dtype=bool)
    single_a[1, 1, 1] = True
    single_b[4, 1, 1] = True
    exact3 = hd95(single_a, single_b) == 3.0
    wall = time.monotonic() - t0
    ok = worst_hd < 1e-6 and worst_ident < 1e-6 and exact3 and checked >= 40 and wall < 120
    report(6, ok, f"hd95 vs brute |diff|={worst_hd:.2e} on {checked} pairs (tol 1e-6); "
                  f"dsc-iou identity |diff|={worst_ident:.2e}; 3-voxel case exact={exact3}; "
                  f"{wall:.0f}s (< 120s)")


@pytest.mark.slow
def test_criterion_7_overfit(overfit_run):
    """Desk config overfits 4 phantoms to DSC >= 0.95 in 100 epochs."""
    rep = evaluate_model(overfit_run["model"], overfit_run["samples"])
    dsc = rep.mean_dsc()
    wall = overfit_run["wall"]
    ok = dsc >= 0.95 and wall < 1800
    report(7, ok, f"train DSC={dsc:.4f} (>= 0.95) after 100 epochs; "
                  f"{wall:.0f}s (< 1800s)")


@pytest.mark.slow
def test_criterion_8_comparison_protocol(tmp_path):
    """5-seed paired comparison, module on vs off, with sanity gate."""
    t0 = time.monotonic()
    pcfg = PhantomConfig(shape=(16, 16, 16), n_blobs=(1, 2), radius=(2.5, 4.0))
    train_s = gen_phantoms(8, 100, pcfg)
    test_s = gen_phantoms(4, 200, pcfg)
    mcfg = ModelConfig(channels=(8, 16, 32, 64), strides=(1, 2, 2, 2), n_stages=4)
    summary = paired_comparison(train_s, test_s, mcfg,
                                TrainConfig(epochs=40), seeds=range(5),
                                out_dir=tmp_path)
    wall = time.monotonic() - t0
    d_mean = summary["diff-umamba"]["mean_dsc"]
    b_mean = summary["umamba-bot"]["mean_dsc"]
    gate = d_mean >= b_mean - 0.02
    files = (tmp_path / "comparison.csv").exists() and (tmp_path / "comparison.json").exists()
    ok = gate and files and wall < 10800
    report(8, ok, f"mean DSC diff-umamba={d_mean:.4f} vs baseline={b_mean:.4f} "
                  f"(gap {d_mean - b_mean:+.4f}, gate >= -0.02); report emitted={files}; "
                  f"{wall:.0f}s (< 10800s)")


@pytest.mark.slow
def test_criterion_9_perturbation_harness(overfit_run):
    """4 x 6 robustness grid; clean column bit-equal; magnitude monotone."""
    t0 = time.monotonic()
    model = overfit_run["model"]
    samples = overfit_run["samples"]
    cells = perturbation_grid(model, samples, list(NOISE_FAMILIES),
                              [1, 2, 3, 4, 5, 6], seed=0)
    clean = evaluate_model(model, samples).mean_dsc()
    grid_ok = len(cells) == 24
    level1 = [c for c in cells if c.level == 1]
    bit_equal = all(c.mean_dsc == clean for c in level1)
    monotone = True
    for family in NOISE_FAMILIES:
        mags = [c.mean_perturbation for c in cells if c.family == family]
        monotone &= all(hi >= lo - 1e-9 for lo, hi in zip(mags, mags[1:]))
    wall = time.monotonic() - t0
    ok = grid_ok and bit_equal and monotone and wall < 900
    report(9, ok, f"grid 4x6={grid_ok}; level-1 bit-equal to clean "
                  f"DSC {clean:.4f}={bit_equal}; perturbation magnitude "
                  f"nondecreasing={monotone}; {wall:.0f}s (< 900s)")


@pytest.mark.slow
def test_criterion_10_latent_analysis(overfit_run, tmp_path):
    """Silhouette / Pearson hand values; trace report from the overfit run."""
    pts = np.vstack([Rng(1, "c1").normal((20, 2), dtype=np.float64) * 0.2,
                     Rng(2, "c2").normal((20, 2), dtype=np.float64) * 0.2 + 8.0])
    best_k, _, mean_s = kmeans_silhouette(pts, k_range=range(2, 6), seed=0)

    fixture = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels, _, _ = kmeans(fixture, 2, seed=0)
    s0 = silhouette_samples(fixture, labels)[0]
    sil_ok = abs(s0 - 0.9900497512437811) < 1e-4

    r = pearson([1, 2, 3], [1, 2, 4])
    pearson_ok = pearson_hand_gap() < 1e-5

    trace = overfit_run["result"].lambda_trace
    rep = lambda_report(trace)
    csv_path = tmp_path / "lambda_trace.csv"
    rep.write_csv(csv_path, meta={"source": "overfit-run"})
    body = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
    trace_ok = (len(body) == len(trace) + 1
                and body[0] == "step," + ",".join(f"lambda_{i+1}" for i in range(5)))

    ok = best_k == 2 and mean_s > 0.8 and sil_ok and pearson_ok and trace_ok
    report(10, ok, f"fixture best_k={best_k} (=2), mean s={mean_s:.3f} (> 0.8); "
                   f"hand silhouette s0={s0:.5f} (~0.99005, tol 1e-4); "
                   f"pearson r={r:.6f} (~0.981981, tol 1e-5); "
                   f"lambda trace rows={len(body) - 1} from {len(trace)} steps "
                   f"(final={[round(v, 3) for v in rep.final]})")
