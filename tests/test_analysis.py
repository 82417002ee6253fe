import math

import numpy as np
import numpy.testing as npt
import pytest

from diffumamba.analysis import (analyze_model, capture_latents,
                                 channel_token_matrix, kmeans, kmeans_silhouette,
                                 lambda_report, load_latent_dump, mean_pearson,
                                 pearson, save_latent_dump, silhouette_samples)
from diffumamba.data import PhantomConfig, gen_phantoms
from diffumamba.network import ModelConfig, Network
from diffumamba.tensor import Rng


class TestPearson:
    def test_self_correlation(self, rng):
        x = rng.normal((20,))
        npt.assert_allclose(pearson(x, x), 1.0, rtol=1e-6)

    def test_anti_correlation(self, rng):
        x = rng.normal((20,))
        npt.assert_allclose(pearson(x, -x), -1.0, rtol=1e-6)

    def test_hand_case(self):
        npt.assert_allclose(pearson([1, 2, 3], [1, 2, 4]), 0.98198, atol=1e-5)

    def test_zero_variance_sentinel(self):
        assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            pearson([1.0], [2.0])

    def test_bounded(self, rng):
        for seed in range(10):
            r = Rng(seed, "p")
            v = pearson(r.normal((15,)), r.normal((15,)))
            assert -1.0 <= v <= 1.0

    def test_mean_pearson_counts_undefined(self, rng):
        m1 = rng.normal((3, 2, 2, 2), dtype=np.float64)
        m2 = rng.normal((3, 2, 2, 2), dtype=np.float64)
        m1[0] = 1.0   # constant channel: undefined pair
        mean, n_def, n_undef = mean_pearson(m1, m2)
        assert n_def == 2 and n_undef == 1
        assert -1 <= mean <= 1


class TestKmeans:
    def test_objective_nonincreasing(self, rng):
        pts = rng.normal((40, 3), dtype=np.float64)
        _, _, history = kmeans(pts, 4, seed=0)
        for lo, hi in zip(history[1:], history[:-1]):
            assert lo <= hi + 1e-9

    def test_two_blob_fixture(self):
        r = Rng(3, "blobs")
        a = r.normal((20, 2), dtype=np.float64) * 0.2
        b = r.normal((20, 2), dtype=np.float64) * 0.2 + 10.0
        pts = np.vstack([a, b])
        best_k, labels, mean_s = kmeans_silhouette(pts, k_range=range(2, 6), seed=0)
        assert best_k == 2
        assert mean_s > 0.8
        assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1

    def test_silhouette_hand_case(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels, _, _ = kmeans(pts, 2, seed=0)
        s = silhouette_samples(pts, labels)
        # point 0: a = 0.1, b = (10 + 10.1)/2 = 10.05 -> s = 9.95/10.05
        npt.assert_allclose(s[0], 0.9900, atol=1e-4)

    def test_silhouette_zero_when_equidistant(self):
        pts = np.array([[0.0], [2.0], [4.0], [6.0]])
        labels = np.array([0, 0, 1, 1])
        s = silhouette_samples(pts, labels)
        # point 1: a = |2-0| = 2, b = mean(|2-4|,|2-6|) = 3 -> s = 1/3; construct
        # a truly equidistant case instead:
        pts = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1])
        s = silhouette_samples(pts, labels)
        # point 1: a = 1 (to point 0), b = 1 (to point 2) -> s = 0
        assert s[1] == 0.0

    def test_silhouette_in_range_and_singletons_zero(self, rng):
        pts = rng.normal((12, 2), dtype=np.float64)
        labels = np.zeros(12, dtype=int)
        labels[5] = 1   # singleton cluster
        labels[6:] = 2
        s = silhouette_samples(pts, labels)
        assert np.all(s >= -1.0) and np.all(s <= 1.0)
        assert s[5] == 0.0

    def test_k_range_validation(self, rng):
        pts = rng.normal((5, 2), dtype=np.float64)
        with pytest.raises(ValueError, match="k_range"):
            kmeans_silhouette(pts, k_range=range(2, 9))

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            kmeans_silhouette(np.zeros((1, 2)))

    def test_kmeans_deterministic(self, rng):
        pts = rng.normal((30, 2), dtype=np.float64)
        l1, c1, _ = kmeans(pts, 3, seed=5)
        l2, c2, _ = kmeans(pts, 3, seed=5)
        npt.assert_array_equal(l1, l2)
        npt.assert_array_equal(c1, c2)

    def test_duplicate_points_dont_crash(self):
        pts = np.zeros((6, 2))
        pts[3:] = 1.0
        labels, _, _ = kmeans(pts, 2, seed=1)
        assert len(set(labels)) == 2

    def test_channel_token_matrix_shape(self, rng):
        m = channel_token_matrix(rng.normal((8, 2, 3, 4)))
        assert m.shape == (8, 24) and m.dtype == np.float64


class TestLambdaReport:
    def test_constant_trace_stabilizes_at_zero(self):
        trace = np.tile([0.5, 0.7], (50, 1))
        assert lambda_report(trace).stabilization_step == 0

    def test_ramp_then_flat_onset(self):
        ramp = np.linspace(0.0, 1.0, 21)[:, None]   # ramp lands on 1.0 at step 20
        flat = np.full((30, 1), 1.0)
        trace = np.vstack([ramp, flat])
        rep = lambda_report(trace, threshold=1e-3)
        assert rep.stabilization_step == 20   # first step with no further motion

    def test_final_values_and_length(self):
        trace = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        rep = lambda_report(trace)
        assert rep.final == [0.5, 0.6]
        assert rep.trace.shape == (3, 2)

    def test_csv_round_trip(self, tmp_path):
        trace = np.array([[0.1, 0.2], [0.3, 0.4]])
        path = tmp_path / "lam.csv"
        lambda_report(trace).write_csv(path, meta={"seed": 1})
        body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "step,lambda_1,lambda_2"
        assert len(body) == 3

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            lambda_report(np.zeros((0, 3)))


def _model_and_samples(nrm=True):
    cfg = ModelConfig(channels=(4, 8), strides=(1, 2), n_stages=2,
                      ssm_state=2, seed=6, nrm_enabled=nrm)
    samples = gen_phantoms(2, 8, PhantomConfig(shape=(8, 8, 8), n_blobs=(1, 1),
                                               radius=(2.0, 3.0)))
    return Network(cfg), samples


class TestLatentDumpAndAnalyze:
    def test_capture_has_module_tensors(self):
        model, samples = _model_and_samples()
        latents = capture_latents(model, samples[0])
        assert {"m1", "m2", "e_hat", "e_1", "e_2"} <= set(latents.keys())
        assert latents["m1"].shape == latents["m2"].shape

    def test_capture_baseline_partial(self):
        model, samples = _model_and_samples(nrm=False)
        latents = capture_latents(model, samples[0])
        assert "m1" in latents and "m2" not in latents

    def test_dump_round_trip_bitwise(self, tmp_path):
        model, samples = _model_and_samples()
        latents = capture_latents(model, samples[0])
        path = tmp_path / "l.dump"
        save_latent_dump(path, latents, {"sample_id": samples[0].id})
        back, meta = load_latent_dump(path)
        assert meta["sample_id"] == samples[0].id
        for k, v in latents.items():
            npt.assert_array_equal(back[k], v)

    def test_analyze_model_full_and_partial(self, tmp_path):
        model, samples = _model_and_samples()
        rows, summary = analyze_model(model, samples, k_range=(2, 3), seed=0,
                                      out_dir=tmp_path)
        assert summary["nrm_present"] is True
        assert "mean_pearson_m1_m2" in summary
        assert len(rows) == 2
        assert (tmp_path / f"latent_{samples[0].id}.dump").exists()

        base, _ = _model_and_samples(nrm=False)
        rows_b, summary_b = analyze_model(base, samples, k_range=(2, 3), seed=0)
        assert summary_b["nrm_present"] is False
        assert "pearson_m1_m2" not in rows_b[0]

    def test_analyze_reports_lambda_trace(self):
        model, samples = _model_and_samples()
        trace = np.vstack([np.full((5, 2), 0.5), np.full((5, 2), 0.8)])
        _, summary = analyze_model(model, samples, k_range=(2,), seed=0,
                                   lambda_trace=trace)
        assert summary["lambda_final"] == [0.8, 0.8]
        assert summary["lambda_stabilization_step"] == 5
