import numpy as np
import numpy.testing as npt
import pytest

from diffumamba import metrics
from diffumamba.data import NoiseSpec, gen_phantoms, noise_hook
from diffumamba.metrics import (MetricsReport, PerturbCell, SampleMetrics, dsc_iou,
                                evaluate_masks, evaluate_model, hash_u32, hd95, label_map,
                                model_input, perturbation_grid, surface_voxels,
                                write_perturb_csv)
from diffumamba.network import ModelConfig, Network
from diffumamba.oracles import brute_hd95
from diffumamba.tensor import Rng, ShapeError, no_grad


class TestDscIou:
    def test_identical_masks(self, rng):
        m = rng.random((4, 4, 4)) > 0.5
        assert dsc_iou(m, m) == (1.0, 1.0)

    def test_disjoint_masks(self):
        a = np.zeros((3, 3, 3), dtype=bool)
        b = np.zeros((3, 3, 3), dtype=bool)
        a[0, 0, 0] = True
        b[2, 2, 2] = True
        assert dsc_iou(a, b) == (0.0, 0.0)

    def test_counting_oracle(self):
        a = np.zeros((2, 2, 2), dtype=bool)
        b = np.zeros((2, 2, 2), dtype=bool)
        a.ravel()[:4] = True
        b.ravel()[2:6] = True   # |A| = |B| = 4, overlap 2
        d, i = dsc_iou(a, b)
        assert d == 0.5
        npt.assert_allclose(i, 1.0 / 3.0, rtol=1e-12)

    def test_both_empty_defined_as_one(self):
        z = np.zeros((2, 2, 2), dtype=bool)
        assert dsc_iou(z, z) == (1.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dsc_iou(np.zeros((2, 2, 2), dtype=bool), np.zeros((3, 3, 3), dtype=bool))

    @pytest.mark.parametrize("seed", range(10))
    def test_dsc_iou_identity(self, seed):
        r = Rng(seed)
        a = r.random((5, 5, 5)) < 0.4
        b = r.random((5, 5, 5)) < 0.4
        d, i = dsc_iou(a, b)
        assert 0.0 <= d <= 1.0 and 0.0 <= i <= 1.0
        npt.assert_allclose(d, 2 * i / (1 + i), atol=1e-6)


class TestHd95:
    def test_identical_masks_zero(self, rng):
        m = rng.random((5, 5, 5)) < 0.3
        if m.any():
            assert hd95(m, m) == 0.0

    def test_two_voxels_three_apart(self):
        a = np.zeros((8, 8, 8), dtype=bool)
        b = np.zeros((8, 8, 8), dtype=bool)
        a[2, 2, 2] = True
        b[5, 2, 2] = True   # 3 voxels apart along one axis
        assert hd95(a, b) == 3.0

    def test_spacing_scales_distances(self):
        a = np.zeros((8, 8, 8), dtype=bool)
        b = np.zeros((8, 8, 8), dtype=bool)
        a[2, 2, 2] = True
        b[5, 2, 2] = True
        npt.assert_allclose(hd95(a, b, spacing=(2.5, 1.0, 1.0)), 7.5, rtol=1e-6)

    def test_empty_mask_undefined(self):
        z = np.zeros((4, 4, 4), dtype=bool)
        m = z.copy()
        m[1, 1, 1] = True
        assert hd95(z, m) is None
        assert hd95(m, z) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        r = Rng(seed)
        shape = [int(r.integers(3, 9)) for _ in range(3)]
        a = r.random(tuple(shape)) < 0.25
        b = r.random(tuple(shape)) < 0.25
        if not a.any() or not b.any():
            return
        npt.assert_allclose(hd95(a, b), brute_hd95(a, b), atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_under_swap(self, seed):
        r = Rng(seed)
        a = r.random((6, 6, 6)) < 0.3
        b = r.random((6, 6, 6)) < 0.3
        if not a.any() or not b.any():
            return
        npt.assert_allclose(hd95(a, b), hd95(b, a), atol=1e-9)

    def test_surface_of_single_voxel_is_itself(self):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[1, 1, 1] = True
        npt.assert_array_equal(surface_voxels(m), m)

    def test_surface_excludes_interior(self):
        m = np.ones((3, 3, 3), dtype=bool)
        s = surface_voxels(m)
        assert not s[1, 1, 1]       # interior voxel
        assert s.sum() == 26        # all shell voxels touch the border


class TestReport:
    def _report(self):
        report = MetricsReport(meta={"seed": 0})
        report.add(SampleMetrics("a", {1: {"dsc": 0.8, "iou": 2 / 3, "hd95": 1.0}}))
        report.add(SampleMetrics("b", {1: {"dsc": 1.0, "iou": 1.0, "hd95": None}}))
        return report

    def test_summary_excludes_undefined_hd(self):
        s = self._report().summary()
        assert s["hd95"]["n"] == 1
        assert s["hd95_undefined"] == 1
        npt.assert_allclose(s["dsc"]["mean"], 0.9)

    def test_csv_row_count(self, tmp_path):
        path = tmp_path / "m.csv"
        self._report().write_csv(path)
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 3   # header + 2 samples

    def test_json_summary(self, tmp_path):
        import json
        path = tmp_path / "m.json"
        self._report().write_json(path)
        d = json.loads(path.read_text())
        assert d["n_samples"] == 2 and d["sample_ids"] == ["a", "b"]


def _tiny_model_and_samples():
    from diffumamba.data import PhantomConfig
    cfg = ModelConfig(channels=(4, 8), strides=(1, 2), n_stages=2, ssm_state=2, seed=2)
    model = Network(cfg)
    samples = gen_phantoms(2, 3, PhantomConfig(shape=(8, 8, 8), n_blobs=(1, 1),
                                               radius=(2.0, 3.0)))
    return model, samples


def _longseq_model_and_samples():
    # the long-sequence layout: strides (1, 2, 1) leave a 512-token bottleneck
    from diffumamba.data import PhantomConfig
    cfg = ModelConfig(channels=(4, 4, 8), strides=(1, 2, 1), n_stages=3, ssm_state=2, seed=3)
    model = Network(cfg)
    samples = gen_phantoms(2, 5, PhantomConfig(shape=(16, 16, 16), radius=(2.0, 3.5),
                                               margin=0.5, min_separation=0.75))
    return model, samples


class TestEvaluateAndPerturb:
    def test_evaluate_model_row_count(self):
        model, samples = _tiny_model_and_samples()
        report = evaluate_model(model, samples)
        assert len(report.samples) == len(samples)
        for sm in report.samples:
            assert set(sm.per_class.keys()) == {1}

    def test_grid_shape_and_level1_bit_equal(self):
        model, samples = _tiny_model_and_samples()
        families = ["uniform", "salt_pepper"]
        cells = perturbation_grid(model, samples, families, [1, 2, 3], seed=4)
        assert len(cells) == 6
        clean = [c for c in cells if c.level == 1]
        assert clean[0].mean_dsc == clean[1].mean_dsc    # same clean pass reused
        assert all(c.mean_perturbation == 0.0 for c in clean)

    def test_one_stem_per_sample(self, monkeypatch):
        # the clean prediction reuses the stem the noisy cells start from,
        # and its cell is bit-equal to the clean evaluation; the rest of
        # the network runs once clean and once per distinct noisy level
        model, samples = _tiny_model_and_samples()
        calls = []
        stem, rest, forward = model.forward_stem, model.forward_rest, model.forward
        monkeypatch.setattr(model, "forward_stem", lambda x: calls.append("stem") or stem(x))
        monkeypatch.setattr(model, "forward_rest", lambda h: calls.append("rest") or rest(h))
        monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append("forward") or
                            forward(*a, **k))
        cells = perturbation_grid(model, samples, ["uniform", "speckle"], [1, 3, 5], seed=2)
        assert calls == ["stem", "rest", "rest", "rest"] * len(samples)
        monkeypatch.undo()
        report = evaluate_model(model, samples)
        clean = float(np.mean([sm.mean_dsc() for sm in report.samples]))
        assert all(c.mean_dsc == clean for c in cells if c.level == 1)

    def test_three_class_level1_cells_match_evaluation_bitwise(self):
        # with two foreground classes the grid's score and
        # SampleMetrics.mean_dsc each average two DSCs, and level 1 still
        # reads the clean evaluation's mean to the last bit
        from diffumamba.data import PhantomConfig
        model = Network(ModelConfig(channels=(4, 8), strides=(1, 2), n_stages=2, ssm_state=2,
                                    n_classes=3, seed=2))
        samples = gen_phantoms(3, 3, PhantomConfig(shape=(8, 8, 8), n_blobs=(1, 1),
                                                   radius=(2.0, 3.0)))
        for s in samples:
            top = s.label[:4]
            top[top == 1] = 2                   # the blob's upper half is class 2
        report = evaluate_model(model, samples)
        assert all(set(sm.per_class) == {1, 2} for sm in report.samples)
        assert any(0.0 < sm.per_class[2]["dsc"] < 1.0 for sm in report.samples)
        clean = float(np.mean([sm.mean_dsc() for sm in report.samples]))
        cells = perturbation_grid(model, samples, ["uniform", "speckle"], [1, 2], seed=1)
        assert [c.mean_dsc.hex() for c in cells if c.level == 1] == [clean.hex()] * 2

    def test_grid_computes_no_hd95(self, monkeypatch):
        # a cell reads only DSC, so the grid never calls hd95
        model, samples = _tiny_model_and_samples()
        want = perturbation_grid(model, samples, ["uniform"], [1, 3], seed=6)

        def refuse(*args, **kwargs):
            raise AssertionError("perturbation_grid computed an HD95")
        monkeypatch.setattr(metrics, "hd95", refuse)
        with pytest.raises(AssertionError, match="HD95"):
            evaluate_model(model, samples)
        assert perturbation_grid(model, samples, ["uniform"], [1, 3], seed=6) == want

    @pytest.mark.parametrize("build", [_tiny_model_and_samples, _longseq_model_and_samples],
                             ids=["tiny", "longseq"])
    def test_noisy_cells_match_hooked_forward(self, build):
        # the grid runs one clean stem per sample and one batch per noisy
        # level; a B = 1 forward with the hook between the stem and the
        # rest gives the same cells bit for bit
        model, samples = build()
        cells = perturbation_grid(model, samples, ["uniform", "speckle"], [1, 4, 6], seed=5)
        for c in (c for c in cells if c.level != 1):
            scores, mags = [], []
            for idx, s in enumerate(samples):
                spec = NoiseSpec(c.family, c.level,
                                 seed=5 * 1_000_003 + hash_u32(f"{c.family}/{c.level}/{idx}"))

                def hook(t):
                    out = noise_hook(spec)(t)
                    mags.append(float(np.abs(out.data - t.data).mean()))
                    return out
                with no_grad():
                    stem = model.forward_stem(model_input(model, s))
                    pred = label_map(model.forward_rest(hook(stem)))
                scores.append(evaluate_masks(pred, s.label, 2, s.spacing, s.id).mean_dsc())
            assert (c.mean_dsc, c.mean_perturbation) == (np.mean(scores), np.mean(mags))
            assert c.mean_perturbation > 0.0

    def test_grid_deterministic(self):
        model, samples = _tiny_model_and_samples()
        a = perturbation_grid(model, samples, ["speckle"], [1, 3], seed=9)
        b = perturbation_grid(model, samples, ["speckle"], [1, 3], seed=9)
        assert [(c.mean_dsc, c.mean_perturbation) for c in a] == \
               [(c.mean_dsc, c.mean_perturbation) for c in b]

    def test_perturb_csv(self, tmp_path):
        model, samples = _tiny_model_and_samples()
        cells = perturbation_grid(model, samples, ["periodic"], [1, 2], seed=0)
        path = tmp_path / "p.csv"
        write_perturb_csv(cells, path, meta={"seed": 0})
        body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "family,level,param,mean_dsc,mean_perturbation"
        assert len(body) == 3

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "p.csv"
        good = [PerturbCell("uniform", 1, 0.0, 0.9, 0.0)]
        write_perturb_csv(good, path, meta={"seed": 0})
        before = path.read_bytes()
        # the second row raises after the header and the first row are written
        bad = good + [PerturbCell("uniform", 2, 2.0, "not a number", 0.1)]
        with pytest.raises(ValueError):
            write_perturb_csv(bad, path, meta={"seed": 1})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]
