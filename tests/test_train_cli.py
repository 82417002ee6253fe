import gc
import json
import os
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from diffumamba.analysis import read_lambda_trace_csv
from diffumamba.cli import build_parser, main
from diffumamba.data import PhantomConfig, gen_phantoms, save_dataset
from diffumamba.network import ModelConfig, Network, load_checkpoint
from diffumamba.nnops import dice_ce_loss
from diffumamba.tensor import (NumericError, Tensor, set_default_dtype, set_gradient_fault,
                               zeros)
from diffumamba.train import (GRAD_CLIP, MOMENTUM, SGD, ExperimentConfig, TrainConfig,
                              paired_comparison, poly_lr, train_run)


def tiny_model_cfg(**over):
    base = dict(channels=(4, 8), strides=(1, 2), n_stages=2, ssm_state=2, seed=0)
    base.update(over)
    return ModelConfig(**base)


def tiny_samples(n=4, seed=3):
    return gen_phantoms(n, seed, PhantomConfig(shape=(8, 8, 8), n_blobs=(1, 1),
                                               radius=(2.0, 3.0)))


class TestOptimizer:
    def test_zero_lr_leaves_params_bitwise_unchanged(self, tmp_path):
        model = Network(tiny_model_cfg())
        before = {k: v.data.copy() for k, v in model.named_parameters().items()}
        tcfg = TrainConfig(lr=0.0, epochs=3, batch_size=2, seed=0)
        train_run(model, tiny_samples(), tcfg, tmp_path, quiet=True)
        for k, v in model.named_parameters().items():
            npt.assert_array_equal(before[k], v.data)

    def test_poly_decay_endpoints(self):
        assert poly_lr(0.01, 0, 100) == 0.01
        assert poly_lr(0.01, 100, 100) == 0.0
        assert 0 < poly_lr(0.01, 50, 100) < 0.01

    def test_grad_clip_bounds_update(self):
        model = Network(tiny_model_cfg())
        params = model.named_parameters()
        opt = SGD(params)
        for t in params.values():
            t.grad = np.full_like(t.data, 100.0)
        assert opt.grad_norm() > GRAD_CLIP
        before = {k: v.data.copy() for k, v in params.items()}
        opt.step(lr=0.01)
        # the first step's buffer is the clipped g, so the update is (1 + mu) g
        moved = np.sqrt(sum(float(((params[k].data - before[k]) ** 2).sum())
                            for k in params))
        npt.assert_allclose(moved, 1.99 * 12.0 * 0.01, rtol=1e-4)

    def test_nesterov_update_rule(self):
        p = Tensor(np.array([1.0]), dtype=np.float64, requires_grad=True)
        opt = SGD({"p": p})
        for _ in range(2):
            p.grad = np.array([1.0])
            opt.step(lr=0.1)
        # step 1: buf = 1, update = g + mu*buf = 1.99, p = 1 - 0.199
        # step 2: buf = mu + 1 = 1.99, update = 1 + mu*1.99 = 2.9701, p = 0.801 - 0.29701
        assert MOMENTUM == 0.99
        npt.assert_allclose(p.data, [0.50399], rtol=1e-12)

    def test_grad_norm_reads_any_grad_layout(self):
        # a grad handed over as a transposed view gives the norm of its
        # C-ordered copy bit for bit
        data = np.random.default_rng(0).normal(size=(64, 8))
        strided = Tensor(np.zeros((8, 64)), dtype=np.float64)
        strided.grad = data.T
        packed = Tensor(np.zeros((8, 64)), dtype=np.float64)
        packed.grad = np.ascontiguousarray(data.T)
        assert SGD({"w": strided}).grad_norm() == SGD({"w": packed}).grad_norm()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_grad_raises_before_any_write(self, bad):
        model = Network(tiny_model_cfg())
        params = model.named_parameters()
        opt = SGD(params)
        for t in params.values():
            t.grad = np.full_like(t.data, 0.01)
        opt.step(lr=0.1)                     # momentum buffers hold nonzero values
        before = {k: v.data.copy() for k, v in params.items()}
        buffers = {k: b.copy() for k, b in opt.buffers.items()}
        params["head.bias"].grad[0] = bad
        with pytest.raises(NumericError, match=r"non-finite grads in 1 parameter\(s\): head.bias"):
            opt.step(lr=0.1)
        for k, v in params.items():
            npt.assert_array_equal(v.data, before[k], err_msg=k)
            npt.assert_array_equal(opt.buffers[k], buffers[k], err_msg=k)


class TestTrainRun:
    def test_loss_decreases_and_outputs_written(self, tmp_path):
        model = Network(tiny_model_cfg())
        res = train_run(model, tiny_samples(), TrainConfig(epochs=8, seed=1),
                        tmp_path, quiet=True)
        assert res.epoch_log[-1]["loss"] < res.epoch_log[0]["loss"]
        assert res.final_path == str(tmp_path / "final.ckpt")
        assert sorted(os.listdir(tmp_path)) == ["final.ckpt", "lambda_trace.csv",
                                                "train_log.csv"]
        assert res.lambda_trace.shape == (res.steps, 2)
        npt.assert_allclose(read_lambda_trace_csv(tmp_path / "lambda_trace.csv"),
                            res.lambda_trace, rtol=0, atol=1e-8)

    def test_each_run_traces_only_its_own_steps(self, tmp_path):
        # two runs on one model: neither trace nor CSV carries the other run's steps
        model = Network(tiny_model_cfg())
        for sub in ("first", "second"):
            res = train_run(model, tiny_samples(), TrainConfig(epochs=1, seed=1),
                            tmp_path / sub, quiet=True)
            assert res.lambda_trace.shape == (res.steps, 2)
            npt.assert_allclose(read_lambda_trace_csv(tmp_path / sub / "lambda_trace.csv"),
                                res.lambda_trace, rtol=0, atol=1e-8)

    def test_zero_epochs_empty_trace_and_no_best(self, tmp_path):
        model = Network(tiny_model_cfg())
        res = train_run(model, tiny_samples(), TrainConfig(epochs=0, seed=1),
                        tmp_path, quiet=True)
        assert res.steps == 0
        assert res.lambda_trace.shape == (0, 2)
        assert not os.path.exists(tmp_path / "best.ckpt")
        assert os.path.exists(res.final_path)

    def test_empty_sample_list_raises_before_training(self, tmp_path):
        # an epoch over no samples would divide its loss sums by zero batches
        model = Network(tiny_model_cfg())
        with pytest.raises(ValueError, match="empty sample list"):
            train_run(model, [], TrainConfig(epochs=1, seed=1), tmp_path / "run", quiet=True)
        assert not os.path.exists(tmp_path / "run")
        with pytest.raises(ValueError, match="empty sample list"):
            paired_comparison([], tiny_samples(1), tiny_model_cfg(), TrainConfig(epochs=2),
                              [0], tmp_path / "cmp")

    def test_batch_keeps_model_dtype_under_f64_default(self, tmp_path, monkeypatch):
        model = Network(tiny_model_cfg())                # f32 weights
        seen = []
        forward = model.forward

        def spy(x):
            logits = forward(x)
            seen.append((x.dtype, logits.dtype))
            return logits
        monkeypatch.setattr(model, "forward", spy)
        set_default_dtype("f64")
        train_run(model, tiny_samples(2), TrainConfig(epochs=1, batch_size=2), tmp_path,
                  quiet=True)
        assert seen == [(np.dtype(np.float32), np.dtype(np.float32))]

    def test_f64_model_trains_on_unrounded_f64_inputs(self, tmp_path, monkeypatch):
        # an f64 model sees an f64 sample's values as they are, as
        # metrics.model_input gives them to eval, not rounded to f32
        set_default_dtype("f64")
        model = Network(tiny_model_cfg())
        sample = tiny_samples(1)[0]
        sample.image = sample.image.astype(np.float64) + 1.0 / 3.0
        assert not np.array_equal(sample.image.astype(np.float32), sample.image)
        seen = []
        forward = model.forward

        def spy(x):
            seen.append(x.data.copy())
            return forward(x)
        monkeypatch.setattr(model, "forward", spy)
        train_run(model, [sample], TrainConfig(epochs=1, batch_size=1), tmp_path, quiet=True)
        assert len(seen) == 1 and seen[0].dtype == np.float64
        npt.assert_array_equal(seen[0], sample.image[None])

    @pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc already running")
    def test_two_steps_hold_one_graph_at_a_time(self, tmp_path):
        # backward releases step k's tape before step k + 1's forward, so
        # two steps peak about as high as one forward + backward (the
        # long-sequence layout: 3 stages, strides (1, 2, 1), 16^3, batch 2)
        cfg = ModelConfig(n_stages=3, channels=(8, 16, 32), strides=(1, 2, 1))
        samples = gen_phantoms(2, 5, PhantomConfig(shape=(16, 16, 16), radius=(2.0, 3.5),
                                                   margin=0.5, min_separation=0.75))
        images = Tensor(np.stack([s.image for s in samples]).astype(np.float32))
        labels = np.stack([s.label for s in samples]).astype(np.int64)

        def peak(run):
            model = Network(cfg)
            gc.collect()
            tracemalloc.start()
            try:
                run(model)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda m: dice_ce_loss(m.forward(images), labels).total.backward())
        two = peak(lambda m: train_run(m, samples, TrainConfig(epochs=2, batch_size=2),
                                       tmp_path, quiet=True))
        assert two <= 1.25 * one, (two, one)

    def test_same_seed_identical_loss_curves(self, tmp_path):
        def run(sub):
            model = Network(tiny_model_cfg())
            res = train_run(model, tiny_samples(), TrainConfig(epochs=4, seed=9),
                            tmp_path / sub, quiet=True)
            return [r["loss"] for r in res.epoch_log]

        assert run("a") == run("b")

    def test_baseline_writes_no_lambda_trace(self, tmp_path):
        model = Network(tiny_model_cfg(nrm_enabled=False))
        res = train_run(model, tiny_samples(), TrainConfig(epochs=2, seed=1),
                        tmp_path, quiet=True)
        assert res.lambda_trace is None
        assert not os.path.exists(tmp_path / "lambda_trace.csv")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_snapshot(self, tmp_path):
        model = Network(tiny_model_cfg())
        # poison one weight so the forward pass overflows f32
        model.named_parameters()["head.weight"].data[...] = 1e38
        with pytest.raises(NumericError):
            train_run(model, tiny_samples(), TrainConfig(epochs=2, seed=0),
                      tmp_path, quiet=True)
        diag = json.loads((tmp_path / "diagnostic.json").read_text())
        assert (diag["step"], diag["epoch"]) == (0, 0)
        _, aux = load_checkpoint(tmp_path / "diagnostic.ckpt")
        assert aux["step"] == 0 and aux["extra"]["abort_epoch"] == 0

    def test_nonfinite_gradient_aborts_before_the_update(self, tmp_path):
        # a NaN adjoint gives a NaN grad norm; the run stops at the step that
        # made it, and the snapshot holds the untouched initial weights
        cfg = ModelConfig(n_stages=3, channels=(8, 16, 32), strides=(1, 2, 1), seed=0)
        model = Network(cfg)
        initial = {k: v.data.copy() for k, v in model.named_parameters().items()}
        samples = gen_phantoms(4, 0, PhantomConfig(shape=(16, 16, 16), radius=(2.0, 3.5),
                                                   margin=0.5, min_separation=0.75))
        set_gradient_fault(float("nan"))
        try:
            with pytest.raises(NumericError, match="non-finite grads"):
                train_run(model, samples, TrainConfig(epochs=2, seed=0), tmp_path, quiet=True)
        finally:
            set_gradient_fault(None)
        diag = json.loads((tmp_path / "diagnostic.json").read_text())
        assert (diag["step"], diag["epoch"]) == (0, 0)
        snap, aux = load_checkpoint(tmp_path / "diagnostic.ckpt")
        assert aux["step"] == 0
        for name, t in snap.named_parameters().items():
            npt.assert_array_equal(t.data, initial[name], err_msg=name)

    def test_checkpoint_loadable_and_config_echoed(self, tmp_path):
        model = Network(tiny_model_cfg())
        res = train_run(model, tiny_samples(), TrainConfig(epochs=2, seed=4),
                        tmp_path, quiet=True)
        loaded, aux = load_checkpoint(res.final_path)
        assert loaded.cfg == model.cfg
        assert aux["extra"]["seed"] == 4


class TestExperimentConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(model=tiny_model_cfg(), train=TrainConfig(epochs=3, seed=2),
                               train_manifest="m.tsv")
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_loads_config_with_dropped_eval_manifest(self):
        # config.json files written before eval_manifest and out_dir were dropped still load
        old = {"model": {"channels": [4, 8], "strides": [1, 2], "n_stages": 2},
               "train": {"epochs": 3}, "train_manifest": "train.tsv",
               "eval_manifest": "eval.tsv", "out_dir": "o", "build_id": "0123456789ab"}
        cfg = ExperimentConfig.from_dict(old)
        assert cfg.train_manifest == "train.tsv"
        assert cfg.train.epochs == 3 and cfg.model.channels == (4, 8)
        assert "eval_manifest" not in cfg.to_dict() and "out_dir" not in cfg.to_dict()


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["gen-data", "--n", "4", "--seed", "5", "--out", str(out),
               "--size", "8", "8", "8", "--blobs", "1", "1",
               "--radius", "2.0", "3.0"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cli_run(cli_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = {"model": {"channels": [4, 8], "strides": [1, 2], "n_stages": 2,
                     "ssm_state": 2},
           "train": {"epochs": 4, "batch_size": 2}}
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["train", "--config", str(cfg_path), "--seed", "1",
               "--train-manifest", str(cli_dataset / "manifest.tsv"),
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def bad_label_manifest(tmp_path_factory):
    """A manifest whose first label holds class 2, past a 2-class model's."""
    samples = tiny_samples(n=2)
    samples[0].label[0, 0, 0] = 2
    return save_dataset(samples, str(tmp_path_factory.mktemp("bad-label")))


@pytest.fixture(scope="module")
def odd_shape_manifest(tmp_path_factory):
    """A manifest of 9 x 8 x 8 volumes: 9 is past the tiny model's total stride 2."""
    samples = gen_phantoms(2, 3, PhantomConfig(shape=(9, 8, 8), n_blobs=(1, 1),
                                               radius=(2.0, 3.0)))
    return save_dataset(samples, str(tmp_path_factory.mktemp("odd-shape")))


class TestCli:
    def test_gen_data_outputs(self, cli_dataset):
        assert (cli_dataset / "manifest.tsv").exists()
        assert (cli_dataset / "run.json").exists()
        assert len(list((cli_dataset / "images").iterdir())) == 4

    def test_train_outputs(self, cli_run):
        assert (cli_run / "final.ckpt").exists()
        # config.json is the resolved config and nothing else; run.json
        # carries the provenance only
        cfg = json.loads((cli_run / "config.json").read_text())
        assert set(cfg) == {"model", "train", "train_manifest"}
        assert cfg["train"]["epochs"] == 4
        assert cfg["train"]["seed"] == cfg["model"]["seed"] == 1     # --seed recorded
        run = json.loads((cli_run / "run.json").read_text())
        assert set(run) == {"command", "seed", "build_id"} and run["seed"] == 1

    def test_run_retrains_bitwise_from_its_config(self, cli_run, tmp_path):
        out = tmp_path / "again"
        assert main(["train", "--config", str(cli_run / "config.json"), "--out", str(out)]) == 0
        first, _ = load_checkpoint(cli_run / "final.ckpt")
        again, _ = load_checkpoint(out / "final.ckpt")
        for name, t in first.named_parameters().items():
            assert t.data.tobytes() == again.named_parameters()[name].data.tobytes(), name

    def test_older_config_with_retired_keys_retrains_bitwise(self, cli_run, tmp_path):
        # config.json files written while the optimizer settings, the block
        # widths and lambda's start were settable carry them at the values
        # that are now constants
        cfg = json.loads((cli_run / "config.json").read_text())
        cfg["model"].update(ssm_expand=2, ssm_conv_width=3, lambda_init=0.5)
        cfg["train"].update(momentum=0.99, nesterov=True, poly_power=0.9, grad_clip=12.0)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(cfg))
        out = tmp_path / "again"
        assert main(["train", "--config", str(old), "--out", str(out)]) == 0
        first, _ = load_checkpoint(cli_run / "final.ckpt")
        again, _ = load_checkpoint(out / "final.ckpt")
        for name, t in first.named_parameters().items():
            assert t.data.tobytes() == again.named_parameters()[name].data.tobytes(), name

    @pytest.mark.parametrize("section,key,value", [
        ("train", "momentum", 0.9), ("train", "nesterov", False), ("train", "poly_power", 1.0),
        ("train", "grad_clip", 1.0), ("model", "ssm_expand", 4), ("model", "lambda_init", 1.0)])
    def test_retired_key_at_another_value_is_data_error(self, cli_dataset, cli_run, tmp_path,
                                                       capsys, section, key, value):
        cfg = json.loads((cli_run / "cfg.json").read_text())
        cfg[section][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["train", "--config", str(cfg_path), "--out", str(out),
                   "--train-manifest", str(cli_dataset / "manifest.tsv")])
        assert rc == 2
        assert f"{key} = {value!r} is no longer settable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--batch-size", "0"], ["--epochs", "-3"],
                                      ["--lr", "nan"], ["--lr", "-1"]],
                             ids=["zero-batch", "negative-epochs", "nan-lr", "negative-lr"])
    def test_bad_train_flag_is_data_error(self, cli_dataset, cli_run, tmp_path, capsys, flag):
        out = tmp_path / "out"
        rc = main(["train", "--config", str(cli_run / "cfg.json"), *flag,
                   "--train-manifest", str(cli_dataset / "manifest.tsv"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error: bad flag value: ")
        assert not out.exists()             # rejected before any output is written

    def test_f64_checkpoint_keeps_its_dtype_under_f32_default(self, cli_dataset, cli_run,
                                                              tmp_path):
        manifest = str(cli_dataset / "manifest.tsv")
        run = tmp_path / "run"
        assert main(["train", "--f64", "--config", str(cli_run / "cfg.json"), "--epochs", "1",
                     "--train-manifest", manifest, "--out", str(run)]) == 0
        model, _ = load_checkpoint(run / "final.ckpt")
        assert {t.dtype for t in model.named_parameters().values()} == {np.dtype(np.float64)}
        x = Tensor(np.zeros((1, 1, 8, 8, 8)), dtype=np.float64)
        assert model.forward(x).dtype == np.float64
        assert main(["eval", "--checkpoint", str(run / "final.ckpt"), "--manifest", manifest,
                     "--out", str(tmp_path / "eval")]) == 0

    def test_f64_ends_with_its_command(self, tmp_path):
        # the f64 default is set in the context the command runs in, so it
        # is gone when main returns, here after a data error
        assert main(["train", "--f64", "--train-manifest", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "x")]) == 2
        assert zeros((1,)).dtype == np.float32

    def test_eval_command(self, cli_dataset, cli_run, tmp_path):
        rc = main(["eval", "--checkpoint", str(cli_run / "final.ckpt"),
                   "--manifest", str(cli_dataset / "manifest.tsv"),
                   "--out", str(tmp_path)])
        assert rc == 0
        body = [l for l in (tmp_path / "metrics.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(body) == 1 + 4   # header + one row per sample
        summary = json.loads((tmp_path / "metrics.json").read_text())
        assert summary["n_samples"] == 4

    def test_perturb_command_grid(self, cli_dataset, cli_run, tmp_path):
        rc = main(["perturb", "--checkpoint", str(cli_run / "final.ckpt"),
                   "--manifest", str(cli_dataset / "manifest.tsv"),
                   "--out", str(tmp_path), "--levels", "1", "2"])
        assert rc == 0
        body = [l for l in (tmp_path / "perturbation.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(body) == 1 + 4 * 2   # header + 4 families x 2 levels

    def test_analyze_command(self, cli_dataset, cli_run, tmp_path):
        rc = main(["analyze", "--checkpoint", str(cli_run / "final.ckpt"),
                   "--manifest", str(cli_dataset / "manifest.tsv"),
                   "--lambda-trace", str(cli_run / "lambda_trace.csv"),
                   "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "analysis.json").read_text())
        assert summary["nrm_present"] is True
        assert len(summary["lambda_final"]) == 2
        assert "lambda_stabilization_step" in summary
        assert (tmp_path / "analysis.csv").exists()
        dumps = list(tmp_path.glob("latent_*.dump"))
        assert len(dumps) == 4

    def test_analyze_on_a_one_voxel_bottleneck(self, cli_dataset, tmp_path):
        # 8^3 phantoms through strides (1, 2, 2, 2): the bottleneck is 1^3,
        # so no channel has the two positions a correlation needs
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"channels": [4, 4, 8, 8], "n_stages": 4,
                                                  "strides": [1, 2, 2, 2], "ssm_state": 2},
                                        "train": {"epochs": 0}}))
        manifest = str(cli_dataset / "manifest.tsv")
        assert main(["train", "--config", str(cfg_path), "--train-manifest", manifest,
                     "--out", str(tmp_path / "run")]) == 0
        rc = main(["analyze", "--checkpoint", str(tmp_path / "run" / "final.ckpt"),
                   "--manifest", manifest, "--out", str(tmp_path / "latent")])
        assert rc == 0
        summary = json.loads((tmp_path / "latent" / "analysis.json").read_text())
        assert summary["nrm_present"] is True
        assert summary["mean_pearson_m1_m2"] is None

    def test_each_command_takes_only_its_flags(self):
        expected = {
            "gen-data": "--seed --out --n --size --blobs --radius",
            "train": "--seed --out --config --f64 --train-manifest --epochs --lr "
                     "--batch-size --no-nrm",
            "eval": "--out --checkpoint --manifest",
            "perturb": "--seed --out --checkpoint --manifest --families --levels",
            "analyze": "--seed --out --checkpoint --manifest --lambda-trace",
            "selfcheck": "--seed --out --corrupt-adjoint",
        }
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {name: " ".join(a.option_strings[0] for a in p._actions
                                if a.option_strings[0] != "-h")
                 for name, p in sub.choices.items()}
        assert flags == expected

    @pytest.mark.parametrize("command,flag", [
        ("gen-data", "--config"), ("gen-data", "--f64"), ("eval", "--config"), ("eval", "--f64"),
        ("eval", "--seed"), ("perturb", "--config"), ("perturb", "--f64"),
        ("analyze", "--config"), ("analyze", "--f64"), ("selfcheck", "--f64")])
    def test_dropped_flag_is_usage_error(self, tmp_path, command, flag):
        value = {"--config": ["c.json"], "--seed": ["3"]}.get(flag, [])
        args = {"gen-data": ["--n", "1", "--size", "8", "8", "8"], "selfcheck": []}.get(
            command, ["--checkpoint", "nope.ckpt", "--manifest", "nope.tsv"])
        out = tmp_path / "out"
        assert main([command, flag, *value, *args, "--out", str(out)]) == 1
        assert not out.exists()

    def test_usage_error_exit_code(self):
        assert main(["train"]) == 1          # missing required --out
        assert main(["no-such-command"]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_code(self, cli_dataset, tmp_path, capsys):
        # a huge lr blows the weights up; the next forward is non-finite
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"channels": [4, 8], "strides": [1, 2],
                                                  "n_stages": 2, "ssm_state": 2},
                                        "train": {"epochs": 2, "lr": 1e30}}))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg_path), "--out", str(out),
                   "--train-manifest", str(cli_dataset / "manifest.tsv")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric failure: ")
        assert json.loads((out / "diagnostic.json").read_text())["step"] > 0

    def test_data_error_exit_code(self, tmp_path):
        rc = main(["train", "--train-manifest", str(tmp_path / "missing.tsv"),
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("text", ['{"train": {"epochz": 3}}', '{"model": {"n_stages": 1}}',
                                      '{"train": {"batch_size": 0}}', '{"train": '],
                             ids=["unknown-field", "bad-value", "zero-batch", "not-json"])
    def test_malformed_config_is_data_error(self, cli_dataset, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path),
                   "--train-manifest", str(cli_dataset / "manifest.tsv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: bad config {cfg_path}")

    @pytest.mark.parametrize("command", ["train", "eval", "perturb"])
    def test_label_class_past_the_model_is_data_error(self, cli_run, bad_label_manifest,
                                                      tmp_path, capsys, command):
        if command == "train":
            args = ["--config", str(cli_run / "cfg.json"), "--epochs", "1",
                    "--train-manifest", bad_label_manifest]
        else:
            args = ["--checkpoint", str(cli_run / "final.ckpt"), "--manifest", bad_label_manifest]
        out = tmp_path / "out"
        rc = main([command, *args, "--out", str(out)])
        assert rc == 2
        assert "label classes span [0, 2], outside [0, 2)" in capsys.readouterr().err
        assert not out.exists()             # rejected before any output is written

    @pytest.mark.parametrize("command", ["train", "eval", "perturb", "analyze"])
    def test_volume_past_the_model_stride_is_data_error(self, cli_run, odd_shape_manifest,
                                                        tmp_path, capsys, command):
        if command == "train":
            args = ["--config", str(cli_run / "cfg.json"), "--epochs", "1",
                    "--train-manifest", odd_shape_manifest]
        else:
            args = ["--checkpoint", str(cli_run / "final.ckpt"), "--manifest", odd_shape_manifest]
        out = tmp_path / "out"
        rc = main([command, *args, "--out", str(out)])
        assert rc == 2
        assert "spatial dim 9 (axis 0) not divisible by total stride 2" in capsys.readouterr().err
        assert not out.exists()             # rejected before any output is written

    @pytest.mark.parametrize("flag", [["--size", "0", "8", "8"], ["--blobs", "2", "1"],
                                      ["--blobs", "-1", "1"], ["--radius", "5", "2"],
                                      ["--radius", "0", "2"]],
                             ids=["empty-axis", "blobs-reversed", "negative-blobs",
                                  "radius-reversed", "zero-radius"])
    def test_bad_gen_data_geometry_is_data_error(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert main(["gen-data", "--n", "1", *flag, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()

    def test_empty_manifest_is_data_error(self, tmp_path):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("")
        rc = main(["eval", "--checkpoint", "nope.ckpt",
                   "--manifest", str(manifest), "--out", str(tmp_path)])
        assert rc == 2

    def test_corrupt_checkpoint_is_data_error(self, cli_dataset, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"DUMCxxxx")
        rc = main(["eval", "--checkpoint", str(bad),
                   "--manifest", str(cli_dataset / "manifest.tsv"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_selfcheck_passes(self, tmp_path, capsys):
        rc, lines, checks = _run_selfcheck(tmp_path, capsys)
        assert rc == 0
        assert checks == [("PASS", name) for name in SELFCHECK_NAMES]
        assert lines[-1] == "selfcheck: all checks passed"

    def test_selfcheck_detects_injected_fault(self, tmp_path, capsys):
        rc, lines, checks = _run_selfcheck(tmp_path, capsys, "--corrupt-adjoint")
        assert rc == 4
        assert [name for _, name in checks] == SELFCHECK_NAMES
        # the fault scales matmul adjoints only, so the forward-only
        # batch-invariance entry still passes (measured: gap 0)
        assert [name for status, name in checks if status == "FAIL"] == \
            ["grad: matmul", "grad: mamba block"]
        for i, line in enumerate(lines):
            if line.startswith("[FAIL]"):     # each failure carries its detail line
                assert lines[i + 1].startswith("       gradient check failed")
        assert lines[-1] == "selfcheck: FAILURES detected"


SELFCHECK_NAMES = ["grad: matmul", "grad: conv3d+instancenorm+lrelu", "grad: mamba block",
                   "ssm: scan == kernel conv (10 seeds)", "ssm: worked case y=[1,2,3]",
                   "equivalence: module-off == baseline", "batch invariance: B=3 == 3 x B=1",
                   "fused: downsample == conv+relu+pool", "fused: conv_transpose3d == per-tap",
                   "metrics: hd95 == brute force",
                   "metrics: dsc == 2*iou/(1+iou)", "analysis: pearson hand case",
                   "analysis: silhouette 2-cluster fixture"]


def _run_selfcheck(out, capsys, *flags):
    """Run ``selfcheck --out``; return (exit code, printed lines, (status, name) per check).

    The written report must be a provenance header plus exactly the
    printed lines, and every check line must keep its column layout.
    """
    rc = main(["selfcheck", "--seed", "0", "--out", str(out), *flags])
    lines = capsys.readouterr().out.splitlines()
    written = (out / "selfcheck.txt").read_text().splitlines()
    assert re.fullmatch(r"# seed=0 build_id=[0-9a-f]{12}", written[0])
    assert written[1:] == lines
    checks = []
    for line in lines:
        if line.startswith("["):
            m = re.fullmatch(r"\[(PASS|FAIL)\] (.{40}) measured=\S+  tol=\S+", line)
            assert m, line
            checks.append((m.group(1), m.group(2).rstrip()))
    return rc, lines, checks
