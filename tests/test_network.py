import os
import threading

import numpy as np
import numpy.testing as npt
import pytest

from diffumamba import ssm
from diffumamba import tensor as T
from diffumamba.oracles import finite_difference_check, nrm_off_gap
from diffumamba.network import (CHECKPOINT_MAGIC, ModelConfig, Network,
                                desk_config, init_residual_block,
                                load_checkpoint, paper_scale_config,
                                residual_block, save_checkpoint)
from diffumamba.nnops import dice_ce_loss
from diffumamba.recordio import (BadMagicError, ContainerError, TruncatedPayloadError,
                                 UnknownVersionError, json_record, write_container)
from diffumamba.tensor import Rng, ShapeError, Tensor
from diffumamba.train import SGD


def tiny_config(**over):
    base = dict(channels=(3, 5), strides=(1, 2), n_stages=2, seed=1)
    base.update(over)
    return ModelConfig(**base)


class TestResidualBlock:
    def test_zero_branch_is_identity(self, rng):
        p = init_residual_block(rng, 3, 3, stride=1)
        p.conv.weight.data[...] = 0.0
        p.conv.bias.data[...] = 0.0
        x = Tensor(rng.normal((1, 3, 4, 4, 4)))
        npt.assert_allclose(residual_block(x, p).data, x.data, atol=1e-7)

    def test_shape_preserved_at_stride_one(self, rng):
        p = init_residual_block(rng, 2, 6, stride=1)
        out = residual_block(Tensor(rng.normal((1, 2, 5, 5, 5))), p)
        assert out.shape == (1, 6, 5, 5, 5)

    def test_stride_halves_spatial(self, rng):
        p = init_residual_block(rng, 2, 4, stride=2)
        out = residual_block(Tensor(rng.normal((1, 2, 6, 6, 6))), p)
        assert out.shape == (1, 4, 3, 3, 3)

    def test_gradients(self, f64_mode):
        r = Rng(8)
        p = init_residual_block(r, 2, 3, stride=2)
        x = Tensor(r.normal((1, 2, 4, 4, 4)), requires_grad=True)
        wiggle = [x, p.conv.weight, p.gamma, p.proj.weight]
        rel, _ = finite_difference_check(lambda: residual_block(x, p),
                                         wiggle, rel_tol=1e-6, seed=3)
        assert rel < 1e-6


class TestForward:
    def test_logits_shape_desk_config(self, rng):
        m = Network(desk_config(seed=0))
        out = m.forward(Tensor(rng.normal((1, 1, 32, 32, 32))))
        assert out.shape == (1, 2, 32, 32, 32)

    def test_deterministic_given_seed(self, rng):
        x = rng.normal((1, 1, 8, 8, 8))
        a = Network(tiny_config()).forward(Tensor(x)).data
        b = Network(tiny_config()).forward(Tensor(x)).data
        npt.assert_array_equal(a, b)

    def test_indivisible_spatial_rejected(self, rng):
        m = Network(tiny_config())
        with pytest.raises(ShapeError, match="divisible"):
            m.forward(Tensor(rng.normal((1, 1, 7, 8, 8))))

    def test_wrong_channels_rejected(self, rng):
        m = Network(tiny_config())
        with pytest.raises(ShapeError, match="channels"):
            m.forward(Tensor(rng.normal((1, 2, 8, 8, 8))))

    def test_encoder_stage_spatial_ladder(self, rng):
        cfg = desk_config(seed=3)
        m = Network(cfg)
        cap = {}
        with T.no_grad():
            m.forward(Tensor(rng.normal((1, 1, 32, 32, 32))), capture=cap)
        # stage i spatial extent = input / product of strides up to i
        cum = 1
        for stride, shape, ch in zip(cfg.strides, cap["stage_shapes"], cfg.channels):
            cum *= stride
            assert shape == (1, ch, 32 // cum, 32 // cum, 32 // cum)
        # e_i / m1 / m2 / e_hat / m_hat all share the bottleneck shape
        assert cap["m1"].shape == (1, 128, 2, 2, 2)
        for e in cap["e_list"]:
            assert e.shape == cap["m1"].shape
        for key in ("e_hat", "m2", "m_hat"):
            assert cap[key].shape == cap["m1"].shape

    def test_noise_hook_applies_at_first_block(self, rng):
        m = Network(tiny_config())
        x = Tensor(rng.normal((1, 1, 8, 8, 8)))
        with T.no_grad():
            clean = m.forward(x).data.copy()
            bumped = m.forward_rest(m.forward_stem(x) + 0.5).data
        assert np.abs(clean - bumped).max() > 1e-6

    def test_nrm_off_equivalence(self, rng):
        inputs = [Tensor(rng.derive(f"eq{i}").normal((1, 1, 8, 8, 8))) for i in range(10)]
        assert nrm_off_gap(tiny_config(seed=5), inputs) < 1e-6

    def test_threads_match_serial(self):
        # README's concurrency contract for whole models: two threads running
        # no-grad desk forwards of one model on their own inputs, over and
        # over, give the serial logits bit for bit
        m = Network(desk_config(seed=6))
        inputs = [Tensor(Rng(40 + i).normal((1, 1, 32, 32, 32))) for i in range(2)]
        with T.no_grad():
            serial = [m.forward(x).data for x in inputs]
        assert not np.array_equal(serial[0], serial[1])
        results = [[], []]

        def work(i):
            with T.no_grad():
                for _ in range(4):
                    results[i].append(m.forward(inputs[i]).data)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for want, got in zip(serial, results):
            assert len(got) == 4
            for y in got:
                npt.assert_array_equal(y, want)

    def test_full_model_gradients_fd(self, f64_mode):
        cfg = ModelConfig(channels=(2, 3), strides=(1, 2), n_stages=2,
                          ssm_state=2, seed=4)
        m = Network(cfg)
        x = Tensor(Rng(5).normal((1, 1, 4, 4, 4)), requires_grad=True)
        params = m.named_parameters()
        wiggle = [x, params["enc.s1.b1.conv.weight"], params["m1.a_log"],
                  params["nrm.lambdas"], params["dec.s1.up.weight"],
                  params["head.weight"]]
        rel, _ = finite_difference_check(lambda: m.forward(x), wiggle,
                                         rel_tol=1e-6, n_coords=3, seed=9)
        assert rel < 1e-6


class TestTapeSize:
    """Tape nodes in one training step's loss graph (nodes with a
    backward closure): conv3d, each instance norm, each rectifier, each
    NRM downsampling stage, the selective scan and the causal conv are
    one node apiece.  Instance norm as one node instead of a 13-node
    composition took 12 nodes off every residual block: 14 blocks on
    desk, 8 on longseq.  The causal conv as one node instead of 16 took
    15 off every mamba block: two per model (M1 and the NRM's M2).  silu
    as one node instead of mul and sigmoid took 2 more off every mamba
    block, which calls it twice.  The token LayerNorm as one ``normalize``
    node instead of an 11-node composition took 10 more off every mamba
    block.  The NRM aggregation as one stack, one scale and one sum
    instead of a narrow, reshape, mul and add per stage took it from 19
    to 9 nodes on desk (5 stages) and from 11 to 7 on longseq (3), and
    stacking by one concat along the batch axis and one reshape instead
    of a reshape per stage took it to 5 and 5; the Dice loss as
    whole-tensor sums instead of a loop over classes went from 11 to 12
    nodes at two classes."""

    @pytest.mark.parametrize("cfg,side,nodes", [
        (desk_config(), 32, 155),
        (ModelConfig(n_stages=3, channels=(8, 16, 32), strides=(1, 2, 1)), 16, 121),
    ], ids=["desk", "longseq"])
    def test_training_step_tape_nodes(self, rng, cfg, side, nodes):
        m = Network(cfg)
        x = Tensor(rng.normal((2, 1, side, side, side)))
        labels = (rng.random((2, side, side, side)) > 0.8).astype(np.int64)
        loss = dice_ce_loss(m.forward(x), labels).total
        assert sum(n._backward_fn is not None for n in T._toposort(loss)) == nodes


class TestGradHandover:
    """Backward hands adjoints over uncopied, so a closure that wrote
    into the adjoint it receives would corrupt every gradient sharing
    that buffer; ``frozen_grads`` makes such a write raise."""

    @pytest.mark.parametrize("cfg,side", [
        (desk_config(), 32),
        (ModelConfig(n_stages=3, channels=(8, 16, 32), strides=(1, 2, 1)), 16),
    ], ids=["desk", "longseq"])
    def test_training_step_writes_into_no_adjoint(self, rng, frozen_grads, cfg, side):
        m = Network(cfg)
        x = Tensor(rng.normal((2, 1, side, side, side)))
        labels = (rng.random((2, side, side, side)) > 0.8).astype(np.int64)
        dice_ce_loss(m.forward(x), labels).total.backward()
        params = m.named_parameters()
        assert all(p.grad is not None and not p.grad.flags["WRITEABLE"]
                   and np.isfinite(p.grad).all() for p in params.values())
        # the optimizer only reads grads, and rebinds C-ordered data
        SGD(params).step(0.01, grad_clip=1.0)
        assert all(p.data.flags["C_CONTIGUOUS"] for p in params.values())


class TestLambdaScale:
    """M2 opens with a per-token LayerNorm, so e_hat = sum_i lambda_i e_i
    reaches the logits only up to a common factor: just the ratios
    between the lambdas matter, up to the LayerNorm's eps."""

    def _logits(self, model, x, lambdas):
        model.nrm.lambdas.data[...] = lambdas
        with T.no_grad():
            return model.forward(x).data.copy()

    @pytest.mark.parametrize("scale", [2.0, 10.0])
    def test_common_scale_leaves_logits(self, f64_mode, monkeypatch, scale):
        m = Network(tiny_config())
        x = Tensor(Rng(5).normal((2, 1, 8, 8, 8)))
        lam = m.nrm.lambdas.data.copy()
        base = self._logits(m, x, lam)
        npt.assert_allclose(self._logits(m, x, lam * scale), base, rtol=0, atol=1e-4)
        # without the eps floor the invariance is exact up to rounding
        monkeypatch.setattr(ssm._token_layer_norm, "__defaults__", (0.0,))
        base = self._logits(m, x, lam)
        npt.assert_allclose(self._logits(m, x, lam * scale), base, rtol=0, atol=1e-10)

    def test_sign_flip_changes_logits(self, f64_mode):
        m = Network(tiny_config())
        x = Tensor(Rng(5).normal((2, 1, 8, 8, 8)))
        lam = m.nrm.lambdas.data.copy()
        base = self._logits(m, x, lam)
        lam[-1] = -lam[-1]
        assert np.abs(self._logits(m, x, lam) - base).max() > 1e-2


class TestParamAccounting:
    def test_diff_equals_baseline_plus_nrm(self):
        diff_model = Network(tiny_config(seed=7))
        base_model = Network(tiny_config(seed=7, nrm_enabled=False))
        assert diff_model.param_count() == (base_model.param_count()
                                            + diff_model.nrm_param_count())

    def test_paper_scale_share_within_window(self):
        m = Network(paper_scale_config())
        share = m.nrm_param_count() / m.param_count()
        assert 0.005 <= share <= 0.05

    def test_baseline_has_no_nrm_params(self):
        m = Network(tiny_config(nrm_enabled=False))
        assert m.nrm_param_count() == 0
        assert not any(n.startswith("nrm.") for n in m.parameter_names())


class TestCheckpoint:
    def test_round_trip_forward_bitwise(self, tmp_path, rng):
        m = Network(tiny_config(seed=11))
        x = Tensor(rng.normal((1, 1, 8, 8, 8)))
        with T.no_grad():
            before = m.forward(x).data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path, step=17,
                        optimizer_state={"head.weight": np.ones((2, 3, 1, 1, 1))})
        m2, aux = load_checkpoint(path)
        with T.no_grad():
            after = m2.forward(x).data
        npt.assert_array_equal(before, after)
        assert aux["step"] == 17
        npt.assert_array_equal(aux["momentum"]["head.weight"], np.ones((2, 3, 1, 1, 1)))

    def test_load_draws_no_initialisation(self, tmp_path, rng, monkeypatch):
        m = Network(desk_config(seed=5))
        x = Tensor(rng.normal((1, 1, 32, 32, 32)))
        with T.no_grad():
            before = m.forward(x).data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew an initialisation")

        monkeypatch.setattr(Rng, "normal", no_draws)
        monkeypatch.setattr(Rng, "uniform", no_draws)
        m2, _ = load_checkpoint(path)
        params = m2.named_parameters()
        for name, t in m.named_parameters().items():
            assert params[name].dtype == t.dtype, name
            npt.assert_array_equal(params[name].data, t.data, err_msg=name)
        with T.no_grad():
            npt.assert_array_equal(m2.forward(x).data, before)

    def test_tensor_table_matches_parameter_names(self, tmp_path):
        from diffumamba.recordio import read_container
        from diffumamba.network import CHECKPOINT_MAGIC
        m = Network(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        _, (tensors, _) = read_container(path, CHECKPOINT_MAGIC)
        assert set(tensors.keys()) == set(m.parameter_names())

    def test_truncated_payload_detected(self, tmp_path):
        m = Network(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(TruncatedPayloadError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path):
        m = Network(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_detected(self, tmp_path):
        m = Network(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(UnknownVersionError, match="version"):
            load_checkpoint(path)

    def test_trailing_bytes_detected(self, tmp_path):
        m = Network(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ContainerError, match="7 trailing bytes"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        m = Network(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path, step=3)
        good = path.read_bytes()
        # an int64 record is refused mid-write, after the header went out
        with pytest.raises(ContainerError, match="unsupported dtype"):
            write_container(path, CHECKPOINT_MAGIC, 1,
                            [{"w": np.zeros(2, np.float32), "bad": np.zeros(2, np.int64)}, {}])
        assert path.read_bytes() == good
        assert os.listdir(tmp_path) == ["m.ckpt"]
        m2, aux = load_checkpoint(path)
        assert aux["step"] == 3
        for name, t in m.named_parameters().items():
            npt.assert_array_equal(m2.named_parameters()[name].data, t.data)

    def test_loads_older_file_with_rng_record(self, tmp_path):
        # files written before the rng.json meta record was dropped still load
        m = Network(tiny_config(seed=4))
        params = m.named_parameters()
        momentum = {name: np.full_like(t.data, 0.5) for name, t in params.items()}
        rng_state = {"name": "train", "seed": 4, "counter": [0, 0, 0, 0], "key": [1, 2],
                     "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        meta = {"config.json": json_record(m.cfg.to_dict()),
                "meta.json": json_record({"step": 9, "seed": 4}),
                **{f"momentum/{name}": buf for name, buf in momentum.items()},
                "rng.json": json_record(rng_state)}
        path = tmp_path / "old.ckpt"
        write_container(path, CHECKPOINT_MAGIC, 1,
                        [{name: t.data for name, t in params.items()}, meta])
        m2, aux = load_checkpoint(path)
        assert set(aux) == {"step", "momentum", "extra"}
        assert aux["step"] == 9 and aux["extra"] == {"seed": 4}
        assert aux["momentum"].keys() == momentum.keys()
        for name, t in params.items():
            npt.assert_array_equal(m2.named_parameters()[name].data, t.data, err_msg=name)
            npt.assert_array_equal(aux["momentum"][name], momentum[name], err_msg=name)

    def test_save_load_dtype_preserved_f64(self, tmp_path, f64_mode):
        m = Network(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        m2, _ = load_checkpoint(path)
        assert next(iter(m2.named_parameters().values())).dtype == np.float64


class TestModelConfig:
    def test_rejects_short_channel_list(self):
        with pytest.raises(ValueError, match="entries"):
            ModelConfig(channels=(8,), strides=(1, 2), n_stages=2)

    def test_rejects_single_stage(self):
        with pytest.raises(ValueError, match="stages"):
            ModelConfig(channels=(8,), strides=(1,), n_stages=1)

    def test_dict_round_trip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
