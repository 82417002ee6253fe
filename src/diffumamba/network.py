"""Full segmentation network and its on-disk checkpoint format.

The architecture is a residual-block encoder, a mamba block in the
bottleneck, an optional noise reduction module, and a skip-connected
decoder with transposed-conv upsampling.  With ``nrm_enabled=False``
the model is exactly the baseline (bottleneck = M1(E(x))); with it
enabled the decoder consumes m1 - m2 instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .nnops import (ConvParams, ConvTransposeParams, conv3d, conv_transpose3d,
                    init_conv, init_conv_transpose, instance_norm, leaky_relu)
from .nrm import NRMParams, init_nrm, nrm_forward, nrm_param_count
from .recordio import (ContainerError, json_from_record, json_record, read_container,
                       write_container)
from .ssm import init_mamba_block, mamba_block
from .tensor import Rng, ShapeError, Tensor, ZeroRng, concat

CHECKPOINT_MAGIC = b"DUMC"
CHECKPOINT_VERSION = 1


class CheckpointError(ContainerError):
    """Checkpoint content is inconsistent with the model being loaded."""


@dataclass
class ModelConfig:
    """Architecture plus init hyperparameters; fully JSON-serializable."""
    in_channels: int = 1
    n_classes: int = 2
    n_stages: int = 5
    channels: tuple = (8, 16, 32, 64, 128)
    strides: tuple = (1, 2, 2, 2, 2)
    ssm_state: int = 8
    ssm_expand: int = 2
    ssm_conv_width: int = 3
    lambda_init: float = 0.5
    nrm_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        self.strides = tuple(int(s) for s in self.strides)
        if self.n_stages < 2:
            raise ValueError("need at least 2 stages")
        if len(self.channels) != self.n_stages or len(self.strides) != self.n_stages:
            raise ValueError(f"channels/strides must have {self.n_stages} entries")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")

    @property
    def total_stride(self):
        return int(np.prod(self.strides))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def desk_config(**overrides) -> ModelConfig:
    """CPU-friendly default: 5 stages, 32^3 patches, bottleneck 2^3."""
    return ModelConfig(**overrides)


def paper_scale_config(**overrides) -> ModelConfig:
    """Full-size configuration used only for parameter accounting.

    Follows the standard 3D ladder (channels doubling from 32, capped
    at 320, six resolution stages).  Never trained here.
    """
    base = dict(channels=(32, 64, 128, 256, 320, 320),
                strides=(1, 2, 2, 2, 2, 2), n_stages=6)
    base.update(overrides)
    return ModelConfig(**base)


# ----------------------------------------------------------------------
# residual block


@dataclass
class ResidualBlockParams:
    conv: ConvParams
    gamma: Tensor
    beta: Tensor
    proj: ConvParams | None = None

    def named(self, prefix):
        yield f"{prefix}.conv.weight", self.conv.weight
        yield f"{prefix}.conv.bias", self.conv.bias
        yield f"{prefix}.norm.gamma", self.gamma
        yield f"{prefix}.norm.beta", self.beta
        if self.proj is not None:
            yield f"{prefix}.proj.weight", self.proj.weight
            yield f"{prefix}.proj.bias", self.proj.bias


def init_residual_block(rng, c_in, c_out, stride=1) -> ResidualBlockParams:
    s = (stride, stride, stride)
    conv = init_conv(rng, c_in, c_out, (3, 3, 3), stride=s)
    gamma = Tensor(np.ones(c_out), requires_grad=True)
    beta = Tensor(np.zeros(c_out), requires_grad=True)
    proj = None
    if stride != 1 or c_in != c_out:
        proj = init_conv(rng, c_in, c_out, (1, 1, 1), stride=s, padding=(0, 0, 0), gain=1.0)
    return ResidualBlockParams(conv=conv, gamma=gamma, beta=beta, proj=proj)


def residual_block(x: Tensor, p: ResidualBlockParams) -> Tensor:
    """shortcut(x) + LeakyReLU(InstanceNorm(Conv(x)))."""
    y = leaky_relu(instance_norm(conv3d(x, p.conv), p.gamma, p.beta))
    shortcut = conv3d(x, p.proj) if p.proj is not None else x
    return shortcut + y


# ----------------------------------------------------------------------
# model


@dataclass
class _EncoderStage:
    b1: ResidualBlockParams
    b2: ResidualBlockParams


@dataclass
class _DecoderStage:
    up: ConvTransposeParams
    block: ResidualBlockParams


class Network:
    """Encoder / bottleneck mamba / optional NRM / decoder / head."""

    def __init__(self, cfg: ModelConfig, rng: Rng | None = None):
        self.cfg = cfg
        rng = rng or Rng(cfg.seed, "model-init")
        ch = cfg.channels
        self.encoder = []
        c_prev = cfg.in_channels
        for i in range(cfg.n_stages):
            r = rng.derive(f"enc{i}")
            self.encoder.append(_EncoderStage(
                b1=init_residual_block(r.derive("b1"), c_prev, ch[i], cfg.strides[i]),
                b2=init_residual_block(r.derive("b2"), ch[i], ch[i], 1)))
            c_prev = ch[i]
        self.m1 = init_mamba_block(rng.derive("m1"), ch[-1], n_state=cfg.ssm_state,
                                   expand=cfg.ssm_expand, conv_width=cfg.ssm_conv_width)
        self.nrm: NRMParams | None = None
        if cfg.nrm_enabled:
            self.nrm = init_nrm(rng.derive("nrm"), ch, ch[-1],
                                lambda_init=cfg.lambda_init, n_state=cfg.ssm_state,
                                expand=cfg.ssm_expand, conv_width=cfg.ssm_conv_width)
        self.decoder = []
        for i in range(cfg.n_stages - 2, -1, -1):
            r = rng.derive(f"dec{i}")
            stride = cfg.strides[i + 1]
            self.decoder.append(_DecoderStage(
                up=init_conv_transpose(r.derive("up"), ch[i + 1], ch[i],
                                       (stride, stride, stride)),
                block=init_residual_block(r.derive("block"), 2 * ch[i], ch[i], 1)))
        self.head = init_conv(rng.derive("head"), ch[0], cfg.n_classes, (1, 1, 1),
                              padding=(0, 0, 0), gain=1.0)

    # -- parameters ----------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, st in enumerate(self.encoder):
            out.update(st.b1.named(f"enc.s{i + 1}.b1"))
            out.update(st.b2.named(f"enc.s{i + 1}.b2"))
        out.update(self.m1.named("m1"))
        if self.nrm is not None:
            out.update(self.nrm.named("nrm"))
        for j, st in enumerate(self.decoder):
            stage_idx = self.cfg.n_stages - 1 - j
            out[f"dec.s{stage_idx}.up.weight"] = st.up.weight
            out[f"dec.s{stage_idx}.up.bias"] = st.up.bias
            out.update(st.block.named(f"dec.s{stage_idx}.block"))
        out["head.weight"] = self.head.weight
        out["head.bias"] = self.head.bias
        return out

    def parameter_names(self):
        return list(self.named_parameters().keys())

    def param_count(self) -> int:
        return sum(t.size for t in self.named_parameters().values())

    def nrm_param_count(self) -> int:
        return nrm_param_count(self.nrm)

    # -- forward ---------------------------------------------------------

    def forward(self, x: Tensor, capture=None) -> Tensor:
        """Segmentation logits for a (B, C_in, D, H, W) input.

        ``capture`` (a dict) receives bottleneck intermediates.  To
        perturb the output of the very first residual block (the
        inference-time noise point), compose ``forward_rest`` with
        ``forward_stem`` around the perturbation.
        """
        return self.forward_rest(self.forward_stem(x), capture)

    def forward_stem(self, x: Tensor) -> Tensor:
        """The input checks and the first residual block: everything ahead
        of the noise point."""
        if x.ndim != 5:
            raise ShapeError(f"expected (B,C,D,H,W) input, got {x.shape}")
        if x.shape[1] != self.cfg.in_channels:
            raise ShapeError(f"expected {self.cfg.in_channels} input channels, "
                             f"got {x.shape[1]}")
        ts = self.cfg.total_stride
        for ax, s in enumerate(x.shape[2:]):
            if s % ts != 0:
                raise ShapeError(f"spatial dim {s} (axis {ax}) not divisible by "
                                 f"total stride {ts}")
        return residual_block(x, self.encoder[0].b1)

    def forward_rest(self, h: Tensor, capture=None) -> Tensor:
        """Logits from the (possibly perturbed) output of ``forward_stem``."""
        feats = []
        for i, st in enumerate(self.encoder):
            if i > 0:
                h = residual_block(h, st.b1)
            h = residual_block(h, st.b2)
            feats.append(h)

        m1 = mamba_block(feats[-1], self.m1)
        if capture is not None:
            capture["stage_shapes"] = [f.shape for f in feats]
            capture["m1"] = m1
        if self.nrm is not None:
            bottleneck = nrm_forward(self.nrm, feats, m1, capture=capture)
        else:
            bottleneck = m1

        d = bottleneck
        for j, st in enumerate(self.decoder):
            skip = feats[self.cfg.n_stages - 2 - j]
            d = conv_transpose3d(d, st.up)
            d = concat([d, skip], axis=1)
            d = residual_block(d, st.block)
        return conv3d(d, self.head)


def copy_shared_weights(src: Network, dst: Network):
    """Copy every parameter whose name exists in both models (bitwise)."""
    src_params = src.named_parameters()
    dst_params = dst.named_parameters()
    copied = 0
    for name, t in dst_params.items():
        if name in src_params:
            if src_params[name].shape != t.shape:
                raise CheckpointError(f"shape mismatch copying {name}: "
                                      f"{src_params[name].shape} vs {t.shape}")
            t.data = src_params[name].data.copy()
            copied += 1
    return copied


# ----------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Network, path, optimizer_state=None, rng: Rng | None = None,
                    step: int = 0, extra: dict | None = None):
    """Write model weights plus config / optimizer / RNG / step blocks."""
    tensors = {name: t.data for name, t in model.named_parameters().items()}
    meta = {"config.json": json_record(model.cfg.to_dict()),
            "meta.json": json_record({"step": int(step), **(extra or {})})}
    if optimizer_state is not None:
        for name, buf in optimizer_state.items():
            meta[f"momentum/{name}"] = np.asarray(buf)
    if rng is not None:
        meta["rng.json"] = json_record(rng.state())
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, [tensors, meta])


def load_checkpoint(path):
    """Rebuild the model from a checkpoint; returns (model, aux).

    aux carries step, optimizer momentum buffers, RNG state and any
    extra metadata saved alongside the weights.  Every stored tensor
    must match the rebuilt model's name table and shapes exactly.
    The model is built without drawing an initialisation: the load
    replaces every tensor.
    """
    _, (tensors, meta) = read_container(path, CHECKPOINT_MAGIC,
                                        versions=(CHECKPOINT_VERSION,))
    if "config.json" not in meta:
        raise CheckpointError("checkpoint is missing its config block")
    cfg = ModelConfig.from_dict(json_from_record(meta["config.json"]))
    model = Network(cfg, ZeroRng())
    params = model.named_parameters()
    if set(params.keys()) != set(tensors.keys()):
        missing = sorted(set(params) - set(tensors))
        surplus = sorted(set(tensors) - set(params))
        raise CheckpointError(f"tensor table mismatch: missing={missing[:4]}, "
                              f"unexpected={surplus[:4]}")
    for name, arr in tensors.items():
        t = params[name]
        if arr.shape != t.shape:
            raise CheckpointError(f"shape mismatch for {name}: "
                                  f"file {arr.shape} vs model {t.shape}")
        t.data = np.ascontiguousarray(arr)
    aux = {"step": 0, "momentum": {}, "rng_state": None, "extra": {}}
    for name, arr in meta.items():
        if name == "meta.json":
            d = json_from_record(arr)
            aux["step"] = d.pop("step", 0)
            aux["extra"] = d
        elif name == "rng.json":
            aux["rng_state"] = json_from_record(arr)
        elif name.startswith("momentum/"):
            aux["momentum"][name[len("momentum/"):]] = arr
    return model, aux
