"""Training loop: SGD with Nesterov momentum, polynomial LR decay,
Dice + cross-entropy loss, per-step aggregation-weight tracing, and the
paired small-data comparison protocol.

Optimizer defaults follow the framework this architecture extends:
lr 0.01, momentum 0.99 (Nesterov), poly decay power 0.9, gradient-norm
clipping at 12.  A run writes ``final.ckpt`` (weights, momentum
buffers, step), ``train_log.csv`` and, with the NRM on,
``lambda_trace.csv``; a non-finite loss or gradient aborts it before
the update with a diagnostic snapshot of the pre-step weights.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .analysis import lambda_report
from .metrics import evaluate_model, model_dtype
from .network import ModelConfig, Network, save_checkpoint
from .nnops import dice_ce_loss
from .tensor import NumericError, Rng, Tensor
from .util import build_id, write_csv, write_json

LOG_EVERY = 10    # epochs between progress lines


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.99
    nesterov: bool = True
    poly_power: float = 0.9
    grad_clip: float = 12.0
    epochs: int = 100
    batch_size: int = 2
    seed: int = 0

    def to_dict(self):
        return asdict(self)


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    train_manifest: str = ""

    def to_dict(self):
        return {"model": self.model.to_dict(), "train": self.train.to_dict(),
                "train_manifest": self.train_manifest}

    @classmethod
    def from_dict(cls, d):
        return cls(model=ModelConfig.from_dict(d.get("model", {})),
                   train=TrainConfig(**d.get("train", {})),
                   train_manifest=d.get("train_manifest", ""))


class SGD:
    """SGD with (Nesterov) momentum over a named parameter table."""

    def __init__(self, params: dict, momentum=0.99, nesterov=True):
        self.params = params
        self.momentum = momentum
        self.nesterov = nesterov
        self.buffers = {name: np.zeros_like(t.data) for name, t in params.items()}

    def grad_norm(self):
        total = 0.0
        for t in self.params.values():
            if t.grad is not None:      # C order: a strided grad would sum in another order
                total += float((np.ascontiguousarray(t.grad, dtype=np.float64) ** 2).sum())
        return math.sqrt(total)

    def step(self, lr, grad_clip=None):
        """One update.  A non-finite gradient norm raises NumericError
        before any parameter or momentum buffer is written."""
        norm = self.grad_norm()
        if not math.isfinite(norm):
            bad = [name for name, t in self.params.items()
                   if t.grad is not None and not np.all(np.isfinite(t.grad))]
            raise NumericError(f"gradient norm {norm}; non-finite grads in {len(bad)} "
                               f"parameter(s): {', '.join(bad[:8])}")
        scale = 1.0
        if grad_clip is not None and grad_clip > 0 and norm > grad_clip:
            scale = grad_clip / norm
        for name, t in self.params.items():
            if t.grad is None:
                continue
            g = t.grad * scale if scale != 1.0 else t.grad
            buf = self.buffers[name]
            buf *= self.momentum
            buf += g
            update = g + self.momentum * buf if self.nesterov else buf
            if lr != 0.0:
                t.data = t.data - (lr * update).astype(t.dtype, copy=False)

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()


def poly_lr(lr0, epoch, total_epochs, power=0.9):
    return lr0 * (1.0 - epoch / max(1, total_epochs)) ** power


def _batches(samples, batch_size, order):
    for i in range(0, len(order), batch_size):
        chunk = [samples[j] for j in order[i:i + batch_size]]
        images = np.stack([s.image for s in chunk])
        labels = np.stack([s.label for s in chunk]).astype(np.int64)
        yield images, labels


@dataclass
class TrainResult:
    epoch_log: list
    lambda_trace: np.ndarray | None
    final_path: str
    steps: int


def train_run(model: Network, samples, tcfg: TrainConfig, out_dir,
              quiet=False) -> TrainResult:
    """Train ``model`` on ``samples``; write ``final.ckpt`` and the logs to out_dir.

    On a non-finite loss or gradient the run aborts with NumericError
    before the step's update, after writing a diagnostic snapshot of the
    pre-step weights (``diagnostic.ckpt``) and its context
    (``diagnostic.json``).  An empty sample list with epochs to run
    raises ValueError before anything is written.
    """
    if tcfg.epochs > 0 and len(samples) == 0:
        raise ValueError(f"train_run got an empty sample list for {tcfg.epochs} epoch(s)")
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(tcfg.seed)                 # only derives the per-epoch orders
    opt = SGD(model.named_parameters(), momentum=tcfg.momentum, nesterov=tcfg.nesterov)
    epoch_log = []
    dtype = model_dtype(model)
    final_path = os.path.join(out_dir, "final.ckpt")
    lambda_rows = []                 # this run's lambda values after each step
    steps = 0
    t_start = time.time()
    for epoch in range(tcfg.epochs):
        lr = poly_lr(tcfg.lr, epoch, tcfg.epochs, tcfg.poly_power)
        order = rng.derive(f"epoch{epoch}").permutation(len(samples))
        ep_total = ep_dice = ep_ce = 0.0
        n_batches = 0
        for images, labels in _batches(samples, tcfg.batch_size, order):
            opt.zero_grad()
            try:
                logits = model.forward(Tensor(images, dtype=dtype))
                loss = dice_ce_loss(logits, labels)
                total = float(loss.total.item())
                loss.total.backward()
                opt.step(lr, tcfg.grad_clip)
            except NumericError as err:
                snap = os.path.join(out_dir, "diagnostic.ckpt")
                save_checkpoint(model, snap, step=steps,
                                extra={"abort_epoch": epoch, "abort_error": str(err)})
                write_json(os.path.join(out_dir, "diagnostic.json"),
                           {"error": str(err), "epoch": epoch, "step": steps,
                            "snapshot": snap})
                raise
            if model.nrm is not None:
                lambda_rows.append([float(v) for v in model.nrm.lambdas.data])
            steps += 1
            ep_total += total
            ep_dice += float(loss.dice_part.item())
            ep_ce += float(loss.ce_part.item())
            n_batches += 1
        row = {"epoch": epoch, "lr": lr, "loss": ep_total / n_batches,
               "dice_loss": ep_dice / n_batches, "ce_loss": ep_ce / n_batches}
        epoch_log.append(row)
        if not quiet and (epoch % LOG_EVERY == 0 or epoch == tcfg.epochs - 1):
            print(f"epoch {epoch:4d}  lr {lr:.5f}  loss {row['loss']:.4f}  "
                  f"(dice {row['dice_loss']:.4f} ce {row['ce_loss']:.4f})", flush=True)

    save_checkpoint(model, final_path, optimizer_state=opt.buffers, step=steps,
                    extra={"epochs": tcfg.epochs, "build_id": build_id(),
                           "seed": tcfg.seed, "wall_seconds": time.time() - t_start})
    trace = None
    if model.nrm is not None:
        n_lambdas = len(model.nrm.lambdas.data)
        trace = np.asarray(lambda_rows, dtype=np.float64).reshape(steps, n_lambdas)
    meta = {"seed": tcfg.seed, "build_id": build_id()}
    write_csv(os.path.join(out_dir, "train_log.csv"),
              ["epoch", "lr", "loss", "dice_loss", "ce_loss"],
              ([r["epoch"]] + [f"{r[k]:.8f}" for k in ("lr", "loss", "dice_loss", "ce_loss")]
               for r in epoch_log), meta=meta)
    if trace is not None and len(trace):
        lambda_report(trace).write_csv(os.path.join(out_dir, "lambda_trace.csv"), meta=meta)
    return TrainResult(epoch_log=epoch_log, lambda_trace=trace, final_path=final_path,
                       steps=steps)


# ----------------------------------------------------------------------
# paired small-data comparison protocol


def paired_comparison(train_samples, test_samples, model_cfg: ModelConfig,
                      tcfg: TrainConfig, seeds, out_dir, quiet=True):
    """Train the model and its baseline over several seeds; report DSCs.

    For each seed both variants (noise reduction module on / off) train
    on the same split and are scored on the held-out samples.  Returns
    the report dict; CSV and JSON land in ``out_dir``.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for variant, nrm_enabled in (("diff-umamba", True), ("umamba-bot", False)):
        for seed in seeds:
            mcfg = replace(model_cfg, nrm_enabled=nrm_enabled, seed=seed)
            run_t = replace(tcfg, seed=seed)
            run_dir = os.path.join(out_dir, f"{variant}-seed{seed}")
            model = Network(mcfg)
            t0 = time.time()
            train_run(model, train_samples, run_t, run_dir, quiet=quiet)
            report = evaluate_model(model, test_samples)
            rows.append({"variant": variant, "seed": seed,
                         "test_dsc": report.mean_dsc(),
                         "wall_seconds": time.time() - t0})
            if not quiet:
                print(f"{variant} seed {seed}: test DSC {report.mean_dsc():.4f}", flush=True)
    summary = {}
    for variant in ("diff-umamba", "umamba-bot"):
        vals = [r["test_dsc"] for r in rows if r["variant"] == variant]
        summary[variant] = {"mean_dsc": float(np.mean(vals)),
                            "std_dsc": float(np.std(vals)),
                            "per_seed": vals}
    summary["dsc_gap"] = summary["diff-umamba"]["mean_dsc"] - summary["umamba-bot"]["mean_dsc"]
    summary["seeds"] = list(seeds)
    summary["build_id"] = build_id()

    write_csv(os.path.join(out_dir, "comparison.csv"),
              ["variant", "seed", "test_dsc", "wall_seconds"],
              ([r["variant"], r["seed"], f"{r['test_dsc']:.6f}", f"{r['wall_seconds']:.1f}"]
               for r in rows), meta={"build_id": build_id()})
    write_json(os.path.join(out_dir, "comparison.json"), summary)
    return summary
