"""The benchmark's two closed-loop workloads.

Each workload is one client in one process: it runs its op, checks the
outputs, and starts the next op only when the previous one returned.
Inputs are phantoms from ``data.gen_phantoms`` under the workload
seed; the program receives nothing else.  README.md explains why each
workload exists.

Set-up makes the phantoms and builds the model.  It runs
SETUP_REPEATS times before the measured window and once more at the
start of every op, so that ``setup_s`` samples the whole run.

An op is what a user does with a model, in three phases after its
set-up, each timed on its own:

- train: ``train.train_run`` from the freshly built model;
- eval: ``network.load_checkpoint`` of the ``final.ckpt`` that run
  wrote, then ``metrics.evaluate_model`` on the op's phantoms;
- perturb: ``metrics.perturbation_grid`` over every noise family on
  the first phantom.
"""

from __future__ import annotations

import gc
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from diffumamba import data, metrics, network, train

now = time.perf_counter

BATCH = 2
SETUP_REPEATS = 11


@dataclass(frozen=True)
class Spec:
    phantom: dict        # PhantomConfig fields
    model: dict          # ModelConfig overrides on the desk defaults
    epochs: int          # per train_run
    n_phantoms: int      # trained and evaluated per op
    levels: tuple        # perturbation levels, all four families


SPECS = {
    "train-desk": Spec(phantom=dict(shape=(32, 32, 32)), model={}, epochs=2,
                       n_phantoms=2, levels=(1, 6)),
    # 3 stages with strides (1, 2, 1) leave an 8^3 = 512-token bottleneck.
    # The phantoms are the desk's at half scale (blob radii, border margin
    # and blob gap halved): the desk geometry does not fit 16^3
    "train-longseq": Spec(phantom=dict(shape=(16, 16, 16), radius=(2.0, 3.5),
                                       margin=0.5, min_separation=0.75),
                          model=dict(n_stages=3, channels=(8, 16, 32), strides=(1, 2, 1)),
                          epochs=2, n_phantoms=2, levels=(1, 6)),
}


def check_losses(losses, steps_run, steps):
    """Problem with a train_run, or None: the step count is as configured,
    every epoch loss is finite and the last is below the first."""
    if steps_run != steps:
        return f"ran {steps_run} steps, expected {steps}"
    if not all(math.isfinite(x) for x in losses):
        return f"non-finite epoch loss in {losses}"
    if not losses[-1] < losses[0]:
        return f"last epoch loss {losses[-1]} not below first {losses[0]}"
    return None


def same_weights(a, b):
    pa, pb = a.named_parameters(), b.named_parameters()
    return pa.keys() == pb.keys() and all(np.array_equal(pa[k].data, pb[k].data) for k in pa)


@dataclass
class Workload:
    name: str
    seed: int
    out_dir: str
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    # metric -> (items, seconds) of every phase that passed its checks
    work: dict = field(default_factory=lambda: {
        "train_samples_per_s": [], "eval_volumes_per_s": [], "perturb_cells_per_s": []})

    def __post_init__(self):
        self.spec = SPECS[self.name]
        self.model_cfg = network.ModelConfig(**self.spec.model, seed=self.seed)
        self.phantom_cfg = data.PhantomConfig(**self.spec.phantom)
        os.makedirs(self.out_dir, exist_ok=True)

    def _fail(self, n, problem):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(problem)

    def _raised(self, n, call):
        """Count a raised error as ``n`` failed operations and keep its traceback."""
        self._fail(n, f"{call} raised:\n{traceback.format_exc(limit=8)}")

    # -- set-up ------------------------------------------------------------

    def setup(self):
        for _ in range(SETUP_REPEATS):
            self._setup_once()

    def _setup_once(self):
        """Make the phantoms and a fresh model, timed; every set-up must
        give the inputs of the first bit for bit.  Return the model."""
        self.attempted += 1
        gc.collect()        # every set-up and op starts from the same heap state
        t0 = now()
        phantoms = data.gen_phantoms(self.spec.n_phantoms, self.seed, self.phantom_cfg)
        model = network.Network(self.model_cfg)
        self.setup_s.append(now() - t0)
        arrays = [a for s in phantoms for a in (s.image, s.label)]
        arrays += [t.data for t in model.named_parameters().values()]
        if len(self.setup_s) == 1:
            self.phantoms, self._first = phantoms, arrays
        elif not all(np.array_equal(a, b) for a, b in zip(self._first, arrays)):
            self._fail(1, "set-up repeat gave different phantoms or weights")
        return model

    # -- one op --------------------------------------------------------------

    def op(self):
        model = self._setup_once()
        checkpoint = self._train(model)
        if checkpoint is None:
            return
        model, clean = self._evaluate(model, checkpoint)
        self._perturb(model, clean)

    def _train(self, model):
        """Train ``model`` in place; return the path of its final checkpoint,
        or None when the run failed."""
        steps = self.spec.epochs * math.ceil(len(self.phantoms) / BATCH)
        self.attempted += steps
        tcfg = train.TrainConfig(epochs=self.spec.epochs, batch_size=BATCH, seed=self.seed)
        t0 = now()
        try:
            result = train.train_run(model, self.phantoms, tcfg,
                                     os.path.join(self.out_dir, "train"), quiet=True)
        except Exception:       # counted as failed steps; the loop goes on
            self._raised(steps, "train_run")
            return None
        dt = now() - t0
        problem = check_losses([row["loss"] for row in result.epoch_log], result.steps, steps)
        if problem:
            self._fail(steps, problem)
            return None
        self.work["train_samples_per_s"].append((self.spec.epochs * len(self.phantoms), dt))
        return result.final_path

    def _evaluate(self, trained, checkpoint):
        """Reload the trained model and evaluate every phantom; the reloaded
        weights must equal ``trained``'s bit for bit.  Return the reloaded
        model and the clean DSC of the first phantom (None on failure)."""
        n = len(self.phantoms)
        self.attempted += n
        t0 = now()
        try:
            model, _ = network.load_checkpoint(checkpoint)
            report = metrics.evaluate_model(model, self.phantoms)
        except Exception:
            self._raised(n, "load_checkpoint/evaluate_model")
            return trained, None
        dt = now() - t0
        if not same_weights(model, trained):
            self._fail(n, "reloaded checkpoint differs from the trained model")
            return model, None
        ids = [vol.id for vol in self.phantoms]
        if report.sample_ids != ids:
            self._fail(n, f"report covers {report.sample_ids}, expected {ids}")
            return model, None
        bad = 0
        for sample in report.samples:
            for m in sample.per_class.values():
                # a model two steps from init may predict an empty mask,
                # which leaves HD95 undefined (None)
                hd = m["hd95"]
                hd_ok = hd is None or (math.isfinite(hd) and hd >= 0.0)
                if not (0.0 <= m["dsc"] <= 1.0 and 0.0 <= m["iou"] <= 1.0 and hd_ok):
                    self._fail(1, f"{sample.sample_id}: out-of-range metrics {m}")
                    bad += 1
                    break
        if bad:
            return model, None
        self.work["eval_volumes_per_s"].append((n, dt))
        return model, report.samples[0].mean_dsc()

    def _perturb(self, model, clean):
        """All families at the spec's levels on the first phantom; every
        level-1 cell must equal the clean DSC bit for bit."""
        families = data.NOISE_FAMILIES
        n_cells = len(families) * len(self.spec.levels)
        self.attempted += n_cells
        if clean is None:
            self._fail(n_cells, "no clean evaluation to compare the grid against")
            return
        t0 = now()
        try:
            cells = metrics.perturbation_grid(model, self.phantoms[:1], families,
                                              self.spec.levels, seed=self.seed)
        except Exception:
            self._raised(n_cells, "perturbation_grid")
            return
        dt = now() - t0
        if len(cells) != n_cells:
            self._fail(n_cells, f"grid has {len(cells)} cells, expected {n_cells}")
            return
        bad = 0
        for c in cells:
            if not 0.0 <= c.mean_dsc <= 1.0:
                problem = f"cell {c.family}/{c.level}: DSC {c.mean_dsc} outside [0, 1]"
            elif c.level == 1 and c.mean_dsc.hex() != clean.hex():
                problem = f"cell {c.family}/1: DSC {c.mean_dsc!r} != clean {clean!r}"
            else:
                continue
            bad += 1
            self._fail(1, problem)
        if not bad:
            self.work["perturb_cells_per_s"].append((n_cells, dt))
