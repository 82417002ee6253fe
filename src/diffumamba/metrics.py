"""Segmentation metrics and evaluation reports.

HD95 convention used here: pool the directed surface distances in both
directions (pred->gt and gt->pred) and take the 95th percentile with
inclusive linear interpolation, scaled by voxel spacing.  A surface
voxel is a mask voxel with at least one 6-neighbor outside the mask,
where the volume border counts as outside.  If either mask is empty the
metric is undefined: it is excluded from means and counted in the
report instead.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .data import NoiseSpec, noise_hook
from .tensor import ShapeError, Tensor, concat, no_grad
from .util import write_csv, write_json


def dsc_iou(pred, gt):
    """Dice and IoU of two binary masks; two empty masks count as perfect."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    n_pred = int(pred.sum())
    n_gt = int(gt.sum())
    if n_pred == 0 and n_gt == 0:
        return 1.0, 1.0
    inter = int(np.logical_and(pred, gt).sum())
    union = n_pred + n_gt - inter
    dsc = 2.0 * inter / (n_pred + n_gt)
    iou = inter / union if union else 1.0
    return dsc, iou


def surface_voxels(mask) -> np.ndarray:
    """Mask voxels with a 6-neighbor outside the mask (border is outside)."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1, constant_values=False)
    interior = np.ones_like(mask)
    for ax in range(mask.ndim):
        lo = [slice(1, -1)] * mask.ndim
        hi = [slice(1, -1)] * mask.ndim
        lo[ax] = slice(0, -2)
        hi[ax] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return mask & ~interior


def _directed_surface_distances(src_surface, dst_surface, spacing):
    # exact Euclidean distance from every src surface voxel to the
    # nearest dst surface voxel, via the distance transform of ~dst
    dt = ndimage.distance_transform_edt(~dst_surface, sampling=spacing)
    return dt[src_surface]


def hd95(pred, gt, spacing=(1.0, 1.0, 1.0)):
    """95th-percentile symmetric surface distance in mm; None if undefined."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    if not pred.any() or not gt.any():
        return None
    sp = surface_voxels(pred)
    sg = surface_voxels(gt)
    d_pg = _directed_surface_distances(sp, sg, spacing)
    d_gp = _directed_surface_distances(sg, sp, spacing)
    pooled = np.concatenate([d_pg, d_gp])
    return float(np.percentile(pooled, 95, method="linear"))


# ----------------------------------------------------------------------
# reports


@dataclass
class SampleMetrics:
    sample_id: str
    per_class: dict        # class index -> {"dsc":, "iou":, "hd95": float|None}

    def mean_dsc(self):
        return float(np.mean([m["dsc"] for m in self.per_class.values()]))


@dataclass
class MetricsReport:
    """Per-sample and aggregate DSC / IoU / HD95 over foreground classes."""
    samples: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, sm: SampleMetrics):
        self.samples.append(sm)

    @property
    def sample_ids(self):
        return [s.sample_id for s in self.samples]

    def _collect(self, key):
        return [m[key] for s in self.samples for m in s.per_class.values()]

    def summary(self) -> dict:
        dscs = self._collect("dsc")
        ious = self._collect("iou")
        hds = [h for h in self._collect("hd95") if h is not None]
        n_undef = sum(1 for h in self._collect("hd95") if h is None)
        def stats(vals):
            if not vals:
                return {"mean": None, "std": None, "n": 0}
            return {"mean": float(np.mean(vals)), "std": float(np.std(vals)),
                    "n": len(vals)}
        return {"dsc": stats(dscs), "iou": stats(ious), "hd95": stats(hds),
                "hd95_undefined": n_undef, "n_samples": len(self.samples),
                "sample_ids": self.sample_ids, **self.meta}

    def mean_dsc(self):
        return self.summary()["dsc"]["mean"]

    def write_csv(self, path):
        write_csv(path, ["sample_id", "class", "dsc", "iou", "hd95"],
                  ([s.sample_id, cls, f"{m['dsc']:.6f}", f"{m['iou']:.6f}",
                    "" if m["hd95"] is None else f"{m['hd95']:.6f}"]
                   for s in self.samples for cls, m in sorted(s.per_class.items())),
                  meta=self.meta)

    def write_json(self, path):
        write_json(path, self.summary())


def evaluate_masks(pred_labels, gt_labels, n_classes, spacing, sample_id) -> SampleMetrics:
    per_class = {}
    for cls in range(1, n_classes):
        p = pred_labels == cls
        g = gt_labels == cls
        d, i = dsc_iou(p, g)
        per_class[cls] = {"dsc": d, "iou": i, "hd95": hd95(p, g, spacing)}
    return SampleMetrics(sample_id=sample_id, per_class=per_class)


def predict_labels(model, sample) -> np.ndarray:
    """Argmax class map for one sample, without building a tape."""
    with no_grad():
        logits = model.forward(model_input(model, sample))
    return label_map(logits)


def model_input(model, sample) -> Tensor:
    """The (1, C, D, H, W) input tensor of one sample, in the model's dtype."""
    return Tensor(sample.image[None], dtype=model_dtype(model))


def label_map(logits, row=0) -> np.ndarray:
    """Argmax class map of volume ``row`` in a batch of logits."""
    return np.argmax(logits.data[row], axis=0).astype(np.uint8)


def model_dtype(model):
    return next(iter(model.named_parameters().values())).dtype


def evaluate_model(model, samples, meta=None) -> MetricsReport:
    report = MetricsReport(meta=meta or {})
    for s in samples:
        pred = predict_labels(model, s)
        report.add(evaluate_masks(pred, s.label, model.cfg.n_classes, s.spacing, s.id))
    return report


# ----------------------------------------------------------------------
# perturbation robustness grid


@dataclass
class PerturbCell:
    family: str
    level: int
    param: float
    mean_dsc: float
    mean_perturbation: float     # mean |injected - clean| of hooked activations


def perturbation_grid(model, samples, families, levels, seed=0):
    """DSC per (family, level) with noise at the first residual block.

    The noise-free stem runs once per sample.  The clean prediction is
    the rest of the network on that stem at B = 1, the same arithmetic
    as ``Network.forward``, so level 1 is bit-equal to the clean
    evaluation.  Each distinct noisy level then runs the rest of the
    network once, no grad, on the stacked (F, C, D, H, W) batch of the
    sample's perturbed stems, one row per requested family; row i is
    family i's cell.  A batch thus holds at most ``len(families)``
    volumes, never the whole grid.  A cell is scored by its mean
    foreground DSC alone, the per-class ``dsc_iou`` values through
    ``np.mean`` as in ``SampleMetrics.mean_dsc``: no HD95 is computed.
    Each cell gets a deterministic seed derived from (seed, family,
    level, sample index).
    """
    n_classes = model.cfg.n_classes
    noisy_levels = [level for level in dict.fromkeys(levels) if level != 1]
    clean_scores = []
    scores = {(family, level): [] for family in families for level in noisy_levels}
    mags = {cell: [] for cell in scores}

    def score(pred, s):
        # SampleMetrics.mean_dsc's arithmetic, without the HD95 the grid never reads
        return float(np.mean([dsc_iou(pred == cls, s.label == cls)[0]
                              for cls in range(1, n_classes)]))

    for idx, s in enumerate(samples):
        with no_grad():
            stem = model.forward_stem(model_input(model, s))
            clean_scores.append(score(label_map(model.forward_rest(stem)), s))
            for level in noisy_levels:
                hooked = []
                for family in families:
                    cell_seed = seed * 1_000_003 + hash_u32(f"{family}/{level}/{idx}")
                    h = noise_hook(NoiseSpec(family=family, level=level, seed=cell_seed))(stem)
                    mags[family, level].append(float(np.abs(h.data - stem.data).mean()))
                    hooked.append(h)
                logits = model.forward_rest(concat(hooked, axis=0))
                for row, family in enumerate(families):
                    scores[family, level].append(score(label_map(logits, row), s))
    clean_mean = float(np.mean(clean_scores))

    cells = []
    for family in families:
        for level in levels:
            param = NoiseSpec(family=family, level=level).param
            if level == 1:
                cells.append(PerturbCell(family, level, param, clean_mean, 0.0))
            else:
                cells.append(PerturbCell(family, level, param, float(np.mean(scores[family, level])),
                                         float(np.mean(mags[family, level]))))
    return cells


def hash_u32(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def write_perturb_csv(cells, path, meta=None):
    write_csv(path, ["family", "level", "param", "mean_dsc", "mean_perturbation"],
              ([c.family, c.level, f"{c.param:g}", f"{c.mean_dsc:.6f}",
                f"{c.mean_perturbation:.6f}"] for c in cells), meta=meta)
