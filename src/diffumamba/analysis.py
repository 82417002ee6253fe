"""Latent-space analysis: Pearson correlation of bottleneck embeddings,
k-means + silhouette channel-token clustering, and the evolution report
for the per-stage aggregation weights.

Each bottleneck channel, flattened over spatial positions, is one point
("channel token") for clustering; distances are Euclidean.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .metrics import model_input
from .recordio import json_from_record, json_record, read_container, write_container
from .tensor import Rng, no_grad
from .util import write_csv

LATENT_MAGIC = b"DUML"
LATENT_VERSION = 1
DEFAULT_K_RANGE = tuple(range(2, 9))
KMEANS_MAX_ITER = 100   # Lloyd iterations
KMEANS_RESEEDS = 8      # empty-cluster reseeds before k-means gives up


def pearson(x, y) -> float:
    """Sample correlation coefficient; NaN sentinel on zero variance."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ValueError("pearson needs at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return float("nan")
    return float(xc @ yc) / denom


def mean_pearson(m1, m2):
    """Mean |matched-channel| correlation between two (C, ...) feature maps.

    Returns (mean over defined pairs, n_defined, n_undefined).
    """
    m1 = np.asarray(m1)
    m2 = np.asarray(m2)
    if m1.shape != m2.shape:
        raise ValueError(f"feature shapes differ: {m1.shape} vs {m2.shape}")
    vals = []
    undefined = 0
    for c in range(m1.shape[0]):
        r = pearson(m1[c].ravel(), m2[c].ravel())
        if math.isnan(r):
            undefined += 1
        else:
            vals.append(r)
    mean = float(np.mean(vals)) if vals else float("nan")
    return mean, len(vals), undefined


# ----------------------------------------------------------------------
# k-means + silhouette


def _kmeans_pp_init(points, k, rng: Rng):
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(0, n))   # all points coincide
        else:
            r = float(rng.random()) * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(points, k, seed=0):
    """Lloyd's algorithm with k-means++ seeding.

    Returns (labels, centers, inertia_history); the objective is
    nonincreasing across iterations.  An empty cluster is reseeded to
    the point farthest from its assigned center, with bounded retries.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k < 1 or k > n:
        raise ValueError(f"k={k} invalid for {n} points")
    rng = Rng(seed)
    centers = _kmeans_pp_init(points, k, rng)
    labels = np.zeros(n, dtype=int)
    history = []
    retries = 0
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        empty = [j for j in range(k) if not np.any(new_labels == j)]
        if empty:
            if retries >= KMEANS_RESEEDS:
                raise RuntimeError(f"k-means could not fill {len(empty)} clusters "
                                   f"after {KMEANS_RESEEDS} reseeds")
            retries += 1
            worst = np.argsort(-d2[np.arange(n), new_labels])
            for j, idx in zip(empty, worst):
                centers[j] = points[idx]
            continue
        if np.array_equal(new_labels, labels) and len(history) > 1:
            labels = new_labels
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    return labels, centers, history


def silhouette_samples(points, labels):
    """s_i = (b_i - a_i) / max(a_i, b_i); singleton clusters score 0."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(points)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    s = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        n_own = own.sum()
        if n_own == 1:
            s[i] = 0.0
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = min(dist[i, labels == c].mean() for c in uniq if c != labels[i])
        s[i] = 0.0 if max(a, b) == 0 else (b - a) / max(a, b)
    return s


def kmeans_silhouette(points, k_range=DEFAULT_K_RANGE, seed=0):
    """Pick the cluster count maximizing mean silhouette (ties: smallest k).

    Each candidate k runs with a fixed seed derived from (seed, k).
    Returns (best_k, labels for best_k, mean silhouette at best_k).
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points")
    k_range = [k for k in k_range]
    if not k_range or min(k_range) < 2 or max(k_range) > n - 1:
        raise ValueError(f"k_range {k_range} must lie within [2, {n - 1}]")
    best = None
    for k in k_range:
        labels, _, _ = kmeans(points, k, seed=seed * 1009 + k)
        mean_s = float(silhouette_samples(points, labels).mean())
        if best is None or mean_s > best[2] + 1e-12:
            best = (k, labels, mean_s)
    return best


def channel_token_matrix(features) -> np.ndarray:
    """(C, D, H, W) features -> (C, D*H*W) float64 matrix of channel tokens."""
    features = np.asarray(features)
    return features.reshape(features.shape[0], -1).astype(np.float64)


# ----------------------------------------------------------------------
# aggregation-weight evolution


@dataclass
class LambdaReport:
    trace: np.ndarray            # (steps, l)
    final: list
    stabilization_step: int
    threshold: float

    def write_csv(self, path, meta=None):
        write_csv(path, ["step"] + [f"lambda_{i + 1}" for i in range(self.trace.shape[1])],
                  ([step] + [f"{v:.8f}" for v in row] for step, row in enumerate(self.trace)),
                  meta=meta)


def read_lambda_trace_csv(path) -> np.ndarray:
    """Read a (steps, l) trace back from its CSV (comments + header + rows)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("step,"):
                continue
            rows.append([float(v) for v in line.split(",")[1:]])
    if not rows:
        raise ValueError(f"no trace rows found in {path}")
    return np.asarray(rows, dtype=np.float64)


def lambda_report(trace, threshold=1e-3) -> LambdaReport:
    """Summarize a per-step weight trace.

    The stabilization step is the earliest step t such that every later
    per-step change stays below ``threshold`` in max-abs (the trailing
    window extends to the end of the trace); a constant trace
    stabilizes at step 0.
    """
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim != 2 or len(trace) == 0:
        raise ValueError(f"trace must be (steps, l) and nonempty, got {trace.shape}")
    deltas = np.abs(np.diff(trace, axis=0)).max(axis=1) if len(trace) > 1 else np.zeros(0)
    stab = 0
    for t in range(len(deltas) - 1, -1, -1):
        if deltas[t] >= threshold:
            stab = t + 1
            break
    return LambdaReport(trace=trace, final=[float(v) for v in trace[-1]],
                        stabilization_step=int(stab), threshold=threshold)


# ----------------------------------------------------------------------
# latent capture and dumps


def capture_latents(model, sample) -> dict:
    """Run one sample and return bottleneck tensors as plain arrays.

    Keys: m1, and when the noise reduction module is enabled also m2,
    e_hat, e_1..e_l.  Values keep the model dtype.
    """
    with no_grad():
        cap = {}
        model.forward(model_input(model, sample), capture=cap)
    out = {"m1": cap["m1"].data[0].copy()}
    if "m2" in cap:
        out["m2"] = cap["m2"].data[0].copy()
        out["e_hat"] = cap["e_hat"].data[0].copy()
        for i, e in enumerate(cap["e_list"]):
            out[f"e_{i + 1}"] = e.data[0].copy()
    return out


def save_latent_dump(path, tensors: dict, meta: dict):
    write_container(path, LATENT_MAGIC, LATENT_VERSION,
                    [dict(tensors), {"meta.json": json_record(meta)}])


def load_latent_dump(path):
    _, (tensors, meta_rec) = read_container(path, LATENT_MAGIC, versions=(LATENT_VERSION,))
    meta = json_from_record(meta_rec["meta.json"]) if "meta.json" in meta_rec else {}
    return tensors, meta


def analyze_model(model, samples, k_range=DEFAULT_K_RANGE, seed=0, out_dir=None,
                  lambda_trace=None, meta=None):
    """Per-sample silhouette / Pearson summary, with optional dumps.

    Without the noise reduction module only the m1-side analysis runs
    (documented partial output: no m2/pearson fields).
    """
    rows = []
    for s in samples:
        latents = capture_latents(model, s)
        toks = channel_token_matrix(latents["m1"])
        # few-channel bottlenecks cannot host every candidate k
        usable = [k for k in k_range if 2 <= k <= len(toks) - 1]
        if not usable:
            raise ValueError(f"no usable k in {list(k_range)} for {len(toks)} channels")
        best_k, _, mean_s = kmeans_silhouette(toks, k_range=usable, seed=seed)
        row = {"sample_id": s.id, "best_k": best_k, "mean_silhouette": mean_s}
        if "m2" in latents:
            r, n_def, n_undef = mean_pearson(latents["m1"], latents["m2"])
            row["pearson_m1_m2"] = r
            row["pearson_defined"] = n_def
            row["pearson_undefined"] = n_undef
        rows.append(row)
        if out_dir is not None:
            save_latent_dump(os.path.join(out_dir, f"latent_{s.id}.dump"), latents,
                             {"sample_id": s.id, **(meta or {})})
    summary = {
        "n_samples": len(rows),
        "mean_silhouette": float(np.mean([r["mean_silhouette"] for r in rows])),
        "best_k_values": [r["best_k"] for r in rows],
        "nrm_present": "pearson_m1_m2" in rows[0] if rows else False,
        **(meta or {}),
    }
    if summary["nrm_present"]:
        vals = [r["pearson_m1_m2"] for r in rows if not math.isnan(r["pearson_m1_m2"])]
        summary["mean_pearson_m1_m2"] = float(np.mean(vals)) if vals else None
    if lambda_trace is not None and len(lambda_trace):
        summary["lambda_final"] = [float(v) for v in np.asarray(lambda_trace)[-1]]
        summary["lambda_stabilization_step"] = lambda_report(lambda_trace).stabilization_step
    return rows, summary


def write_analysis_csv(rows, path, meta=None):
    if not rows:
        raise ValueError("no analysis rows to write")
    cols = list(rows[0].keys())
    write_csv(path, cols, ([r.get(c, "") for c in cols] for r in rows), meta=meta)
