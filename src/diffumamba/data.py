"""Synthetic 3D phantom volumes, a portable volume file format, and the
four feature-space noise injectors with their level mapping.

Phantoms are a smooth textured background plus one to three ellipsoidal
high-intensity blobs; the union of blob interiors is the label.  Blobs
are placed with disjoint bounding spheres so connected components equal
blob count.  Generation is deterministic per (seed, index).

Noise is injected into network activations (not raw images) at
inference time; level 1 of every family is the exact identity.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .recordio import _DTYPE_TAGS, _TAG_FOR_KIND
from .tensor import Rng, Tensor
from .util import atomic_write


class DataError(Exception):
    """Bad dataset input: missing files, malformed manifest, bad labels."""


class VolumeFormatError(DataError):
    """Volume file violates the on-disk format."""


@dataclass
class VolumeSample:
    """One image volume with its integer label map and voxel spacing."""
    image: np.ndarray      # (C, D, H, W) float
    label: np.ndarray      # (D, H, W) uint8, values in [0, n_classes)
    spacing: tuple         # (mm, mm, mm)
    id: str

    def __post_init__(self):
        self.image = np.asarray(self.image)
        self.label = np.asarray(self.label)
        if self.image.ndim != 4:
            raise DataError(f"image must be (C,D,H,W), got {self.image.shape}")
        if self.label.shape != self.image.shape[1:]:
            raise DataError(f"label shape {self.label.shape} does not match "
                            f"image spatial shape {self.image.shape[1:]}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise DataError(f"spacing must be 3 positive floats, got {self.spacing}")


@dataclass
class PhantomConfig:
    shape: tuple = (32, 32, 32)
    n_blobs: tuple = (1, 3)          # inclusive range
    radius: tuple = (4.0, 7.0)       # per-axis semi-axis range, voxels
    contrast: tuple = (0.8, 1.4)     # blob intensity above background
    base_intensity: float = 0.1
    texture_cells: int = 4           # coarse grid for smooth background texture
    texture_amp: float = 0.08
    noise_sigma: float = 0.05        # additive background noise
    spacing: tuple = (1.0, 1.0, 1.0)
    margin: float = 1.0              # gap kept from the volume border
    min_separation: float = 1.5      # gap between blob bounding spheres, voxels

    def __post_init__(self):
        if any(s < 1 for s in self.shape):
            raise DataError(f"phantom shape must be at least 1 on every axis, got {self.shape}")
        if not 0 <= self.n_blobs[0] <= self.n_blobs[1]:
            raise DataError(f"n_blobs must satisfy 0 <= min <= max, got {self.n_blobs}")
        if not 0 < self.radius[0] <= self.radius[1]:
            raise DataError(f"radius must satisfy 0 < min <= max, got {self.radius}")


def _lerp_axis(arr, new_size, axis):
    old = arr.shape[axis]
    if old == 1:
        reps = [1] * arr.ndim
        reps[axis] = new_size
        return np.tile(arr, reps)
    pos = np.linspace(0.0, old - 1.0, new_size)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, old - 1)
    frac = (pos - i0).reshape([-1 if a == axis else 1 for a in range(arr.ndim)])
    lo = np.take(arr, i0, axis=axis)
    hi = np.take(arr, i1, axis=axis)
    return lo * (1.0 - frac) + hi * frac


def _smooth_texture(rng: Rng, shape, cells):
    coarse = rng.normal((cells, cells, cells), dtype=np.float64)
    out = coarse
    for ax, size in enumerate(shape):
        out = _lerp_axis(out, size, ax)
    return out


def gen_phantom(seed: int, index: int, cfg: PhantomConfig | None = None) -> VolumeSample:
    """One deterministic phantom; same (seed, index) gives identical bits."""
    cfg = cfg or PhantomConfig()
    rng = Rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))
    d, h, w = cfg.shape

    image = np.full(cfg.shape, cfg.base_intensity, dtype=np.float64)
    image += cfg.texture_amp * _smooth_texture(rng.derive("texture"), cfg.shape, cfg.texture_cells)

    n_target = int(rng.integers(cfg.n_blobs[0], cfg.n_blobs[1] + 1))
    blob_rng = rng.derive("blobs")
    placed = []  # (center, radii)
    attempts = 0
    while len(placed) < n_target and attempts < 100:
        attempts += 1
        radii = blob_rng.uniform(cfg.radius[0], cfg.radius[1], (3,), dtype=np.float64)
        rmax = float(radii.max())
        lo = cfg.margin + rmax
        his = [d - 1 - cfg.margin - rmax, h - 1 - cfg.margin - rmax, w - 1 - cfg.margin - rmax]
        if any(hi <= lo for hi in his):
            break  # blob cannot fit this volume
        center = np.array([float(blob_rng.uniform(lo, hi)) for hi in his])
        ok = all(np.linalg.norm(center - c0) > r0 + rmax + cfg.min_separation
                 for c0, r0 in ((c, float(r.max())) for c, r in placed))
        if ok:
            placed.append((center, radii))

    label = np.zeros(cfg.shape, dtype=np.uint8)
    zz, yy, xx = np.meshgrid(np.arange(d), np.arange(h), np.arange(w), indexing="ij")
    for center, radii in placed:
        dist2 = (((zz - center[0]) / radii[0]) ** 2
                 + ((yy - center[1]) / radii[1]) ** 2
                 + ((xx - center[2]) / radii[2]) ** 2)
        mask = dist2 <= 1.0
        contrast = float(blob_rng.uniform(cfg.contrast[0], cfg.contrast[1]))
        image[mask] += contrast
        label[mask] = 1

    image += cfg.noise_sigma * rng.derive("noise").normal(cfg.shape, dtype=np.float64)
    return VolumeSample(image=image.astype(np.float32)[None],
                        label=label, spacing=cfg.spacing,
                        id=f"phantom-{seed}-{index:04d}")


def gen_phantoms(n: int, seed: int, cfg: PhantomConfig | None = None):
    if n < 1:
        raise DataError("need at least one sample")
    return [gen_phantom(seed, i, cfg) for i in range(n)]


# ----------------------------------------------------------------------
# noise injection

NOISE_LEVELS = {
    "uniform": (0.0, 2.0, 5.0, 8.0, 10.0, 12.0),         # additive uniform(-b, b) bound
    "speckle": (0.0, 0.3, 0.5, 0.7, 0.9, 1.1),            # multiplicative scale
    "periodic": (0.0, 0.5, 1.0, 2.0, 3.5, 5.0),           # sine amplitude
    "salt_pepper": (0.0, 0.002, 0.005, 0.008, 0.01, 0.02),  # flip probability
}
NOISE_FAMILIES = tuple(NOISE_LEVELS.keys())
PERIODIC_TOKENS_PER_CYCLE = 16


@dataclass
class NoiseSpec:
    """A noise family at an intensity level (1..6); level 1 is identity."""
    family: str
    level: int
    seed: int = 0

    def __post_init__(self):
        if self.family not in NOISE_LEVELS:
            raise DataError(f"unknown noise family {self.family!r} "
                            f"(known: {', '.join(NOISE_FAMILIES)})")
        if not 1 <= int(self.level) <= 6:
            raise DataError(f"noise level must be in 1..6, got {self.level}")
        self.level = int(self.level)

    @property
    def param(self) -> float:
        return NOISE_LEVELS[self.family][self.level - 1]


def _inject_array(arr: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    p = spec.param
    if p == 0.0:
        return arr
    rng = Rng(spec.seed)
    if spec.family == "uniform":
        return arr + rng.uniform(-p, p, arr.shape, dtype=arr.dtype)
    if spec.family == "speckle":
        return arr * (1.0 + p * rng.normal(arr.shape, dtype=arr.dtype))
    if spec.family == "periodic":
        # one full period per PERIODIC_TOKENS_PER_CYCLE entries of the
        # row-major flattened buffer
        idx = np.arange(arr.size, dtype=np.float64)
        wave = p * np.sin(2.0 * np.pi * idx / PERIODIC_TOKENS_PER_CYCLE)
        return arr + wave.reshape(arr.shape).astype(arr.dtype)
    # salt_pepper: flip to the map's min or max with equal odds
    u = rng.random(arr.shape)
    lo, hi = float(arr.min()), float(arr.max())
    out = arr.copy()
    out[u < p / 2.0] = lo
    out[(u >= p / 2.0) & (u < p)] = hi
    return out


def inject_noise(features, spec: NoiseSpec):
    """Perturb activations (Tensor or ndarray) per the level mapping.

    Level 1 (parameter 0) returns the input object unchanged.  Tensor
    results are detached constants: this is an inference-time hook.
    """
    if isinstance(features, Tensor):
        if spec.param == 0.0:
            return features
        return Tensor(_inject_array(features.data, spec), dtype=features.dtype)
    return _inject_array(np.asarray(features), spec)


def noise_hook(spec: NoiseSpec):
    """The perturbation of ``spec`` as a function of one activation map,
    applied between ``Network.forward_stem`` and ``forward_rest``."""
    def hook(t):
        return inject_noise(t, spec)
    return hook


# ----------------------------------------------------------------------
# volume file format

SVOL_MAGIC = b"SVOL"
SVOL_VERSION = 1


def write_volume(path, array: np.ndarray, spacing):
    """magic | u32 version | u8 dtype | u32 C,D,H,W | 3*f32 spacing | payload."""
    array = np.asarray(array)
    if array.ndim != 4:
        raise VolumeFormatError(f"volume payload must be (C,D,H,W), got {array.shape}")
    key = (array.dtype.kind, array.dtype.itemsize)
    if key not in _TAG_FOR_KIND:
        raise VolumeFormatError(f"unsupported volume dtype {array.dtype}")
    with atomic_write(path, binary=True) as fh:
        fh.write(SVOL_MAGIC)
        fh.write(struct.pack("<I", SVOL_VERSION))
        fh.write(struct.pack("<B", _TAG_FOR_KIND[key]))
        fh.write(struct.pack("<4I", *array.shape))
        fh.write(struct.pack("<3f", *(float(s) for s in spacing)))
        fh.write(np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")).tobytes())


def read_volume(path):
    def need(fh, n):
        buf = fh.read(n)
        if len(buf) != n:
            raise VolumeFormatError(f"payload shorter than header claims "
                                    f"(wanted {n} bytes, got {len(buf)})")
        return buf

    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SVOL_MAGIC:
            raise VolumeFormatError(f"bad magic {magic!r} (expected {SVOL_MAGIC!r})")
        (version,) = struct.unpack("<I", need(fh, 4))
        if version != SVOL_VERSION:
            raise VolumeFormatError(f"unsupported volume version {version}")
        (tag,) = struct.unpack("<B", need(fh, 1))
        if tag not in _DTYPE_TAGS:
            raise VolumeFormatError(f"unknown dtype tag {tag}")
        shape = struct.unpack("<4I", need(fh, 16))
        spacing = struct.unpack("<3f", need(fh, 12))
        dtype = _DTYPE_TAGS[tag]
        count = int(np.prod(shape))
        payload = need(fh, count * dtype.itemsize)
        if fh.read(1):
            raise VolumeFormatError("trailing bytes after declared payload")
        arr = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        return arr, spacing


def save_sample(sample: VolumeSample, image_path, label_path):
    write_volume(image_path, sample.image.astype("<f4", copy=False), sample.spacing)
    write_volume(label_path, sample.label[None].astype("u1", copy=False), sample.spacing)


def load_sample(sample_id, image_path, label_path) -> VolumeSample:
    image, spacing = read_volume(image_path)
    label, lbl_spacing = read_volume(label_path)
    if label.shape[0] != 1:
        raise VolumeFormatError(f"label volume must have one channel, got {label.shape[0]}")
    if lbl_spacing != spacing:
        raise VolumeFormatError(f"label spacing {lbl_spacing} of {label_path} differs from "
                                f"image spacing {spacing}")
    return VolumeSample(image=image, label=label[0], spacing=spacing, id=sample_id)


# ----------------------------------------------------------------------
# dataset manifests: one line per sample, "id<TAB>image<TAB>label"


def write_manifest(path, entries):
    with atomic_write(path) as fh:
        for sample_id, image_path, label_path in entries:
            fh.write(f"{sample_id}\t{image_path}\t{label_path}\n")


def read_manifest(path):
    if not os.path.exists(path):
        raise DataError(f"manifest not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, "
                                f"got {len(parts)}")
            sample_id, img, lbl = parts
            if not os.path.isabs(img):
                img = os.path.join(base, img)
            if not os.path.isabs(lbl):
                lbl = os.path.join(base, lbl)
            entries.append((sample_id, img, lbl))
    if not entries:
        raise DataError(f"manifest {path} lists no samples")
    return entries


def load_dataset(manifest_path):
    return [load_sample(sid, img, lbl) for sid, img, lbl in read_manifest(manifest_path)]


def check_label_classes(samples, n_classes):
    """Raise DataError unless every label voxel is a class in [0, n_classes)."""
    for s in samples:
        lo, hi = s.label.min(), s.label.max()
        if lo < 0 or hi >= n_classes:
            raise DataError(f"sample {s.id}: label classes span [{lo}, {hi}], outside "
                            f"[0, {n_classes}) for a {n_classes}-class model")


def save_dataset(samples, out_dir):
    """Write every sample under ``out_dir`` and return the manifest path."""
    img_dir = os.path.join(out_dir, "images")
    lbl_dir = os.path.join(out_dir, "labels")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(lbl_dir, exist_ok=True)
    entries = []
    for s in samples:
        img = os.path.join("images", f"{s.id}.svol")
        lbl = os.path.join("labels", f"{s.id}.svol")
        save_sample(s, os.path.join(out_dir, img), os.path.join(out_dir, lbl))
        entries.append((s.id, img, lbl))
    manifest = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest, entries)
    return manifest
