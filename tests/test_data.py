import os
import struct

import numpy as np
import numpy.testing as npt
import pytest

from diffumamba.data import (DataError, NOISE_FAMILIES, NOISE_LEVELS, NoiseSpec,
                             PERIODIC_TOKENS_PER_CYCLE, PhantomConfig,
                             VolumeFormatError, VolumeSample, gen_phantom,
                             gen_phantoms, inject_noise, load_dataset,
                             load_sample, read_manifest, read_volume,
                             save_dataset, save_sample, write_volume)
from diffumamba.tensor import Tensor


def _count_components_6conn(mask):
    """Flood-fill component counter; independent of any library labeling."""
    mask = mask.astype(bool)
    seen = np.zeros_like(mask)
    count = 0
    dims = mask.shape
    for start in zip(*np.nonzero(mask & ~seen)):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            z, y, x = stack.pop()
            for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                               (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                n = (z + dz, y + dy, x + dx)
                if all(0 <= n[i] < dims[i] for i in range(3)) and mask[n] and not seen[n]:
                    seen[n] = True
                    stack.append(n)
    return count


class TestPhantoms:
    def test_deterministic_per_seed_index(self):
        a = gen_phantom(5, 2)
        b = gen_phantom(5, 2)
        npt.assert_array_equal(a.image, b.image)
        npt.assert_array_equal(a.label, b.label)
        assert a.id == b.id

    def test_different_seeds_differ(self):
        a = gen_phantom(5, 0)
        b = gen_phantom(6, 0)
        assert not np.array_equal(a.image, b.image)

    def test_sphere_volume_oracle(self):
        # single sphere of radius 6 in a 32^3 grid: voxel count within
        # 10% of (4/3) pi r^3 ~= 905
        cfg = PhantomConfig(shape=(32, 32, 32), n_blobs=(1, 1), radius=(6.0, 6.0))
        vol = 4.0 / 3.0 * np.pi * 6.0 ** 3
        for idx in range(5):
            s = gen_phantom(11, idx, cfg)
            count = int(s.label.sum())
            assert abs(count - vol) / vol < 0.10, count

    def test_components_equal_blob_count(self):
        cfg = PhantomConfig(shape=(48, 48, 48), n_blobs=(3, 3), radius=(3.0, 5.0))
        hits = 0
        for idx in range(4):
            s = gen_phantom(21, idx, cfg)
            n = _count_components_6conn(s.label)
            assert 1 <= n <= 3
            if n == 3:
                hits += 1
        assert hits >= 3   # disjoint placement succeeds essentially always at 48^3

    def test_labels_binary_and_shapes(self):
        s = gen_phantom(1, 0)
        assert s.image.shape == (1, 32, 32, 32)
        assert s.label.shape == (32, 32, 32)
        assert set(np.unique(s.label)) <= {0, 1}

    def test_gen_phantoms_requires_positive_n(self):
        with pytest.raises(DataError):
            gen_phantoms(0, 1)

    def test_sample_validation(self):
        with pytest.raises(DataError, match="label"):
            VolumeSample(image=np.zeros((1, 4, 4, 4), dtype=np.float32),
                         label=np.zeros((2, 2, 2), dtype=np.uint8),
                         spacing=(1, 1, 1), id="x")
        with pytest.raises(DataError, match="spacing"):
            VolumeSample(image=np.zeros((1, 2, 2, 2), dtype=np.float32),
                         label=np.zeros((2, 2, 2), dtype=np.uint8),
                         spacing=(1, 1), id="x")


class TestNoiseInjection:
    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_level_one_is_identity(self, family, rng):
        x = rng.normal((2, 3, 4))
        out = inject_noise(x, NoiseSpec(family=family, level=1, seed=3))
        npt.assert_array_equal(out, x)

    def test_level_one_tensor_identity_object(self, rng):
        x = Tensor(rng.normal((4, 4)))
        assert inject_noise(x, NoiseSpec("uniform", 1)) is x

    def test_uniform_bounds(self, rng):
        x = rng.normal((8, 8, 8))
        out = inject_noise(x, NoiseSpec("uniform", 2, seed=1))
        assert np.abs(out - x).max() <= 2.0
        out6 = inject_noise(x, NoiseSpec("uniform", 6, seed=1))
        assert np.abs(out6 - x).max() <= 12.0

    def test_uniform_draws_are_flat_not_gaussian(self):
        # the family's name matches its draw: within +-p and flat, with
        # the sample kurtosis of a uniform (1.8), not of a Gaussian (3)
        x = np.zeros(1 << 16, dtype=np.float64)
        noise = inject_noise(x, NoiseSpec("uniform", 3, seed=4))
        p = NOISE_LEVELS["uniform"][2]
        assert np.abs(noise).max() <= p
        assert np.abs(noise).max() > 0.99 * p
        z = noise - noise.mean()
        kurtosis = np.mean(z ** 4) / np.mean(z ** 2) ** 2
        assert abs(kurtosis - 1.8) < 0.05, kurtosis

    def test_speckle_is_multiplicative(self, rng):
        x = np.zeros((5, 5), dtype=np.float32)
        out = inject_noise(x, NoiseSpec("speckle", 4, seed=2))
        npt.assert_array_equal(out, x)   # zero input stays zero

    def test_periodic_wave_oracle(self):
        x = np.zeros(64, dtype=np.float64).reshape(4, 16)
        spec = NoiseSpec("periodic", 3, seed=0)   # amplitude 1.0
        out = inject_noise(x, spec)
        idx = np.arange(64)
        expect = np.sin(2 * np.pi * idx / PERIODIC_TOKENS_PER_CYCLE).reshape(4, 16)
        npt.assert_allclose(out, expect, atol=1e-12)

    def test_salt_pepper_values_and_rate(self, rng):
        x = rng.uniform(1.0, 2.0, (32, 32, 32)).astype(np.float32)
        spec = NoiseSpec("salt_pepper", 6, seed=5)   # p = 0.02
        out = inject_noise(x, spec)
        changed = out != x
        rate = changed.mean()
        assert 0.01 < rate < 0.03
        lo, hi = x.min(), x.max()
        assert set(np.unique(out[changed])) <= {lo, hi}

    def test_injector_deterministic_and_seed_sensitive(self, rng):
        x = rng.normal((6, 6, 6))
        a = inject_noise(x, NoiseSpec("uniform", 4, seed=9))
        b = inject_noise(x, NoiseSpec("uniform", 4, seed=9))
        npt.assert_array_equal(a, b)
        # distinct seeds give pairwise-distinct perturbations
        outs = [inject_noise(x, NoiseSpec("uniform", 4, seed=s)) for s in range(12)]
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                assert not np.array_equal(outs[i], outs[j])

    @pytest.mark.parametrize("family", NOISE_FAMILIES)
    def test_perturbation_magnitude_nondecreasing(self, family, rng):
        x = rng.uniform(0.5, 1.5, (16, 16, 16)).astype(np.float32)
        means = []
        for level in range(1, 7):
            mags = [np.abs(inject_noise(x, NoiseSpec(family, level, seed=s)) - x).mean()
                    for s in range(6)]
            means.append(float(np.mean(mags)))
        for lo, hi in zip(means, means[1:]):
            assert hi >= lo - 1e-9, means

    def test_unknown_family_rejected(self):
        with pytest.raises(DataError, match="unknown noise family"):
            NoiseSpec("perlin", 2)

    def test_out_of_range_level_rejected(self):
        with pytest.raises(DataError, match="level"):
            NoiseSpec("uniform", 7)

    def test_level_mapping_table(self):
        assert NOISE_LEVELS["uniform"] == (0.0, 2.0, 5.0, 8.0, 10.0, 12.0)
        assert NOISE_LEVELS["speckle"] == (0.0, 0.3, 0.5, 0.7, 0.9, 1.1)
        assert NOISE_LEVELS["periodic"] == (0.0, 0.5, 1.0, 2.0, 3.5, 5.0)
        assert NOISE_LEVELS["salt_pepper"] == (0.0, 0.002, 0.005, 0.008, 0.01, 0.02)
        for family in NOISE_FAMILIES:
            assert NOISE_LEVELS[family][0] == 0.0   # level 1 is always identity


class TestVolumeIO:
    def test_round_trip_bitwise(self, tmp_path, rng):
        arr = rng.normal((2, 3, 4, 5)).astype("<f4")
        path = tmp_path / "v.svol"
        write_volume(path, arr, (0.9765625, 1.25, 3.0))
        back, spacing = read_volume(path)
        npt.assert_array_equal(back, arr)
        assert spacing == (np.float32(0.9765625), np.float32(1.25), np.float32(3.0))

    @pytest.mark.parametrize("dtype,tag", [("<f4", 0), (">f4", 0), ("<f8", 1), ("u1", 2)])
    def test_bytes_match_the_format(self, tmp_path, dtype, tag):
        # magic | u32 version | u8 dtype tag | u32 C,D,H,W | 3*f32 spacing |
        # little-endian payload; the tags are the checkpoint records' tags
        arr = np.arange(8).reshape(1, 2, 2, 2).astype(dtype)
        path = tmp_path / "v.svol"
        write_volume(path, arr, (1.0, 2.0, 0.5))
        want = (b"SVOL" + struct.pack("<IB4I3f", 1, tag, 1, 2, 2, 2, 1.0, 2.0, 0.5)
                + arr.astype(np.dtype(dtype).newbyteorder("<")).tobytes())
        assert path.read_bytes() == want

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(VolumeFormatError, match="unsupported volume dtype"):
            write_volume(tmp_path / "v.svol", np.ones((1, 2, 2, 2), dtype=np.int32), (1, 1, 1))

    def test_spacing_full_float_precision(self, tmp_path):
        arr = np.zeros((1, 2, 2, 2), dtype="<f4")
        path = tmp_path / "v.svol"
        value = np.float32(0.123456789)
        write_volume(path, arr, (value, value, value))
        _, spacing = read_volume(path)
        assert spacing[0] == value

    def test_sample_round_trip(self, tmp_path):
        s = gen_phantom(3, 1)
        img, lbl = tmp_path / "i.svol", tmp_path / "l.svol"
        save_sample(s, img, lbl)
        back = load_sample(s.id, img, lbl)
        npt.assert_array_equal(back.image, s.image)
        npt.assert_array_equal(back.label, s.label)
        assert back.label.dtype == np.uint8

    def test_label_spacing_must_match_image(self, tmp_path):
        s = gen_phantom(3, 1)
        img, lbl = tmp_path / "i.svol", tmp_path / "l.svol"
        save_sample(s, img, lbl)
        write_volume(lbl, s.label[None], (2.0, 2.0, 2.0))
        with pytest.raises(VolumeFormatError, match=r"label spacing \(2.0, 2.0, 2.0\) .* "
                                                     r"image spacing \(1.0, 1.0, 1.0\)"):
            load_sample(s.id, img, lbl)

    def test_short_payload_detected(self, tmp_path):
        path = tmp_path / "v.svol"
        write_volume(path, np.ones((1, 2, 2, 2), dtype="<f4"), (1, 1, 1))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(VolumeFormatError, match="shorter"):
            read_volume(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "v.svol"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxx")
        with pytest.raises(VolumeFormatError, match="magic"):
            read_volume(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "v.svol"
        write_volume(path, np.ones((1, 2, 2, 2), dtype="<f4"), (1, 1, 1))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(VolumeFormatError, match="trailing"):
            read_volume(path)


class TestManifest:
    def test_dataset_round_trip(self, tmp_path):
        samples = gen_phantoms(3, 7)
        manifest = save_dataset(samples, tmp_path)
        back = load_dataset(manifest)
        assert [s.id for s in back] == [s.id for s in samples]
        for a, b in zip(samples, back):
            npt.assert_array_equal(a.image, b.image)
            npt.assert_array_equal(a.label, b.label)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_manifest(tmp_path / "nope.tsv")

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("")
        with pytest.raises(DataError, match="no samples"):
            read_manifest(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("only_two\tfields\n")
        with pytest.raises(DataError, match="3 tab-separated"):
            read_manifest(path)

    def test_relative_paths_resolve_against_manifest(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        samples = gen_phantoms(1, 9)
        manifest = save_dataset(samples, sub)
        entries = read_manifest(manifest)
        assert os.path.isabs(entries[0][1])
        assert os.path.exists(entries[0][1])
