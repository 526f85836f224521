import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edglab import data, seeding


def write_idx(tmp_path, images, labels, image_name="imgs.idx", label_name="lbls.idx"):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    img_path = tmp_path / image_name
    lbl_path = tmp_path / label_name
    n, h, w = images.shape
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x801, labels.shape[0]) + labels.tobytes())
    return img_path, lbl_path


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(data.ConfigurationError):
            data.EnvironmentSpec(kind="nope", num_domains=5, samples_per_domain=50)

    def test_too_few_domains(self):
        with pytest.raises(data.ConfigurationError):
            data.EnvironmentSpec(kind="rplate", num_domains=2, samples_per_domain=50)

    def test_too_few_samples(self):
        with pytest.raises(data.ConfigurationError):
            data.EnvironmentSpec(kind="rmnist", num_domains=3, samples_per_domain=5)

    def test_wrong_kind_dispatch(self):
        spec = data.default_spec("rplate")
        with pytest.raises(data.ConfigurationError):
            data.gen_evolcircle(spec)


class TestEvolCircle:
    def test_default_shape_and_class_coverage(self):
        domains = data.gen_evolcircle(data.default_spec("evolcircle", seed=7))
        assert len(domains) == 30
        for d in domains:
            assert d.n == 220 and d.dim == 2
            assert set(np.unique(d.y)) == {0, 1}

    def test_zero_variance_collapses_to_centers(self, monkeypatch):
        monkeypatch.setattr(data, "SIGMA", 0.0)
        spec = data.EnvironmentSpec(kind="evolcircle", num_domains=3, samples_per_domain=4, seed=0)
        for i, d in enumerate(data.gen_evolcircle(spec)):
            theta = np.pi * i / 2
            center0 = 1.5 * np.array([np.cos(theta), np.sin(theta)])
            for row in d.x[d.y == 0]:
                assert np.max(np.abs(row - center0)) < 1e-12

    def test_bitwise_determinism(self):
        spec = data.default_spec("evolcircle", seed=123)
        a = data.gen_evolcircle(spec)
        b = data.gen_evolcircle(spec)
        for da, db in zip(a, b):
            assert np.array_equal(da.x, db.x) and np.array_equal(da.y, db.y)


class TestRPlate:
    def test_stored_labels_match_relabeling_oracle(self):
        for d in data.gen_rplate(data.default_spec("rplate", seed=3)):
            assert np.array_equal(d.y, data.rplate_label(d.x, d.index))

    def test_boundary_point_gets_label_one(self):
        # Points with an exactly-zero dot product sit on the boundary; the
        # tie-break assigns label 1. Domain 0's normal is (1, 0) exactly.
        on_line = np.array([[0.0, 1.0], [0.0, -3.5], [0.0, 0.0]])
        assert np.all(data.rplate_label(on_line, 0) == 1)

    def test_domain_15_is_complement_of_domain_0(self, rng):
        pts = rng.standard_normal((500, 2))
        y0 = data.rplate_label(pts, 0)
        y15 = data.rplate_label(pts, 15)
        on_boundary = np.abs(pts @ np.array([1.0, 0.0])) < 1e-12
        assert not on_boundary.any()
        assert np.array_equal(y15, 1 - y0)

    def test_boundary_angles_span_full_turn(self):
        spec = data.default_spec("rplate")
        assert spec.num_domains == 30
        # angle of last domain is 29 * 12 = 348 degrees
        assert 29 * 12.0 == 348.0


class TestRotatedCloud:
    def test_zero_distance_identical_domains(self):
        spec = data.default_spec("rotatedcloud", seed=1, domain_distance=0.0)
        domains = data.gen_rotated_cloud(spec)
        for d in domains[1:]:
            assert np.array_equal(d.x, domains[0].x) and np.array_equal(d.y, domains[0].y)

    def test_full_turn_symmetry(self):
        spec = data.default_spec("rotatedcloud", seed=1, num_domains=7, domain_distance=60.0)
        domains = data.gen_rotated_cloud(spec)
        assert np.max(np.abs(domains[6].x - domains[0].x)) <= 1e-9

    def test_consecutive_class_mean_distance_constant(self):
        spec = data.default_spec("rotatedcloud", seed=5, num_domains=12, domain_distance=15.0)
        domains = data.gen_rotated_cloud(spec)
        means = [
            np.vstack([d.x[d.y == k].mean(axis=0) for k in range(2)]) for d in domains
        ]
        gaps = [np.linalg.norm(means[i + 1] - means[i], axis=1) for i in range(11)]
        # analytic: a rigid rotation by delta moves a point at radius r by 2 r sin(delta/2)
        radius = np.linalg.norm(means[0], axis=1)
        expected = 2.0 * radius * np.sin(np.deg2rad(7.5))
        for g in gaps:
            assert np.max(np.abs(g - expected)) < 1e-9

    def test_rotation_is_isometry(self):
        spec = data.default_spec("rotatedcloud", seed=2, num_domains=5, domain_distance=37.0)
        domains = data.gen_rotated_cloud(spec)
        base = domains[0].x
        ref = np.linalg.norm(base[:, None, :] - base[None, :50, :], axis=2)
        for d in domains[1:]:
            cur = np.linalg.norm(d.x[:, None, :] - d.x[None, :50, :], axis=2)
            assert np.max(np.abs(cur - ref)) < 1e-9


def frozen_rotate(img, degrees):
    """The per-image rotation as it was before stacks, frozen as the oracle."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = rr - cy, cc - cx
    src_y = cy + cos_t * dy + sin_t * dx
    src_x = cx - sin_t * dy + cos_t * dx
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    fy, fx = src_y - y0, src_x - x0
    out = np.zeros_like(img)
    for oy, ox, wgt in (
        (0, 0, (1 - fy) * (1 - fx)),
        (0, 1, (1 - fy) * fx),
        (1, 0, fy * (1 - fx)),
        (1, 1, fy * fx),
    ):
        yy, xx = y0 + oy, x0 + ox
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        out[valid] += wgt[valid] * img[yy[valid], xx[valid]]
    return out


def frozen_load_rmnist(idx_image_path, idx_label_path, spec):
    """``load_rmnist`` as it was before stacks: one rotation per image."""
    images = data.read_idx_images(idx_image_path)
    labels = data.read_idx_labels(idx_label_path)
    total = spec.num_domains * spec.samples_per_domain
    rng = seeding.child_rng(spec.seed, "rmnist", "select")
    for attempt in range(64):
        chosen = rng.choice(images.shape[0], size=total, replace=False)
        groups = chosen.reshape(spec.num_domains, spec.samples_per_domain)
        if all(len(np.unique(labels[g])) == spec.num_classes for g in groups):
            break
    out = []
    for i, group in enumerate(groups):
        angle = i * spec.domain_distance
        flat = np.empty((len(group), images.shape[1] * images.shape[2]))
        for j, idx in enumerate(group):
            rotated = frozen_rotate(images[idx], angle) if angle != 0.0 else images[idx].astype(np.float64)
            flat[j] = rotated.ravel() / 255.0
        out.append((flat, labels[group]))
    return out


class TestRotateImage:
    def test_zero_rotation_identity(self, rng):
        img = rng.random((28, 28))
        assert np.array_equal(data.rotate_image(img, 0.0), img)

    def test_double_half_turn_recovers(self, rng):
        img = rng.random((28, 28))
        back = data.rotate_image(data.rotate_image(img, 180.0), 180.0)
        assert np.max(np.abs(back - img)) < 1e-6

    @pytest.mark.parametrize("degrees", [10.0, 45.0, 110.0, 180.0, 350.0])
    @pytest.mark.parametrize("shape", [(28, 28), (20, 28)])
    def test_stack_equals_each_image(self, degrees, shape):
        # uint8 glyph-like pixels and arbitrary reals, with a leading stack axis of two.
        rng = np.random.default_rng(int(degrees))
        stack = np.stack([rng.integers(0, 256, size=(5,) + shape).astype(np.float64), rng.random((5,) + shape)])
        rotated = data.rotate_image(stack, degrees)
        assert rotated.shape == stack.shape
        for index in np.ndindex(stack.shape[:2]):
            assert np.array_equal(rotated[index], frozen_rotate(stack[index], degrees))
            assert np.array_equal(rotated[index], data.rotate_image(stack[index], degrees))

    def test_out_of_bounds_is_zero(self):
        img = np.ones((28, 28))
        rotated = data.rotate_image(img, 45.0)
        assert rotated[0, 0] == 0.0  # corners leave the support under 45 degrees


class TestRmnistLoader:
    def make_dataset(self, tmp_path, n=120, seed=0):
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, size=(n, 28, 28))
        labels = np.tile(np.arange(10), n // 10 + 1)[:n]
        return write_idx(tmp_path, images, labels)

    def test_default_schedule_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2500, 28, 28))
        labels = np.tile(np.arange(10), 250)
        img, lbl = write_idx(tmp_path, images, labels)
        spec = data.default_spec("rmnist", seed=1)
        domains = data.load_rmnist(img, lbl, spec)
        assert len(domains) == 12
        assert all(d.n == 200 and d.dim == 784 for d in domains)
        assert all(0.0 <= d.x.min() and d.x.max() <= 1.0 for d in domains)

    def test_rotation_schedule_applied(self, tmp_path):
        # Every image identical: each domain must equal the rotated pattern.
        pattern = np.zeros((28, 28), dtype=np.uint8)
        pattern[5:9, 10:20] = 255
        images = np.repeat(pattern[None], 120, axis=0)
        labels = np.tile(np.arange(10), 12)
        img, lbl = write_idx(tmp_path, images, labels)
        spec = data.EnvironmentSpec(kind="rmnist", num_domains=3, samples_per_domain=40, domain_distance=25.0, seed=4)
        domains = data.load_rmnist(img, lbl, spec)
        for i, d in enumerate(domains):
            expected = data.rotate_image(pattern.astype(float), i * 25.0).ravel() / 255.0
            assert np.max(np.abs(d.x - expected)) < 1e-12

    def test_equals_per_image_loop(self, tmp_path):
        img, lbl = self.make_dataset(tmp_path, n=300, seed=3)
        spec = data.EnvironmentSpec(kind="rmnist", num_domains=5, samples_per_domain=40, domain_distance=35.0, seed=6)
        domains = data.load_rmnist(img, lbl, spec)
        want = frozen_load_rmnist(img, lbl, spec)
        assert len(domains) == len(want)
        for d, (x, y) in zip(domains, want):
            assert np.array_equal(d.x, x) and np.array_equal(d.y, y)

    def test_domain_zero_is_pixel_identical_to_source(self, tmp_path):
        img, lbl = self.make_dataset(tmp_path)
        spec = data.EnvironmentSpec(kind="rmnist", num_domains=3, samples_per_domain=30, seed=2)
        domains = data.load_rmnist(img, lbl, spec)
        source = data.read_idx_images(img).reshape(120, -1) / 255.0
        for row in domains[0].x:
            assert any(np.array_equal(row, s) for s in source)

    def test_bad_image_magic(self, tmp_path):
        img, lbl = self.make_dataset(tmp_path)
        raw = bytearray(img.read_bytes())
        raw[3] = 0x99
        img.write_bytes(bytes(raw))
        with pytest.raises(data.IngestionError, match=r"magic 0x00000899 at offset 0"):
            data.read_idx_images(img)

    def test_truncated_image_file(self, tmp_path):
        img, lbl = self.make_dataset(tmp_path)
        img.write_bytes(img.read_bytes()[:-10])
        with pytest.raises(data.IngestionError, match="ends at offset"):
            data.read_idx_images(img)

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(120, 28, 28))
        labels = np.tile(np.arange(10), 11)  # 110 labels for 120 images
        img, lbl = write_idx(tmp_path, images, labels)
        spec = data.EnvironmentSpec(kind="rmnist", num_domains=3, samples_per_domain=30, seed=2)
        with pytest.raises(data.IngestionError, match="120 images but .* 110 labels"):
            data.load_rmnist(img, lbl, spec)

    def test_not_enough_instances(self, tmp_path):
        img, lbl = self.make_dataset(tmp_path, n=50)
        spec = data.EnvironmentSpec(kind="rmnist", num_domains=3, samples_per_domain=30, seed=2)
        with pytest.raises(data.IngestionError, match="need 90 instances"):
            data.load_rmnist(img, lbl, spec)


class TestSplit:
    def balanced_domain(self, n=100):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((n, 2))
        y = np.tile([0, 1], n // 2)
        return data.DomainData(0, x, y, num_classes=2)

    def test_ratio_split_counts(self):
        train, val = data.split_train_val(self.balanced_domain(), 0.8, seed=0)
        assert train.n == 80 and val.n == 20
        assert np.sum(train.y == 0) == 40 and np.sum(val.y == 0) == 10

    def test_same_seed_same_split(self):
        d = self.balanced_domain()
        a = data.split_train_val(d, 0.8, seed=5)
        b = data.split_train_val(d, 0.8, seed=5)
        assert np.array_equal(a[0].x, b[0].x) and np.array_equal(a[1].x, b[1].x)

    def test_union_is_input_multiset(self):
        d = self.balanced_domain()
        train, val = data.split_train_val(d, 0.7, seed=9)
        merged = np.vstack([train.x, val.x])
        key = lambda arr: arr[np.lexsort(arr.T)]
        assert np.array_equal(key(merged), key(d.x))

    def test_tiny_class_rejected(self):
        d = data.DomainData(0, np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), np.array([0, 0, 1]), 2)
        with pytest.raises(data.SplitError):
            data.split_train_val(d, 0.5, seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(data.SplitError):
            data.split_train_val(self.balanced_domain(), 1.0, seed=0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 0.8))
    def test_split_always_keeps_all_classes(self, seed, ratio):
        train, val = data.split_train_val(self.balanced_domain(20), ratio, seed=seed)
        assert set(np.unique(train.y)) == {0, 1}
        assert set(np.unique(val.y)) == {0, 1}


class TestCache:
    def test_round_trip(self, tmp_path):
        domains = data.gen_rplate(data.default_spec("rplate", seed=2, num_domains=4, samples_per_domain=30))
        path = tmp_path / "cache.bin"
        data.save_domains(path, domains)
        loaded = data.load_domains(path)
        assert len(loaded) == 4
        for a, b in zip(domains, loaded):
            assert a.index == b.index and a.num_classes == b.num_classes
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 8)
        with pytest.raises(data.IngestionError, match="bad magic"):
            data.load_domains(path)


def test_domain_data_validation():
    with pytest.raises(ValueError, match="classes"):
        data.DomainData(0, np.zeros((3, 2)), np.zeros(3, dtype=int), num_classes=2)
    with pytest.raises(ValueError, match="non-finite"):
        data.DomainData(0, np.array([[np.inf, 0.0], [0.0, 0.0]]), np.array([0, 1]), 2)
