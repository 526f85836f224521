"""Synthetic evolving-domain datasets and the rotated-MNIST ingest path.

Each generator is a pure function of its ``EnvironmentSpec``: identical specs
produce bit-identical domain sequences. A dataset is an ordered list of
``DomainData``; by convention the last domain is the held-out target and is
never touched during training.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .files import Reader, write_atomic
from .seeding import child_rng

Array = np.ndarray

KINDS = ("evolcircle", "rplate", "rotatedcloud", "rmnist")

DATA_MAGIC = b"EDGDATA1"

# Smallest per-class count a generated domain must provide (prototype support
# plus a stratified split both need at least two samples per class).
MIN_CLASS_COUNT = 2

# Geometry of the 2-D generators.
SIGMA = 0.35  # isotropic noise of the Gaussian classes (evolcircle, rotatedcloud)
EVOLCIRCLE_RADIUS, EVOLCIRCLE_OFFSET = 2.0, 0.5
CLOUD_RADIUS = 1.0
RPLATE_STEP_DEGREES = 12.0


class ConfigurationError(ValueError):
    """Invalid environment specification."""


class IngestionError(RuntimeError):
    """Malformed source data file."""


class SplitError(ConfigurationError):
    """A stratified split cannot keep every class on both sides."""


@dataclass(frozen=True)
class DomainData:
    """One labeled sample set drawn from a single domain of the environment."""

    index: int
    x: Array  # n × d, float64
    y: Array  # n, int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.int64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"domain {self.index}: samples must be a non-empty n×d matrix")
        if y.shape != (x.shape[0],):
            raise ValueError(f"domain {self.index}: {x.shape[0]} samples but {y.shape} labels")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"domain {self.index}: non-finite feature values")
        if y.min() < 0 or y.max() >= self.num_classes:
            raise ValueError(f"domain {self.index}: labels outside [0, {self.num_classes})")
        present = np.unique(y)
        if len(present) != self.num_classes:
            missing = sorted(set(range(self.num_classes)) - set(present.tolist()))
            raise ValueError(f"domain {self.index}: classes {missing} absent")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @cached_property
    def class_index(self) -> tuple[Array, ...]:
        """Ascending sample indices of each class, computed once per domain
        (labels are fixed after construction) and read-only."""
        order = np.argsort(self.y, kind="stable")
        order.flags.writeable = False
        return tuple(np.split(order, np.cumsum(np.bincount(self.y, minlength=self.num_classes))[:-1]))


@dataclass(frozen=True)
class EnvironmentSpec:
    """Recipe for one evolving environment (sources plus final target domain)."""

    kind: str
    num_domains: int
    samples_per_domain: int
    domain_distance: float = 10.0  # degrees; used by rotatedcloud / rmnist
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown dataset kind {self.kind!r} (expected one of {KINDS})")
        if self.num_domains < 3:
            raise ConfigurationError("num_domains must be at least 3")
        if not np.isfinite(self.domain_distance):
            raise ConfigurationError(f"domain_distance must be finite, got {self.domain_distance}")
        k = self.num_classes
        if self.samples_per_domain < k * MIN_CLASS_COUNT:
            raise ConfigurationError(
                f"samples_per_domain={self.samples_per_domain} cannot cover "
                f"{k} classes with {MIN_CLASS_COUNT} samples each"
            )

    @property
    def num_classes(self) -> int:
        return 10 if self.kind == "rmnist" else 2


def default_spec(kind: str, seed: int = 0, **overrides) -> EnvironmentSpec:
    """Per-dataset defaults; keyword overrides win."""
    base = {
        "evolcircle": dict(num_domains=30, samples_per_domain=220),
        "rplate": dict(num_domains=30, samples_per_domain=220),
        "rotatedcloud": dict(num_domains=12, samples_per_domain=200, domain_distance=10.0),
        "rmnist": dict(num_domains=12, samples_per_domain=200, domain_distance=10.0),
    }
    if kind not in base:
        raise ConfigurationError(f"unknown dataset kind {kind!r}")
    params = dict(base[kind])
    params.update(overrides)
    return EnvironmentSpec(kind=kind, seed=seed, **params)


def _unit(angle_rad: float) -> Array:
    return np.array([np.cos(angle_rad), np.sin(angle_rad)])


def _rotation(angle_rad: float) -> Array:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s], [s, c]])


def gen_evolcircle(spec: EnvironmentSpec) -> list[DomainData]:
    """Two Gaussian classes whose centers travel along a half-circle.

    Domain i sits at angle pi*i/(num_domains-1); its class centers lie at radius
    ``radius -/+ offset`` along that direction, both with isotropic noise
    ``sigma``. The last domain extrapolates past everything seen in training.
    """
    if spec.kind != "evolcircle":
        raise ConfigurationError(f"gen_evolcircle got spec kind {spec.kind!r}")
    radius, offset, sigma = EVOLCIRCLE_RADIUS, EVOLCIRCLE_OFFSET, SIGMA
    n = spec.samples_per_domain
    n0 = n // 2
    domains = []
    for i in range(spec.num_domains):
        theta = np.pi * i / (spec.num_domains - 1)
        u = _unit(theta)
        rng = child_rng(spec.seed, "evolcircle", i)
        centers = [(radius - offset) * u, (radius + offset) * u]
        counts = [n0, n - n0]
        xs, ys = [], []
        for k, (center, nk) in enumerate(zip(centers, counts)):
            xs.append(center + sigma * rng.standard_normal((nk, 2)))
            ys.append(np.full(nk, k, dtype=np.int64))
        domains.append(DomainData(i, np.vstack(xs), np.concatenate(ys), num_classes=2))
    return domains


def gen_rplate(spec: EnvironmentSpec) -> list[DomainData]:
    """Fixed standard-normal features; the labeling half-plane rotates.

    Domain i labels x as 1 iff w(alpha_i)·x >= 0 with alpha_i = i*step degrees
    (``RPLATE_STEP_DEGREES``, 12, giving boundaries 0..348 over 30 domains). Points
    exactly on the boundary take label 1.
    """
    if spec.kind != "rplate":
        raise ConfigurationError(f"gen_rplate got spec kind {spec.kind!r}")
    domains = []
    for i in range(spec.num_domains):
        rng = child_rng(spec.seed, "rplate", i)
        # Redraw (deterministically) in the never-seen case of a one-class draw.
        for attempt in range(64):
            x = rng.standard_normal((spec.samples_per_domain, 2))
            y = rplate_label(x, i)
            if len(np.unique(y)) == 2:
                break
        else:
            raise ConfigurationError(f"rplate domain {i}: could not draw both classes")
        domains.append(DomainData(i, x, y, num_classes=2))
    return domains


def rplate_label(x: Array, domain_index: int) -> Array:
    """Labeling rule applied independently of generation (re-labeling oracle)."""
    alpha = np.deg2rad(domain_index * RPLATE_STEP_DEGREES)
    w = _unit(alpha)
    return (np.asarray(x) @ w >= 0.0).astype(np.int64)


def gen_rotated_cloud(spec: EnvironmentSpec) -> list[DomainData]:
    """A fixed two-blob labeled point cloud, rigidly rotated per domain.

    The base cloud is drawn once (two isotropic Gaussian blobs); domain i is
    that same point set rotated by i*domain_distance degrees. Labels never
    change, so within-domain geometry is exactly preserved across domains.
    """
    if spec.kind != "rotatedcloud":
        raise ConfigurationError(f"gen_rotated_cloud got spec kind {spec.kind!r}")
    radius, sigma = CLOUD_RADIUS, SIGMA
    n = spec.samples_per_domain
    n0 = n // 2
    rng = child_rng(spec.seed, "rotatedcloud", "base")
    centers = [np.array([-radius, 0.0]), np.array([radius, 0.0])]
    xs, ys = [], []
    for k, center in enumerate(centers):
        nk = n0 if k == 0 else n - n0
        xs.append(center + sigma * rng.standard_normal((nk, 2)))
        ys.append(np.full(nk, k, dtype=np.int64))
    base_x = np.vstack(xs)
    base_y = np.concatenate(ys)
    domains = []
    for i in range(spec.num_domains):
        rot = _rotation(np.deg2rad(i * spec.domain_distance))
        domains.append(DomainData(i, base_x @ rot.T, base_y, num_classes=2))
    return domains


def generate(spec: EnvironmentSpec) -> list[DomainData]:
    """Dispatch on spec.kind (rmnist needs file paths; use load_rmnist)."""
    if spec.kind == "evolcircle":
        return gen_evolcircle(spec)
    if spec.kind == "rplate":
        return gen_rplate(spec)
    if spec.kind == "rotatedcloud":
        return gen_rotated_cloud(spec)
    raise ConfigurationError(f"generate() cannot build {spec.kind!r} without source files")


# ---------------------------------------------------------------------------
# IDX ingestion and image rotation
# ---------------------------------------------------------------------------

IDX_IMAGE_MAGIC = b"\x00\x00\x08\x03"  # big-endian 0x803: unsigned bytes, 3 dims
IDX_LABEL_MAGIC = b"\x00\x00\x08\x01"  # 0x801: unsigned bytes, 1 dim


def read_idx_images(path) -> Array:
    """Strict IDX image reader: big-endian magic 0x803, dims, row-major bytes."""
    reader = Reader(path, IDX_IMAGE_MAGIC, IngestionError)
    count, rows, cols = reader.unpack(">III")
    pixels = reader.array("u1", count * rows * cols)
    reader.end()
    return pixels.reshape(count, rows, cols)


def read_idx_labels(path) -> Array:
    reader = Reader(path, IDX_LABEL_MAGIC, IngestionError)
    (count,) = reader.unpack(">I")
    labels = reader.array("u1", count)
    reader.end()
    return labels.astype(np.int64)


def rotate_image(img: Array, degrees: float) -> Array:
    """Rotate an image, or each image of a stack ``(..., h, w)``, about its
    center: bilinear interpolation, out-of-bounds = 0. The sampling grid and
    the four bilinear weights are built once for the whole stack."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # Inverse map: sample the source at the backward-rotated position.
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
        out[..., valid] += wgt[valid] * img[..., yy[valid], xx[valid]]
    return out


def load_rmnist(idx_image_path, idx_label_path, spec: EnvironmentSpec) -> list[DomainData]:
    """Rotated-digit domains from raw IDX files.

    Selects ``num_domains * samples_per_domain`` instances (seeded, default
    2400), splits them into equal disjoint groups, rotates group i by
    i*domain_distance degrees (one ``rotate_image`` call per group), and
    flattens 28×28 to 784 reals in [0, 1].
    """
    if spec.kind != "rmnist":
        raise ConfigurationError(f"load_rmnist got spec kind {spec.kind!r}")
    images = read_idx_images(idx_image_path)
    labels = read_idx_labels(idx_label_path)
    if images.shape[0] != labels.shape[0]:
        raise IngestionError(
            f"{idx_image_path} has {images.shape[0]} images but "
            f"{idx_label_path} has {labels.shape[0]} labels"
        )
    total = spec.num_domains * spec.samples_per_domain
    if images.shape[0] < total:
        raise IngestionError(f"{idx_image_path}: need {total} instances, file has {images.shape[0]}")
    rng = child_rng(spec.seed, "rmnist", "select")
    # Keep drawing candidate pools until every group covers all 10 digits
    # (a miss is astronomically unlikely at 200 samples per group).
    for attempt in range(64):
        chosen = rng.choice(images.shape[0], size=total, replace=False)
        groups = chosen.reshape(spec.num_domains, spec.samples_per_domain)
        if all(len(np.unique(labels[g])) == spec.num_classes for g in groups):
            break
    else:
        raise IngestionError(f"{idx_image_path}: could not cover all classes in every domain")
    domains = []
    for i, group in enumerate(groups):
        angle = i * spec.domain_distance
        block = rotate_image(images[group], angle) if angle != 0.0 else images[group].astype(np.float64)
        flat = block.reshape(len(group), -1) / 255.0
        domains.append(DomainData(i, flat, labels[group], num_classes=spec.num_classes))
    return domains


# ---------------------------------------------------------------------------
# Splits and caching
# ---------------------------------------------------------------------------


def split_train_val(domain: DomainData, ratio: float, seed: int) -> tuple[DomainData, DomainData]:
    """Disjoint stratified split; both halves keep every class; union = input."""
    if not 0.0 < ratio < 1.0:
        raise SplitError(f"ratio must be in (0, 1), got {ratio}")
    rng = child_rng(seed, "split", domain.index)
    train_idx, val_idx = [], []
    for k, idx in enumerate(domain.class_index):
        if len(idx) < 2:
            raise SplitError(f"domain {domain.index} class {k} has {len(idx)} sample(s); need at least 2 to split")
        idx = rng.permutation(idx)
        n_train = int(round(ratio * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(idx[:n_train])
        val_idx.append(idx[n_train:])
    tr = np.sort(np.concatenate(train_idx))
    va = np.sort(np.concatenate(val_idx))
    make = lambda sel: DomainData(domain.index, domain.x[sel], domain.y[sel], domain.num_classes)
    return make(tr), make(va)


def save_domains(path, domains: list[DomainData]) -> None:
    """Portable binary cache: magic, domain count, per-domain dims + LE payloads."""
    chunks = [DATA_MAGIC, struct.pack("<I", len(domains))]
    for d in domains:
        chunks.append(struct.pack("<IIII", d.index, d.n, d.dim, d.num_classes))
        chunks.append(np.ascontiguousarray(d.y, dtype="<i8").tobytes())
        chunks.append(np.ascontiguousarray(d.x, dtype="<f8").tobytes())
    write_atomic(path, b"".join(chunks))


def load_domains(path) -> list[DomainData]:
    reader = Reader(path, DATA_MAGIC, IngestionError)
    (count,) = reader.unpack("<I")
    domains = []
    for _ in range(count):
        index, n, dim, k = reader.unpack("<IIII")
        y = reader.array("<i8", n)
        x = reader.array("<f8", n * dim).reshape(n, dim)
        try:
            domains.append(DomainData(index, x, y, num_classes=k))
        except ValueError as exc:
            raise IngestionError(f"{path}: {exc}") from None
    reader.end()
    return domains
