"""Procedural 28×28 glyphs written as big-endian IDX files.

Stands in for MNIST so the rotated-digit path (IDX ingest, rotation, the
784-dim backbones) runs without a download. Each of the ten classes is a
fixed set of strokes drawn once from the seed; every image redraws its
class's strokes shifted by up to 2 px, with jittered end points, width and
ink, over faint background noise. Nothing here imports the package under
test.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
NUM_CLASSES = 10
STROKES = 3
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def make_glyphs(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uint8 images (count × 28 × 28) and their labels, balanced
    over the ten classes and shuffled; a pure function of ``seed``."""
    rng = np.random.default_rng([seed, 784])
    templates = rng.uniform(6.0, 21.0, size=(NUM_CLASSES, STROKES, 2, 2))
    labels = rng.permutation(np.arange(count) % NUM_CLASSES)
    shift = rng.uniform(-2.0, 2.0, size=(count, 1, 1, 2))
    ends = templates[labels] + shift + rng.normal(0.0, 1.2, size=(count, STROKES, 2, 2))
    width = rng.uniform(0.9, 1.6, size=(count, 1))
    ink = rng.uniform(180.0, 255.0, size=(count, 1))
    noise = rng.uniform(0.0, 40.0, size=(count, SIDE * SIDE))
    rr, cc = np.meshgrid(np.arange(SIDE), np.arange(SIDE), indexing="ij")
    py, px = rr.ravel().astype(np.float64), cc.ravel().astype(np.float64)
    d2 = np.full((count, SIDE * SIDE), np.inf)
    for s in range(STROKES):
        (ay, ax), (by, bx) = ends[:, s, 0].T[:, :, None], ends[:, s, 1].T[:, :, None]
        vy, vx = by - ay, bx - ax
        t = np.clip(((py - ay) * vy + (px - ax) * vx) / np.maximum(vy * vy + vx * vx, 1e-9), 0.0, 1.0)
        np.minimum(d2, (py - ay - t * vy) ** 2 + (px - ax - t * vx) ** 2, out=d2)
    level = np.clip(width + 0.5 - np.sqrt(d2), 0.0, 1.0) * ink
    images = np.clip(np.maximum(level, noise), 0.0, 255.0).astype(np.uint8)
    return images.reshape(count, SIDE, SIDE), labels.astype(np.uint8)


def write_idx(directory: Path, images: np.ndarray, labels: np.ndarray) -> tuple[Path, Path]:
    """Write the classic IDX pair; returns (image path, label path)."""
    directory.mkdir(parents=True, exist_ok=True)
    img_path = directory / "glyphs-images-idx3-ubyte"
    lbl_path = directory / "glyphs-labels-idx1-ubyte"
    n, rows, cols = images.shape
    img_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.tobytes())
    return img_path, lbl_path
