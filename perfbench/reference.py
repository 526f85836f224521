"""Reference computations that do not go through the package under test.

Each one re-derives a figure the package reports from its documented file
formats or from textbook identities, so a check against it catches a fast
path that changes results.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"EDGCKPT1"
DATA_MAGIC = b"EDGDATA1"


def entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def js_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """JS(P, Q) = H(M) - H(P)/2 - H(Q)/2 with M = (P + Q)/2, in nats."""
    return entropy(0.5 * (p + q)) - 0.5 * entropy(p) - 0.5 * entropy(q)


def read_checkpoint(path: Path) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Networks from the checkpoint format: magic, u32 version, u32 net count;
    per net a u32 layer count, (out, in) u32 pairs, then each layer's
    little-endian float64 weight (out × in) and bias (out)."""
    buf = path.read_bytes()
    if buf[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    version, n_nets = struct.unpack_from("<II", buf, 8)
    if version != 1:
        raise ValueError(f"{path}: checkpoint version {version}")
    pos = 16
    nets = []
    for _ in range(n_nets):
        (n_layers,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        shapes = [struct.unpack_from("<II", buf, pos + 8 * i) for i in range(n_layers)]
        pos += 8 * n_layers
        layers = []
        for out_d, in_d in shapes:
            w = np.frombuffer(buf, "<f8", out_d * in_d, pos).reshape(out_d, in_d)
            pos += 8 * out_d * in_d
            b = np.frombuffer(buf, "<f8", out_d, pos)
            pos += 8 * out_d
            layers.append((w, b))
        nets.append(layers)
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} bytes after the last network")
    return nets


def read_domains(path: Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(x, y) per domain from the dataset cache format: magic, u32 count; per
    domain u32 index, n, dim, classes, then n int64 labels and n × dim
    float64 features, all little-endian."""
    buf = path.read_bytes()
    if buf[:8] != DATA_MAGIC:
        raise ValueError(f"{path}: bad cache magic")
    (count,) = struct.unpack_from("<I", buf, 8)
    pos = 12
    domains = []
    for _ in range(count):
        _, n, dim, _ = struct.unpack_from("<IIII", buf, pos)
        pos += 16
        y = np.frombuffer(buf, "<i8", n, pos)
        pos += 8 * n
        x = np.frombuffer(buf, "<f8", n * dim, pos).reshape(n, dim)
        pos += 8 * n * dim
        domains.append((x, y))
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} bytes after the last domain")
    return domains


def relu_mlp(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Dense layers, ReLU between them, identity output."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w.T + b
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def nearest_prototype_correct(
    f_phi, f_psi, support: tuple[np.ndarray, np.ndarray], query: tuple[np.ndarray, np.ndarray]
) -> int:
    """Correct predictions on ``query`` when each class prototype is the mean
    ``f_phi`` embedding of its ``support`` samples and each query takes the
    class of the nearest prototype under ``f_psi`` (ties to the lowest)."""
    xs, ys = support
    xq, yq = query
    classes = int(ys.max()) + 1
    zs = relu_mlp(f_phi, xs)
    protos = np.stack([zs[ys == k].mean(axis=0) for k in range(classes)])
    zq = relu_mlp(f_psi, xq)
    d2 = ((zq[:, None, :] - protos[None, :, :]) ** 2).sum(axis=-1)
    return int(np.sum(np.argmin(d2, axis=1) == yq))
