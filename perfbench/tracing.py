"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function, in every ``edglab`` module
that holds it, with a wrapper that records one span: name, start, end and
the enclosing span. The package calls these functions through module
attributes, so calls made inside the package are caught too. Spans stay in
flat arrays until ``write``; ``layer_metrics`` turns them into the per-layer
figures the benchmark reports.
"""
from __future__ import annotations

import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, function) pairs wrapped in a traced run, one entry per layer
# boundary the per-layer metrics name.
TRACED = {
    "data": ("generate", "load_rmnist", "rotate_image", "save_domains", "load_domains"),
    "nn": ("mlp_forward", "mlp_backward", "step_mlps", "save_checkpoint", "load_checkpoint"),
    "dpnet": (
        "train",
        "sample_episode",
        "episode_loss",
        "compute_prototypes",
        "predict_with_prototypes",
        "predict_target",
    ),
    "baselines": ("train_erm", "predict_erm"),
    "bounds": (
        "js",
        "kl",
        "apply_map",
        "find_minimax_map",
        "js_decomposition_gap",
        "verify_change_of_measure",
    ),
    "harness": ("random_search", "run_single"),
    "cli": ("cmd_train", "cmd_eval"),
}


def _gemm_flop_forward(args) -> int:
    params, batch = args[0], args[1]
    dims = params.dims
    rows = np.shape(batch)[0]
    return sum(2 * rows * i * o for i, o in zip(dims[:-1], dims[1:]))


def _gemm_flop_backward(args) -> int:
    # Two GEMMs per layer: the weight gradient and the input gradient.
    params, cache = args[0], args[1]
    dims = params.dims
    rows = cache.inputs[0].shape[0]
    return sum(4 * rows * i * o for i, o in zip(dims[:-1], dims[1:]))


def _file_bytes(args) -> int:
    return os.path.getsize(args[0])


# Counters computed at a span's boundary from the call's arguments.
COUNTERS = {
    "nn.mlp_forward": ("nn.gemm_flop", _gemm_flop_forward),
    "nn.mlp_backward": ("nn.gemm_flop", _gemm_flop_backward),
    "nn.save_checkpoint": ("nn.checkpoint_bytes", _file_bytes),
    "data.save_domains": ("data.cache_bytes", _file_bytes),
}


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, stack = self.name_ids, self.parents, self.starts, self.ends, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                key, count = counter
                self.counters[key] = self.counters.get(key, 0) + count(args)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("edglab.") and m is not None]
        for mod_name, fn_names in TRACED.items():
            module = sys.modules[f"edglab.{mod_name}"]
            for fn_name in fn_names:
                fn = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
                # Rebind the function wherever it was imported by name, so a
                # call through any module reaches the same wrapper.
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Spans as ``.npz`` arrays plus a JSON side file naming the ids."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.spans())
        path.with_suffix(".json").write_text(
            json.dumps({"names": self.names, "counters": self.counters}, indent=1)
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-name call counts, total and self seconds, counts inside
        ``dpnet.train`` and the recorded counters."""
        sp = self.spans()
        n_names = len(self.names)
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        ids = sp["name_id"]
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        self_total = np.bincount(ids, weights=self_time, minlength=n_names)
        # A span lies inside a dpnet.train call iff its start falls inside
        # one; train calls never nest, so their intervals are disjoint.
        train = ids == self.names.index("dpnet.train")
        in_train_calls = np.zeros(n_names, dtype=np.int64)
        if train.any():
            t_start, t_end = sp["start"][train], sp["end"][train]
            pos = np.searchsorted(t_start, sp["start"], side="right") - 1
            inside = (pos >= 0) & (sp["end"] <= t_end[np.maximum(pos, 0)]) & ~train
            in_train_calls = np.bincount(ids[inside], minlength=n_names)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(self_total[i])
            out[f"{name}.train_calls"] = int(in_train_calls[i])
        out.update(self.counters)
        return out
