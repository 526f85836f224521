"""edglab benchmark: one workload per invocation, metrics as the last line.

    python3 perfbench/run.py --workload search-2d --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of that
checkout and nowhere else. A run sets up the workload several times (the
median is ``setup_s``), then repeats whole rounds of the workload while the
next round is expected to end within ``--seconds``; every round is checked
against references computed apart from the package. ``--trace 1`` adds one
traced set-up and one traced round after the untraced ones and reports
per-layer figures instead of end-to-end ones. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import edglab.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "result_score": "fraction",
}

# Per-layer metric -> unit. Times and counts cover one traced set-up plus
# one traced round; a layer the workload does not use reads 0.
PER_LAYER = {
    "harness.random_search.self_s": "s",
    "harness.run_single.calls": "count",
    "dpnet.sample_episode.s": "s",
    "dpnet.sample_episode.calls": "count",
    "dpnet.episode_loss.self_s": "s",
    "dpnet.compute_prototypes.calls": "count",
    "dpnet.predict_with_prototypes.calls": "count",
    "dpnet.predict_target.s": "s",
    "nn.mlp_forward.s": "s",
    "nn.mlp_forward.calls": "count",
    "nn.mlp_backward.s": "s",
    "nn.step_mlps.s": "s",
    "nn.gemm_flop": "flop",
    "nn.gemm_gflop_per_s": "GFLOP/s",
    "nn.save_checkpoint.s": "s",
    "nn.load_checkpoint.s": "s",
    "nn.checkpoint_bytes": "bytes",
    "baselines.train_erm.s": "s",
    "baselines.train_erm.calls": "count",
    "baselines.predict_erm.s": "s",
    "data.generate.s": "s",
    "data.load_rmnist.s": "s",
    "data.rotate_image.calls": "count",
    "data.rotate_image.s": "s",
    "data.save_domains.s": "s",
    "data.load_domains.s": "s",
    "data.cache_bytes": "bytes",
    "bounds.js.calls": "count",
    "bounds.kl.calls": "count",
    "bounds.js.self_s": "s",
    "bounds.kl.self_s": "s",
    "bounds.apply_map.calls": "count",
    "bounds.apply_map.s": "s",
    "bounds.find_minimax_map.s": "s",
    "bounds.js_decomposition_gap.s": "s",
    "bounds.verify_change_of_measure.s": "s",
    "cli.cmd_train.self_s": "s",
    "cli.cmd_eval.self_s": "s",
    "trace.overhead_s": "s",
}
# These two count only calls made inside dpnet.train.
IN_TRAINING = {
    "dpnet.compute_prototypes.calls": "dpnet.compute_prototypes.train_calls",
    "dpnet.predict_with_prototypes.calls": "dpnet.predict_with_prototypes.train_calls",
}


def import_package():
    """Import edglab from this checkout's src/ only; fail without it."""
    src = ROOT / "src"
    if not (src / "edglab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'edglab'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import edglab

    if Path(edglab.__file__).resolve().parent != (src / "edglab").resolve():
        sys.exit(f"perfbench: imported edglab from {edglab.__file__}, not from {src}")
    import tracing
    import workloads

    return tracing, workloads


def import_seconds() -> float:
    """Time to import the whole package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def describe_machine() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = "unknown"
    return (
        f"machine nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas} threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search-2d", "image-784", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread in all: the workloads are closed loops in this process, and
    # on a shared 2-core machine a second BLAS thread made image-784 rounds
    # spread 0.10 of their median against 0.04 with one. Set before numpy
    # loads; the import probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    tracing, workloads = import_package()
    print(describe_machine())

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)

        walls, verdicts = [], []
        t_begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            outputs = workload.run()
            walls.append(time.perf_counter() - t0)
            verdicts.append(workload.verify(outputs))
            if time.perf_counter() - t_begin + statistics.median(walls) > args.seconds:
                break

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                workload.setup()
                t0 = time.perf_counter()
                outputs = workload.run()
                traced_wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            verdicts.append(workload.verify(outputs))
            tracer.write(OUT / f"trace-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(verdicts) * len(workload.ops)
    failed = sum(v.failed for v in verdicts)
    problems = [f"{op}: {msg}" for v in verdicts for op, msgs in v.problems.items() for msg in msgs]
    # Same inputs, same bytes: a round whose digest differs from the first
    # round's breaks the package's determinism guarantee.
    drifted = sum(v.digest != verdicts[0].digest for v in verdicts[1:])
    failed = min(failed + drifted, attempted)
    if drifted:
        problems.append(f"determinism: {drifted} round(s) digest differently from the first")
    digests = {v.digest for v in verdicts}
    wall = statistics.median(walls)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": statistics.median(v.work for v in verdicts) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result_score": statistics.median(v.score for v in verdicts),
        }
        units = END_TO_END
    else:
        layers = tracer.layer_metrics()
        gemm_s = layers["nn.mlp_forward.s"] + layers["nn.mlp_backward.s"]
        metrics = {name: layers.get(IN_TRAINING.get(name, name), 0) for name in PER_LAYER}
        metrics["nn.gemm_gflop_per_s"] = layers.get("nn.gemm_flop", 0) / gemm_s / 1e9 if gemm_s > 0 else 0.0
        metrics["trace.overhead_s"] = traced_wall - wall
        units = PER_LAYER

    for msg in problems:
        print(f"FAIL {msg}")
    print(f"rounds {len(walls)}, round wall {[round(w, 3) for w in walls]}")
    print(f"setup import {[round(s, 3) for s in imports]}, workload {[round(s, 3) for s in setups]}")
    print(f"digest {args.workload} {' '.join(sorted(digests))}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
