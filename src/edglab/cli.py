"""Single command-line entry point: data generation, training, evaluation,
sweeps, bound certification, and report (re-)emission.

Exit codes: 0 success, 1 experiment failure, 2 configuration/usage error.
Precedence for settings: explicit flags > --set overrides > --config file >
built-in defaults. Events are line-delimited JSON unless --quiet.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds, data, harness, nn
from .files import write_atomic

CACHE_ENV_VAR = "EDGLAB_CACHE_DIR"


class CliConfigError(ValueError):
    pass


class CliInputError(ValueError):
    """A file an earlier command wrote (sidecar, raw cell) is corrupt or incomplete."""


def _read_json_object(path: Path, what: str, error: type = CliInputError) -> dict:
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return payload


def emit(event: str, quiet: bool = False, **fields) -> None:
    if quiet:
        detail = " ".join(f"{k}={v}" for k, v in fields.items())
        print(f"{event}: {detail}")
    else:
        print(json.dumps({"event": event, **fields}, sort_keys=True))


def _parse_override(text: str):
    if "=" not in text:
        raise CliConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    return key, raw


def resolve_settings(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- --set overrides <- explicit flags."""
    settings = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise CliConfigError(f"config file not found: {path}")
        settings.update(_read_json_object(path, "config file", CliConfigError))
    for item in getattr(args, "set", None) or []:
        key, value = _parse_override(item)
        settings[key] = value
    for key in defaults:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            settings[key] = flag
    return settings


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="edglab-out", help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads for sweep and interp-study; the other subcommands ignore it",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one setting")
    parser.add_argument("--quiet", action="store_true", help="plain one-line logs instead of JSON")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"dataset cache directory (default from ${CACHE_ENV_VAR})",
    )


def _spec_from(settings: dict) -> data.EnvironmentSpec:
    overrides = {}
    if settings.get("num-domains") is not None:
        overrides["num_domains"] = int(settings["num-domains"])
    if settings.get("samples") is not None:
        overrides["samples_per_domain"] = int(settings["samples"])
    if settings.get("distance") is not None:
        overrides["domain_distance"] = float(settings["distance"])
    try:
        return data.default_spec(settings["dataset"], seed=int(settings["seed"]), **overrides)
    except data.ConfigurationError as exc:
        raise CliConfigError(str(exc))


def _idx_digest(images, labels) -> str:
    """Short sha256 of the rmnist IDX image and label bytes."""
    digest = hashlib.sha256(Path(images).read_bytes())
    digest.update(Path(labels).read_bytes())
    return digest.hexdigest()[:16]


def _load_dataset(settings: dict, quiet: bool, source_sha256: str | None = None):
    """Generate, ingest or read from the cache the dataset ``settings`` name.

    Returns the domains and, for rmnist, the digest of the IDX files that the
    cache name carries, so a cache built from other images is never reused.
    Without ``--images/--labels``, ``source_sha256`` from a sidecar stands in.
    """
    spec = _spec_from(settings)
    images, labels = settings.get("images"), settings.get("labels")
    tag = f"{spec.kind}-s{spec.seed}-m{spec.num_domains}-n{spec.samples_per_domain}-d{spec.domain_distance:g}"
    if spec.kind == "rmnist":
        if images and labels:
            source_sha256 = _idx_digest(images, labels)
        elif not source_sha256:
            raise CliConfigError("rmnist needs --images and --labels IDX paths")
        tag += f"-x{source_sha256}"
    cache_dir = settings.get("cache-dir") or os.environ.get(CACHE_ENV_VAR)
    cache_path = None
    if cache_dir:
        cache_path = Path(cache_dir) / f"{tag}.bin"
        if cache_path.exists():
            emit("dataset-cache-hit", quiet, path=str(cache_path))
            return data.load_domains(cache_path), source_sha256
    if spec.kind == "rmnist":
        if not images or not labels:
            raise CliConfigError("rmnist needs --images and --labels IDX paths")
        domains = data.load_rmnist(images, labels, spec)
    else:
        domains = data.generate(spec)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        data.save_domains(cache_path, domains)
        emit("dataset-cached", quiet, path=str(cache_path))
    return domains, source_sha256


# Dataset settings and the EnvironmentSpec fields a checkpoint sidecar pins.
SPEC_FIELDS = {
    "dataset": "kind",
    "seed": "seed",
    "num-domains": "num_domains",
    "samples": "samples_per_domain",
    "distance": "domain_distance",
}

DATASET_DEFAULTS = {
    "dataset": "evolcircle",
    "seed": 0,
    "num-domains": None,
    "samples": None,
    "distance": None,
    "images": None,
    "labels": None,
    "cache-dir": None,
}


def cmd_gen_data(args) -> int:
    settings = resolve_settings(args, DATASET_DEFAULTS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domains, _ = _load_dataset(settings, args.quiet)
    path = out / f"{settings['dataset']}.bin"
    data.save_domains(path, domains)
    emit(
        "gen-data",
        args.quiet,
        path=str(path),
        domains=len(domains),
        samples_per_domain=domains[0].n,
        feature_dim=domains[0].dim,
    )
    return 0


TRAIN_DEFAULTS = {
    **DATASET_DEFAULTS,
    "algo": "dpnets",
    "steps": 1000,
    "lr": 0.01,
    "batch": 16,
    "hidden": "",
    "embed": "",
}


def _parse_widths(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(v) for v in str(text).split(",") if v != "")
    except ValueError:
        raise CliConfigError(f"expected comma-separated widths, got {text!r}")


def _counts(settings: dict, keys: tuple[str, ...]) -> dict:
    """The named count settings as ints, each checked to be at least 1."""
    counts = {key: int(settings[key]) for key in keys}
    for key, count in counts.items():
        if count < 1:
            raise CliConfigError(f"--{key} must be at least 1, got {count}")
    return counts


def _method(algo):
    if algo not in harness.METHODS:
        raise CliConfigError(f"unknown algorithm {algo!r}; choose from {harness.ALGORITHMS}")
    return harness.METHODS[algo]


def cmd_train(args) -> int:
    settings = resolve_settings(args, TRAIN_DEFAULTS)
    algo = settings["algo"]
    method = _method(algo)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domains, source_sha256 = _load_dataset(settings, args.quiet)
    sources, target = domains[:-1], domains[-1]
    seed = int(settings["seed"])
    batch = int(settings["batch"])
    if batch < 1:
        raise CliConfigError(f"--batch must be at least 1, got {batch}")
    need = method.samples_needed(batch)
    fewest = min(len(idx) for d in sources for idx in d.class_index)
    if fewest < need:
        raise CliConfigError(
            f"--batch {batch} needs {need} samples per class in every source domain "
            f"for {algo}; the smallest class holds {fewest}"
        )
    hparams = {
        "steps": int(settings["steps"]),
        "lr": float(settings["lr"]),
        "batch": batch,
        "embed": _parse_widths(settings["embed"]) or (sources[0].dim,),
        "hidden": _parse_widths(settings["hidden"]),
    }
    progress = None if args.quiet else lambda s, l: s % 200 == 0 and emit("train-step", False, step=s, loss=l)
    model = method.fit(sources, hparams, seed, progress=progress)
    ckpt_path = out / "model.ckpt"
    nn.save_checkpoint(ckpt_path, method.nets(model))
    spec = _spec_from(settings)
    sidecar = {
        "algo": algo,
        "dataset": settings["dataset"],
        "seed": seed,
        "num_classes": sources[0].num_classes,
        "feature_dim": sources[0].dim,
        "num_domains_seen": len(sources),
        "spec": {name: getattr(spec, name) for name in SPEC_FIELDS.values()},
        **method.sidecar(model),
    }
    if source_sha256 is not None:
        sidecar["spec"]["source_sha256"] = source_sha256
    write_atomic(out / "model.json", json.dumps(sidecar, sort_keys=True, indent=1))
    acc = harness.evaluate_accuracy(lambda x: method.predict(model, sources, x), target)
    digest = hashlib.sha256(ckpt_path.read_bytes()).hexdigest()
    emit(
        "train",
        args.quiet,
        algo=algo,
        dataset=settings["dataset"],
        target_accuracy=acc,
        checkpoint=str(ckpt_path),
        checkpoint_sha256=digest,
    )
    return 0


EVAL_DEFAULTS = {**DATASET_DEFAULTS, "dataset": None, "seed": None, "checkpoint": None}


def cmd_eval(args) -> int:
    settings = resolve_settings(args, EVAL_DEFAULTS)
    ckpt = settings.get("checkpoint")
    if not ckpt:
        raise CliConfigError("--checkpoint is required")
    sidecar_path = Path(ckpt).with_suffix(".json")
    if not sidecar_path.exists():
        raise CliConfigError(f"missing checkpoint sidecar {sidecar_path}")
    sidecar = _read_json_object(sidecar_path, "checkpoint sidecar")
    saved = sidecar.get("spec")
    if "algo" not in sidecar or not isinstance(saved, dict) or not set(SPEC_FIELDS.values()) <= saved.keys():
        raise CliInputError(f"checkpoint sidecar {sidecar_path} lacks the algo or spec fields train writes")
    method = _method(sidecar["algo"])
    # The sidecar pins the training environment; flags may override any part.
    for key, name in SPEC_FIELDS.items():
        if settings.get(key) is None:
            settings[key] = saved[name]
    domains, _ = _load_dataset(settings, args.quiet, saved.get("source_sha256"))
    sources, target = domains[:-1], domains[-1]
    try:
        model = method.load(nn.load_checkpoint(ckpt), sidecar)
    except KeyError as exc:
        raise CliInputError(f"checkpoint sidecar {sidecar_path} lacks {exc}")
    acc = harness.evaluate_accuracy(lambda x: method.predict(model, sources, x), target)
    emit("eval", args.quiet, algo=sidecar["algo"], dataset=settings["dataset"], target_accuracy=acc)
    return 0


SWEEP_DEFAULTS = {
    **DATASET_DEFAULTS,
    "dataset": "rotatedcloud",
    "axis": "distance",
    "values": "3,5,7,10,15,20",
    "algos": "dpnets,erm",
    "trials": 20,
    "n-seeds": 5,
    "strategy": "oracle_max_query",
    "workers": 1,
}


def cmd_sweep(args) -> int:
    settings = resolve_settings(args, SWEEP_DEFAULTS)
    sizes = _counts(settings, ("trials", "n-seeds"))
    axis = {"distance": "domain_distance", "count": "domain_count"}.get(settings["axis"])
    if axis is None:
        raise CliConfigError(f"--axis must be 'distance' or 'count', got {settings['axis']!r}")
    try:
        values = tuple(float(v) if axis == "domain_distance" else int(v) for v in str(settings["values"]).split(","))
    except ValueError:
        raise CliConfigError(f"bad --values list {settings['values']!r}")
    algos = tuple(str(settings["algos"]).split(","))
    for a in algos:
        if a not in harness.ALGORITHMS:
            raise CliConfigError(f"unknown algorithm {a!r}")
    base_spec = _spec_from(settings)
    try:
        sweep = harness.SweepConfig(axis=axis, values=values, base_spec=base_spec, algorithms=algos)
    except ValueError as exc:
        raise CliConfigError(str(exc))
    cells = harness.run_sweep(
        sweep,
        n_trials=sizes["trials"],
        n_seeds=sizes["n-seeds"],
        strategy=harness.SelectionStrategy(settings["strategy"]),
        master_seed=int(settings["seed"]),
        workers=int(settings["workers"]),
    )
    out = Path(args.out)
    paths = harness.emit_report(cells, out)
    failed = [c for c in cells if c.error]
    emit("sweep", args.quiet, cells=len(cells), failed=len(failed), **{k: v for k, v in paths.items() if k != "raw"})
    return 1 if failed else 0


INTERP_DEFAULTS = {
    **DATASET_DEFAULTS,
    "dataset": "rotatedcloud",
    "counts": "5,7,9,11",
    "trials": 3,
    "n-seeds": 3,
    "strategy": "oracle_max_query",
    "workers": 1,
}


def cmd_interp_study(args) -> int:
    settings = resolve_settings(args, INTERP_DEFAULTS)
    sizes = _counts(settings, ("trials", "n-seeds"))
    try:
        counts = tuple(int(v) for v in str(settings["counts"]).split(","))
    except ValueError:
        raise CliConfigError(f"bad --counts list {settings['counts']!r}")
    base_spec = _spec_from(settings)
    for count in counts:  # every study environment is valid before any training
        _spec_from({**settings, "num-domains": count})
    cells = harness.run_interpolation_study(
        base_spec,
        counts,
        n_trials=sizes["trials"],
        n_seeds=sizes["n-seeds"],
        strategy=harness.SelectionStrategy(settings["strategy"]),
        master_seed=int(settings["seed"]),
        workers=int(settings["workers"]),
    )
    out = Path(args.out)
    paths = harness.emit_report(cells, out, name="interpolation")
    emit("interp-study", args.quiet, cells=len(cells), **{k: v for k, v in paths.items() if k != "raw"})
    return 0


BOUNDS_DEFAULTS = {
    "instances": 1000,
    "decomposition-pairs": 10000,
    "seed": 0,
    "workers": 1,
    "env-json": None,
}


def cmd_verify_bounds(args) -> int:
    settings = resolve_settings(args, BOUNDS_DEFAULTS)
    counts = _counts(settings, ("instances", "decomposition-pairs"))
    results = bounds.run_certification(
        instances=counts["instances"],
        decomposition_pairs=counts["decomposition-pairs"],
        seed=int(settings["seed"]),
        workers=int(settings["workers"]),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {"results": [r.to_dict() for r in results], "all_passed": all(r.passed for r in results)}
    if settings.get("env-json"):
        env_path = Path(settings["env-json"])
        if not env_path.exists():
            raise CliConfigError(f"environment file not found: {env_path}")
        payload = _read_json_object(env_path, "environment file", CliConfigError)
        try:
            env = bounds.env_from_dict(payload)
        except (ValueError, KeyError) as exc:
            raise CliConfigError(f"bad environment file {env_path}: {exc}")
        env_slacks = [s.to_dict() for s in bounds.certify_env(env)]
        report["environment"] = {"path": str(env_path), "slacks": env_slacks}
        report["all_passed"] = report["all_passed"] and all(
            s["slack"] >= -bounds.SLACK_TOL for s in env_slacks
        )
    json_path = out / "slack_report.json"
    write_atomic(json_path, json.dumps(report, sort_keys=True, indent=1))
    lines = ["| check | instances | min slack | status |", "|---|---|---|---|"]
    for r in results:
        lines.append(
            f"| {r.name} | {r.instances} | {r.min_slack:.3e} | {'pass' if r.passed else 'FAIL'} |"
        )
    md_path = out / "slack_summary.md"
    write_atomic(md_path, "\n".join(lines) + "\n")
    for r in results:
        emit("bound-check", args.quiet, name=r.name, min_slack=r.min_slack, passed=r.passed)
    emit("verify-bounds", args.quiet, report=str(json_path), summary=str(md_path), all_passed=report["all_passed"])
    return 0 if report["all_passed"] else 1


REPORT_DEFAULTS = {"raw": None}


def cmd_report(args) -> int:
    settings = resolve_settings(args, REPORT_DEFAULTS)
    raw_dir = settings.get("raw")
    if not raw_dir or not Path(raw_dir).is_dir():
        raise CliConfigError(f"--raw must name a directory of per-cell JSON files, got {raw_dir!r}")
    cells = []
    for path in sorted(Path(raw_dir).glob("*.json")):
        payload = _read_json_object(path, "raw cell")
        try:
            cell = harness.CellResult(
                row=payload["row"],
                algorithm=payload["algorithm"],
                mean=payload["mean"],
                std=payload["std"],
                per_seed=tuple(payload["per_seed"]),
                scheme=payload["scheme"],
                error=payload.get("error"),
            )
        except KeyError as exc:
            raise CliInputError(f"raw cell {path} lacks {exc}")
        if cell.per_seed:
            mean = float(np.mean(cell.per_seed))
            std = float(np.std(cell.per_seed, ddof=1)) if len(cell.per_seed) > 1 else 0.0
            if cell.mean is not None and (abs(mean - cell.mean) > 1e-12 or abs(std - (cell.std or 0.0)) > 1e-12):
                emit("report-mismatch", args.quiet, file=str(path))
                return 1
        cells.append(cell)
    if not cells:
        raise CliConfigError(f"no raw cell files under {raw_dir}")
    paths = harness.emit_report(cells, Path(args.out))
    emit("report", args.quiet, cells=len(cells), **{k: v for k, v in paths.items() if k != "raw"})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edg-lab",
        description="Evolving-domain-generalization workbench: data, training, sweeps, bound certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate (or ingest) a dataset and cache it")
    p.add_argument("--dataset", choices=data.KINDS, default=None)
    p.add_argument("--num-domains", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--distance", type=float, default=None)
    p.add_argument("--images", default=None, help="IDX image file (rmnist)")
    p.add_argument("--labels", default=None, help="IDX label file (rmnist)")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one algorithm on one dataset")
    p.add_argument("--algo", default=None, help=f"one of {', '.join(harness.ALGORITHMS)}")
    p.add_argument("--dataset", choices=data.KINDS, default=None)
    p.add_argument("--num-domains", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--distance", type=float, default=None)
    p.add_argument("--images", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--hidden", default=None, help="comma-separated hidden widths (classifier)")
    p.add_argument("--embed", default=None, help="comma-separated encoder widths")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint on a dataset's target domain")
    p.add_argument("--checkpoint", default=None, required=False)
    p.add_argument("--dataset", choices=data.KINDS, default=None)
    p.add_argument("--num-domains", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--distance", type=float, default=None)
    p.add_argument("--images", default=None)
    p.add_argument("--labels", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="axis sweep (domain distance or count) over algorithms")
    p.add_argument("--dataset", choices=data.KINDS, default=None)
    p.add_argument("--axis", choices=("distance", "count"), default=None)
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.add_argument("--algos", default=None, help="comma-separated algorithm ids")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--n-seeds", type=int, default=None)
    p.add_argument("--strategy", choices=[s.value for s in harness.SelectionStrategy], default=None)
    p.add_argument("--num-domains", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--distance", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("interp-study", help="extrapolation vs interpolation across domain counts")
    p.add_argument("--dataset", choices=data.KINDS, default=None)
    p.add_argument("--counts", default=None, help="comma-separated domain counts")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--n-seeds", type=int, default=None)
    p.add_argument("--strategy", choices=[s.value for s in harness.SelectionStrategy], default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--distance", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_interp_study)

    p = sub.add_parser("verify-bounds", help="randomized certification of the divergence bounds")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--decomposition-pairs", type=int, default=None)
    p.add_argument("--env-json", default=None, help="also certify one serialized environment")
    _add_common(p)
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("report", help="re-emit tables from raw per-cell JSON")
    p.add_argument("--raw", default=None, help="directory holding raw/*.json cells")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliConfigError as exc:
        emit("config-error", getattr(args, "quiet", False), message=str(exc))
        return 2
    except (CliInputError, data.IngestionError, nn.CheckpointError, FileNotFoundError) as exc:
        emit("input-error", getattr(args, "quiet", False), message=str(exc))
        return 2
    except RuntimeError as exc:
        emit("experiment-error", getattr(args, "quiet", False), message=str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
