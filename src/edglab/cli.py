"""Single command-line entry point: data generation, training, evaluation,
sweeps and the headline table, bound certification, and report (re-)emission.

Exit codes: 0 success, 1 experiment failure, 2 configuration/usage error.
Precedence for settings: explicit flags > --set overrides > --config file >
built-in defaults. ``SETTINGS`` declares each setting once; every value from
any of those sources is checked against it. Events are line-delimited JSON
unless --quiet.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds, data, dpnet, harness, nn
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


# Every setting once: its type, its allowed values (None: any) and its help.
# Flags, --set and --config values all go through _check. List-valued
# settings are comma-separated strings, parsed where they are used.
SETTINGS = {
    "dataset": (str, data.KINDS, "dataset kind"),
    "seed": (int, None, "master seed"),
    "num-domains": (int, None, "number of domains, the target last"),
    "samples": (int, None, "samples per domain"),
    "distance": (float, None, "degrees between consecutive domains (rotatedcloud, rmnist)"),
    "images": (str, None, "IDX image file (rmnist)"),
    "labels": (str, None, "IDX label file (rmnist)"),
    "cache-dir": (str, None, f"dataset cache directory (default from ${CACHE_ENV_VAR})"),
    "algo": (str, harness.ALGORITHMS, "algorithm"),
    "steps": (int, None, "training steps"),
    "lr": (float, None, "learning rate"),
    "batch": (int, None, "samples per class in each training step"),
    "hidden": (str, None, "comma-separated hidden widths (classifier)"),
    "embed": (str, None, "comma-separated encoder widths"),
    "checkpoint": (str, None, "checkpoint file; its .json sidecar pins the training environment"),
    "axis": (str, ("distance", "count"), "environment axis to sweep"),
    "values": (str, None, "comma-separated axis values"),
    "algos": (str, None, "comma-separated algorithm ids"),
    "trials": (int, None, "random-search trials per cell"),
    "n-seeds": (int, None, "seeds per trial"),
    "strategy": (str, tuple(s.value for s in harness.SelectionStrategy), "model selection strategy"),
    "counts": (str, None, "comma-separated domain counts"),
    "instances": (int, None, "random environments to certify"),
    "decomposition-pairs": (int, None, "random joint pairs for the JS decomposition check"),
    "env-json": (str, None, "also certify one serialized environment"),
    "raw": (str, None, "directory holding raw/*.json cells"),
}

# Flags every subcommand takes, whether or not it reads them.
COMMON_SETTINGS = ("seed", "cache-dir")

DATASET_DEFAULTS = {"dataset": "evolcircle", "seed": 0, "num-domains": None, "samples": None, "distance": None}
FILE_DEFAULTS = {"images": None, "labels": None, "cache-dir": None}
SEARCH_DEFAULTS = {"dataset": "rotatedcloud", "strategy": "oracle_max_query"}

# Each subcommand: its help line and the settings it reads, with defaults.
COMMANDS = {
    "gen-data": ("generate (or ingest) a dataset and cache it", {**DATASET_DEFAULTS, **FILE_DEFAULTS}),
    "train": (
        "train one algorithm on one dataset",
        {**DATASET_DEFAULTS, **FILE_DEFAULTS, "algo": "dpnets", "steps": 1000, "lr": 0.01,
         "batch": 16, "hidden": "", "embed": ""},
    ),
    "eval": (
        "evaluate a saved checkpoint on a dataset's target domain",
        {**DATASET_DEFAULTS, **FILE_DEFAULTS, "dataset": None, "seed": None, "checkpoint": None},
    ),
    "sweep": (
        "axis sweep (domain distance or count) over algorithms",
        {**DATASET_DEFAULTS, **SEARCH_DEFAULTS, "axis": "distance", "values": "3,5,7,10,15,20",
         "algos": "dpnets,erm", "trials": 20, "n-seeds": 5},
    ),
    "interp-study": (
        "extrapolation vs interpolation across domain counts",
        {"seed": 0, "samples": None, "distance": None, **SEARCH_DEFAULTS,
         "counts": "5,7,9,11", "trials": 3, "n-seeds": 3},
    ),
    "headline": (
        "the headline table: each algorithm on both drifting 2-D benchmarks",
        {"seed": 0, "strategy": "oracle_max_query", "algos": ",".join(harness.ALGORITHMS), "trials": 20, "n-seeds": 5},
    ),
    "verify-bounds": (
        "randomized certification of the divergence bounds",
        {"instances": 1000, "decomposition-pairs": 10000, "seed": 0, "env-json": None},
    ),
    "report": ("re-emit tables from raw per-cell JSON", {"raw": None}),
}


def _check(key: str, value):
    """``value`` as the type SETTINGS gives ``key``; strings from flags and
    --set are parsed. Bools are rejected, and so are floats for an int."""
    kind, allowed, _ = SETTINGS[key]
    if isinstance(value, str) and kind is not str:
        try:
            value = kind(value)
        except ValueError:
            pass  # reported as the wrong type below
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise CliConfigError(f"--{key} expects {kind.__name__}, got {value!r}")
    if allowed is not None and value not in allowed:
        raise CliConfigError(f"--{key} must be one of {', '.join(allowed)}, got {value!r}")
    return kind(value)


def resolve_settings(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- --set overrides <- explicit flags.

    Returns exactly the keys of ``defaults``, the settings the command reads;
    other keys are dropped. Every value read and every flag given is checked.
    """
    given = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise CliConfigError(f"config file not found: {path}")
        given.update(_read_json_object(path, "config file", CliConfigError))
    for item in args.set or []:
        key, eq, value = item.partition("=")
        if not eq:
            raise CliConfigError(f"--set expects key=value, got {item!r}")
        given[key] = value
    flags = {key: getattr(args, key.replace("-", "_"), None) for key in SETTINGS}
    flags = {key: value for key, value in flags.items() if value is not None}
    settings = dict(defaults)
    for key, value in {**given, **flags}.items():
        if key in defaults or key in flags:
            settings[key] = _check(key, value)
    return {key: settings[key] for key in defaults}


def _spec_from(settings: dict) -> data.EnvironmentSpec:
    fields = {name: settings[key] for key, name in SPEC_FIELDS.items() if settings.get(key) is not None}
    return data.default_spec(**fields)  # a ConfigurationError is a config-error (main)


def _generated_spec(settings: dict) -> data.EnvironmentSpec:
    """The spec of a dataset the command generates itself, which rmnist is not."""
    if settings["dataset"] == "rmnist":
        raise CliConfigError("--dataset rmnist is read from IDX files; sweeps and studies generate their datasets")
    return _spec_from(settings)


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
    images, labels = settings["images"], settings["labels"]
    tag = f"{spec.kind}-s{spec.seed}-m{spec.num_domains}-n{spec.samples_per_domain}-d{spec.domain_distance:g}"
    if spec.kind == "rmnist":
        if images and labels:
            source_sha256 = _idx_digest(images, labels)
        elif not source_sha256:
            raise CliConfigError("rmnist needs --images and --labels IDX paths")
        tag += f"-x{source_sha256}"
    cache_dir = settings["cache-dir"] or os.environ.get(CACHE_ENV_VAR)
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


def cmd_gen_data(args, settings: dict) -> int:
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


def _parse_widths(settings: dict, key: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(v) for v in settings[key].split(",") if v != "")
    except ValueError:
        raise CliConfigError(f"--{key} expects comma-separated widths, got {settings[key]!r}")
    if min(widths, default=1) < 1:
        raise CliConfigError(f"--{key} widths must be at least 1, got {settings[key]!r}")
    return widths


def _at_least(least: int, settings: dict, *keys: str) -> None:
    for key in keys:
        if settings[key] < least:
            raise CliConfigError(f"--{key} must be at least {least}, got {settings[key]}")


def cmd_train(args, settings: dict) -> int:
    algo, seed, batch = settings["algo"], settings["seed"], settings["batch"]
    method = harness.METHODS[algo]
    _at_least(1, settings, "batch")
    _at_least(0, settings, "steps")
    if not 0.0 < settings["lr"] < np.inf:
        raise CliConfigError(f"--lr must be a positive finite number, got {settings['lr']}")
    embed, hidden = _parse_widths(settings, "embed"), _parse_widths(settings, "hidden")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domains, source_sha256 = _load_dataset(settings, args.quiet)
    sources, target = domains[:-1], domains[-1]
    hparams = {
        "steps": settings["steps"],
        "lr": settings["lr"],
        "batch": batch,
        "embed": embed or (sources[0].dim,),
        "hidden": hidden,
    }
    progress = None if args.quiet else lambda s, l: s % 200 == 0 and emit("train-step", False, step=s, loss=l[0])
    [model] = method.fit(sources, [(hparams, seed)], progress=progress)
    if isinstance(model, dpnet.EpisodeError):  # raised before any step
        raise CliConfigError(f"--batch {batch} is too large for {algo} on these source domains: {model}")
    if isinstance(model, Exception):
        raise model
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


def cmd_eval(args, settings: dict) -> int:
    ckpt = settings["checkpoint"]
    if not ckpt:
        raise CliConfigError("--checkpoint is required")
    sidecar_path = Path(ckpt).with_suffix(".json")
    if not sidecar_path.exists():
        raise CliConfigError(f"missing checkpoint sidecar {sidecar_path}")
    sidecar = _read_json_object(sidecar_path, "checkpoint sidecar")
    saved = sidecar.get("spec")
    if "algo" not in sidecar or not isinstance(saved, dict) or not set(SPEC_FIELDS.values()) <= saved.keys():
        raise CliInputError(f"checkpoint sidecar {sidecar_path} lacks the algo or spec fields train writes")
    if sidecar["algo"] not in harness.ALGORITHMS:
        raise CliInputError(
            f"checkpoint sidecar {sidecar_path}: unknown algorithm {sidecar['algo']!r}; "
            f"choose from {harness.ALGORITHMS}"
        )
    method = harness.METHODS[sidecar["algo"]]
    # The sidecar pins the training environment; flags may override any part.
    for key, name in SPEC_FIELDS.items():
        if settings[key] is None:
            try:
                settings[key] = _check(key, saved[name])
            except CliConfigError as exc:
                raise CliInputError(f"checkpoint sidecar {sidecar_path}: {exc}")
    domains, _ = _load_dataset(settings, args.quiet, saved.get("source_sha256"))
    sources, target = domains[:-1], domains[-1]
    nets = nn.load_checkpoint(ckpt)
    try:
        model = method.load(nets, sidecar)
    except KeyError as exc:
        raise CliInputError(f"checkpoint sidecar {sidecar_path} lacks {exc}")
    except ValueError as exc:
        raise CliInputError(f"checkpoint sidecar {sidecar_path}: {exc}")
    if len(method.nets(model)) != len(nets):
        raise CliInputError(
            f"checkpoint sidecar {sidecar_path}: algo {sidecar['algo']!r} does not match the "
            f"{len(nets)}-network checkpoint {ckpt}"
        )
    for key, value in (("feature_dim", sources[0].dim), ("num_classes", sources[0].num_classes)):
        if sidecar.get(key, value) != value:
            raise CliConfigError(f"checkpoint {ckpt} was trained with {key} {sidecar[key]}, the dataset has {value}")
    acc = harness.evaluate_accuracy(lambda x: method.predict(model, sources, x), target)
    emit("eval", args.quiet, algo=sidecar["algo"], dataset=settings["dataset"], target_accuracy=acc)
    return 0


def _emit_failures(cells: list, quiet: bool) -> None:
    """One event per failed run and per failed cell."""
    for c in cells:
        for trial, seed, error in c.failed_runs:
            emit("run-failed", quiet, row=c.row, algorithm=c.algorithm, trial=trial, seed=seed, error=error)
        if c.error:
            emit("cell-failed", quiet, row=c.row, algorithm=c.algorithm, error=c.error)


def _algorithms(settings: dict) -> tuple[str, ...]:
    algos = tuple(settings["algos"].split(","))
    for a in algos:
        if a not in harness.ALGORITHMS:
            raise CliConfigError(f"unknown algorithm {a!r}")
    return algos


def _run_grid(args, settings: dict, cells: list, kind: str, name: str = "results") -> int:
    """The one search path of the grid commands: search the cells in the
    default space of their dataset ``kind``, write the report, then one event
    per failure and the command's event; exit 1 when any cell failed."""
    _at_least(1, settings, "trials", "n-seeds")
    strategy = harness.SelectionStrategy(settings["strategy"])
    cells = harness.run_cells(cells, harness.default_space(kind), settings["trials"], settings["n-seeds"], strategy)
    paths = harness.emit_report(cells, Path(args.out), name=name)
    _emit_failures(cells, args.quiet)
    failed = sum(1 for c in cells if c.error)
    emit(args.command, args.quiet, cells=len(cells), failed=failed, csv=paths["csv"], md=paths["md"])
    return 1 if failed else 0


def cmd_sweep(args, settings: dict) -> int:
    axis = {"distance": "domain_distance", "count": "domain_count"}[settings["axis"]]
    try:
        values = tuple(float(v) if axis == "domain_distance" else int(v) for v in settings["values"].split(","))
    except ValueError:
        raise CliConfigError(f"bad --values list {settings['values']!r}")
    cells = harness.sweep_cells(axis, values, _generated_spec(settings), _algorithms(settings), settings["seed"])
    return _run_grid(args, settings, cells, settings["dataset"])


def cmd_interp_study(args, settings: dict) -> int:
    try:
        counts = tuple(int(v) for v in settings["counts"].split(","))
    except ValueError:
        raise CliConfigError(f"bad --counts list {settings['counts']!r}")
    cells = harness.study_cells(_generated_spec(settings), counts, settings["seed"])
    return _run_grid(args, settings, cells, settings["dataset"], name="interpolation")


def cmd_headline(args, settings: dict) -> int:
    # Both benchmarks are 2-D, so they share one search space.
    return _run_grid(args, settings, harness.headline_cells(_algorithms(settings), settings["seed"]), "evolcircle")


def cmd_verify_bounds(args, settings: dict) -> int:
    _at_least(1, settings, "instances", "decomposition-pairs")
    env = None
    if settings["env-json"]:  # checked before any certification work
        env_path = Path(settings["env-json"])
        if not env_path.exists():
            raise CliConfigError(f"environment file not found: {env_path}")
        payload = _read_json_object(env_path, "environment file", CliConfigError)
        try:
            env = bounds.env_from_dict(payload)
        except (ValueError, KeyError) as exc:
            raise CliConfigError(f"bad environment file {env_path}: {exc}")
    results = bounds.run_certification(
        instances=settings["instances"], decomposition_pairs=settings["decomposition-pairs"], seed=settings["seed"]
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {"results": [r.to_dict() for r in results], "all_passed": all(r.passed for r in results)}
    if env is not None:
        env_slacks = bounds.certify_env(*env)
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


def cmd_report(args, settings: dict) -> int:
    raw_dir = settings["raw"]
    if not raw_dir or not Path(raw_dir).is_dir():
        raise CliConfigError(f"--raw must name a directory of per-cell JSON files, got {raw_dir!r}")
    cells, files = [], {}
    for path in sorted(Path(raw_dir).glob("*.json")):
        payload = _read_json_object(path, "raw cell")
        try:
            cell = harness.cell_from_raw(payload)
        except ValueError as exc:
            raise CliInputError(f"raw cell {path}: {exc}")
        first = files.setdefault((cell.row, cell.algorithm), path)
        if first != path:
            raise CliInputError(f"raw cells {first} and {path} both hold the cell {cell.row}, {cell.algorithm}")
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
    for command, (summary, defaults) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key in dict.fromkeys([*defaults, *COMMON_SETTINGS]):
            _, allowed, text = SETTINGS[key]
            p.add_argument(f"--{key}", help=f"{text}; one of {', '.join(allowed)}" if allowed else text)
        p.add_argument("--out", default="edglab-out", help="output directory for artifacts")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one setting")
        p.add_argument("--quiet", action="store_true", help="plain one-line logs instead of JSON")
        # Looked up at parse time, so a wrapper installed on the module is used.
        p.set_defaults(func=globals()["cmd_" + command.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, resolve_settings(args, COMMANDS[args.command][1]))
    except (CliConfigError, data.ConfigurationError) as exc:
        emit("config-error", args.quiet, message=str(exc))
        return 2
    except (CliInputError, data.IngestionError, nn.CheckpointError, FileNotFoundError) as exc:
        emit("input-error", args.quiet, message=str(exc))
        return 2
    except (nn.OptimizerError, harness.ReportError) as exc:
        emit("experiment-error", args.quiet, message=str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
