"""Experiment orchestration: random hyperparameter search over multi-seed
trials, the cell lists of the results grids (axis sweeps, the
interpolation/extrapolation study, the headline table), the one runner that
searches them, and report emission. Determinism comes from hashed child
seeds, never from execution order, so every run reproduces identical bytes.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import baselines, data, dpnet
from .data import ConfigurationError, DomainData, EnvironmentSpec
from .files import write_atomic
from .nn import MlpParams, OptimizerError
from .seeding import child_rng, child_seed

VAL_RATIO = 0.8


class SelectionStrategy(str, Enum):
    TRAINING_DOMAIN_VALIDATION = "training_domain_validation"
    ORACLE_MAX_QUERY = "oracle_max_query"


def evaluate_accuracy(predict_fn, domain: DomainData) -> float:
    """Fraction of the domain's samples whose prediction matches the label."""
    preds = np.asarray(predict_fn(domain.x))
    return float(np.mean(preds == domain.y))


@dataclass(frozen=True)
class HParamSpace:
    """Sampling laws for one random-search trial."""

    lr_range: tuple[float, float] = (1e-4, 1e-1)
    steps_choices: tuple[int, ...] = (500, 1000, 2000)
    batch_choices: tuple[int, ...] = (8, 16, 32)  # samples per class in each step
    embed_choices: tuple[tuple[int, ...], ...] = ((2,),)  # encoder widths after input
    hidden_choices: tuple[tuple[int, ...], ...] = ((),)  # classifier hidden widths

    def sample(self, rng: np.random.Generator) -> dict:
        lo, hi = np.log10(self.lr_range[0]), np.log10(self.lr_range[1])
        return {
            "lr": float(10.0 ** rng.uniform(lo, hi)),
            "steps": int(rng.choice(self.steps_choices)),
            "batch": int(rng.choice(self.batch_choices)),
            "embed": tuple(self.embed_choices[rng.integers(len(self.embed_choices))]),
            "hidden": tuple(self.hidden_choices[rng.integers(len(self.hidden_choices))]),
        }


def default_space(kind: str) -> HParamSpace:
    """2-D datasets keep every network a single linear layer; the image
    dataset searches small MLP backbones."""
    if kind == "rmnist":
        return HParamSpace(
            batch_choices=(8, 10, 16),
            embed_choices=((128,), (256, 128)),
            hidden_choices=((128,), (256, 128)),
        )
    return HParamSpace()


@dataclass(frozen=True)
class Episodic:
    """dpnets (``shared=False``): two encoders, support from domain i and
    queries from i+1, so a domain is scored with its predecessor as support.
    proto (``shared=True``): one encoder, support and queries from one domain."""

    shared: bool
    group_keys = dpnet.GROUP_KEYS

    def fit(self, sources: list[DomainData], runs: list[tuple[dict, int]], progress=None) -> list:
        """One lockstep group: per (hparams, seed) run, its model or the error that ended it."""
        results = dpnet.train(sources, runs, self.shared, progress)
        return [r if isinstance(r, Exception) else r[0] for r in results]

    def predict(self, model: dpnet.DPNetModel, sources: list[DomainData], x, i: int | None = None):
        """Labels for the target (``i=None``) or for held-out data of source i."""
        support = sources[-1] if i is None else sources[i if self.shared else i - 1]
        return dpnet.predict_target(model, support, x)

    def val_indices(self, num_sources: int) -> range:
        return range(0 if self.shared else 1, num_sources)

    def nets(self, model: dpnet.DPNetModel) -> list[MlpParams]:
        return [model.f_phi] if self.shared else [model.f_phi, model.f_psi]

    def sidecar(self, model: dpnet.DPNetModel) -> dict:
        return {"embed_dim": model.f_phi.out_dim, "dims": list(model.f_phi.dims)}

    def load(self, nets: list[MlpParams], sidecar: dict) -> dpnet.DPNetModel:
        dim = _count(sidecar, "feature_dim", 1)
        if nets[0].in_dim != dim:
            raise ValueError(f"the networks take {nets[0].in_dim} features, feature_dim is {dim}")
        model = dpnet.DPNetModel(nets[0], nets[-1], _count(sidecar, "num_classes", 1))
        _match(sidecar, self.sidecar(model))
        return model


@dataclass(frozen=True)
class Erm:
    """Pooled ERM, with domain-index features (``mode``) or on the last
    ``last_k`` source domains only."""

    mode: baselines.IndexMode = baselines.IndexMode.NONE
    last_k: int | None = None
    group_keys = baselines.GROUP_KEYS

    def fit(self, sources: list[DomainData], runs: list[tuple[dict, int]], progress=None) -> list:
        """One lockstep group: per (hparams, seed) run, its model or the error that ended it."""
        return baselines.train_erm(sources, runs, self.mode, self.last_k, progress)

    def predict(self, model: baselines.ErmModel, sources: list[DomainData], x, i: int | None = None):
        return baselines.predict_erm(model, x, None if i is None else sources[i].index)

    def val_indices(self, num_sources: int) -> range:
        return range(num_sources)

    def nets(self, model: baselines.ErmModel) -> list[MlpParams]:
        return [model.net]

    def sidecar(self, model: baselines.ErmModel) -> dict:
        return {"index_mode": model.index_mode.value, "hidden": list(model.net.dims[1:-1])}

    def load(self, nets: list[MlpParams], sidecar: dict) -> baselines.ErmModel:
        mode = baselines.IndexMode(sidecar["index_mode"])
        seen, dim = _count(sidecar, "num_domains_seen", 2), _count(sidecar, "feature_dim", 1)
        model = baselines.ErmModel(nets[0], mode, seen, dim)
        _match(sidecar, self.sidecar(model))
        return model


def _match(sidecar: dict, written: dict) -> None:
    """``ValueError`` unless the sidecar holds each field ``sidecar()`` writes for the loaded model,
    as the same JSON (``2.0`` or ``true`` is not the width 2 or 1)."""
    for key, value in written.items():
        if json.dumps(sidecar[key]) != json.dumps(value):
            raise ValueError(f"{key} is {sidecar[key]!r}, the checkpoint's networks give {value!r}")


def _count(sidecar: dict, key: str, least: int) -> int:
    """A sidecar's integer field; ``ValueError`` when it is below ``least``
    or not an integer (``load`` raises ``ValueError`` for every bad field)."""
    value = sidecar[key]
    if type(value) is not int or value < least:
        raise ValueError(f"{key} must be an integer of at least {least}, got {value!r}")
    return value


# The one place an algorithm is defined: search, `edg-lab train` and
# `edg-lab eval` all build, score, save and load models through this table.
METHODS = {
    "dpnets": Episodic(shared=False),
    "proto": Episodic(shared=True),
    "erm": Erm(),
    "erm-1": Erm(last_k=1),
    "erm-2": Erm(last_k=2),
    "erm-3": Erm(last_k=3),
    "erm-scalar": Erm(baselines.IndexMode.SCALAR_CONCAT),
    "erm-onehot": Erm(baselines.IndexMode.ONE_HOT_CONCAT),
    "erm-outer": Erm(baselines.IndexMode.OUTER_PRODUCT),
}
ALGORITHMS = tuple(METHODS)


@dataclass
class RunOutcome:
    target_acc: float | None
    val_acc: float | None
    error: str | None = None


@dataclass
class Trial:
    """One hyperparameter draw evaluated over several seeds."""

    hparams: dict
    seeds: tuple[int, ...]
    target_accs: tuple[float, ...] = ()
    val_accs: tuple[float | None, ...] = ()
    error: str | None = None

    @property
    def mean_target(self) -> float:
        return float(np.mean(self.target_accs))

    @property
    def mean_val(self) -> float:
        vals = [v for v in self.val_accs if v is not None]
        return float(np.mean(vals)) if vals else float("nan")


def run_group(
    algorithm: str,
    train_sources: list[DomainData],
    val_sources: list[DomainData] | None,
    target: DomainData,
    runs: list[tuple[dict, int]],
) -> list[RunOutcome]:
    """Train (hparams, seed) runs as one lockstep group, then score each on
    the target (and validation when given). The runs agree on the method's
    ``group_keys``, the trainer's ``GROUP_KEYS``.

    A diverged optimizer fails that run, not the group or the search; sources
    that cannot serve the group's episodes fail each of its runs before any
    step. A failed run is recorded and its trial excluded from selection.
    Any other error is a bug and raises.
    """
    method = METHODS[algorithm]
    outcomes = []
    for model in method.fit(train_sources, runs):
        if isinstance(model, (OptimizerError, dpnet.EpisodeError)):
            outcomes.append(RunOutcome(None, None, error=str(model)))
            continue
        target_acc = evaluate_accuracy(lambda x: method.predict(model, train_sources, x), target)
        val_acc = None
        if val_sources is not None:
            accs = [
                evaluate_accuracy(lambda x: method.predict(model, train_sources, x, i), val_sources[i])
                for i in method.val_indices(len(val_sources))
            ]
            val_acc = float(np.mean(accs))
        outcomes.append(RunOutcome(target_acc, val_acc))
    return outcomes


def run_single(
    algorithm: str,
    train_sources: list[DomainData],
    val_sources: list[DomainData] | None,
    target: DomainData,
    hparams: dict,
    seed: int,
) -> RunOutcome:
    """Train one model and score it: ``run_group`` of one."""
    [outcome] = run_group(algorithm, train_sources, val_sources, target, [(hparams, seed)])
    return outcome


@dataclass
class SearchResult:
    algorithm: str
    strategy: SelectionStrategy
    trials: list[Trial]
    best_index: int
    mean: float
    std: float
    failed_runs: tuple[tuple[int, int, str], ...] = ()  # (trial, seed, error), in job order

    @property
    def best(self) -> Trial:
        return self.trials[self.best_index]


class SearchFailed(RuntimeError):
    """Every trial of a search failed; ``failed_runs`` as in SearchResult."""

    def __init__(self, message: str, failed_runs: tuple[tuple[int, int, str], ...]):
        super().__init__(message)
        self.failed_runs = failed_runs


def random_search(
    space: HParamSpace,
    algorithm: str,
    domains: list[DomainData],
    *,
    n_trials: int,
    n_seeds: int,
    strategy: SelectionStrategy,
    master_seed: int,
    workers: int = 1,
) -> SearchResult:
    """Hyperparameter search: n_trials draws × n_seeds runs each, selected per
    strategy. Fully deterministic given master_seed.

    Runs that agree on the method's ``group_keys`` (the trainer's
    ``GROUP_KEYS``) train as one lockstep group (``run_group``), one group
    after another. Raises ``SearchFailed`` when every trial fails. The
    search settings have no defaults here; ``cli.COMMANDS`` holds them.
    ``workers`` must be 1; it is kept for ``perfbench/workloads.py`` and goes
    when the benchmark drops it."""
    if workers != 1:
        raise ValueError(f"searches run serially; workers must be 1, got {workers!r}")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (expected one of {ALGORITHMS})")
    if n_trials < 1 or n_seeds < 1:
        raise ValueError(f"n_trials and n_seeds must be at least 1, got {n_trials} and {n_seeds}")
    target = domains[-1]
    sources = domains[:-1]
    if strategy is SelectionStrategy.TRAINING_DOMAIN_VALIDATION:
        split_seed = child_seed(master_seed, "valsplit")
        pairs = [data.split_train_val(d, VAL_RATIO, split_seed) for d in sources]
        train_sources = [p[0] for p in pairs]
        val_sources = [p[1] for p in pairs]
    else:
        train_sources, val_sources = sources, None

    hparams = [space.sample(child_rng(master_seed, "hp", t)) for t in range(n_trials)]
    seeds = {
        (t, s): child_seed(master_seed, "run", t, s) for t in range(n_trials) for s in range(n_seeds)
    }
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for t, s in sorted(seeds):
        groups.setdefault(tuple(hparams[t][k] for k in METHODS[algorithm].group_keys), []).append((t, s))
    outcomes: dict[tuple[int, int], RunOutcome] = {}
    for keys in groups.values():
        runs = [(hparams[t], seeds[(t, s)]) for t, s in keys]
        outcomes.update(zip(keys, run_group(algorithm, train_sources, val_sources, target, runs)))

    trials: list[Trial] = []
    for t in range(n_trials):
        per_seed = [outcomes[(t, s)] for s in range(n_seeds)]
        errors = [o.error for o in per_seed if o.error]
        trials.append(
            Trial(
                hparams=hparams[t],
                seeds=tuple(seeds[(t, s)] for s in range(n_seeds)),
                target_accs=tuple(o.target_acc for o in per_seed if o.error is None),
                val_accs=tuple(o.val_acc for o in per_seed if o.error is None),
                error="; ".join(errors) if errors else None,
            )
        )
    failed_runs = tuple((t, seeds[(t, s)], o.error) for (t, s), o in sorted(outcomes.items()) if o.error)
    completed = [(i, tr) for i, tr in enumerate(trials) if tr.error is None]
    if not completed:
        raise SearchFailed(f"every trial failed for algorithm {algorithm!r}", failed_runs)
    if strategy is SelectionStrategy.TRAINING_DOMAIN_VALIDATION:
        best_index = max(completed, key=lambda it: (it[1].mean_val, -it[0]))[0]
    else:
        best_index = max(completed, key=lambda it: (it[1].mean_target, -it[0]))[0]
    mean, std = mean_std(trials[best_index].target_accs)
    return SearchResult(algorithm, strategy, trials, best_index, mean, std, failed_runs)


def mean_std(accs) -> tuple[float, float]:
    """A cell's mean and sample std (ddof=1) of per-seed accuracies; one seed has std 0.0."""
    accs = np.asarray(accs)
    return float(accs.mean()), (float(np.std(accs, ddof=1)) if accs.size > 1 else 0.0)


# ---------------------------------------------------------------------------
# Results grids: each is a list of cells, searched by run_cells
# ---------------------------------------------------------------------------


@dataclass
class CellResult:
    row: str
    algorithm: str
    mean: float | None
    std: float | None
    per_seed: tuple[float, ...]
    scheme: str
    error: str | None = None
    # The search's failed runs as (trial, seed, error); kept out of the reports.
    failed_runs: tuple[tuple[int, int, str], ...] = ()
    # The selected trial's hyperparameters and seeds: raw cell JSON only, so
    # the CSV and Markdown bytes do not depend on them.
    hparams: dict | None = None
    seeds: tuple[int, ...] = ()


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


# The raw cell JSON: the CellResult fields emit_report writes and the JSON
# values each may hold. Files written before the selection was kept lack
# hparams and seeds, and may lack error.
RAW_FIELDS = {
    **dict.fromkeys(("row", "algorithm", "scheme"), lambda v: type(v) is str),
    **dict.fromkeys(("mean", "std"), lambda v: v is None or _finite(v)),
    "per_seed": lambda v: type(v) is list and all(_finite(a) for a in v),
    "hparams": lambda v: type(v) in (dict, type(None)),
    "seeds": lambda v: type(v) is list and all(type(s) is int for s in v),
    "error": lambda v: type(v) in (str, type(None)),
}


def cell_from_raw(payload: dict) -> CellResult:
    """The CellResult a raw cell JSON object holds. ``ValueError`` when a
    field is missing or cannot hold its value, or when the cell is neither
    scored (per-seed accuracies, a mean and a std, no error) nor failed (an
    error and none of those), or when its mean or std is not that of its
    per-seed accuracies (``mean_std``, to 1e-12)."""
    payload = {"hparams": None, "seeds": [], "error": None, **payload}
    for key, fits in RAW_FIELDS.items():
        if key not in payload:
            raise ValueError(f"lacks {key!r}")
        if not fits(payload[key]):
            raise ValueError(f"{key} cannot be {payload[key]!r}")
    mean, std, per_seed, error = (payload[key] for key in ("mean", "std", "per_seed", "error"))
    if len({mean is not None, std is not None, bool(per_seed), error is None}) > 1:
        raise ValueError("a cell holds per_seed, mean and std and no error, or an error and none of them")
    if per_seed and max(abs(a - b) for a, b in zip(mean_std(per_seed), (mean, std))) > 1e-12:
        raise ValueError(f"mean {mean!r} and std {std!r} are not those of per_seed {per_seed!r}")
    return CellResult(**{key: tuple(v) if type(v) is list else v for key, v in payload.items() if key in RAW_FIELDS})


@dataclass(frozen=True)
class Cell:
    """One search of a results grid: its report row and column, the
    ``METHODS`` key it searches, its domains (target last) and its master
    seed."""

    row: str
    column: str
    algorithm: str
    domains: list[DomainData]
    master_seed: int


def run_cells(
    cells: list[Cell], space: HParamSpace, n_trials: int, n_seeds: int, strategy: SelectionStrategy
) -> list[CellResult]:
    """One random_search per cell, in list order. A grid whose cells repeat
    a (row, column) pair is a ``ConfigurationError`` before any training. A
    cell whose every trial fails is marked, with its failed runs, rather
    than aborting the grid; any other error is a bug and raises."""
    seen = set()
    for c in cells:
        if (c.row, c.column) in seen:
            raise ConfigurationError(f"the grid repeats the cell {c.row}, {c.column}")
        seen.add((c.row, c.column))
    results = []
    for c in cells:
        try:
            res = random_search(
                space, c.algorithm, c.domains, n_trials=n_trials, n_seeds=n_seeds, strategy=strategy,
                master_seed=c.master_seed,
            )
        except SearchFailed as exc:
            results.append(CellResult(c.row, c.column, None, None, (), strategy.value, str(exc), exc.failed_runs))
            continue
        best = res.best
        results.append(
            CellResult(c.row, c.column, res.mean, res.std, tuple(best.target_accs), res.strategy.value,
                       failed_runs=res.failed_runs, hparams=best.hparams, seeds=best.seeds)
        )
    return results


SWEEP_AXES = {"domain_count": ("num_domains", int), "domain_distance": ("domain_distance", float)}


def sweep_cells(
    axis: str, values: tuple, base_spec: EnvironmentSpec, algorithms: tuple[str, ...], master_seed: int
) -> list[Cell]:
    """A grid over one environment axis: one cell per (value, algorithm),
    row ``axis=value``, master seed ``child_seed(master_seed, axis, value,
    algorithm)``, the value an int (count) or a float (distance). Every
    environment is valid before any data is drawn."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    if len(values) < 2:
        raise ConfigurationError("a sweep needs at least two axis values")
    field, cast = SWEEP_AXES[axis]
    values = [cast(value) for value in values]
    specs = [replace(base_spec, **{field: value}) for value in values]
    return [
        Cell(f"{axis}={value}", a, a, domains, child_seed(master_seed, axis, value, a))
        for value, spec in zip(values, specs)
        for domains in [data.generate(spec)]
        for a in algorithms
    ]


def middle_index(num_domains: int) -> int:
    """Middle target position; even counts take the lower median."""
    return (num_domains - 1) // 2


def study_cells(base_spec: EnvironmentSpec, counts: tuple[int, ...], master_seed: int) -> list[Cell]:
    """Three curves over domain count, row ``domains=count``: the episodic
    method and plain ERM with the target at the far edge, plus ERM with the
    middle domain held out (moved last). Master seed ``child_seed(master_seed,
    "interp", count, label)``. Every environment is valid before any data is
    drawn."""
    counts = [int(count) for count in counts]
    specs = [replace(base_spec, num_domains=count) for count in counts]
    cells = []
    for count, spec in zip(counts, specs):
        domains = data.generate(spec)
        mid = middle_index(len(domains))
        interp_order = [d for i, d in enumerate(domains) if i != mid] + [domains[mid]]
        settings = (
            ("dpnets-extrapolation", "dpnets", domains),
            ("erm-extrapolation", "erm", domains),
            ("erm-interpolation", "erm", interp_order),
        )
        cells += [
            Cell(f"domains={count}", label, algorithm, ordered, child_seed(master_seed, "interp", count, label))
            for label, algorithm, ordered in settings
        ]
    return cells


def headline_cells(algorithms: tuple[str, ...], master_seed: int) -> list[Cell]:
    """The headline table: each algorithm on evolcircle and rplate, both
    generated with data seed 7; master seed ``child_seed(master_seed, kind,
    algorithm)``."""
    return [
        Cell(kind, a, a, domains, child_seed(master_seed, kind, a))
        for kind in ("evolcircle", "rplate")
        for domains in [data.generate(data.default_spec(kind, seed=7))]
        for a in algorithms
    ]


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def format_mean_std(mean: float, std: float) -> str:
    """Accuracy as percent, one decimal: the table style of the comparisons."""
    return f"{100.0 * mean:.1f} ± {100.0 * std:.1f}"


def _row_key(row: str):
    """Natural ordering for 'axis=value' rows: numeric suffixes sort numerically."""
    if "=" in row:
        prefix, _, suffix = row.rpartition("=")
        try:
            return (prefix, 0, float(suffix), "")
        except ValueError:
            return (prefix, 1, 0.0, suffix)
    return (row, 1, 0.0, "")


def render_csv(cells: list[CellResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row", "algorithm", "mean", "std", "n_seeds", "scheme", "error"])
    for c in sorted(cells, key=lambda c: (_row_key(c.row), c.algorithm)):
        writer.writerow(
            [
                c.row,
                c.algorithm,
                "" if c.mean is None else repr(c.mean),
                "" if c.std is None else repr(c.std),
                len(c.per_seed),
                c.scheme,
                c.error or "",
            ]
        )
    return buf.getvalue()


def render_markdown(cells: list[CellResult]) -> str:
    """Algorithms as rows, cells as columns, best mean per column bolded."""
    columns = sorted({c.row for c in cells}, key=_row_key)
    algos = sorted({c.algorithm for c in cells})
    lookup = {(c.algorithm, c.row): c for c in cells}
    best: dict[str, float] = {}
    for col in columns:
        means = [lookup[(a, col)].mean for a in algos if (a, col) in lookup and lookup[(a, col)].mean is not None]
        if means:
            best[col] = max(means)
    lines = ["| Algorithm | " + " | ".join(columns) + " |", "|---" * (len(columns) + 1) + "|"]
    for a in algos:
        row = [a]
        for col in columns:
            c = lookup.get((a, col))
            if c is None or c.mean is None:
                row.append("failed" if c is not None else "")
                continue
            text = format_mean_std(c.mean, c.std or 0.0)
            row.append(f"**{text}**" if c.mean == best.get(col) else text)
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


class ReportError(RuntimeError):
    """A report file cannot be written."""


def emit_report(cells: list[CellResult], out_dir, name: str = "results") -> dict:
    """Write <name>.csv, <name>.md and raw/<cell>.json; returns the paths."""
    out = Path(out_dir)
    raw_dir = out / "raw"
    try:
        raw_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{name}.csv"
        md_path = out / f"{name}.md"
        write_atomic(csv_path, render_csv(cells))
        write_atomic(md_path, render_markdown(cells))
        raw_paths = []
        for c in sorted(cells, key=lambda c: (_row_key(c.row), c.algorithm)):
            safe = f"{c.row}__{c.algorithm}".replace("=", "-").replace("/", "-")
            path = raw_dir / f"{safe}.json"
            write_atomic(path, json.dumps({key: getattr(c, key) for key in RAW_FIELDS}, sort_keys=True, indent=1))
            raw_paths.append(str(path))
    except OSError as exc:
        raise ReportError(f"cannot write report under {out_dir}: {exc}") from exc
    return {"csv": str(csv_path), "md": str(md_path), "raw": raw_paths}
