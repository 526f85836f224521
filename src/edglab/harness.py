"""Experiment orchestration: random hyperparameter search over multi-seed
trials, grids of searches run cell by cell (axis sweeps, the
interpolation/extrapolation study, the headline table), and report emission.
Determinism comes from hashed child seeds, never from execution order, so
every run reproduces identical bytes.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import baselines, data, dpnet
from .data import DomainData, EnvironmentSpec
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
    batch_choices: tuple[int, ...] = (8, 16, 32)  # per class for episodic methods
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

    def samples_needed(self, batch: int) -> int:
        """Samples per class every source domain must hold for one episode:
        dpnets draws n from each side of a pair, proto a disjoint support and
        query set (2n) from one domain."""
        return 2 * batch if self.shared else batch

    def _start(self, sources: list[DomainData], hparams: dict, seed: int):
        dims = (sources[0].dim,) + tuple(hparams["embed"])
        cfg = dpnet.TrainConfig(steps=hparams["steps"], n_per_class=hparams["batch"], lr=hparams["lr"], seed=seed)
        return dpnet.init_dpnet(dims, sources[0].num_classes, seed, shared=self.shared), cfg

    def fit(self, sources: list[DomainData], hparams: dict, seed: int, progress=None) -> dpnet.DPNetModel:
        model, cfg = self._start(sources, hparams, seed)
        model, _ = dpnet.train(model, sources, cfg, same_domain_episodes=self.shared, progress=progress)
        return model

    def fit_group(self, sources: list[DomainData], runs: list[tuple[dict, int]]) -> list:
        """One lockstep group: per (hparams, seed) run, its model or the error that ended it."""
        models, cfgs = zip(*(self._start(sources, hparams, seed) for hparams, seed in runs))
        results = dpnet.train_group(list(models), sources, list(cfgs), same_domain_episodes=self.shared)
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
        return {"embed_dim": model.embed_dim, "dims": list(model.f_phi.dims)}

    def load(self, nets: list[MlpParams], sidecar: dict) -> dpnet.DPNetModel:
        return dpnet.DPNetModel(nets[0], nets[-1], sidecar["embed_dim"], sidecar["num_classes"])


@dataclass(frozen=True)
class Erm:
    """Pooled ERM, with domain-index features (``mode``) or on the last
    ``last_k`` source domains only."""

    mode: baselines.IndexMode = baselines.IndexMode.NONE
    last_k: int | None = None

    def samples_needed(self, batch: int) -> int:
        return 0  # batches are drawn from the pool and capped at its size

    @staticmethod
    def _config(sources: list[DomainData], hparams: dict, seed: int) -> baselines.ErmConfig:
        batch = hparams["batch"] * sources[0].num_classes
        return baselines.ErmConfig(
            steps=hparams["steps"], batch_size=batch, lr=hparams["lr"], seed=seed, hidden=tuple(hparams["hidden"])
        )

    def fit(self, sources: list[DomainData], hparams: dict, seed: int, progress=None) -> baselines.ErmModel:
        cfg = self._config(sources, hparams, seed)
        return baselines.train_erm(sources, cfg, index_mode=self.mode, last_k=self.last_k, progress=progress)

    def fit_group(self, sources: list[DomainData], runs: list[tuple[dict, int]]) -> list:
        cfgs = [self._config(sources, hparams, seed) for hparams, seed in runs]
        return baselines.train_erm_group(sources, cfgs, index_mode=self.mode, last_k=self.last_k)

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
        return baselines.ErmModel(nets[0], mode, sidecar["num_domains_seen"], sidecar["feature_dim"])


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

    algorithm: str
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
    the target (and validation when given). The runs share every
    hyperparameter but ``lr`` and ``steps``.

    A diverged optimizer or an episode the domains cannot serve fails that
    run, not the group or the search: it is recorded and the trial is
    excluded from selection. Any other error is a bug and raises.
    """
    method = METHODS[algorithm]
    outcomes = []
    for model in method.fit_group(train_sources, runs):
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
    n_trials: int = 20,
    n_seeds: int = 5,
    strategy: SelectionStrategy = SelectionStrategy.ORACLE_MAX_QUERY,
    master_seed: int = 0,
    workers: int = 1,
) -> SearchResult:
    """Hyperparameter search: n_trials draws × n_seeds runs each, selected per
    strategy. Fully deterministic given master_seed.

    Runs that share every hyperparameter but ``lr`` and ``steps`` train as one
    lockstep group (``run_group``), one group after another. Raises
    ``SearchFailed`` when every trial fails. ``workers`` must be 1; it is kept
    for ``perfbench/workloads.py`` and goes when the benchmark drops it."""
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
        shape = tuple(sorted((k, v) for k, v in hparams[t].items() if k not in ("lr", "steps")))
        groups.setdefault(shape, []).append((t, s))
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
                algorithm=algorithm,
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
    accs = np.asarray(trials[best_index].target_accs)
    std = float(np.std(accs, ddof=1)) if accs.size > 1 else 0.0
    return SearchResult(
        algorithm=algorithm,
        strategy=strategy,
        trials=trials,
        best_index=best_index,
        mean=float(accs.mean()),
        std=std,
        failed_runs=failed_runs,
    )


# ---------------------------------------------------------------------------
# Sweeps and studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Grid over one environment axis × a set of algorithms."""

    axis: str  # "domain_count" | "domain_distance"
    values: tuple
    base_spec: EnvironmentSpec
    algorithms: tuple[str, ...]

    def __post_init__(self):
        if self.axis not in ("domain_count", "domain_distance"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if len(self.values) < 2:
            raise ValueError("a sweep needs at least two axis values")
        for value in self.values:  # every cell's environment is valid before any training
            self.spec_for(value)

    def spec_for(self, value) -> EnvironmentSpec:
        if self.axis == "domain_count":
            return replace(self.base_spec, num_domains=int(value))
        return replace(self.base_spec, domain_distance=float(value))


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
    """One random_search per cell, in list order. A cell whose every trial
    fails is marked, with its failed runs, rather than aborting the grid;
    any other error is a bug and raises."""
    results = []
    for c in cells:
        try:
            res = random_search(space, c.algorithm, c.domains, n_trials, n_seeds, strategy, master_seed=c.master_seed)
        except SearchFailed as exc:
            results.append(CellResult(c.row, c.column, None, None, (), strategy.value, str(exc), exc.failed_runs))
            continue
        best = res.best
        results.append(
            CellResult(c.row, c.column, res.mean, res.std, tuple(best.target_accs), res.strategy.value,
                       failed_runs=res.failed_runs, hparams=best.hparams, seeds=best.seeds)
        )
    return results


def run_sweep(
    sweep: SweepConfig,
    space: HParamSpace | None = None,
    n_trials: int = 20,
    n_seeds: int = 5,
    strategy: SelectionStrategy = SelectionStrategy.ORACLE_MAX_QUERY,
    master_seed: int = 0,
) -> list[CellResult]:
    """One cell per (axis value, algorithm)."""
    cells = []
    for value in sweep.values:
        domains = data.generate(sweep.spec_for(value))
        cells += [
            Cell(f"{sweep.axis}={value}", a, a, domains, child_seed(master_seed, sweep.axis, value, a))
            for a in sweep.algorithms
        ]
    space = space or default_space(sweep.base_spec.kind)
    return run_cells(cells, space, n_trials, n_seeds, strategy)


def middle_index(num_domains: int) -> int:
    """Middle target position; even counts take the lower median."""
    return (num_domains - 1) // 2


def run_interpolation_study(
    base_spec: EnvironmentSpec,
    domain_counts: tuple[int, ...],
    space: HParamSpace | None = None,
    n_trials: int = 3,
    n_seeds: int = 3,
    strategy: SelectionStrategy = SelectionStrategy.ORACLE_MAX_QUERY,
    master_seed: int = 0,
) -> list[CellResult]:
    """Three curves over domain count: the episodic method and plain ERM with
    the target at the far edge, plus ERM with the middle domain held out."""
    cells = []
    for count in domain_counts:
        domains = data.generate(replace(base_spec, num_domains=int(count)))
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
    space = space or default_space(base_spec.kind)
    return run_cells(cells, space, n_trials, n_seeds, strategy)


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


def parse_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        r["mean"] = float(r["mean"]) if r["mean"] else None
        r["std"] = float(r["std"]) if r["std"] else None
        r["n_seeds"] = int(r["n_seeds"])
    return rows


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
            write_atomic(
                path,
                json.dumps(
                    {
                        "row": c.row,
                        "algorithm": c.algorithm,
                        "mean": c.mean,
                        "std": c.std,
                        "per_seed": list(c.per_seed),
                        "scheme": c.scheme,
                        "error": c.error,
                        "hparams": c.hparams,
                        "seeds": list(c.seeds),
                    },
                    sort_keys=True,
                    indent=1,
                )
            )
            raw_paths.append(str(path))
    except OSError as exc:
        raise RuntimeError(f"cannot write report under {out_dir}: {exc}") from exc
    return {"csv": str(csv_path), "md": str(md_path), "raw": raw_paths}
