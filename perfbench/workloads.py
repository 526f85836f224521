"""The three workloads. Each is a closed loop in one process: one call into
the package at a time, single-threaded harness (``workers=1``).

A workload has ``setup`` (untimed work a user pays before the first
result), ``run`` (the timed phase: one round of operations, each failure
caught and kept) and ``verify`` (checks of that round against references
computed apart from the package). The heavy inputs are pinned: the
acceptance thresholds, the determinism digest and the accuracy figure all
need the same inputs in every run. ``--seed`` orders the operations of a
round and draws the benchmark's own reference-check distributions.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import glyphs
import reference
from edglab import bounds, cli, data, harness

# Acceptance protocol (tests/test_acceptance.py, criteria 3, 4 and 7).
DATA_SEED = 7
MASTER_SEED = 2024
N_TRIALS = 5
N_SEEDS = 3
SEARCH_SPACE = harness.HParamSpace(lr_range=(3e-3, 1e-1), steps_choices=(1000, 2000))

GLYPH_SEED = 2024
GLYPH_COUNT = 3000
IMAGE_STEPS = 300
CERT_INSTANCES = 1000
CERT_PAIRS = 10000
CERT_FAMILIES = (
    "synthetic_transfer",
    "sequential_transfer",
    "decomposed_transfer",
    "change_of_measure",
    "js_decomposition",
)


@dataclass
class Verdict:
    """What one round produced and which of its operations failed."""

    work: int  # optimizer steps or inequality evaluations completed
    digest: str
    score: float  # 0 when the scored operation failed
    problems: dict[str, list[str]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for msgs in self.problems.values() if msgs)


class Search2D:
    """Acceptance searches for dpnets and erm on evolcircle and rplate."""

    name = "search-2d"
    ops = [(kind, algo) for kind in ("evolcircle", "rplate") for algo in ("dpnets", "erm")]

    def __init__(self, seed: int, workdir: Path):
        self.order = [self.ops[i] for i in np.random.default_rng(seed).permutation(len(self.ops))]
        self.domains: dict[str, list] = {}

    def setup(self) -> None:
        self.domains = {kind: data.generate(data.default_spec(kind, seed=DATA_SEED)) for kind in ("evolcircle", "rplate")}

    def run(self) -> dict:
        results = {}
        for kind, algo in self.order:
            try:
                results[(kind, algo)] = harness.random_search(
                    SEARCH_SPACE,
                    algo,
                    self.domains[kind],
                    n_trials=N_TRIALS,
                    n_seeds=N_SEEDS,
                    strategy=harness.SelectionStrategy.ORACLE_MAX_QUERY,
                    master_seed=MASTER_SEED,
                    workers=1,
                )
            except Exception as exc:  # a failed operation, not a failed benchmark
                results[(kind, algo)] = exc
        return results

    def verify(self, results: dict) -> Verdict:
        problems = {f"{k}/{a}": [] for k, a in self.ops}
        good = {}
        for (kind, algo), res in results.items():
            msgs = problems[f"{kind}/{algo}"]
            if isinstance(res, Exception):
                msgs.append(f"raised {res!r}")
                continue
            accs = np.asarray(res.best.target_accs)
            if accs.size != N_SEEDS:
                msgs.append(f"selected trial has {accs.size} seeds, want {N_SEEDS}")
                continue
            if abs(res.mean - float(np.mean(accs))) > 1e-12 or abs(res.std - float(np.std(accs, ddof=1))) > 1e-12:
                msgs.append(f"mean/std {res.mean!r}/{res.std!r} differ from the per-seed accuracies {accs.tolist()}")
            best = max(t.mean_target for t in res.trials if t.error is None)
            if res.best.mean_target != best:
                msgs.append("oracle selection did not pick the best trial")
            good[(kind, algo)] = res
        mean = {key: res.mean for key, res in good.items()}
        if ("evolcircle", "dpnets") in mean and ("evolcircle", "erm") in mean:
            dp, erm = mean[("evolcircle", "dpnets")], mean[("evolcircle", "erm")]
            if not (dp >= 0.88 and dp - erm >= 0.12):
                problems["evolcircle/dpnets"].append(f"evolcircle dpnets {dp:.4f} (>=0.88), erm {erm:.4f} (gap >=0.12)")
        if ("rplate", "dpnets") in mean and mean[("rplate", "dpnets")] < 0.85:
            problems["rplate/dpnets"].append(f"rplate dpnets {mean[('rplate', 'dpnets')]:.4f} (>=0.85)")
        if ("rplate", "erm") in mean and mean[("rplate", "erm")] > 0.72:
            problems["rplate/erm"].append(f"rplate erm {mean[('rplate', 'erm')]:.4f} (<=0.72)")
        cells = [
            harness.CellResult(kind, algo, res.mean, res.std, tuple(res.best.target_accs), res.strategy.value)
            for (kind, algo), res in good.items()
        ]
        steps = sum(t.hparams["steps"] * len(t.target_accs) for res in good.values() for t in res.trials)
        dp_means = [mean[(kind, "dpnets")] for kind in ("evolcircle", "rplate") if (kind, "dpnets") in mean]
        return Verdict(
            work=steps,
            digest=hashlib.sha256(harness.render_csv(cells).encode()).hexdigest(),
            score=float(np.mean(dp_means)) if dp_means else 0.0,
            problems=problems,
        )


class Image784:
    """CLI round trip on rotated procedural glyphs: train dpnets, train erm,
    evaluate the dpnets checkpoint, all through one dataset cache."""

    name = "image-784"
    ops = ["train-dpnets", "train-erm", "eval-dpnets"]

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.dpnets_first = bool(np.random.default_rng(seed).integers(2))
        self.images = self.labels = None

    def setup(self) -> None:
        images, labels = glyphs.make_glyphs(GLYPH_SEED, GLYPH_COUNT)
        self.images, self.labels = glyphs.write_idx(self.workdir / "idx", images, labels)

    def _commands(self, round_dir: Path) -> dict[str, list[str]]:
        source = ["--dataset", "rmnist", "--images", str(self.images), "--labels", str(self.labels)]
        shared = ["--seed", str(DATA_SEED), "--cache-dir", str(round_dir / "cache")]
        train = ["--batch", "8", "--steps", str(IMAGE_STEPS), "--lr", "0.001", *source, *shared]
        return {
            "train-dpnets": ["train", "--algo", "dpnets", "--embed", "256,128", "--out", str(round_dir / "dpnets"), *train],
            "train-erm": ["train", "--algo", "erm", "--hidden", "128", "--out", str(round_dir / "erm"), *train],
            "eval-dpnets": ["eval", "--checkpoint", str(round_dir / "dpnets" / "model.ckpt"), "--out", str(round_dir / "eval"), *shared],
        }

    def run(self) -> dict:
        round_dir = self.workdir / "round"
        shutil.rmtree(round_dir, ignore_errors=True)
        commands = self._commands(round_dir)
        order = ["train-dpnets", "train-erm"] if self.dpnets_first else ["train-erm", "train-dpnets"]
        results = {"dir": round_dir}
        for op in order + ["eval-dpnets"]:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(commands[op])
            except Exception as exc:  # a failed operation, not a failed benchmark
                code = repr(exc)
            results[op] = (code, out.getvalue())
        return results

    def verify(self, results: dict) -> Verdict:
        try:
            return self._verify(results)
        finally:
            shutil.rmtree(results["dir"], ignore_errors=True)

    def _verify(self, results: dict) -> Verdict:
        problems = {op: [] for op in self.ops}
        events = {}
        for op in self.ops:
            code, text = results[op]
            want = "eval" if op.startswith("eval") else "train"
            lines = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
            found = [e for e in lines if e.get("event") == want]
            if code != 0 or len(found) != 1:
                problems[op].append(f"exit {code}, {len(found)} '{want}' events: {text[-300:]!r}")
            else:
                events[op] = found[0]
        round_dir = results["dir"]
        digest = hashlib.sha256()
        for op, sub in (("train-dpnets", "dpnets"), ("train-erm", "erm")):
            if op in events:
                sha = hashlib.sha256((round_dir / sub / "model.ckpt").read_bytes()).hexdigest()
                if sha != events[op]["checkpoint_sha256"]:
                    problems[op].append("reported checkpoint sha256 does not match the file")
                digest.update(sha.encode())
        score = 0.0
        if "train-dpnets" in events:
            try:
                correct, n = self._rescore(round_dir)
            except (OSError, ValueError, struct.error) as exc:
                problems["train-dpnets"].append(f"cannot re-score the checkpoint: {exc!r}")
            else:
                for op in ("train-dpnets", "eval-dpnets"):
                    acc = events.get(op, {}).get("target_accuracy")
                    if acc is None:
                        continue
                    if abs(acc * n - correct) > 1e-6:
                        problems[op].append(f"reports {acc!r} of {n}, reference re-score gives {correct}")
                    if acc < 0.5:
                        problems[op].append(f"target accuracy {acc} is not well above chance (0.1)")
                score = correct / n
        return Verdict(work=2 * IMAGE_STEPS, digest=digest.hexdigest(), score=score, problems=problems)

    @staticmethod
    def _rescore(round_dir: Path) -> tuple[int, int]:
        """Correct target predictions of the saved dpnets checkpoint, and the
        target size, with the last source domain as support."""
        (cache,) = (round_dir / "cache").glob("*.bin")
        f_phi, f_psi = reference.read_checkpoint(round_dir / "dpnets" / "model.ckpt")
        domains = reference.read_domains(cache)
        return reference.nearest_prototype_correct(f_phi, f_psi, domains[-2], domains[-1]), domains[-1][1].size


class Certify:
    """Randomized certification of every bound inequality."""

    name = "certify"
    ops = ["run_certification"]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        pass

    def run(self):
        try:
            return bounds.run_certification(
                instances=CERT_INSTANCES, decomposition_pairs=CERT_PAIRS, seed=MASTER_SEED, workers=1
            )
        except Exception as exc:  # a failed operation, not a failed benchmark
            return exc

    def verify(self, results) -> Verdict:
        msgs: list[str] = []
        if isinstance(results, Exception):
            return Verdict(0, "", 0.0, {"run_certification": [f"raised {results!r}"]})
        by_name = {r.name: r for r in results}
        if sorted(by_name) != sorted(CERT_FAMILIES):
            msgs.append(f"families {sorted(by_name)}")
        for name, r in by_name.items():
            want = CERT_PAIRS if name == "js_decomposition" else CERT_INSTANCES
            if r.instances != want:
                msgs.append(f"{name}: {r.instances} instances, want {want}")
            if not r.min_slack >= -1e-9:
                msgs.append(f"{name}: min slack {r.min_slack!r} < -1e-9")
        attain = getattr(by_name.get("change_of_measure"), "max_abs_attainment", None)
        if attain is None or not attain <= 1e-9:
            msgs.append(f"change_of_measure attainment {attain!r} (<=1e-9)")
        margin = getattr(by_name.get("decomposed_transfer"), "extras", {}).get("min_relaxation_margin")
        if margin is None or not margin >= -1e-12:
            msgs.append(f"relaxation margin {margin!r} (>=-1e-12)")
        msgs += self._js_reference()
        minima = [(r.name, r.instances, repr(r.min_slack), repr(r.max_abs_attainment), repr(sorted(r.extras.items()))) for r in results]
        passed = sum(1 for r in results if r.passed)
        return Verdict(
            work=5 * CERT_INSTANCES + CERT_PAIRS,
            digest=hashlib.sha256(repr(minima).encode()).hexdigest(),
            score=passed / len(CERT_FAMILIES),
            problems={"run_certification": msgs},
        )

    def _js_reference(self) -> list[str]:
        """bounds.js against the entropy identity and its closed forms on
        distributions drawn from the benchmark's seed."""
        rng = np.random.default_rng([self.seed, 7])
        msgs = []
        for _ in range(200):
            size = int(rng.integers(2, 13))
            p, q = rng.random(size), rng.random(size)
            p[rng.random(size) < 0.2] = 0.0
            p[0] += 0.1
            p, q = p / p.sum(), q / q.sum()
            got, want = bounds.js(p, q), reference.js_entropy(p, q)
            if abs(got - want) > 1e-12:
                msgs.append(f"js {got!r} vs entropy identity {want!r} on size {size}")
            if abs(bounds.js(p, p)) > 1e-12:
                msgs.append(f"js(P, P) = {bounds.js(p, p)!r}")
            disjoint_p = np.concatenate([p, np.zeros(size)])
            disjoint_q = np.concatenate([np.zeros(size), q])
            if abs(bounds.js(disjoint_p, disjoint_q) - np.log(2.0)) > 1e-12:
                msgs.append(f"js on disjoint supports {bounds.js(disjoint_p, disjoint_q)!r}, want ln 2")
        return msgs[:5]


WORKLOADS = {w.name: w for w in (Search2D, Image784, Certify)}
