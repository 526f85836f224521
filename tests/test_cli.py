import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from edglab import cli, data, dpnet, harness, nn
from test_batched_bounds import env_to_dict, random_env
from test_data import write_idx


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    events = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return code, events


def last_event(events, name):
    matches = [e for e in events if e["event"] == name]
    assert matches, f"no {name} event in {events}"
    return matches[-1]


class TestGenData:
    def test_generates_loadable_dataset(self, capsys, tmp_path):
        code, events = run_cli(
            capsys,
            ["gen-data", "--dataset", "rplate", "--num-domains", "4", "--samples", "30", "--out", str(tmp_path)],
        )
        assert code == 0
        ev = last_event(events, "gen-data")
        domains = data.load_domains(ev["path"])
        assert len(domains) == 4 and domains[0].n == 30

    def test_cache_dir_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "gen-data", "--dataset", "rplate", "--num-domains", "4", "--samples", "30",
            "--out", str(tmp_path / "o1"), "--cache-dir", str(cache),
        ]
        code, events = run_cli(capsys, argv)
        assert code == 0
        assert any(e["event"] == "dataset-cached" for e in events)
        argv[argv.index("--out") + 1] = str(tmp_path / "o2")
        code, events = run_cli(capsys, argv)
        assert code == 0
        assert any(e["event"] == "dataset-cache-hit" for e in events)

    def test_rmnist_without_files_is_config_error(self, capsys, tmp_path):
        code, events = run_cli(capsys, ["gen-data", "--dataset", "rmnist", "--out", str(tmp_path)])
        assert code == 2
        assert "images" in last_event(events, "config-error")["message"]


class TestTrain:
    def _argv(self, tmp_path, sub, seed="7"):
        return [
            "train", "--algo", "dpnets", "--dataset", "evolcircle", "--seed", seed,
            "--num-domains", "6", "--samples", "40", "--steps", "120", "--out", str(tmp_path / sub),
        ]

    def test_deterministic_checkpoints(self, capsys, tmp_path):
        code1, ev1 = run_cli(capsys, self._argv(tmp_path, "a"))
        code2, ev2 = run_cli(capsys, self._argv(tmp_path, "b"))
        assert code1 == code2 == 0
        h1 = last_event(ev1, "train")["checkpoint_sha256"]
        h2 = last_event(ev2, "train")["checkpoint_sha256"]
        assert h1 == h2
        raw = open(last_event(ev1, "train")["checkpoint"], "rb").read()
        assert hashlib.sha256(raw).hexdigest() == h1

    def test_different_seed_changes_checkpoint(self, capsys, tmp_path):
        _, ev1 = run_cli(capsys, self._argv(tmp_path, "a"))
        _, ev2 = run_cli(capsys, self._argv(tmp_path, "b", seed="8"))
        assert last_event(ev1, "train")["checkpoint_sha256"] != last_event(ev2, "train")["checkpoint_sha256"]

    def test_eval_matches_train_accuracy(self, capsys, tmp_path):
        _, ev = run_cli(capsys, self._argv(tmp_path, "a"))
        train_ev = last_event(ev, "train")
        code, ev2 = run_cli(
            capsys,
            [
                "eval", "--checkpoint", train_ev["checkpoint"], "--dataset", "evolcircle",
                "--seed", "7", "--num-domains", "6", "--samples", "40", "--out", str(tmp_path / "e"),
            ],
        )
        assert code == 0
        assert last_event(ev2, "eval")["target_accuracy"] == pytest.approx(train_ev["target_accuracy"])

    def test_eval_recovers_environment_from_sidecar(self, capsys, tmp_path):
        # No dataset flags at all: the checkpoint sidecar pins the environment.
        _, ev = run_cli(capsys, self._argv(tmp_path, "a"))
        train_ev = last_event(ev, "train")
        code, ev2 = run_cli(
            capsys, ["eval", "--checkpoint", train_ev["checkpoint"], "--out", str(tmp_path / "e")]
        )
        assert code == 0
        assert last_event(ev2, "eval")["target_accuracy"] == pytest.approx(train_ev["target_accuracy"])

    @pytest.mark.parametrize("algo", ["dpnets", "erm"])
    @pytest.mark.parametrize(
        "image,field,trained,found",
        [((2, 2), "feature_dim", 2, 4), ((1, 2), "num_classes", 2, 10)],
        ids=["feature-dim", "num-classes"],
    )
    def test_eval_on_a_dataset_that_does_not_fit_is_config_error(
        self, capsys, tmp_path, algo, image, field, trained, found
    ):
        # 2-D evolcircle weights cannot score rmnist's 4 features; 1×2 images
        # give 2 features but 10 classes.
        argv = ["train", "--algo", algo, "--num-domains", "4", "--samples", "20", "--steps", "5", "--batch", "4"]
        assert cli.main([*argv, "--out", str(tmp_path / "t")]) == 0
        img, lbl = write_idx(tmp_path, np.zeros((60, *image)), np.tile(np.arange(10), 6))
        code, events = run_cli(
            capsys,
            [
                "eval", "--checkpoint", str(tmp_path / "t" / "model.ckpt"), "--dataset", "rmnist",
                "--num-domains", "3", "--samples", "20", "--images", str(img), "--labels", str(lbl),
                "--out", str(tmp_path / "e"),
            ],
        )
        assert code == 2
        message = last_event(events, "config-error")["message"]
        assert f"{field} {trained}," in message and message.endswith(f"has {found}")
        assert not [e for e in events if e["event"] == "eval"]

    def test_zero_steps_saves_the_initial_model(self, capsys, tmp_path):
        argv = ["train", "--num-domains", "4", "--samples", "20", "--batch", "4", "--steps", "0"]
        code, events = run_cli(capsys, [*argv, "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "model.ckpt").exists() and last_event(events, "train")["target_accuracy"] >= 0.0

    def test_erm_train_roundtrip(self, capsys, tmp_path):
        argv = [
            "train", "--algo", "erm-onehot", "--dataset", "rplate", "--seed", "3",
            "--num-domains", "5", "--samples", "30", "--steps", "80", "--out", str(tmp_path / "erm"),
        ]
        code, ev = run_cli(capsys, argv)
        assert code == 0
        sidecar = json.loads((tmp_path / "erm" / "model.json").read_text())
        assert sidecar["algo"] == "erm-onehot" and sidecar["index_mode"] == "onehot"

    def test_erm_reports_progress(self, capsys, tmp_path):
        argv = [
            "train", "--algo", "erm", "--dataset", "evolcircle", "--seed", "7",
            "--num-domains", "6", "--samples", "40", "--steps", "201",
        ]
        code, events = run_cli(capsys, [*argv, "--out", str(tmp_path / "loud")])
        assert code == 0
        progress = [e for e in events if e["event"] == "train-step"]
        assert [e["step"] for e in progress] == [0, 200]
        assert all(isinstance(e["loss"], float) and e["loss"] > 0 for e in progress)
        assert cli.main([*argv, "--quiet", "--out", str(tmp_path / "quiet")]) == 0
        assert not [line for line in capsys.readouterr().out.splitlines() if line.startswith("train-step")]
        assert (tmp_path / "loud" / "model.ckpt").read_bytes() == (tmp_path / "quiet" / "model.ckpt").read_bytes()

    def test_unknown_algo_is_config_error(self, capsys, tmp_path):
        code, events = run_cli(capsys, ["train", "--algo", "mystery", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert cli.main(["train", "--frobnicate"]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli.main(["launch-rockets"]) == 2


class TestSettingsPrecedence:
    def test_config_file_then_set_then_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num-domains": 4, "samples": 30, "dataset": "rplate"}))
        # config file provides values
        code, ev = run_cli(capsys, ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")])
        assert code == 0 and last_event(ev, "gen-data")["domains"] == 4
        # --set overrides config
        code, ev = run_cli(
            capsys,
            ["gen-data", "--config", str(cfg), "--set", "num-domains=5", "--out", str(tmp_path / "b")],
        )
        assert code == 0 and last_event(ev, "gen-data")["domains"] == 5
        # explicit flag overrides both
        code, ev = run_cli(
            capsys,
            [
                "gen-data", "--config", str(cfg), "--set", "num-domains=5",
                "--num-domains", "6", "--out", str(tmp_path / "c"),
            ],
        )
        assert code == 0 and last_event(ev, "gen-data")["domains"] == 6

    def test_missing_config_file(self, capsys, tmp_path):
        code, events = run_cli(capsys, ["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_bad_set_syntax(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["gen-data", "--set", "oops", "--out", str(tmp_path)])
        assert code == 2

    def test_quiet_mode_plain_lines(self, capsys, tmp_path):
        code = cli.main(
            ["gen-data", "--dataset", "rplate", "--num-domains", "4", "--samples", "30",
             "--out", str(tmp_path), "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert not any(line.startswith("{") for line in out.splitlines())
        assert "gen-data" in out


class TestVerifyBounds:
    def test_small_certification(self, capsys, tmp_path):
        code, events = run_cli(
            capsys,
            ["verify-bounds", "--instances", "30", "--decomposition-pairs", "50", "--seed", "1", "--out", str(tmp_path)],
        )
        assert code == 0
        report = json.loads((tmp_path / "slack_report.json").read_text())
        assert report["all_passed"] is True
        names = {r["name"] for r in report["results"]}
        assert names == {
            "synthetic_transfer", "sequential_transfer", "decomposed_transfer",
            "change_of_measure", "js_decomposition",
        }
        assert (tmp_path / "slack_summary.md").exists()

    def test_env_json_certification(self, capsys, tmp_path):
        env = random_env(np.random.default_rng(2), 3, 2, 3, n_maps=4)
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(env_to_dict(*env)))
        code, events = run_cli(
            capsys,
            [
                "verify-bounds", "--instances", "10", "--decomposition-pairs", "10",
                "--env-json", str(env_path), "--out", str(tmp_path),
            ],
        )
        assert code == 0
        report = json.loads((tmp_path / "slack_report.json").read_text())
        assert report["environment"]["path"] == str(env_path)
        assert len(report["environment"]["slacks"]) == 3

    def test_env_json_fixture_report_bytes(self, capsys, tmp_path, monkeypatch):
        # The fixture's family repeats the winning map, so the tie must go to
        # the first copy; the report is pinned byte for byte.
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        code, _ = run_cli(
            capsys,
            ["verify-bounds", "--instances", "20", "--decomposition-pairs", "20",
             "--env-json", "tests/fixtures/env.json", "--out", str(tmp_path)],
        )
        assert code == 0
        digest = hashlib.sha256((tmp_path / "slack_report.json").read_bytes()).hexdigest()
        assert digest == "6fc7a8a414ae978fb6b0f6f52250c6104661301f37749da68c52d5e0adf56bac"

    def test_bad_env_json_is_config_error(self, capsys, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text("{\"domains\": []}")
        code, _ = run_cli(
            capsys,
            ["verify-bounds", "--instances", "5", "--decomposition-pairs", "5",
             "--env-json", str(env_path), "--out", str(tmp_path)],
        )
        assert code == 2

    def test_env_json_is_read_before_certifying(self, capsys, tmp_path, monkeypatch):
        from edglab import bounds

        def refuse(**kwargs):
            raise AssertionError("certification ran before the environment file was checked")

        monkeypatch.setattr(bounds, "run_certification", refuse)
        env_path = tmp_path / "env.json"
        env_path.write_text("{\"domains\": []}")
        out = tmp_path / "out"
        code, events = run_cli(capsys, ["verify-bounds", "--env-json", str(env_path), "--out", str(out)])
        assert code == 2
        assert str(env_path) in last_event(events, "config-error")["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "maps", [[], [[0, 1]], [[0, 1, 2, 0]], [[]]],
        ids=["empty-family", "table-shorter-than-nx", "table-longer-than-nx", "empty-table"],
    )
    def test_malformed_map_family_is_config_error(self, capsys, tmp_path, maps):
        payload = env_to_dict(*random_env(np.random.default_rng(2), 3, 2, 3, n_maps=2))
        payload["candidate_maps"] = maps
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code, events = run_cli(
            capsys,
            ["verify-bounds", "--instances", "2", "--decomposition-pairs", "2",
             "--env-json", str(env_path), "--out", str(out)],
        )
        assert code == 2
        assert "map" in last_event(events, "config-error")["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, value, words",
        [
            ("cell", float("nan"), "non-finite"),
            ("cell", float("inf"), "non-finite"),
            ("cell", 0.75, "sums to"),
            ("cell", True, "numbers"),
            ("cell", "0.25", "numbers"),
            ("domain", {"a": 1}, "numbers"),
            ("table", [0.9, 1.7, 0.0], "integers"),
            ("table", [True, False, True], "integers"),
            ("table", [2**70, 0, 1], "integers"),
            ("domains", 5, "lists"),
            ("domains", [[[0.5, 0.0], [0.25, 0.0], [0.25, 0.0]]] * 2, "two sources"),
            ("domain", [[0.5, 0.0], [0.25, 0.25]], "nx"),
            ("domain", [[0.5, 0.0], [0.25], [0.25, 0.0]], "shape"),
            ("cell", -0.25, "negative"),
            ("domain", [], "nx"),
            ("nx", True, "integers"),
            ("nx", 3.0, "integers"),
            ("ny", True, "integers"),
            ("ny", 2.0, "integers"),
        ],
        ids=[
            "nan-mass", "infinite-mass", "mass-off-one", "bool-cell", "string-cell", "object-domain",
            "fractional-table", "boolean-table", "huge-table-entry", "domains-not-a-list",
            "two-domains", "two-shapes", "ragged-domain", "negative-cell", "empty-domain",
            "bool-nx", "float-nx", "bool-ny", "float-ny",
        ],
    )
    def test_bad_env_values_are_config_errors(self, capsys, tmp_path, where, value, words):
        # A NaN cell used to pass and write a bare NaN into the report; a
        # fractional or boolean table was truncated to integers and certified;
        # the last two raised OverflowError and TypeError. A boolean or string
        # cell was cast to a probability and certified; an object domain raised TypeError.
        # A float size equal to the true one (ny 2.0) was certified too.
        payload = env_to_dict(*random_env(np.random.default_rng(2), 3, 2, 3, n_maps=2))
        if where == "cell":
            payload["domains"][1][0][0] = value
        elif where == "domain":
            payload["domains"][1] = value
        elif where == "table":
            payload["candidate_maps"][0] = value
        else:
            payload[where] = value
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code, events = run_cli(
            capsys,
            ["verify-bounds", "--instances", "2", "--decomposition-pairs", "2",
             "--env-json", str(env_path), "--out", str(out)],
        )
        assert code == 2
        message = last_event(events, "config-error")["message"]
        assert words in message and "np." not in message
        assert not out.exists()


class TestCorruptJsonInputs:
    """A truncated, non-object or incomplete JSON file an earlier command
    wrote is a clean exit 2, not a traceback."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("erm")
        argv = [
            "train", "--algo", "erm", "--dataset", "evolcircle", "--seed", "7",
            "--num-domains", "4", "--samples", "30", "--steps", "5", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        return out

    @pytest.mark.parametrize(
        "text",
        [
            '{"algo": "erm"', '["erm"]', '{"algo": "erm"}', None, {"num_domains": "abc"}, {"algo": "mystery"},
            {"index_mode": "bogus"}, {"index_mode": 3}, {"feature_dim": 7},
            {"num_domains_seen": "x"}, {"num_domains_seen": 1}, {"algo": "dpnets"}, {"hidden": [9]},
        ],
        ids=[
            "truncated", "not-an-object", "no-spec", "no-index-mode", "bad-spec-value", "unknown-algo",
            "unknown-index-mode", "int-index-mode", "wrong-feature-dim",
            "text-domains-seen", "one-domain-seen", "algo-of-two-networks", "wrong-hidden",
        ],
    )
    def test_bad_sidecar_is_input_error(self, capsys, tmp_path, trained, text):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes((trained / "model.ckpt").read_bytes())
        if not isinstance(text, str):
            sidecar = json.loads((trained / "model.json").read_text())
            if text is None:  # complete apart from one field the erm loader reads
                del sidecar["index_mode"]
            elif text.keys() <= sidecar.keys():  # complete, with one bad value of a field train writes
                sidecar.update(text)
            else:  # complete, with one spec value of the wrong type
                sidecar["spec"].update(text)
            text = json.dumps(sidecar)
        ckpt.with_suffix(".json").write_text(text)
        capsys.readouterr()
        code, events = run_cli(capsys, ["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "sidecar" in last_event(events, "input-error")["message"]

    @pytest.mark.parametrize("algo", ["dpnets", "proto"])
    @pytest.mark.parametrize(
        "tamper", ["networks", "feature-dim", "dims", "embed-dim", "float-dims", "float-embed-dim"]
    )
    def test_episodic_checkpoint_that_disagrees_with_its_sidecar_is_input_error(self, capsys, tmp_path, algo, tamper):
        # Networks over 3 features under a sidecar of feature_dim 2 raised
        # ValueError from the forward pass; a feature_dim of 7 blamed the dataset.
        # dims and embed_dim were written but never read: edited, they evaluated with exit 0.
        # A width written as a JSON float is not the integer the networks give.
        out = tmp_path / "t"
        argv = ["train", "--algo", algo, "--num-domains", "4", "--samples", "20", "--steps", "5", "--batch", "4"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        ckpt, sidecar_path = out / "model.ckpt", out / "model.json"
        sidecar = json.loads(sidecar_path.read_text())
        edits = {
            "feature-dim": {"feature_dim": 7},
            "dims": {"dims": [9, 9, 9]},
            "embed-dim": {"embed_dim": 42},
            "float-dims": {"dims": [float(sidecar["dims"][0]), *sidecar["dims"][1:]]},
            "float-embed-dim": {"embed_dim": float(sidecar["embed_dim"])},
        }
        if tamper == "networks":
            nn.save_checkpoint(ckpt, [nn.init_mlp((3, 2), np.random.default_rng(0)) for _ in nn.load_checkpoint(ckpt)])
        else:
            sidecar_path.write_text(json.dumps({**sidecar, **edits[tamper]}))
        capsys.readouterr()
        code, events = run_cli(capsys, ["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        message = last_event(events, "input-error")["message"]
        reason = "feature_dim is" if tamper in ("networks", "feature-dim") else "the checkpoint's networks give"
        assert "sidecar" in message and reason in message
        assert not [e for e in events if e["event"] == "eval"]

    @pytest.fixture(scope="class")
    def raw_cells(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sweep")
        argv = [
            "sweep", "--dataset", "rotatedcloud", "--axis", "distance", "--values", "5,25",
            "--algos", "erm", "--trials", "1", "--n-seeds", "2", "--samples", "40",
            "--num-domains", "4", "--seed", "5", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        return json.loads(sorted((out / "raw").glob("*.json"))[0].read_text())

    # A field of the wrong type, as (field, value).
    WRONG_TYPE = {
        "bad-seeds": ("seeds", 5),
        "bad-hparams": ("hparams", [1, 2]),
        "per-seed-string": ("per_seed", "ab"),
        "per-seed-number": ("per_seed", 5),
        "mean-string": ("mean", "x"),
        "row-number": ("row", 5),
        "error-list": ("error", ["boom"]),
    }
    # Fields of the right type that no search writes: a non-finite number
    # (NaN compares false, so no mean/std comparison catches it),
    # per-seed accuracies without a mean or std and without an error, or a
    # mean or std that is not that of the per-seed accuracies.
    INCONSISTENT = {
        "nan-per-seed": {"per_seed": [0.5, float("nan")], "mean": 0.55},
        "inf-mean": {"mean": float("inf")},
        "nan-std": {"std": float("nan")},
        "null-mean": {"mean": None},
        "null-std": {"std": None},
        "mean-off-per-seed": {"per_seed": [0.5, 0.5], "mean": 0.6, "std": 0.0},
        "std-off-per-seed": {"per_seed": [0.5, 0.5], "mean": 0.5, "std": 0.1},
    }

    @pytest.mark.parametrize(
        "damage", ["truncated", "not-an-object", "no-per-seed", *WRONG_TYPE, *INCONSISTENT, "repeated-cell"]
    )
    def test_bad_raw_cell_is_input_error(self, capsys, tmp_path, raw_cells, damage):
        cell = dict(raw_cells)
        if damage == "no-per-seed":
            del cell["per_seed"]
        elif damage in self.WRONG_TYPE:
            key, value = self.WRONG_TYPE[damage]
            cell[key] = value
        cell.update(self.INCONSISTENT.get(damage, {}))
        text = json.dumps(cell)
        text = {"truncated": text[: len(text) // 2], "not-an-object": "[1, 2]"}.get(damage, text)
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "cell.json").write_text(text)
        if damage == "repeated-cell":  # two files of one (row, algorithm)
            (raw / "copy.json").write_text(text)
        capsys.readouterr()
        code, events = run_cli(capsys, ["report", "--raw", str(raw), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "raw cell" in last_event(events, "input-error")["message"]
        assert not (tmp_path / "r").exists()


class TestSweepAndReport:
    def test_sweep_grid_and_report_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "sweep"
        code, events = run_cli(
            capsys,
            [
                "sweep", "--dataset", "rotatedcloud", "--axis", "distance", "--values", "5,25",
                "--algos", "erm", "--trials", "1", "--n-seeds", "2", "--samples", "40",
                "--num-domains", "4", "--seed", "5", "--out", str(out),
            ],
        )
        assert code == 0
        csv_text = (out / "results.csv").read_text()
        assert "domain_distance=5.0" in csv_text and "domain_distance=25.0" in csv_text
        code, events = run_cli(
            capsys, ["report", "--raw", str(out / "raw"), "--out", str(tmp_path / "rebuilt")]
        )
        assert code == 0
        assert (tmp_path / "rebuilt" / "results.csv").read_text() == csv_text
        # The interpolation study's raw cells rebuild its tables byte for byte.
        out = tmp_path / "interp"
        argv = [
            "interp-study", "--dataset", "rotatedcloud", "--counts", "4,5", "--trials", "2", "--n-seeds", "2",
            "--samples", "130", "--seed", "5", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        assert cli.main(["report", "--raw", str(out / "raw"), "--out", str(tmp_path / "interp-rebuilt")]) == 0
        for suffix in ("csv", "md"):
            rebuilt = (tmp_path / "interp-rebuilt" / f"results.{suffix}").read_bytes()
            assert rebuilt == (out / f"interpolation.{suffix}").read_bytes(), suffix

    def test_raw_cells_keep_the_selected_trial(self, capsys, tmp_path, monkeypatch):
        from edglab import harness

        searches, search = [], harness.random_search

        def recording(*args, **kwargs):
            searches.append(search(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(harness, "random_search", recording)
        out = tmp_path / "sweep"
        argv = [
            "sweep", "--dataset", "rotatedcloud", "--axis", "distance", "--values", "5,25",
            "--algos", "dpnets,erm", "--trials", "2", "--n-seeds", "2", "--samples", "40",
            "--num-domains", "4", "--seed", "5", "--quiet", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        cells = [(f"domain_distance={v}", a) for v in (5.0, 25.0) for a in ("dpnets", "erm")]
        assert len(searches) == len(cells)
        raw = {}
        for path in sorted((out / "raw").glob("*.json")):
            cell = json.loads(path.read_text())
            raw[(cell["row"], cell["algorithm"])] = cell
        for key, res in zip(cells, searches):
            # JSON turns the width tuples into lists.
            assert raw[key]["hparams"] == json.loads(json.dumps(res.best.hparams))
            assert raw[key]["seeds"] == list(res.best.seeds)
        capsys.readouterr()
        code, _ = run_cli(capsys, ["report", "--raw", str(out / "raw"), "--out", str(tmp_path / "rebuilt")])
        assert code == 0
        for name in ("results.csv", "results.md", *(f"raw/{p.name}" for p in (out / "raw").iterdir())):
            assert (tmp_path / "rebuilt" / name).read_bytes() == (out / name).read_bytes(), name
        # Raw cells written before the selection was kept still report.
        for path in (out / "raw").iterdir():
            cell = json.loads(path.read_text())
            del cell["hparams"], cell["seeds"]
            path.write_text(json.dumps(cell))
        code, _ = run_cli(capsys, ["report", "--raw", str(out / "raw"), "--out", str(tmp_path / "old")])
        assert code == 0
        assert (tmp_path / "old" / "results.csv").read_bytes() == (out / "results.csv").read_bytes()

    @pytest.mark.parametrize("quiet", [False, True])
    @pytest.mark.parametrize("failing", ["one-run", "every-run"])
    def test_failures_are_events(self, capsys, tmp_path, monkeypatch, failing, quiet):
        from edglab import baselines, nn

        train_erm, failed = baselines.train_erm, []

        def diverge(domains, runs, *args, **kwargs):
            results = train_erm(domains, runs, *args, **kwargs)
            for i, (_, seed) in enumerate(runs):
                if failing == "every-run" or not failed:
                    results[i] = nn.OptimizerError("non-finite gradient")
                    failed.append(seed)
            return results

        monkeypatch.setattr(baselines, "train_erm", diverge)
        # Each grid has two erm cells of two trials; no dpnets run fails.
        grids = {
            "sweep": (
                ["--dataset", "rotatedcloud", "--axis", "distance", "--values", "5,25", "--algos", "erm",
                 "--samples", "40", "--num-domains", "4"],
                "results.csv",
                {"erm"},
            ),
            "interp-study": (
                ["--dataset", "rotatedcloud", "--counts", "5", "--samples", "130"],
                "interpolation.csv",
                {"erm-extrapolation", "erm-interpolation"},
            ),
        }
        for command, (grid, report, erm_columns) in grids.items():
            failed.clear()
            out = tmp_path / command
            argv = [
                command, *grid, "--trials", "2", "--n-seeds", "1", "--seed", "5", "--out", str(out),
                *(["--quiet"] if quiet else []),
            ]
            code = cli.main(argv)
            lines = capsys.readouterr().out.splitlines()
            if quiet:
                runs = [line for line in lines if line.startswith("run-failed: ")]
                cells = [line for line in lines if line.startswith("cell-failed: ")]
                assert all("error=non-finite gradient" in line for line in runs)
            else:
                events = [json.loads(line) for line in lines]
                runs = [e for e in events if e["event"] == "run-failed"]
                cells = [e for e in events if e["event"] == "cell-failed"]
                assert all(e["error"] == "non-finite gradient" and e["algorithm"] in erm_columns for e in runs)
                assert all("every trial failed" in e["error"] for e in cells)
                assert {e["algorithm"] for e in cells} <= erm_columns
            # The report is written whether or not a cell failed.
            assert (out / report).exists()
            if failing == "one-run":
                assert code == 0 and len(runs) == len(failed) == 1 and not cells
                assert quiet or runs[0]["seed"] == failed[0]
            else:
                # Every trial of both cells failed: each cell reports its failure
                # once, and each of its runs is reported with its own error.
                assert code == 1 and len(failed) == len(runs) == 4 and len(cells) == 2

    def test_bad_axis_rejected(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["sweep", "--set", "axis=zigzag", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,words",
        [
            (["sweep", "--axis", "count", "--values", "2,5"], "num_domains"),
            (["interp-study", "--counts", "2,5"], "num_domains"),
            (["sweep", "--trials", "0"], "--trials"),
            (["sweep", "--n-seeds", "0"], "--n-seeds"),
            (["headline", "--trials", "0"], "--trials"),
            (["headline", "--algos", "erm,bogus"], "bogus"),
            (["train", "--embed", "-1"], "--embed"),
            (["train", "--embed", "0"], "--embed"),
            (["train", "--hidden", "-3"], "--hidden"),
            (["train", "--hidden", "4,0"], "--hidden"),
            (["train", "--steps", "-5"], "--steps"),
            (["train", "--lr", "0"], "--lr"),
            (["train", "--lr", "-1"], "--lr"),
            (["train", "--lr", "nan"], "--lr"),
            (["train", "--lr", "inf"], "--lr"),
            (["gen-data", "--dataset", "rotatedcloud", "--distance", "nan"], "domain_distance"),
            (["gen-data", "--dataset", "rotatedcloud", "--distance", "inf"], "domain_distance"),
            (
                ["sweep", "--dataset", "rotatedcloud", "--axis", "distance", "--values", "10,nan", "--algos", "erm",
                 "--trials", "1", "--n-seeds", "1"],
                "domain_distance",
            ),
            (
                ["sweep", "--dataset", "rplate", "--samples", "4", "--num-domains", "4", "--axis", "distance",
                 "--values", "10,20", "--algos", "erm", "--trials", "1", "--n-seeds", "1",
                 "--strategy", "training_domain_validation"],
                "domain 0 class",
            ),
            (
                ["interp-study", "--dataset", "rplate", "--samples", "4", "--counts", "4,5", "--trials", "1",
                 "--n-seeds", "1", "--strategy", "training_domain_validation"],
                "domain 0 class",
            ),
            # A grid that repeats a cell: 10 and 10.0 are one row.
            (
                ["sweep", "--dataset", "rotatedcloud", "--axis", "distance", "--values", "10,10.0", "--algos", "erm",
                 "--samples", "40", "--num-domains", "4", "--trials", "1", "--n-seeds", "1"],
                "repeats the cell domain_distance=10.0, erm",
            ),
            (
                ["sweep", "--dataset", "rotatedcloud", "--axis", "distance", "--values", "10,20", "--algos", "erm,erm",
                 "--samples", "40", "--num-domains", "4", "--trials", "1", "--n-seeds", "1"],
                "repeats the cell domain_distance=10.0, erm",
            ),
            (
                ["interp-study", "--counts", "4,4", "--samples", "40", "--trials", "1", "--n-seeds", "1"],
                "repeats the cell domains=4, dpnets-extrapolation",
            ),
            (["headline", "--algos", "erm,erm", "--trials", "1", "--n-seeds", "1"], "repeats the cell evolcircle, erm"),
        ],
        ids=[
            "sweep-count-2", "interp-count-2", "sweep-trials-0", "sweep-n-seeds-0", "headline-trials-0",
            "headline-algo", "train-embed-negative", "train-embed-0", "train-hidden-negative", "train-hidden-0",
            "train-steps-negative", "train-lr-0", "train-lr-negative", "train-lr-nan", "train-lr-inf",
            "gen-data-distance-nan", "gen-data-distance-inf", "sweep-distance-nan", "sweep-split-too-small",
            "interp-split-too-small", "sweep-repeated-value", "sweep-repeated-algo", "interp-repeated-count",
            "headline-repeated-algo",
        ],
    )
    def test_bad_sizes_are_config_errors(self, capsys, tmp_path, argv, words):
        code, events = run_cli(capsys, [*argv, "--out", str(tmp_path)])
        assert code == 2
        assert words in last_event(events, "config-error")["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["sweep", "interp-study"])
    def test_rmnist_is_config_error(self, capsys, tmp_path, command):
        # Both generate their datasets; rmnist comes only from IDX files.
        code, events = run_cli(capsys, [command, "--dataset", "rmnist", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "rmnist" in last_event(events, "config-error")["message"]
        assert not (tmp_path / "out").exists()

    def test_report_needs_directory(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["report", "--raw", str(tmp_path / "missing"), "--out", str(tmp_path)])
        assert code == 2


# A two-cell sweep of one short search each.
SMALL_SWEEP = [
    "sweep", "--dataset", "rotatedcloud", "--axis", "distance", "--values", "5,25", "--samples", "40",
    "--num-domains", "4", "--trials", "1", "--n-seeds", "1",
]


class TestExperimentErrors:
    """Exit 1 with ``experiment-error`` is kept for the failures an experiment
    can meet; any other exception is a bug and propagates."""

    def test_diverging_train(self, capsys, tmp_path):
        argv = [
            "train", "--algo", "dpnets", "--num-domains", "6", "--samples", "40", "--steps", "50",
            "--lr", "1e200", "--out", str(tmp_path),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            code, events = run_cli(capsys, argv)
        assert code == 1
        assert last_event(events, "experiment-error")["message"] == "non-finite gradient"

    def test_report_under_a_regular_file(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, events = run_cli(capsys, [*SMALL_SWEEP, "--algos", "erm", "--out", str(blocker / "out")])
        assert code == 1
        assert "cannot write report" in last_event(events, "experiment-error")["message"]

    def test_a_bug_propagates(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise NotImplementedError("a bug, not a failed run")

        monkeypatch.setattr(dpnet, "train", broken)
        with pytest.raises(NotImplementedError, match="a bug"):
            cli.main([*SMALL_SWEEP, "--algos", "dpnets", "--out", str(tmp_path)])


# Every typed setting each subcommand reads, with one bad value for it.
TYPED_SETTINGS = {
    "gen-data": ("dataset", "seed", "num-domains", "samples", "distance"),
    "train": ("dataset", "seed", "num-domains", "samples", "distance", "algo", "steps", "lr", "batch"),
    "eval": ("dataset", "seed", "num-domains", "samples", "distance"),
    "sweep": (
        "dataset", "seed", "num-domains", "samples", "distance",
        "axis", "trials", "n-seeds", "strategy",
    ),
    "interp-study": ("dataset", "seed", "samples", "distance", "trials", "n-seeds", "strategy"),
    "headline": ("seed", "trials", "n-seeds", "strategy"),
    "verify-bounds": ("instances", "decomposition-pairs", "seed"),
}
BAD_VALUES = {
    "dataset": "bogus", "seed": 1.9, "num-domains": "abc", "samples": True, "distance": "abc",
    "algo": "mystery", "steps": 2.5, "lr": True, "batch": "abc", "axis": "zigzag", "trials": True,
    "n-seeds": 1.5, "strategy": "bogus", "instances": "abc", "decomposition-pairs": 0.5,
}


class TestSettingsTable:
    @pytest.mark.parametrize("way", ["flag", "set", "config"])
    @pytest.mark.parametrize(
        "command,key", [(command, key) for command, keys in TYPED_SETTINGS.items() for key in keys]
    )
    def test_bad_value_is_config_error(self, capsys, tmp_path, command, key, way):
        value = BAD_VALUES[key]
        text = value if isinstance(value, str) else json.dumps(value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        given = {"flag": [f"--{key}", text], "set": ["--set", f"{key}={text}"], "config": ["--config", str(cfg)]}
        code, events = run_cli(capsys, [command, *given[way], "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"--{key}" in last_event(events, "config-error")["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["report", "--seed", "1.9"]])
    def test_unread_flag_is_still_checked(self, capsys, tmp_path, argv):
        code, events = run_cli(capsys, [*argv, "--out", str(tmp_path / "out")])
        assert code == 2
        assert argv[1] in last_event(events, "config-error")["message"]

    def test_unread_set_and_config_keys_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": "abc", "no-such-setting": 1}))
        code, events = run_cli(
            capsys,
            ["gen-data", "--dataset", "rplate", "--num-domains", "4", "--samples", "30",
             "--config", str(cfg), "--set", "lr=abc", "--out", str(tmp_path / "out")],
        )
        assert code == 0 and last_event(events, "gen-data")["domains"] == 4

    def test_numbers_from_set_and_config(self, capsys, tmp_path):
        # --set values are parsed by the setting's type; a JSON int is a
        # valid float.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "rotatedcloud", "distance": 12}))
        code, events = run_cli(
            capsys,
            ["gen-data", "--config", str(cfg), "--set", "num-domains=4", "--set", "samples=30",
             "--out", str(tmp_path / "out")],
        )
        assert code == 0
        ev = last_event(events, "gen-data")
        assert (ev["domains"], ev["samples_per_domain"]) == (4, 30)


# Each subcommand's flags; building them from the settings table must
# neither add nor drop one.
COMMON_FLAGS = {"--help", "--out", "--seed", "--config", "--set", "--quiet", "--cache-dir"}
DATASET_FLAGS = {"--dataset", "--num-domains", "--samples", "--distance"}
FLAGS = {
    "gen-data": DATASET_FLAGS | {"--images", "--labels"},
    "train": DATASET_FLAGS | {"--images", "--labels", "--algo", "--steps", "--lr", "--batch", "--hidden", "--embed"},
    "eval": DATASET_FLAGS | {"--images", "--labels", "--checkpoint"},
    "sweep": DATASET_FLAGS | {"--axis", "--values", "--algos", "--trials", "--n-seeds", "--strategy"},
    "interp-study": {"--dataset", "--samples", "--distance", "--counts", "--trials", "--n-seeds", "--strategy"},
    "headline": {"--algos", "--trials", "--n-seeds", "--strategy"},
    "verify-bounds": {"--instances", "--decomposition-pairs", "--env-json"},
    "report": {"--raw"},
}


class TestHelp:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_flags(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == FLAGS[command] | COMMON_FLAGS

    @pytest.mark.parametrize(
        "command",
        ["gen-data", "train", "eval", "sweep", "interp-study", "headline", "verify-bounds", "report"],
    )
    def test_each_subcommand_documents_its_flags(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--out", "--seed", "--config", "--set", "--quiet"):
            assert flag in out


class TestInterpStudyCli:
    def test_small_study(self, capsys, tmp_path):
        code, events = run_cli(
            capsys,
            [
                "interp-study", "--dataset", "rotatedcloud", "--counts", "5,7", "--trials", "1",
                "--n-seeds", "1", "--samples", "130", "--distance", "15", "--seed", "2",
                "--out", str(tmp_path),
            ],
        )
        assert code == 0
        text = (tmp_path / "interpolation.csv").read_text()
        for label in ("dpnets-extrapolation", "erm-extrapolation", "erm-interpolation"):
            assert label in text

    def test_failed_cell_names_the_episode(self, capsys, tmp_path):
        # 40 samples per domain cannot serve the dpnets batch this seed draws,
        # so the cell fails; its run says why.
        argv = [
            "interp-study", "--dataset", "rotatedcloud", "--counts", "5", "--samples", "40", "--trials", "1",
            "--n-seeds", "1", "--seed", "4", "--out", str(tmp_path),
        ]
        code, events = run_cli(capsys, argv)
        assert code == 1
        assert last_event(events, "cell-failed")["algorithm"] == "dpnets-extrapolation"
        runs = [e for e in events if e["event"] == "run-failed"]
        assert [(e["row"], e["algorithm"]) for e in runs] == [("domains=5", "dpnets-extrapolation")]
        assert runs[0]["error"].startswith("episode") and "insufficient per-class samples" in runs[0]["error"]


class TestHeadlineCli:
    def test_raw_cells_keep_the_selection_and_report_back(self, capsys, tmp_path):
        out = tmp_path / "headline"
        argv = ["headline", "--algos", "erm", "--trials", "1", "--n-seeds", "2", "--quiet", "--out", str(out)]
        assert cli.main(argv) == 0
        raw = sorted((out / "raw").glob("*.json"))
        assert [p.name for p in raw] == ["evolcircle__erm.json", "rplate__erm.json"]
        for path in raw:
            cell = json.loads(path.read_text())
            assert isinstance(cell["hparams"], dict) and len(cell["seeds"]) == 2
        # Each cell is the search of master seed child_seed(seed, kind, algo) on data seed 7.
        cell = json.loads((out / "raw" / "rplate__erm.json").read_text())
        domains = data.generate(data.default_spec("rplate", seed=7))
        bare = harness.random_search(
            harness.default_space("rplate"), "erm", domains, n_trials=1, n_seeds=2,
            strategy=harness.SelectionStrategy.ORACLE_MAX_QUERY, master_seed=harness.child_seed(0, "rplate", "erm"),
        )
        assert cell["per_seed"] == list(bare.best.target_accs) and cell["seeds"] == list(bare.best.seeds)
        capsys.readouterr()
        code, _ = run_cli(capsys, ["report", "--raw", str(out / "raw"), "--out", str(tmp_path / "rebuilt")])
        assert code == 0
        assert (tmp_path / "rebuilt" / "results.csv").read_bytes() == (out / "results.csv").read_bytes()
