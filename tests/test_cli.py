import json
import multiprocessing
import os
import re
import shlex
from pathlib import Path

import pytest

from sslcl import evaluation
from sslcl.cli import build_parser, main
from sslcl.data import load_features, split_dataset
from sslcl.evaluation import (DEFAULT_SWEEP_SIZES, ablation_suite, batch_size_sweep,
                              write_ablation_report, write_sweep_report)
from sslcl.trainer import (_CHOICES, LOSS_MODES, NonFiniteLossError, RunConfig, config_from_flat,
                           config_to_flat, save_checkpoint, train, write_metrics_log)


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.jsonl"
    code = main(["gen-data", "--preset", "meld-like", "--n", "80",
                 "--seed", "7", "--out", str(path)])
    assert code == 0
    return path


QUICK = ["--set", "epochs=1", "--set", "batch_size=16", "--set", "seeds=[0]",
         "--set", "hidden_dim=4", "--set", "feature_dim=3"]
QUICK_CONFIG = RunConfig(epochs=1, batch_size=16, seeds=(0,), hidden_dim=4, feature_dim=3)


class TestGenData:
    def test_creates_loadable_file(self, data_file):
        dataset = load_features(data_file)
        assert len(dataset) == 80
        assert dataset.header.num_labels == 7

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen-data", "--preset", "iemocap-like", "--n", "30",
                     "--seed", "3", "--out", str(a)]) == 0
        assert main(["gen-data", "--preset", "iemocap-like", "--n", "30",
                     "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_class_separation_exits_one(self, tmp_path, capsys):
        out = tmp_path / "nan.jsonl"
        assert main(["gen-data", "--preset", "meld-like", "--n", "30",
                     "--class-separation", "nan", "--out", str(out)]) == 1
        assert "class_separation" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_train_writes_artifacts_and_echoes_overrides(self, data_file, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data", str(data_file), "--out", str(out),
                     "--set", "hp.alpha=3.5"] + QUICK)
        assert code == 0
        checkpoint = json.loads((out / "checkpoint_seed0.json").read_text())
        assert checkpoint["config"]["hp.alpha"] == 3.5
        metrics = (out / "metrics_seed0.jsonl").read_text().splitlines()
        assert json.loads(metrics[0])["config"]["hp.alpha"] == 3.5
        assert "L_Train" in json.loads(metrics[1])

    def test_config_file_plus_override(self, data_file, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epochs": 1, "batch_size": 16, "seeds": [0],
                                   "hidden_dim": 4, "feature_dim": 3,
                                   "hp.alpha": 1.0}))
        out = tmp_path / "run_out"
        code = main(["train", "--config", str(cfg), "--data", str(data_file), "--out", str(out),
                     "--set", "hp.alpha=2.0"])
        assert code == 0
        checkpoint = json.loads((out / "checkpoint_seed0.json").read_text())
        assert checkpoint["config"]["hp.alpha"] == 2.0

    def test_unknown_key_exits_one_naming_it(self, data_file, tmp_path, capsys):
        code = main(["train", "--data", str(data_file), "--out", str(tmp_path / "x"),
                     "--set", "hp.zeta=1.0"])
        assert code == 1
        assert "hp.zeta" in capsys.readouterr().err

    def test_value_of_wrong_type_exits_one_naming_it(self, data_file, tmp_path, capsys):
        code = main(["train", "--data", str(data_file), "--out", str(tmp_path / "x")]
                    + QUICK + ["--set", "batch_size=true"])
        assert code == 1
        assert "config key 'batch_size' expects int, got True" in capsys.readouterr().err

    def test_dropped_key_in_config_file_exits_one(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"label_embed_dim": 3}))
        code = main(["train", "--config", str(cfg), "--data", str(data_file),
                     "--out", str(tmp_path / "x")] + QUICK)
        assert code == 1
        assert "unknown config key: 'label_embed_dim'" in capsys.readouterr().err

    def test_config_file_syntax_error_names_the_file(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cut.json"
        cfg.write_text('{"epochs": 1,\n')
        code = main(["train", "--config", str(cfg), "--data", str(data_file),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (f"validation error: {cfg} line 2 column 1: "
                                           "Expecting property name enclosed in double quotes\n")

    def test_data_key_in_config_file_exits_one(self, data_file, tmp_path, capsys):
        # The feature file has one channel, --data.
        cfg = tmp_path / "with_data.json"
        cfg.write_text(json.dumps({"data": str(data_file)}))
        out = tmp_path / "x"
        code = main(["train", "--config", str(cfg), "--data", str(data_file),
                     "--out", str(out)] + QUICK)
        assert code == 1
        assert "unknown config key: 'data'" in capsys.readouterr().err
        assert not out.exists()

    def test_embedding_only_depth_alone_trains(self, data_file, tmp_path):
        out = tmp_path / "emb"
        code = main(["train", "--data", str(data_file), "--out", str(out),
                     "--set", "le_depth=embedding-only"] + QUICK)
        assert code == 0
        checkpoint = json.loads((out / "checkpoint_seed0.json").read_text())
        assert checkpoint["parameters"]["label.embed"]["shape"] == [7, 3]  # feature_dim=3

    def test_seed_environment_variable_is_ignored(self, data_file, tmp_path, monkeypatch):
        # Seeds come only from the config file and --set.
        monkeypatch.setenv("SSLCL_SEED", "3")
        out = tmp_path / "env_run"
        assert main(["train", "--data", str(data_file), "--out", str(out)] + QUICK) == 0
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint_seed0.json",
                                                         "metrics_seed0.jsonl"]

    def test_repeated_seed_exits_one_naming_seeds(self, data_file, tmp_path, capsys):
        out = tmp_path / "dup"
        assert main(["train", "--data", str(data_file), "--out", str(out)] + QUICK
                    + ["--set", "seeds=[1,1]"]) == 1
        assert "seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_stacked_seeds_write_the_files_of_serial_runs(self, data_file, tmp_path, capsys):
        # One stacked run of three seeds against three serial library runs
        # of the same config (which echoes the seed list), then against the
        # printed score lines of three single-seed commands.
        quick = QUICK[:4] + QUICK[6:] + ["--set", "batch_size=8"]
        out = tmp_path / "stacked"
        assert main(["train", "--data", str(data_file), "--out", str(out),
                     "--set", "seeds=[0,1,2]"] + quick) == 0
        stacked_lines = capsys.readouterr().out.splitlines()
        dataset = load_features(data_file)
        config = config_from_flat(json.loads(
            (out / "metrics_seed0.jsonl").read_text().splitlines()[0])["config"])
        assert config.seeds == (0, 1, 2)
        splits = split_dataset(dataset, config.split_seed)
        for seed in (0, 1, 2):
            result = train(config, splits.train, seed=seed, eval_dataset=splits.val)
            write_metrics_log(tmp_path / "metrics.jsonl", config, result)
            save_checkpoint(tmp_path / "checkpoint.json", result.store, config)
            assert ((out / f"metrics_seed{seed}.jsonl").read_bytes()
                    == (tmp_path / "metrics.jsonl").read_bytes())
            assert ((out / f"checkpoint_seed{seed}.json").read_bytes()
                    == (tmp_path / "checkpoint.json").read_bytes())
            assert main(["train", "--data", str(data_file), "--out", str(tmp_path / f"s{seed}"),
                         "--set", f"seeds=[{seed}]"] + quick) == 0
            assert stacked_lines[seed] == capsys.readouterr().out.splitlines()[0]

    def test_missing_data_is_validation_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "y")] + QUICK) == 1

    def test_non_finite_feature_exits_one_at_load(self, data_file, tmp_path, capsys):
        lines = data_file.read_text().splitlines()
        record = json.loads(lines[5])
        record["t"][1] = None
        path = tmp_path / "null.jsonl"
        path.write_text("\n".join(lines[:5] + [json.dumps(record)] + lines[6:]) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(path), "--out", str(out)] + QUICK) == 1
        assert f"validation error: {path} line 6: field 't' must list" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_eval_checkpoint(self, data_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--out", str(out)] + QUICK) == 0
        code = main(["eval", "--checkpoint", str(out / "checkpoint_seed0.json"),
                     "--data", str(data_file), "--split", "test"])
        assert code == 0
        assert "w-F1" in capsys.readouterr().out

    def test_similarity_predictor_mode(self, data_file, tmp_path):
        out = tmp_path / "run2"
        assert main(["train", "--data", str(data_file), "--out", str(out)] + QUICK) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint_seed0.json"),
                     "--data", str(data_file), "--predictor", "similarity"]) == 0

    def test_checkpoint_for_other_label_count_exits_one(self, data_file, tmp_path, capsys):
        # A meld-like (7-class) checkpoint scored on an iemocap-like (6-class) file.
        out = tmp_path / "run3"
        assert main(["train", "--data", str(data_file), "--out", str(out),
                     "--set", "epochs=1", "--set", "batch_size=16", "--set", "seeds=[0]"]) == 0
        other = tmp_path / "iemocap.jsonl"
        assert main(["gen-data", "--preset", "iemocap-like", "--n", "40",
                     "--seed", "1", "--out", str(other)]) == 0
        capsys.readouterr()
        for predictor in ("head", "similarity"):
            code = main(["eval", "--checkpoint", str(out / "checkpoint_seed0.json"),
                         "--data", str(other), "--split", "all", "--predictor", predictor])
            assert code == 1
            captured = capsys.readouterr()
            assert "head.weight has shape [7, 8], the data needs [6, 8]" in captured.err
            assert "w-F1" not in captured.out

    def test_checkpoint_missing_a_parameter_exits_one(self, data_file, tmp_path, capsys):
        out = tmp_path / "run4"
        assert main(["train", "--data", str(data_file), "--out", str(out)] + QUICK) == 0
        path = out / "checkpoint_seed0.json"
        checkpoint = json.loads(path.read_text())
        del checkpoint["parameters"]["label.project_b"]
        path.write_text(json.dumps(checkpoint))
        assert main(["eval", "--checkpoint", str(path), "--data", str(data_file)]) == 1
        assert "label.project_b has shape None" in capsys.readouterr().err

    def test_checkpoint_with_dropped_key_exits_one(self, data_file, tmp_path, capsys):
        out = tmp_path / "run5"
        assert main(["train", "--data", str(data_file), "--out", str(out)] + QUICK) == 0
        path = out / "checkpoint_seed0.json"
        checkpoint = json.loads(path.read_text())
        checkpoint["config"]["adam_beta1"] = 0.9
        path.write_text(json.dumps(checkpoint))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--data", str(data_file)]) == 1
        captured = capsys.readouterr()
        assert "unknown config key: 'adam_beta1'" in captured.err
        assert "w-F1" not in captured.out

    @pytest.mark.parametrize("edit,message", [
        (lambda ck: '{"config": {},\n',
         " line 2 column 1: Expecting property name enclosed in double quotes"),
        (lambda ck: {"config": {}}, ": a checkpoint must hold a 'config' and a 'parameters' object"),
        (lambda ck: {"config": [], "parameters": {}}, ": a checkpoint must hold a 'config'"),
        (lambda ck: _set_param(ck, shape=[2], values=[1.0, 2.0, 3.0]),
         " parameter 'enc.text_proj': field 'values' must list 2 finite numbers, got [1.0, 2.0, 3.0]"),
        (lambda ck: _set_first_value(ck, "x"),
         " parameter 'enc.text_proj': field 'values' must list 40 finite numbers, got ['x', "),
        (lambda ck: _set_first_value(ck, float("nan")),
         " parameter 'enc.text_proj': field 'values' must list 40 finite numbers, got [nan, "),
        (lambda ck: _set_first_value(ck, True),
         " parameter 'enc.text_proj': field 'values' must list 40 finite numbers, got [True, "),
        (lambda ck: _set_param(ck, shape=[4, -10]),
         " parameter 'enc.text_proj': field 'shape' must list integers >= 0, got [4, -10]"),
        (lambda ck: _set_param(ck, shape=None),
         " parameter 'enc.text_proj': field 'shape' must list integers >= 0, got None")],
        ids=["json-syntax", "no-parameters", "config-list", "values-vs-shape", "string-value",
             "nan-value", "true-value", "negative-shape", "absent-shape"])
    def test_malformed_checkpoint_exits_one_naming_the_file(self, data_file, tmp_path, capsys,
                                                            edit, message):
        out = tmp_path / "run6"
        assert main(["train", "--data", str(data_file), "--out", str(out)] + QUICK) == 0
        path = out / "checkpoint_seed0.json"
        edited = edit(json.loads(path.read_text()))
        path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--data", str(data_file)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"validation error: {path}{message}")
        assert "w-F1" not in captured.out

    def test_missing_checkpoint_is_runtime_failure(self, data_file, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                     "--data", str(data_file)])
        assert code == 2


class TestSweepAndAblate:
    def test_sweep_batch_writes_report(self, data_file, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep-batch", "--data", str(data_file), "--out", str(out),
                     "--sizes", "4", "--modes", "ce-only"] + QUICK)
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.svg").exists()
        assert (out / "base_config.json").exists()

    def test_ablate_writes_report(self, data_file, tmp_path):
        out = tmp_path / "ablation"
        code = main(["ablate", "--data", str(data_file), "--out", str(out)] + QUICK)
        assert code == 0
        assert (out / "ablation.csv").exists()
        assert (out / "arms.json").exists()

    def test_library_sweep_writes_the_cli_report(self, data_file, tmp_path):
        assert main(["sweep-batch", "--data", str(data_file), "--out", str(tmp_path / "cli"),
                     "--sizes", "4,8", "--modes", "ce-only"] + QUICK) == 0
        dataset = load_features(data_file)
        sweep = batch_size_sweep(QUICK_CONFIG, dataset, sizes=(4, 8), modes=("ce-only",))
        write_sweep_report(tmp_path / "lib", sweep, dataset.header.num_labels)
        _assert_same_files(tmp_path / "cli", tmp_path / "lib")

    def test_library_ablation_writes_the_cli_report(self, data_file, tmp_path):
        assert main(["ablate", "--data", str(data_file), "--out", str(tmp_path / "cli")]
                    + QUICK) == 0
        dataset = load_features(data_file)
        report = ablation_suite(QUICK_CONFIG, dataset)
        write_ablation_report(tmp_path / "lib", report, dataset.header.num_labels)
        _assert_same_files(tmp_path / "cli", tmp_path / "lib")

    def test_sweep_batch_jobs_leaves_no_worker_running(self, data_file, tmp_path):
        code = main(["sweep-batch", "--data", str(data_file), "--out", str(tmp_path / "sweep"),
                     "--sizes", "4,8", "--modes", "ce-only", "--jobs", "2"] + QUICK)
        assert code == 0
        assert multiprocessing.active_children() == []

    def test_task_error_in_worker_is_runtime_failure(self, data_file, tmp_path, monkeypatch,
                                                     capsys):
        # Forked workers inherit the patched module attribute.
        def diverge(config, dataset):
            raise NonFiniteLossError(f"loss diverged for seeds {list(config.seeds)}")

        monkeypatch.setattr(evaluation, "train_and_score_seeds", diverge)
        code = main(["ablate", "--data", str(data_file), "--out", str(tmp_path / "ab"),
                     "--jobs", "2"] + QUICK)
        assert code == 2
        assert "runtime failure: loss diverged" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_runtime_failure(self, data_file, tmp_path, monkeypatch, capsys):
        def die(config, dataset):
            os._exit(1)

        monkeypatch.setattr(evaluation, "train_and_score_seeds", die)
        code = main(["ablate", "--data", str(data_file), "--out", str(tmp_path / "ab"),
                     "--jobs", "2"] + QUICK)
        assert code == 2
        assert "runtime failure:" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_repeated_batch_size_exits_one(self, data_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-batch", "--data", str(data_file), "--out", str(out),
                     "--sizes", "2,2", "--modes", "ce-only"] + QUICK)
        assert code == 1
        assert "each batch size may appear once, got [2, 2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--sizes", ""), ("--sizes", "2,x"), ("--sizes", "2,,4"), ("--modes", ""),
        ("--modes", "sslcl,,supcon"), ("--modes", "focal")],
        ids=["sizes-empty", "sizes-not-int", "sizes-empty-entry", "modes-empty",
             "modes-empty-entry", "modes-unknown"])
    def test_malformed_sweep_list_is_usage_error(self, data_file, tmp_path, capsys, flag, value):
        out = tmp_path / "sweep"
        code = main(["sweep-batch", "--data", str(data_file), "--out", str(out),
                     flag, value] + QUICK)
        assert code == 1
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_lists_default_to_the_library_defaults(self):
        args = build_parser().parse_args(["sweep-batch", "--data", "d.jsonl", "--out", "o"])
        assert args.sizes == DEFAULT_SWEEP_SIZES
        assert args.modes == LOSS_MODES
        args = build_parser().parse_args(["sweep-batch", "--data", "d.jsonl", "--out", "o",
                                          "--sizes", "2,8", "--modes", "ce-only,sslcl"])
        assert (args.sizes, args.modes) == ((2, 8), ("ce-only", "sslcl"))

    def test_jobs_below_one_is_usage_error(self, data_file, tmp_path, capsys):
        code = main(["ablate", "--data", str(data_file), "--out", str(tmp_path / "ab"),
                     "--jobs", "0"] + QUICK)
        assert code == 1
        assert "jobs must be at least 1" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_config_passes(self, capsys):
        code = main(["gradcheck", "--set", "seeds=[0]"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestUsageErrors:
    @pytest.mark.parametrize("override,key", [
        ("hp.alpha=NaN", "hp.alpha"), ("encoder_lr=Infinity", "encoder_lr"),
        ("feature_dim=0", "feature_dim")])
    def test_bad_number_exits_one_naming_the_key(self, data_file, tmp_path, capsys,
                                                  override, key):
        code = main(["train", "--data", str(data_file), "--out", str(tmp_path / "x")]
                    + QUICK + ["--set", override])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {key} ")

    @pytest.mark.parametrize("key", sorted(_CHOICES))
    def test_bad_choice_exits_one_naming_key_and_value(self, data_file, tmp_path, capsys, key):
        code = main(["train", "--data", str(data_file), "--out", str(tmp_path / "x")]
                    + QUICK + ["--set", f"{key}=bogus"])
        assert code == 1
        assert capsys.readouterr().err == (f"config error: {key} must be one of "
                                           f"{_CHOICES[key]}, got 'bogus'\n")

    def test_bad_subcommand_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value_exits_one(self):
        assert main(["gen-data", "--preset", "nonsense", "--n", "10",
                     "--out", "x.jsonl"]) == 1


def _set_param(checkpoint, **entry):
    """The checkpoint with fields of its `enc.text_proj` entry replaced."""
    checkpoint["parameters"]["enc.text_proj"].update(entry)
    return checkpoint


def _set_first_value(checkpoint, value):
    """The checkpoint with the first of `enc.text_proj`'s values replaced."""
    checkpoint["parameters"]["enc.text_proj"]["values"][0] = value
    return checkpoint


def _assert_same_files(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_readme_commands_parse():
    # Every command of README's "Command line" block must still parse.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("sslcl ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_config_keys_match_the_config():
    # README's key paragraph: the stated count, every key in artifact order,
    # and each choice key's list of values.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(next(block for block in readme.split("\n\n")
                              if "keys mirror `RunConfig`" in block).split())
    flat = config_to_flat(RunConfig())
    assert int(re.search(r"The (\d+) keys", paragraph).group(1)) == len(flat)
    named = [token for token in re.findall(r"`([^`]+)`", paragraph) if token in flat]
    assert list(dict.fromkeys(named)) == list(flat)
    choices = {key: tuple(re.findall(r"`([^`]+)`", values)) for key, values in
               re.findall(r"`([\w.]+)` \(((?:`[^`]+`/ ?)+`[^`]+`)\)", paragraph)}
    assert choices == _CHOICES
