import json

import numpy as np
import pytest

from sslcl.cli import main
from sslcl.data import generate_synthetic, preset_spec, save_jsonl, split_dataset
from sslcl.evaluation import (ablation_arms, ablation_suite, ablation_summary,
                              ablation_to_csv, batch_size_sweep, canonical_config_json,
                              sweep_svg, sweep_to_csv, train_and_score, write_ablation_report,
                              write_sweep_report)
from sslcl.losses import HyperParams
from sslcl.metrics import weighted_f1
from sslcl.trainer import RunConfig, config_to_flat, train

from oracles import weighted_f1_bruteforce


class TestWeightedF1:
    def test_perfect_predictions(self):
        wf1, per_class = weighted_f1([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert wf1 == 1.0
        assert per_class == [1.0, 1.0, 1.0]

    def test_hand_confusion_case(self):
        wf1, per_class = weighted_f1([0, 1, 1], [0, 0, 1], 2)
        assert abs(per_class[0] - 2 / 3) < 1e-15
        assert abs(per_class[1] - 2 / 3) < 1e-15
        assert abs(wf1 - 2 / 3) < 1e-15

    def test_absent_class_scores_zero_with_zero_weight(self):
        wf1, per_class = weighted_f1([0, 0], [0, 0], 3)
        assert per_class == [1.0, 0.0, 0.0]
        assert wf1 == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            weighted_f1([], [], 2)

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(1, 60))
            golds = rng.integers(0, k, size=n)
            preds = rng.integers(0, k, size=n)
            wf1, per_class = weighted_f1(preds, golds, k)
            oracle_wf1, oracle_pc = weighted_f1_bruteforce(preds.tolist(), golds.tolist(), k)
            assert wf1 == oracle_wf1
            assert per_class == oracle_pc


@pytest.fixture(scope="module")
def quick_dataset():
    return generate_synthetic(preset_spec("meld-like", 120, seed=10))


def _quick_config(**kwargs):
    base = dict(batch_size=16, epochs=2, seeds=(0, 1), hidden_dim=6, feature_dim=4)
    base.update(kwargs)
    return RunConfig(**base)


class TestSweep:
    def test_single_cell_equals_plain_train_and_score(self, quick_dataset):
        config = _quick_config(seeds=(0,))
        sweep = batch_size_sweep(config, quick_dataset, sizes=(4,), modes=("sslcl",))
        # The step budget: bs 16 for 2 epochs on 84 train rows is 12 steps,
        # and bs 4 takes 21 steps an epoch, so the cell trains round(12/21) = 1.
        assert len(split_dataset(quick_dataset, config.split_seed).train) == 84
        direct_cfg = _quick_config(seeds=(0,), batch_size=4, loss_mode="sslcl", epochs=1)
        direct, _ = train_and_score(direct_cfg, quick_dataset, seed=0)
        assert sweep.mean("sslcl", 4) == direct

    def test_library_and_cli_write_the_same_csv(self, quick_dataset, tmp_path):
        # Both hold every cell to the base config's step budget.
        config = _quick_config(seeds=(0,))
        k = quick_dataset.header.num_labels
        sweep = batch_size_sweep(config, quick_dataset, sizes=(4, 8), modes=("ce-only",))
        write_sweep_report(tmp_path / "library", sweep, k)
        save_jsonl(quick_dataset, tmp_path / "data.jsonl")
        (tmp_path / "config.json").write_text(json.dumps(config_to_flat(config)))
        assert main(["sweep-batch", "--data", str(tmp_path / "data.jsonl"),
                     "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "cli"),
                     "--sizes", "4,8", "--modes", "ce-only"]) == 0
        assert ((tmp_path / "cli" / "sweep.csv").read_bytes()
                == (tmp_path / "library" / "sweep.csv").read_bytes())

    @pytest.mark.parametrize("sizes,modes,name", [
        ((4, 8, 4), ("ce-only",), "batch size"), ((4,), ("ce-only", "sslcl", "ce-only"), "loss mode")],
        ids=["size", "mode"])
    def test_repeated_size_or_mode_rejected(self, quick_dataset, sizes, modes, name):
        with pytest.raises(ValueError, match=f"^each {name} may appear once, got "):
            batch_size_sweep(_quick_config(), quick_dataset, sizes=sizes, modes=modes)

    def test_cells_aggregate_all_seeds(self, quick_dataset):
        config = _quick_config()
        sweep = batch_size_sweep(config, quick_dataset, sizes=(8,), modes=("ce-only",))
        assert len(sweep.cells[("ce-only", 8)].scores) == 2

    def test_csv_bytes_deterministic(self, quick_dataset, tmp_path):
        config = _quick_config(seeds=(0,))
        k = quick_dataset.header.num_labels
        s1 = batch_size_sweep(config, quick_dataset, sizes=(4, 8), modes=("ce-only",))
        s2 = batch_size_sweep(config, quick_dataset, sizes=(4, 8), modes=("ce-only",))
        assert sweep_to_csv(s1, k) == sweep_to_csv(s2, k)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        write_sweep_report(d1, s1, k)
        write_sweep_report(d2, s2, k)
        assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
        assert (d1 / "sweep.svg").read_bytes() == (d2 / "sweep.svg").read_bytes()

    def test_stability_statistic(self, quick_dataset):
        config = _quick_config(seeds=(0,), epochs=1)
        sweep = batch_size_sweep(config, quick_dataset, sizes=(2, 32), modes=("ce-only",))
        expected = sweep.mean("ce-only", 2) - sweep.mean("ce-only", 32)
        assert sweep.stability("ce-only") == expected

    def test_parallel_jobs_match_serial(self, quick_dataset):
        config = _quick_config(seeds=(0,), epochs=1)
        serial = batch_size_sweep(config, quick_dataset, sizes=(4, 8), modes=("ce-only",), jobs=1)
        parallel = batch_size_sweep(config, quick_dataset, sizes=(4, 8), modes=("ce-only",), jobs=3)
        k = quick_dataset.header.num_labels
        assert sweep_to_csv(serial, k) == sweep_to_csv(parallel, k)

    def test_svg_has_one_polyline_per_mode(self, quick_dataset):
        config = _quick_config(seeds=(0,), epochs=1)
        sweep = batch_size_sweep(config, quick_dataset, sizes=(4, 8),
                                 modes=("ce-only", "sslcl"))
        svg = sweep_svg(sweep)
        assert svg.count("<polyline") == 2 and svg.startswith("<svg")


class TestAblation:
    def test_arm_inventory(self):
        arms = ablation_arms(RunConfig())
        assert set(arms) == {"full", "measure=dot", "measure=cosine", "-augmentation",
                             "-negative", "-label-label", "le=embedding-only",
                             "le=three-layer"}
        assert arms["-label-label"].hp.label_loss_weight == 0.0
        assert arms["-augmentation"].augmentation is False
        assert arms["-negative"].use_negative_loss is False
        assert arms["le=embedding-only"].le_depth == "embedding-only"
        assert arms["le=embedding-only"].label_embed_dim == RunConfig().feature_dim
        assert arms["le=three-layer"].label_embed_dim == 2 * RunConfig().feature_dim

    def test_label_label_arm_is_lambda_zero_bit_for_bit(self, quick_dataset):
        # The removal arm is literally the weight-zero config: replaying both
        # training runs must produce identical logs.
        arms = ablation_arms(_quick_config(seeds=(0,)))
        lam0 = _quick_config(seeds=(0,), hp=HyperParams(label_loss_weight=0.0))
        assert canonical_config_json(arms["-label-label"]) == canonical_config_json(lam0)
        splits_cfg = arms["-label-label"]
        r1 = train(splits_cfg, quick_dataset, seed=0)
        r2 = train(lam0, quick_dataset, seed=0)
        assert r1.metrics_lines == r2.metrics_lines

    def test_suite_report_and_files(self, quick_dataset, tmp_path):
        config = _quick_config(seeds=(0,), epochs=1)
        report = ablation_suite(config, quick_dataset)
        assert set(report.arms) == set(ablation_arms(config))
        assert report.delta_vs_full("full") == 0.0
        csv_text = ablation_to_csv(report, quick_dataset.header.num_labels)
        assert csv_text.count("\n") == len(report.arms) + 1
        summary = ablation_summary(report)
        assert "soft check" in summary
        write_ablation_report(tmp_path / "out", report, quick_dataset.header.num_labels)
        for name in ("ablation.csv", "summary.txt", "arms.json"):
            assert (tmp_path / "out" / name).exists()

    def test_parallel_jobs_write_serial_report_bytes(self, quick_dataset, tmp_path):
        # Covers every arm: Soft-HGR, dot and cosine, the component removals
        # and the label-net depths.
        config = _quick_config(seeds=(0,), epochs=1)
        k = quick_dataset.header.num_labels
        write_ablation_report(tmp_path / "serial", ablation_suite(config, quick_dataset, jobs=1), k)
        write_ablation_report(tmp_path / "jobs2", ablation_suite(config, quick_dataset, jobs=2), k)
        for name in ("ablation.csv", "summary.txt", "arms.json"):
            assert (tmp_path / "jobs2" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()
