import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sslcl.cli import main
from sslcl.data import FeatureDataset, generate_synthetic, preset_spec, save_jsonl, split_dataset
from sslcl.losses import HyperParams
from sslcl.trainer import (FLAT_KEYS, Adam, ConfigError, NonFiniteLossError, ParameterStore,
                           RunConfig, TrainResult, config_from_flat, config_to_flat, gradcheck,
                           load_checkpoint, predict, save_checkpoint, train,
                           write_metrics_log)


class TestAdam:
    def test_matches_reference_recurrence_three_steps(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        store = ParameterStore({"w": np.array([1.0])})
        opt = Adam(["w"], lr, b1, b2, eps)
        theta, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            grad = 0.3 * theta + 0.1  # deterministic pseudo-gradient of the reference
            opt.step(store, {"w": np.array([0.3 * store.arrays["w"][0] + 0.1])})
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert abs(store.arrays["w"][0] - theta) < 1e-12

    def test_zero_gradient_leaves_parameter_unchanged(self):
        store = ParameterStore({"w": np.array([2.5, -1.0])})
        opt = Adam(["w"], 0.01)
        for _ in range(3):
            opt.step(store, {"w": np.zeros(2)})
        np.testing.assert_array_equal(store.arrays["w"], [2.5, -1.0])


class TestConfigFlat:
    def test_round_trip(self):
        config = RunConfig(batch_size=4, epochs=3, measure="dot",
                           hp=HyperParams(alpha=1.5, gamma=0.5))
        flat = config_to_flat(config)
        rebuilt = config_from_flat(flat)
        assert config_to_flat(rebuilt) == flat

    def test_unknown_key_names_offender(self):
        with pytest.raises(ConfigError, match="hp.delta"):
            config_from_flat({"hp.delta": 1.0})

    def test_hp_override(self):
        config = config_from_flat({"hp.alpha": 3.0, "batch_size": 2})
        assert config.hp.alpha == 3.0 and config.batch_size == 2

    def test_defaults_match_stated_regime(self):
        config = RunConfig()
        assert config.hp.alpha == 2.0
        assert config.hp.beta == 0.5
        assert config.hp.ce_weight == 1.0
        assert config.label_net_lr == 1e-5
        assert len(config.seeds) == 5

    def test_invalid_measure_rejected(self):
        with pytest.raises(ConfigError):
            config_from_flat({"measure": "manhattan"})

    def test_flat_key_order_is_pinned(self):
        # Artifact bytes and config hashes depend on this order.
        assert FLAT_KEYS == (
            "hp.alpha", "hp.beta", "hp.gamma", "hp.label_loss_weight", "hp.ce_weight",
            "hp.supcon_temperature", "measure", "le_depth", "loss_mode", "modality_setting",
            "batch_size", "epochs", "seeds", "encoder_lr", "label_net_lr", "augmentation",
            "use_negative_loss", "hidden_dim", "feature_dim", "predictor", "split_seed")
        assert tuple(config_to_flat(RunConfig())) == FLAT_KEYS

    @pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2", "adam_eps",
                                     "le_hidden_dim", "label_embed_dim"])
    def test_dropped_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key: '{key}'"):
            config_from_flat({key: 8})

    @pytest.mark.parametrize("key,value", [
        ("batch_size", True), ("epochs", 2.5), ("seeds", [1.7]), ("seeds", [True]),
        ("seeds", 3), ("hp.alpha", True), ("split_seed", "7"), ("measure", 5),
        ("augmentation", 1)])
    def test_wrong_value_type_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}' expects"):
            config_from_flat({key: value})

    def test_numbers_convert_to_the_field_type(self):
        config = config_from_flat({"hp.alpha": 3, "encoder_lr": 1, "epochs": 3.0,
                                   "seeds": [4, 5.0]})
        assert type(config.hp.alpha) is float and config.hp.alpha == 3.0
        assert type(config.encoder_lr) is float and config.encoder_lr == 1.0
        assert type(config.epochs) is int and config.epochs == 3
        assert config.seeds == (4, 5) and all(type(s) is int for s in config.seeds)

    def test_configs_check_themselves_and_are_frozen(self):
        with pytest.raises(ConfigError, match="batch_size"):
            RunConfig(batch_size=0)
        with pytest.raises(ConfigError, match="seed list"):
            RunConfig(seeds=())
        with pytest.raises(ValueError, match="alpha"):
            HyperParams(alpha=0.0)
        with pytest.raises(FrozenInstanceError):
            RunConfig().batch_size = 2
        with pytest.raises(FrozenInstanceError):
            RunConfig().hp.alpha = 1.0

    def test_label_table_width_is_derived(self):
        assert RunConfig(feature_dim=5).label_embed_dim == 10
        assert RunConfig(feature_dim=5, le_depth="three-layer").label_embed_dim == 10
        config = config_from_flat({"le_depth": "embedding-only", "feature_dim": 5})
        assert config.label_embed_dim == 5


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(preset_spec("iemocap-like", 60, seed=5))


@pytest.fixture(scope="module")
def separable_two_class():
    from sslcl.data import SyntheticSpec
    spec = SyntheticSpec(num_labels=2, class_proportions=(0.5, 0.5), n_samples=120,
                         class_separation=6.0,
                         modality_noise={"text": 0.3, "audio": 0.4, "visual": 0.4},
                         seed=3)
    return generate_synthetic(spec)


def _epoch_train_means(result):
    per_epoch = {}
    for line in result.metrics_lines:
        rec = json.loads(line)
        if "L_Train" in rec:
            per_epoch.setdefault(rec["epoch"], []).append(rec["L_Train"])
    return [float(np.mean(per_epoch[e])) for e in sorted(per_epoch)]


def _tiny_config(**kwargs):
    base = dict(batch_size=8, epochs=2, seeds=(0,), hidden_dim=4, feature_dim=3)
    base.update(kwargs)
    return RunConfig(**base)


class TestTrain:
    def test_identical_seeds_reproduce_identical_logs(self, tiny_dataset):
        config = _tiny_config()
        r1 = train(config, tiny_dataset, seed=0)
        r2 = train(config, tiny_dataset, seed=0)
        assert r1.metrics_lines == r2.metrics_lines
        for name in r1.store.arrays:
            np.testing.assert_array_equal(r1.store.arrays[name], r2.store.arrays[name])

    def test_different_seeds_differ(self, tiny_dataset):
        config = _tiny_config()
        r1 = train(config, tiny_dataset, seed=0)
        r2 = train(config, tiny_dataset, seed=1)
        assert r1.metrics_lines != r2.metrics_lines

    def test_text_only_augmentation_flag_is_inert(self, tiny_dataset):
        on = _tiny_config(modality_setting="text-only", augmentation=True)
        off = _tiny_config(modality_setting="text-only", augmentation=False)
        r_on = train(on, tiny_dataset, seed=3)
        r_off = train(off, tiny_dataset, seed=3)
        assert r_on.metrics_lines == r_off.metrics_lines

    def test_label_net_only_touched_by_label_optimizer(self, tiny_dataset):
        # With a zero label-net learning rate the label parameters must not move.
        config = _tiny_config(label_net_lr=0.0)
        rng = np.random.default_rng(0)
        from sslcl.trainer import init_params
        before = init_params(tiny_dataset.header, config, rng)
        result = train(config, tiny_dataset, seed=0)
        for name in before.arrays:
            if name.startswith("label."):
                np.testing.assert_array_equal(result.store.arrays[name], before.arrays[name])
            else:
                assert np.any(result.store.arrays[name] != before.arrays[name])

    def test_step_records_have_schema_keys(self, tiny_dataset):
        result = train(_tiny_config(), tiny_dataset, seed=0)
        step = json.loads(result.metrics_lines[0])
        for key in ("step", "epoch", "l_pos_mean", "l_neg_mean", "L_Label",
                    "L_SSLCL", "L_CE", "L_Train", "floored_logs"):
            assert key in step
        epoch = json.loads(result.metrics_lines[-1])
        assert set(epoch) == {"epoch", "train_wf1", "eval_wf1"}

    def test_ce_only_learns_separable_data(self, separable_two_class):
        config = RunConfig(loss_mode="ce-only", epochs=50, batch_size=16, seeds=(0,),
                           hidden_dim=16, feature_dim=8)
        result = train(config, separable_two_class, seed=0)
        assert result.epoch_scores[-1]["train_wf1"] >= 0.95

    def test_sslcl_loss_strictly_decreases(self, separable_two_class):
        config = RunConfig(epochs=10, batch_size=16, seeds=(0,), hidden_dim=16,
                           feature_dim=8, augmentation=False)
        means = _epoch_train_means(train(config, separable_two_class, seed=0))
        assert all(later < earlier for earlier, later in zip(means, means[1:]))

    def test_sslcl_with_views_decreases_after_warmup(self, separable_two_class):
        # The augmented positive terms rise for one epoch while feature norms
        # grow into the frozen-random label anchors, then the trend is clean.
        config = RunConfig(epochs=10, batch_size=16, seeds=(0,), hidden_dim=16,
                           feature_dim=8)
        means = _epoch_train_means(train(config, separable_two_class, seed=0))
        assert all(later < earlier for earlier, later in zip(means[1:], means[2:]))
        assert means[-1] < means[1]


class TestCheckpoint:
    def test_round_trip(self, tiny_dataset, tmp_path):
        config = _tiny_config()
        result = train(config, tiny_dataset, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result.store, config)
        store, loaded_config = load_checkpoint(path)
        assert config_to_flat(loaded_config) == config_to_flat(config)
        for name, arr in result.store.arrays.items():
            np.testing.assert_array_equal(store.arrays[name], arr)

    def test_checkpoint_bytes_deterministic(self, tiny_dataset, tmp_path):
        config = _tiny_config()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, train(config, tiny_dataset, seed=0).store, config)
        save_checkpoint(p2, train(config, tiny_dataset, seed=0).store, config)
        assert p1.read_bytes() == p2.read_bytes()


class TestAtomicWrites:
    """A write that fails part-way leaves the previous file and no temp file."""

    def test_failed_metrics_log_keeps_previous_file(self, tiny_dataset, tmp_path):
        config = _tiny_config()
        result = train(config, tiny_dataset, seed=0)
        path = tmp_path / "metrics.jsonl"
        write_metrics_log(path, config, result)
        before = path.read_bytes()
        # The header line is written before the bad record fails.
        broken = TrainResult(result.store, result.metrics_lines[:3] + [None], [], 0)
        with pytest.raises(TypeError):
            write_metrics_log(path, config, broken)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_checkpoint_keeps_previous_file(self, tiny_dataset, tmp_path):
        config = _tiny_config()
        store = train(config, tiny_dataset, seed=0).store
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, store, config)
        before = path.read_bytes()
        broken = ParameterStore(dict(store.arrays))
        broken.arrays["head.bias"] = np.array([object()])  # json cannot encode it
        with pytest.raises(TypeError):
            save_checkpoint(path, broken, config)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def _blown_up(dataset):
    """Text features so large that squaring the fused features overflows."""
    return FeatureDataset(dataset.header,
                          [replace(r, text=r.text * 1e200) for r in dataset.records])


class TestDivergence:
    """A real overflow inside training, not a patched one."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_abort_names_op_step_and_epoch(self, tiny_dataset):
        with pytest.raises(NonFiniteLossError,
                           match=r"^aborted at step 0 \(epoch 0\): mul produced non-finite values$"):
            train(_tiny_config(), _blown_up(tiny_dataset), seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_cli_train_exits_two(self, tiny_dataset, tmp_path, capsys):
        path = tmp_path / "blown.jsonl"
        save_jsonl(_blown_up(tiny_dataset), path)
        code = main(["train", "--data", str(path), "--out", str(tmp_path / "run"),
                     "--set", "epochs=1", "--set", "seeds=[0]"])
        assert code == 2
        assert ("runtime failure: aborted at step 0 (epoch 0): mul produced non-finite values"
                in capsys.readouterr().err)


class TestPredict:
    def test_both_predictors_return_valid_labels(self, tiny_dataset):
        config = _tiny_config()
        result = train(config, tiny_dataset, seed=0)
        for predictor in ("head", "similarity"):
            preds = predict(result.store, tiny_dataset.header,
                            tiny_dataset.records, replace(config, predictor=predictor))
            assert preds.shape == (len(tiny_dataset),)
            assert np.all((preds >= 0) & (preds < tiny_dataset.header.num_labels))


class TestGradcheck:
    def test_all_modes_pass(self):
        report = gradcheck(RunConfig(), instances_per_mode=2, seed=5)
        assert report.passed, report.summary()
        modes = {row["mode"] for row in report.rows}
        assert modes == {"sslcl+augmentation", "sslcl-augmentation", "supcon", "ce-only"}

    def test_label_net_group_is_checked_in_ce_mode(self):
        report = gradcheck(RunConfig(), instances_per_mode=1, seed=6)
        ce_groups = {row["group"] for row in report.rows if row["mode"] == "ce-only"}
        assert "label" in ce_groups
        label_row = [row for row in report.rows
                     if row["mode"] == "ce-only" and row["group"] == "label"][0]
        assert label_row["max_rel_err"] < 1e-4
