import hashlib
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from sslcl import trainer
from sslcl.autodiff import Tape
from sslcl.cli import main
from sslcl.data import (FeatureDataset, batch_iter, generate_synthetic, preset_spec, save_jsonl,
                        split_dataset, stack_batches)
from sslcl.evaluation import ablation_arms, train_and_score, train_and_score_seeds
from sslcl.losses import STEP_TERMS, HyperParams
from sslcl.trainer import (LOSS_MODES, Adam, ConfigError, NonFiniteLossError, ParameterStore,
                           RunConfig, TrainResult, compute_step_loss, config_from_flat,
                           config_to_flat, gradcheck, init_params, load_checkpoint, param_group,
                           predict, save_checkpoint, score, train, train_seeds, write_metrics_log)


class TestAdam:
    def test_matches_reference_recurrence_three_steps(self):
        # The reference uses the fixed constants the optimizer documents.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        store = ParameterStore({"enc.w": np.array([1.0])})
        opt = Adam(store, {"encoder": lr})
        theta, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            grad = 0.3 * theta + 0.1  # deterministic pseudo-gradient of the reference
            opt.step(store, {"enc.w": np.array([0.3 * store.arrays["enc.w"][0] + 0.1])})
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert abs(store.arrays["enc.w"][0] - theta) < 1e-12

    def test_flat_group_update_matches_per_parameter_recurrence(self):
        # Two groups, each holding a matrix and a vector, at different rates;
        # the reference runs the recurrence on every parameter on its own.
        b1, b2, eps = 0.9, 0.999, 1e-8
        rng = np.random.default_rng(41)
        lrs = {"encoder": 0.1, "label": 1e-3}
        start = {"enc.w": rng.standard_normal((3, 4)), "enc.b": rng.standard_normal(4),
                 "label.w": rng.standard_normal((2, 5)), "label.b": rng.standard_normal(2)}
        store = ParameterStore({name: arr.copy() for name, arr in start.items()})
        opt = Adam(store, lrs)
        ref = {name: (arr.copy(), np.zeros_like(arr), np.zeros_like(arr))
               for name, arr in start.items()}

        def pseudo_grad(arr):
            return np.sin(3.0 * arr) + 0.1

        for t in range(1, 4):
            opt.step(store, {name: pseudo_grad(arr) for name, arr in store.arrays.items()})
            for name, (theta, m, v) in ref.items():
                grad = pseudo_grad(theta)
                m = b1 * m + (1.0 - b1) * grad
                v = b2 * v + (1.0 - b2) * grad * grad
                m_hat = m / (1.0 - b1 ** t)
                v_hat = v / (1.0 - b2 ** t)
                theta = theta - lrs[param_group(name)] * m_hat / (np.sqrt(v_hat) + eps)
                ref[name] = (theta, m, v)
        for name, (theta, _, _) in ref.items():
            assert store.arrays[name].shape == start[name].shape
            assert np.array_equal(store.arrays[name], theta), name

    def test_zero_rate_leaves_its_group_bit_equal(self):
        rng = np.random.default_rng(42)
        start = {"enc.w": rng.standard_normal((3, 2)), "head.b": rng.standard_normal(3),
                 "label.w": rng.standard_normal((2, 4))}
        store = ParameterStore({name: arr.copy() for name, arr in start.items()})
        opt = Adam(store, {"encoder": 0.1, "head": 0.1, "label": 0.0})
        for _ in range(3):
            opt.step(store, {name: np.cos(arr) for name, arr in store.arrays.items()})
        assert np.array_equal(store.arrays["label.w"], start["label.w"])
        for name in ("enc.w", "head.b"):
            assert not np.any(store.arrays[name] == start[name]), name

    def test_zero_gradient_leaves_parameter_unchanged(self):
        store = ParameterStore({"enc.w": np.array([2.5, -1.0])})
        opt = Adam(store, {"encoder": 0.01})
        for _ in range(3):
            opt.step(store, {"enc.w": np.zeros(2)})
        np.testing.assert_array_equal(store.arrays["enc.w"], [2.5, -1.0])


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
        assert tuple(config_to_flat(RunConfig())) == (
            "hp.alpha", "hp.beta", "hp.gamma", "hp.label_loss_weight", "hp.ce_weight",
            "hp.supcon_temperature", "measure", "le_depth", "loss_mode", "modality_setting",
            "batch_size", "epochs", "seeds", "encoder_lr", "label_net_lr", "augmentation",
            "use_negative_loss", "hidden_dim", "feature_dim", "predictor", "split_seed")

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
        with pytest.raises(ConfigError, match=r"^seeds: .*\[1, 2, 1\]"):
            RunConfig(seeds=(1, 2, 1))
        with pytest.raises(ConfigError, match="^seeds"):
            config_from_flat({"seeds": [3, 3]})
        with pytest.raises(ValueError, match="alpha"):
            HyperParams(alpha=0.0)
        with pytest.raises(FrozenInstanceError):
            RunConfig().batch_size = 2
        with pytest.raises(FrozenInstanceError):
            RunConfig().hp.alpha = 1.0

    @pytest.mark.parametrize("key,value", [
        ("hp.alpha", float("nan")), ("hp.gamma", float("inf")), ("hp.beta", -0.5),
        ("hp.label_loss_weight", float("nan")), ("encoder_lr", float("inf")),
        ("label_net_lr", float("nan")), ("label_net_lr", -1.0), ("feature_dim", 0),
        ("hidden_dim", -1)])
    def test_bad_numbers_are_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            config_from_flat({key: value})

    def test_zero_learning_rate_is_allowed(self):
        assert RunConfig(label_net_lr=0.0, encoder_lr=0.0).label_net_lr == 0.0

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
        # STEP_TERMS is the one definition of the step record, in every mode.
        for loss_mode in LOSS_MODES:
            result = train(_tiny_config(loss_mode=loss_mode), tiny_dataset, seed=0)
            step = json.loads(result.metrics_lines[0])
            assert list(step) == ["step", "epoch", *STEP_TERMS]
            assert type(step["floored_logs"]) is int
            assert all(type(step[name]) is float for name in STEP_TERMS[:-1])
            epoch = json.loads(result.metrics_lines[-1])
            assert set(epoch) == {"epoch", "train_wf1", "eval_wf1"}

    def test_ce_only_learns_separable_data(self, separable_two_class):
        config = RunConfig(loss_mode="ce-only", epochs=50, batch_size=16, seeds=(0,),
                           hidden_dim=16, feature_dim=8)
        result = train(config, separable_two_class, seed=0)
        assert json.loads(result.metrics_lines[-1])["train_wf1"] >= 0.95

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
        broken = TrainResult(result.store, result.metrics_lines[:3] + [None])
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
        with pytest.raises(NonFiniteLossError, match=r"^seed 0: aborted at step 0 \(epoch 0\): "
                                                     r"mul produced non-finite values$"):
            train(_tiny_config(), _blown_up(tiny_dataset), seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_cli_train_exits_two(self, tiny_dataset, tmp_path, capsys):
        path = tmp_path / "blown.jsonl"
        save_jsonl(_blown_up(tiny_dataset), path)
        code = main(["train", "--data", str(path), "--out", str(tmp_path / "run"),
                     "--set", "epochs=1", "--set", "seeds=[0]"])
        assert code == 2
        assert ("runtime failure: seed 0: aborted at step 0 (epoch 0): mul produced non-finite "
                "values" in capsys.readouterr().err)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("failing", [(1,), (1, 2)])
    def test_stacked_abort_names_the_seed_a_serial_run_names(self, tiny_dataset, failing):
        # Give each failing seed one infinite record that it meets at step 2
        # and no seed meets earlier (nor seed 0 at step 2): those seeds
        # diverge after their steps 0 and 1, and the abort names the first.
        config = _tiny_config()
        id_of = {r.text.tobytes(): r.id for r in tiny_dataset.records}
        orders = {seed: [[id_of[row.tobytes()] for row in batch.text]
                         for batch in batch_iter(tiny_dataset, 8, seed=[seed, 0])]
                  for seed in (0, 1, 2)}
        early = {rid for seed in (0, 1, 2) for batch in orders[seed][:2] for rid in batch}
        early |= set(orders[0][2])
        targets = {next(rid for rid in orders[seed][2] if rid not in early) for seed in failing}
        records = [replace(r, text=np.full_like(r.text, np.inf)) if r.id in targets else r
                   for r in tiny_dataset.records]
        dataset = FeatureDataset(tiny_dataset.header, records)
        for seed in failing:
            with pytest.raises(NonFiniteLossError, match=f"^seed {seed}: aborted at step 2 "):
                train(config, dataset, seed=seed)
        with pytest.raises(NonFiniteLossError) as serial:
            train(config, dataset, seed=failing[0])
        with pytest.raises(NonFiniteLossError) as stacked:
            train_seeds(replace(config, seeds=(0, 1, 2)), dataset)
        assert str(stacked.value) == str(serial.value)
        assert str(stacked.value).startswith(f"seed {failing[0]}: aborted at step 2 (epoch 0): ")
        assert "; last step terms: " in str(stacked.value)

    def test_backstop_names_the_parameter_group(self):
        # A VJP that returns a stored infinity raises no floating-point flag;
        # only the backstop check on the returned gradients sees it.
        from sslcl import autodiff as ad
        tape = Tape()
        leaves = ParameterStore({"enc.fusion_b": np.ones(2), "head.bias": np.ones(2)}).leaves(tape)
        bias = leaves["head.bias"]
        out = ad._make("leaky", bias.values.copy(), (bias,), lambda g: (np.full(2, np.inf),))
        with pytest.raises(ad.NonFiniteError, match=r"^backward produced non-finite values "
                                                    r"for head parameter head\.bias$"):
            tape.gradients(ad.sum_all(out))


class TestPredict:
    def test_both_predictors_return_valid_labels(self, tiny_dataset):
        config = _tiny_config()
        result = train(config, tiny_dataset, seed=0)
        for predictor in ("head", "similarity"):
            preds = predict(result.store, tiny_dataset.header,
                            tiny_dataset.records, replace(config, predictor=predictor))
            assert preds.shape == (len(tiny_dataset),)
            assert np.all((preds >= 0) & (preds < tiny_dataset.header.num_labels))

    @pytest.mark.parametrize("predictor", ["head", "similarity"])
    def test_stacked_store_equals_per_seed_calls(self, tiny_dataset, predictor):
        config = _tiny_config(seeds=(0, 1, 2), predictor=predictor)
        results = train_seeds(config, tiny_dataset)
        stacked = ParameterStore.stack([r.store for r in results])
        preds = predict(stacked, tiny_dataset.header, tiny_dataset.records, config)
        assert preds.shape == (3, len(tiny_dataset))
        assert len({tuple(row) for row in preds}) > 1  # the seeds disagree somewhere
        for row, result in zip(preds, results):
            np.testing.assert_array_equal(
                row, predict(result.store, tiny_dataset.header, tiny_dataset.records, config))
        assert (score(stacked, tiny_dataset, config)
                == [score(r.store, tiny_dataset, config)[0] for r in results])

    def test_train_seeds_predicts_once_per_split_per_epoch(self, tiny_dataset, monkeypatch):
        calls = []
        real_predict = trainer.predict

        def counting_predict(store, header, records, config):
            calls.append(len(records))
            return real_predict(store, header, records, config)

        monkeypatch.setattr(trainer, "predict", counting_predict)
        config = _tiny_config(seeds=(0, 1, 2))
        splits = split_dataset(tiny_dataset, config.split_seed)
        train_seeds(config, splits.train, eval_dataset=splits.val)
        assert calls == [len(splits.train), len(splits.val)] * config.epochs
        calls.clear()
        results = train_seeds(config, splits.train,
                              eval_dataset=FeatureDataset(tiny_dataset.header, []))
        assert calls == [len(splits.train)] * config.epochs
        assert json.loads(results[2].metrics_lines[-1])["eval_wf1"] is None


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


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _checkpoint_sha(path, store, config) -> str:
    save_checkpoint(path, store, config)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stacked_arms():
    base = RunConfig(batch_size=8, epochs=2, seeds=(0, 1, 2), hidden_dim=5, feature_dim=3,
                     encoder_lr=3e-3)
    arms = dict(ablation_arms(base))
    arms["supcon"] = replace(base, loss_mode="supcon")
    arms["ce-only"] = replace(base, loss_mode="ce-only")
    return arms


@pytest.fixture(scope="module")
def one_row_tail_dataset():
    # 139 records: a 97-row train split, so the last batch of 8 has one row
    # and the single-sample Soft-HGR fallback runs inside a stacked step.
    dataset = generate_synthetic(preset_spec("meld-like", 139, seed=4))
    assert len(split_dataset(dataset, RunConfig().split_seed).train) % 8 == 1
    return dataset


def _first_steps(config, dataset, size):
    """Each seed's first batch of the given size and initial parameters."""
    batches = [next(batch_iter(dataset, size, seed=[seed, 0])) for seed in config.seeds]
    stores = [init_params(dataset.header, config, np.random.default_rng(seed))
              for seed in config.seeds]
    return batches, stores


class TestStackedTraining:
    """Three seeds trained as one stacked run against three serial runs: the
    one-seed `train`, which runs the plain loop, is the reference."""

    @pytest.mark.parametrize("seeds", [(4,), (0, 1, 2)], ids=["one-seed", "three-seeds"])
    def test_seed_count_picks_the_loop(self, tiny_dataset, monkeypatch, seeds):
        # One seed trains unstacked; several stack one batch per seed each step.
        calls = []
        real_stack = trainer.stack_batches

        def counting_stack(batches):
            calls.append(len(batches))
            return real_stack(batches)

        monkeypatch.setattr(trainer, "stack_batches", counting_stack)
        config = _tiny_config(seeds=seeds)
        results = train_seeds(config, tiny_dataset)
        steps = config.epochs * -(-len(tiny_dataset) // config.batch_size)
        assert calls == ([] if len(seeds) == 1 else [len(seeds)] * steps)
        assert [r.store.arrays["head.weight"].ndim for r in results] == [2] * len(seeds)

    def test_seed_list_comes_only_from_the_config(self, tiny_dataset):
        # No loose seed list: a repeated or empty one fails in RunConfig.
        config = _tiny_config()
        with pytest.raises(TypeError):
            train_seeds(config, tiny_dataset, [1, 1])
        for seeds in ((1, 1), ()):
            with pytest.raises(ConfigError, match="^seeds: "):
                replace(config, seeds=seeds)

    @pytest.mark.parametrize("arm", list(_stacked_arms()))
    def test_each_seed_equals_its_serial_run(self, arm, one_row_tail_dataset, tmp_path):
        config = _stacked_arms()[arm]
        splits = split_dataset(one_row_tail_dataset, config.split_seed)
        stacked = train_seeds(config, splits.train, eval_dataset=splits.val)
        for seed, result in zip(config.seeds, stacked):
            serial = train(config, splits.train, seed=seed, eval_dataset=splits.val)
            assert _sha(result.metrics_lines) == _sha(serial.metrics_lines)
            assert (_checkpoint_sha(tmp_path / "a.json", result.store, config)
                    == _checkpoint_sha(tmp_path / "b.json", serial.store, config))
        results, scores = train_and_score_seeds(config, one_row_tail_dataset)
        assert [r.metrics_lines for r in results] == [r.metrics_lines for r in stacked]
        assert scores == [train_and_score(config, one_row_tail_dataset, seed)
                          for seed in config.seeds]

    @pytest.mark.parametrize("arm", list(_stacked_arms()))
    def test_step_terms_have_the_stack_shape(self, arm, one_row_tail_dataset):
        # Every STEP_TERMS entry has shape () from a plain batch and (S,) from
        # a stacked one, and each seed's slice equals its serial value.
        config = _stacked_arms()[arm]
        for size in (8, 1):
            batches, stores = _first_steps(config, one_row_tail_dataset, size)
            serial = [compute_step_loss(config, store.constants(), batch)[1]
                      for store, batch in zip(stores, batches)]
            _, stacked = compute_step_loss(config, ParameterStore.stack(stores).constants(),
                                           stack_batches(batches))
            for terms in serial + [stacked]:
                assert list(terms) == list(STEP_TERMS)
            for name in STEP_TERMS:
                assert [np.shape(terms[name]) for terms in serial] == [()] * 3
                assert np.shape(stacked[name]) == (3,)
                np.testing.assert_array_equal(stacked[name], [terms[name] for terms in serial])

    @pytest.mark.parametrize("arm", list(_stacked_arms()))
    def test_stacked_step_records_the_serial_op_count(self, arm, one_row_tail_dataset):
        config = _stacked_arms()[arm]
        for size in (8, 1):
            batches, stores = _first_steps(config, one_row_tail_dataset, size)
            counts = []
            for store, batch in zip(stores, batches):
                tape = Tape()
                compute_step_loss(config, store.leaves(tape), batch)
                counts.append(len(tape._records))
            tape = Tape()
            total, _ = compute_step_loss(config, ParameterStore.stack(stores).leaves(tape),
                                         stack_batches(batches))
            assert total.shape == (3,)
            assert counts == [len(tape._records)] * 3
