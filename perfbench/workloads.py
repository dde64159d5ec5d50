"""The benchmark's workloads. Each has a set-up, a round that is timed and
repeated, and checks on the last round's outputs.

The program is driven through its public functions only, looked up on
their modules at call time so that a traced run sees every call.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import oracle
from sslcl import autodiff, cli, data, encoder, evaluation, label_embedding, metrics, similarity, trainer

PRESET = "meld-like"


@dataclass
class Round:
    wall_s: float
    train_s: float   # time in training calls; the whole command for ablation
    rows: int        # training rows through forward, backward and Adam
    ops: int         # operations attempted: training steps or ablation tasks
    outputs: object


def _arrays(records, header):
    """Batch arrays built by the benchmark itself; absent modalities are 0."""
    def stack(field, dim):
        return np.array([np.zeros(dim) if getattr(r, field) is None else getattr(r, field)
                         for r in records], dtype=np.float64)
    return (stack("text", header.text_dim), stack("audio", header.audio_dim),
            stack("visual", header.visual_dim), np.array([r.label for r in records]))


class Training:
    """Train with the default objective, write the metrics log and a
    checkpoint, then score the test split with both predictors."""

    def __init__(self, records: int, batch_size: int, epochs: int):
        self.records = records
        self.config = trainer.RunConfig(batch_size=batch_size, epochs=epochs)

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.config = replace(self.config, seeds=(seed,))
        path = work / "features.jsonl"
        data.save_jsonl(data.generate_synthetic(data.preset_spec(PRESET, self.records, seed)), path)
        self.dataset = data.load_features(path)
        self.splits = data.split_dataset(self.dataset, self.config.split_seed)
        n_train = len(self.splits.train)
        self.rows = self.config.epochs * n_train
        self.ops_per_round = self.config.epochs * math.ceil(n_train / self.config.batch_size)

    def run_round(self, index: int) -> Round:
        config, header = self.config, self.dataset.header
        test = self.splits.test.records
        golds = [r.label for r in test]
        start = perf_counter()
        result = trainer.train(config, self.splits.train, seed=self.seed,
                               eval_dataset=self.splits.val)
        trained = perf_counter()
        trainer.write_metrics_log(self.work / "metrics.jsonl", config, result)
        trainer.save_checkpoint(self.work / "checkpoint.json", result.store, config)
        scores = {}
        for predictor in ("head", "similarity"):
            preds = trainer.predict(result.store, header, test,
                                    replace(config, predictor=predictor))
            scores[predictor] = (preds, metrics.weighted_f1(preds, golds, header.num_labels)[0])
        end = perf_counter()
        return Round(end - start, trained - start, self.rows, self.ops_per_round, (result, scores))

    def check(self, last: Round) -> list[str]:
        result, scores = last.outputs
        config, header = self.config, self.dataset.header
        problems = []

        # Step-0 loss of the metrics log against the extended-precision evaluator.
        batch = next(data.batch_iter(self.splits.train, config.batch_size,
                                     seed=[self.seed, 0], shuffle=True))
        init = trainer.init_params(header, config, np.random.default_rng(self.seed))
        with open(self.work / "metrics.jsonl", encoding="utf-8") as fh:
            step0 = json.loads(fh.readlines()[1])
        problems.append(checks.loss_matches(step0["L_Train"], float(self._loss(init.arrays, batch))))

        # Tape gradients at the final parameters against central differences.
        tape = autodiff.Tape()
        total, _ = trainer.compute_step_loss(config, result.store.leaves(tape), batch)
        analytic = tape.gradients(total)
        params = result.store.arrays
        coords = checks.pick_coordinates({k: v.shape for k, v in params.items()}, 2,
                                         np.random.default_rng(self.seed))
        numeric = checks.central_differences(lambda p: self._loss(p, batch), params, coords)
        problems.append(checks.gradients_match(analytic, numeric))

        # The checkpoint holds exactly the final parameters.
        with open(self.work / "checkpoint.json", encoding="utf-8") as fh:
            saved = json.load(fh)["parameters"]
        for name, arr in result.store.arrays.items():
            entry = saved.get(name)
            if entry is None or not np.array_equal(
                    np.array(entry["values"]).reshape(entry["shape"]), arr):
                problems.append(f"checkpoint parameter {name} differs from the trained one")

        # Scores: own confusion-matrix count, and better than the majority class.
        test = self.splits.test.records
        golds = [r.label for r in test]
        for predictor, (preds, wf1) in scores.items():
            problems.append(checks.f1_matches(
                wf1, oracle.weighted_f1(preds, golds, header.num_labels), f"{predictor} predictor"))
        majority = np.bincount([r.label for r in self.splits.train.records]).argmax()
        problems.append(checks.beats_majority(
            scores["head"][1], oracle.weighted_f1([majority] * len(golds), golds, header.num_labels)))

        # Similarity predictor: its N x K matrix against the covariance form.
        consts = result.store.constants()
        feats = encoder.encode(data.records_to_batch(header, test), encoder.FULL_MASK, consts)
        assigned = scores["head"][0]
        ctx = similarity.build_context(feats, label_embedding.embed_labels(consts, config.le_depth),
                                       assigned, config.measure)
        sims = similarity.sim_matrix(ctx).values
        if not np.array_equal(np.argmax(sims, axis=1), scores["similarity"][0]):
            problems.append("similarity predictions are not the argmax of the similarity matrix")
        text, audio, visual, _ = _arrays(test, header)
        value, scale = oracle.soft_hgr_covariance_form(
            oracle.encode(params, text, audio, visual),
            oracle.label_table(params, config.le_depth), assigned)
        problems.append(checks.soft_hgr_identity(sims, assigned, value, scale))
        return [p for p in problems if p]

    def _loss(self, params, batch):
        hp, config = self.config.hp, self.config
        return oracle.train_loss(
            params, batch.text, batch.audio, batch.visual, batch.labels,
            alpha=hp.alpha, beta=hp.beta, gamma=hp.gamma,
            label_loss_weight=hp.label_loss_weight, ce_weight=hp.ce_weight,
            le_depth=config.le_depth, modality_setting=config.modality_setting,
            augmentation=config.augmentation, use_negative=config.use_negative_loss)


class Ablation:
    """`sslcl ablate --jobs 2` through the CLI on a generated feature file."""

    ARMS = 8
    JOBS = 2

    def __init__(self, records: int, epochs: int):
        self.records = records
        self.epochs = epochs

    def setup(self, seed: int, work: Path) -> None:
        self.seeds = [seed, seed + 1]
        self.path = work / "features.jsonl"
        self.out = work / "ablation"
        data.save_jsonl(data.generate_synthetic(data.preset_spec(PRESET, self.records, seed)),
                        self.path)
        self.ops_per_round = self.ARMS * len(self.seeds)
        self.rows = self.ops_per_round * self.epochs * round(0.7 * self.records)

    def run_round(self, index: int) -> Round:
        argv = ["ablate", "--data", str(self.path), "--out", str(self.out),
                "--jobs", str(self.JOBS), "--set", f"seeds={json.dumps(self.seeds)}",
                "--set", f"epochs={self.epochs}"]
        start = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"sslcl {' '.join(argv)} exited with {code}")
        return Round(wall, wall, self.rows, self.ops_per_round, None)

    def check(self, last: Round) -> list[str]:
        problems = []
        arms = json.loads((self.out / "arms.json").read_text(encoding="utf-8"))
        unique = {json.dumps(c, sort_keys=True) for c in arms.values()}
        if len(arms) != self.ARMS or len(unique) != self.ARMS:
            problems.append(f"expected {self.ARMS} distinct arms, found {len(unique)} of {len(arms)}")
        with open(self.out / "ablation.csv", encoding="utf-8", newline="") as fh:
            means = {row["arm"]: float(row["mean_wf1"]) for row in csv.DictReader(fh)}
        if set(means) != set(arms):
            problems.append("ablation.csv and arms.json name different arms")
        # The --jobs pool must not change results: a serial in-process
        # retrain of the full arm reproduces its mean exactly.
        full = trainer.config_from_flat(arms["full"])
        dataset = data.load_features(self.path)
        serial = [evaluation.train_and_score(full, dataset, s)[0] for s in self.seeds]
        problems.append(checks.ablation_reproduces(means.get("full", float("nan")), serial))
        return [p for p in problems if p]


WORKLOADS = {
    "small-batch": lambda: Training(records=2000, batch_size=8, epochs=4),
    "large-batch": lambda: Training(records=20000, batch_size=512, epochs=6),
    "ablation": lambda: Ablation(records=400, epochs=1),
}
