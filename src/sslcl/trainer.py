"""Joint optimization of the encoder, classifier head and label network.

One Adam steps every parameter: the encoder and head at `encoder_lr`, the
label network at its own (much smaller) `label_net_lr`.
Every run is a pure function of (config, dataset, seed): identical inputs
reproduce byte-identical metrics logs and checkpoints.

`train_seeds` trains the config's seed list: one seed in the plain loop,
several as a single stacked run, where parameters carry a leading seed
axis and one tape step and one Adam update advance every seed. Each
seed's logs and checkpoint are byte-identical to a run of it alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from ._files import atomic_open
from .autodiff import Tape, Tensor
from .data import (DatasetHeader, FeatureBatch, FeatureDataset, batch_iter, finite_vector,
                   parse_json, records_to_batch, stack_batches)
from .encoder import FULL_MASK, MODALITY_SETTINGS, augmentation_views, classify, encode, init_encoder_params
from .label_embedding import DEPTHS, embed_labels, init_label_params
from .losses import (STEP_TERMS, ConfigError, FloorCount, HyperParams, cross_entropy, sslcl_loss,
                     supcon_loss)
from .metrics import weighted_f1
from .similarity import MEASURES, build_context, sim_matrix

LOSS_MODES = ("sslcl", "supcon", "ce-only")
PREDICTORS = ("head", "similarity")
_CHOICES = {"measure": MEASURES, "le_depth": DEPTHS, "loss_mode": LOSS_MODES,
            "modality_setting": MODALITY_SETTINGS, "predictor": PREDICTORS}


class NonFiniteLossError(RuntimeError):
    """Training aborted because a loss term stopped being finite."""


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, checked on construction; derive a variant with
    dataclasses.replace."""

    hp: HyperParams = field(default_factory=HyperParams)
    measure: str = "soft-hgr"
    le_depth: str = "two-layer"
    loss_mode: str = "sslcl"
    modality_setting: str = "trimodal"
    batch_size: int = 8
    epochs: int = 6
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    encoder_lr: float = 1e-3
    label_net_lr: float = 1e-5
    augmentation: bool = True
    use_negative_loss: bool = True
    hidden_dim: int = 16
    feature_dim: int = 8
    predictor: str = "head"
    split_seed: int = 20240

    @property
    def label_embed_dim(self) -> int:
        """Label table width: the feature dimension for the embedding-only
        net, which has no projection to reach it, otherwise twice that."""
        return self.feature_dim if self.le_depth == "embedding-only" else 2 * self.feature_dim

    def __post_init__(self) -> None:
        for key, choices in _CHOICES.items():
            if (value := getattr(self, key)) not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
        for name in ("batch_size", "epochs", "hidden_dim", "feature_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        # NaN fails the range test; a rate of 0 freezes its group.
        for name in ("encoder_lr", "label_net_lr"):
            lr = getattr(self, name)
            if not 0 <= lr < math.inf:
                raise ConfigError(f"{name} must be finite and non-negative, got {lr!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: the seed list must be non-empty with no seed twice, "
                              f"got {list(self.seeds)}")


# Flat key -> field annotation (a string, under `from __future__ import
# annotations`), in artifact order: artifact bytes and config hashes depend
# on this order.
_HP_FIELDS = {f"hp.{f.name}": f.type for f in fields(HyperParams)}
_RUN_FIELDS = {f.name: f.type for f in fields(RunConfig) if f.name != "hp"}


def config_to_flat(config: RunConfig) -> dict:
    """Flat, fixed-order key/value view of a config (the CLI namespace)."""
    out = {key: getattr(config.hp, key[3:]) for key in _HP_FIELDS}
    out.update((key, getattr(config, key)) for key in _RUN_FIELDS)
    out["seeds"] = list(config.seeds)
    return out


def _checked(key: str, kind: str, value):
    """`value` for a field annotated `kind`: a bool is never a number, an int
    field takes only integral numbers, a float field also takes integers."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "float" and number:
        return float(value)
    if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if (kind == "bool" and isinstance(value, bool)) or (kind == "str" and isinstance(value, str)):
        return value
    if kind == "tuple[int, ...]" and isinstance(value, (list, tuple)):
        return tuple(_checked(key, "int", v) for v in value)
    raise ConfigError(f"config key {key!r} expects {kind}, got {value!r}")


def config_from_flat(values: dict) -> RunConfig:
    """Build a config from flat keys; an unknown key or a value of the wrong
    type raises naming the key."""
    hp, run = {}, {}
    for key, value in values.items():
        if key in _HP_FIELDS:
            hp[key[3:]] = _checked(key, _HP_FIELDS[key], value)
        elif key in _RUN_FIELDS:
            run[key] = _checked(key, _RUN_FIELDS[key], value)
        else:
            raise ConfigError(f"unknown config key: {key!r}")
    return RunConfig(hp=HyperParams(**hp), **run)


def param_group(name: str) -> str:
    """The group a parameter belongs to: encoder, head or label."""
    return {"enc": "encoder", "head": "head", "label": "label"}[name.split(".", 1)[0]]


class ParameterStore:
    """Named float64 parameter arrays, updated in place by the optimizer.
    A stacked store holds one slice per seed along a leading axis."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}

    @classmethod
    def stack(cls, stores: Sequence["ParameterStore"]) -> "ParameterStore":
        return cls({name: np.stack([st.arrays[name] for st in stores]) for name in stores[0].arrays})

    def seed(self, index: int) -> "ParameterStore":
        """A copy of one seed's parameters from a stacked store."""
        return ParameterStore({name: arr[index].copy() for name, arr in self.arrays.items()})

    def leaves(self, tape: Tape) -> dict[str, Tensor]:
        return {name: tape.leaf(name, arr, param_group(name)) for name, arr in self.arrays.items()}

    def constants(self) -> dict[str, Tensor]:
        return {name: Tensor(arr) for name, arr in self.arrays.items()}


def init_params(header: DatasetHeader, config: RunConfig, rng: np.random.Generator) -> ParameterStore:
    arrays = init_encoder_params(header, config.hidden_dim, config.feature_dim, rng)
    arrays.update(init_label_params(
        header.num_labels, config.feature_dim, config.label_embed_dim, config.le_depth, rng))
    return ParameterStore(arrays)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a whole store, with the fixed constants
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS; each parameter steps at its group's
    rate, lrs[param_group(name)]. The update is elementwise, so the store runs
    as one flat vector (store order) with a rate per element, sliced back per name."""

    def __init__(self, store: ParameterStore, lrs: dict[str, float]):
        self.names = list(store.arrays)
        self.lr = np.concatenate([np.full(store.arrays[name].size, lrs[param_group(name)])
                                  for name in self.names])
        self.step_count = 0
        self._m = np.zeros_like(self.lr)
        self._v = np.zeros_like(self.lr)

    def step(self, store: ParameterStore, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        grad = np.concatenate([grads[name].ravel() for name in self.names])
        self._m = ADAM_BETA1 * self._m + (1.0 - ADAM_BETA1) * grad
        self._v = ADAM_BETA2 * self._v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self._m / (1.0 - ADAM_BETA1 ** t)
        v_hat = self._v / (1.0 - ADAM_BETA2 ** t)
        params = np.concatenate([store.arrays[name].ravel() for name in self.names])
        updated = params - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        start = 0
        for name in self.names:
            old = store.arrays[name]
            store.arrays[name] = updated[start:start + old.size].reshape(old.shape)
            start += old.size


def compute_step_loss(config: RunConfig, leaves: dict[str, Tensor],
                      batch: FeatureBatch) -> tuple[Tensor, dict[str, np.ndarray]]:
    """One step's objective node and its STEP_TERMS values for the configured
    loss mode; a term the mode does not compute is 0. A plain batch gives
    each term shape (), a stacked one shape (S,): one value per seed."""
    stack = batch.labels.shape[:-1]
    counter = FloorCount(np.zeros(stack, dtype=np.intp))
    terms = dict.fromkeys(STEP_TERMS, np.zeros(stack))
    feats = encode(batch, FULL_MASK, leaves)
    probs = classify(feats, leaves)
    ce = cross_entropy(probs, batch.labels, counter=counter)

    if config.loss_mode == "sslcl":
        masks = augmentation_views(config.modality_setting) if config.augmentation else []
        views = [encode(batch, mask, leaves) for mask in masks]
        table = embed_labels(leaves, config.le_depth)
        ctx = build_context(feats, table, batch.labels, config.measure)
        node, sslcl_terms = sslcl_loss(
            ctx, views, config.hp, use_negative=config.use_negative_loss, counter=counter)
        terms.update(sslcl_terms)
        total = ad.add(node, ad.scale(ce, config.hp.ce_weight))
    elif config.loss_mode == "supcon":
        contrast = supcon_loss(feats, batch.labels, config.hp.supcon_temperature)
        terms["L_SupCon"] = contrast.values
        total = ad.add(contrast, ad.scale(ce, config.hp.ce_weight))
    else:
        total = ce
    terms.update(L_CE=ce.values, L_Train=total.values, floored_logs=counter.count)
    return total, terms


def predict(store: ParameterStore, header: DatasetHeader, records, config: RunConfig) -> np.ndarray:
    """Predicted labels (N,), or (S, N) from a stacked store: one row per
    seed, each equal to that seed's own call. Head argmax by default,
    similarity argmax as the diagnostic mode (its batch assignment comes
    from the head, since true labels are unavailable at inference); a
    stacked similarity call holds S N x N Grams at once."""
    batch = records_to_batch(header, records)
    consts = store.constants()
    feats = encode(batch, FULL_MASK, consts)
    probs = classify(feats, consts)
    head_preds = np.argmax(probs.values, axis=-1)
    if config.predictor == "head":
        return head_preds
    table = embed_labels(consts, config.le_depth)
    ctx = build_context(feats, table, head_preds, config.measure)
    return np.argmax(sim_matrix(ctx).values, axis=-1)


def score(store: ParameterStore, dataset: FeatureDataset,
          config: RunConfig) -> list[tuple[float, list[float]]]:
    """(weighted F1, per-class F1) on the dataset from one predict call:
    one entry per seed of a stacked store, a single entry for a plain one."""
    preds = predict(store, dataset.header, dataset.records, config)
    golds = [r.label for r in dataset.records]
    return [weighted_f1(row, golds, dataset.header.num_labels) for row in np.atleast_2d(preds)]


@dataclass
class TrainResult:
    store: ParameterStore
    metrics_lines: list[str]


def train(config: RunConfig, dataset: FeatureDataset, *, seed: int,
          eval_dataset: FeatureDataset | None = None) -> TrainResult:
    """Optimize one seed against the configured objective; fully deterministic."""
    return train_seeds(replace(config, seeds=(seed,)), dataset, eval_dataset=eval_dataset)[0]


def train_seeds(config: RunConfig, dataset: FeatureDataset, *,
                eval_dataset: FeatureDataset | None = None) -> list[TrainResult]:
    """Train each seed of config.seeds, byte-identically to a run of it alone:
    one seed runs the plain loop, several one stacked run in lockstep (each
    seed keeps its own batch order, and all share the batch sizes)."""
    ad.keep_freed_memory()
    seeds = list(config.seeds)
    stacked = len(seeds) > 1
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    stores = [init_params(dataset.header, config, np.random.default_rng(seed)) for seed in seeds]
    store = ParameterStore.stack(stores) if stacked else stores[0]
    opt = Adam(store, {"encoder": config.encoder_lr, "head": config.encoder_lr,
                       "label": config.label_net_lr})
    lines: list[list[str]] = [[] for _ in seeds]
    step = 0
    last_records: list[dict | None] = [None for _ in seeds]
    for epoch in range(config.epochs):
        epoch_batches = [batch_iter(dataset, config.batch_size, seed=[seed, epoch], shuffle=True)
                         for seed in seeds]
        for batches in zip(*epoch_batches):
            tape = Tape()
            leaves = store.leaves(tape)
            try:
                total, terms = compute_step_loss(
                    config, leaves, stack_batches(batches) if stacked else batches[0])
                grads = tape.gradients(total, stacked)
            except ad.NonFiniteError as err:
                index, err = (_failing_seed(config, store, batches, err) if stacked
                              else (0, err))
                record = None if index is None else last_records[index]
                context = f"; last step terms: {json.dumps(record)}" if record else ""
                who = f"seeds {seeds}" if index is None else f"seed {seeds[index]}"
                raise NonFiniteLossError(
                    f"{who}: aborted at step {step} (epoch {epoch}): {err}{context}") from err
            opt.step(store, grads)
            for index in range(len(seeds)):
                record = {"step": step, "epoch": epoch}
                record.update((name, np.atleast_1d(terms[name])[index].item())
                              for name in STEP_TERMS)
                lines[index].append(json.dumps(record))
                last_records[index] = record
            step += 1
        train_wf1 = [wf1 for wf1, _ in score(store, dataset, config)]
        eval_wf1 = ([wf1 for wf1, _ in score(store, eval_dataset, config)]
                    if eval_dataset is not None and len(eval_dataset) else [None] * len(seeds))
        for index in range(len(seeds)):
            lines[index].append(json.dumps(
                {"epoch": epoch, "train_wf1": train_wf1[index], "eval_wf1": eval_wf1[index]}))
    return [TrainResult(store=store.seed(index) if stacked else store, metrics_lines=lines[index])
            for index in range(len(seeds))]


def _failing_seed(config: RunConfig, store: ParameterStore, batches: Sequence[FeatureBatch],
                  err: ad.NonFiniteError) -> tuple[int | None, ad.NonFiniteError]:
    """Re-run a failed stacked step one seed at a time, in seed order, and
    return the first seed that fails with the error it raises alone: the
    error a serial run of that seed raises at this step. (None, err) if no
    seed fails alone."""
    for index, batch in enumerate(batches):
        tape = Tape()
        try:
            total, _ = compute_step_loss(config, store.seed(index).leaves(tape), batch)
            tape.gradients(total)
        except ad.NonFiniteError as seed_err:
            return index, seed_err
    return None, err


def write_metrics_log(path, config: RunConfig, result: TrainResult) -> None:
    """JSONL artifact: a config header line, then the per-step/epoch records."""
    with atomic_open(path) as fh:
        fh.write(json.dumps({"config": config_to_flat(config)}) + "\n")
        for line in result.metrics_lines:
            fh.write(line + "\n")


def save_checkpoint(path, store: ParameterStore, config: RunConfig) -> None:
    obj = {
        "config": config_to_flat(config),
        "parameters": {
            name: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
            for name, arr in store.arrays.items()
        },
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj))


def load_checkpoint(path) -> tuple[ParameterStore, RunConfig]:
    """A checkpoint's parameters and config; a malformed one raises naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = parse_json(fh.read(), path)
    if not (isinstance(obj, dict) and isinstance(obj.get("config"), dict)
            and isinstance(obj.get("parameters"), dict)):
        raise ValueError(f"{path}: a checkpoint must hold a 'config' and a 'parameters' object")
    arrays = {}
    for name, entry in obj["parameters"].items():
        where = f"{path} parameter {name!r}"
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"{where}: field 'shape' must list integers >= 0, got {shape!r:.60}")
        values = finite_vector(entry.get("values"), math.prod(shape), where, "values", bools=True)
        arrays[name] = values.reshape(shape)
    return ParameterStore(arrays), config_from_flat(obj["config"])


# --- gradient verification -------------------------------------------------

GRADCHECK_MODES = ("sslcl+augmentation", "sslcl-augmentation", "supcon", "ce-only")
FD_STEP = 1e-5
GRAD_TOL = 1e-4
# Relative error with a floored denominator: a pure ratio is ill-posed for
# gradients that are exactly zero (unused parameter groups).
_REL_FLOOR = 1e-3


@dataclass
class GradCheckReport:
    rows: list[dict]

    @property
    def max_rel_err(self) -> float:
        return max((row["max_rel_err"] for row in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRAD_TOL

    def summary(self) -> str:
        lines = [f"{row['mode']:<22} {row['group']:<8} max_rel_err={row['max_rel_err']:.3e}"
                 for row in self.rows]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: overall max relative error {self.max_rel_err:.3e} "
                     f"(tolerance {GRAD_TOL:g})")
        return "\n".join(lines)


def _gradcheck_config(base: RunConfig, mode: str, rng: np.random.Generator) -> RunConfig:
    return replace(base, feature_dim=int(rng.integers(2, 6)), hidden_dim=int(rng.integers(2, 5)),
                   loss_mode="sslcl" if mode.startswith("sslcl") else mode,
                   augmentation=mode == "sslcl+augmentation", modality_setting="trimodal")


def _random_instance(config: RunConfig, num_labels: int, rng: np.random.Generator
                     ) -> tuple[DatasetHeader, FeatureBatch, ParameterStore]:
    n = int(rng.integers(1 if config.loss_mode == "sslcl" else 2, 7))
    header = DatasetHeader(text_dim=4, audio_dim=3, visual_dim=3,
                           label_names=tuple(f"class{k}" for k in range(num_labels)))
    labels = rng.integers(0, num_labels, size=n)
    batch = FeatureBatch(
        text=rng.standard_normal((n, header.text_dim)),
        audio=rng.standard_normal((n, header.audio_dim)),
        visual=rng.standard_normal((n, header.visual_dim)),
        labels=labels.astype(np.intp))
    store = init_params(header, config, rng)
    # Zero-initialized biases park masked-view preactivations exactly on the
    # ReLU kink, where central differences are ill-posed; jitter off it.
    for name in store.arrays:
        store.arrays[name] = store.arrays[name] + rng.uniform(0.02, 0.1, store.arrays[name].shape)
    return header, batch, store


def _loss_value(config: RunConfig, store: ParameterStore, batch: FeatureBatch) -> float:
    total, _ = compute_step_loss(config, store.constants(), batch)
    return total.item()


def gradcheck(config: RunConfig | None = None, *, instances_per_mode: int = 6,
              seed: int = 1) -> GradCheckReport:
    """Central finite differences against the tape for every parameter of
    every loss mode, on random small instances (N <= 6, K <= 4, d <= 5)."""
    base = config if config is not None else RunConfig()
    rng = np.random.default_rng(seed)
    rows = []
    for mode in GRADCHECK_MODES:
        group_worst: dict[str, float] = {}
        for _ in range(instances_per_mode):
            check_config = _gradcheck_config(base, mode, rng)
            num_labels = int(rng.integers(2, 5))
            header, batch, store = _random_instance(check_config, num_labels, rng)
            tape = Tape()
            total, _ = compute_step_loss(check_config, store.leaves(tape), batch)
            grads = tape.gradients(total)
            for name, grad in grads.items():
                group = param_group(name)
                flat = store.arrays[name].ravel()
                numeric = np.zeros_like(flat)
                for j in range(flat.size):
                    original = flat[j]
                    flat[j] = original + FD_STEP
                    up = _loss_value(check_config, store, batch)
                    flat[j] = original - FD_STEP
                    down = _loss_value(check_config, store, batch)
                    flat[j] = original
                    numeric[j] = (up - down) / (2 * FD_STEP)
                analytic = grad.ravel()
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
                rel = float(np.max(np.abs(analytic - numeric) / denom))
                group_worst[group] = max(group_worst.get(group, 0.0), rel)
        for group in sorted(group_worst):
            rows.append({"mode": mode, "group": group, "max_rel_err": group_worst[group]})
    return GradCheckReport(rows=rows)
