"""Joint optimization of the encoder, classifier head and label network.

One Adam instance owns the encoder and head, a second one owns the label
network at its own (much smaller) learning rate; they never share state.
Every run is a pure function of (config, dataset, seed): identical inputs
reproduce byte-identical metrics logs and checkpoints.
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
from .data import DatasetHeader, FeatureBatch, FeatureDataset, batch_iter, records_to_batch
from .encoder import FULL_MASK, MODALITY_SETTINGS, augmentation_views, classify, encode, init_encoder_params
from .label_embedding import DEPTHS, embed_labels, init_label_params
from .losses import (FloorCount, HyperParams, LossBreakdown, cross_entropy,
                     sslcl_loss, supcon_loss)
from .metrics import weighted_f1
from .similarity import MEASURES, build_context, sim_matrix

LOSS_MODES = ("sslcl", "supcon", "ce-only")
PREDICTORS = ("head", "similarity")


class ConfigError(ValueError):
    """A config key or value failed validation."""


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
        if self.measure not in MEASURES:
            raise ConfigError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if self.le_depth not in DEPTHS:
            raise ConfigError(f"le_depth must be one of {DEPTHS}, got {self.le_depth!r}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if self.modality_setting not in MODALITY_SETTINGS:
            raise ConfigError(f"modality_setting must be one of {MODALITY_SETTINGS}")
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"predictor must be one of {PREDICTORS}")
        for name in ("batch_size", "epochs", "hidden_dim", "feature_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        # NaN fails the range test; a rate of 0 freezes its group.
        for name in ("encoder_lr", "label_net_lr"):
            lr = getattr(self, name)
            if not 0 <= lr < math.inf:
                raise ConfigError(f"{name} must be finite and non-negative, got {lr!r}")
        if not self.seeds:
            raise ConfigError("seed list must not be empty")


# Flat key -> field annotation (a string, under `from __future__ import
# annotations`), in artifact order: artifact bytes and config hashes depend
# on this order.
_HP_FIELDS = {f"hp.{f.name}": f.type for f in fields(HyperParams)}
_RUN_FIELDS = {f.name: f.type for f in fields(RunConfig) if f.name != "hp"}
FLAT_KEYS = tuple(_HP_FIELDS) + tuple(_RUN_FIELDS)


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


class ParameterStore:
    """Named float64 parameter arrays, updated in place by the optimizers."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}

    def leaves(self, tape: Tape) -> dict[str, Tensor]:
        return {name: tape.leaf(name, arr) for name, arr in self.arrays.items()}

    def constants(self) -> dict[str, Tensor]:
        return {name: Tensor(arr) for name, arr in self.arrays.items()}

    @property
    def encoder_names(self) -> list[str]:
        return [n for n in self.arrays if not n.startswith("label.")]

    @property
    def label_names(self) -> list[str]:
        return [n for n in self.arrays if n.startswith("label.")]


def init_params(header: DatasetHeader, config: RunConfig, rng: np.random.Generator) -> ParameterStore:
    arrays = init_encoder_params(header, config.hidden_dim, config.feature_dim, rng)
    arrays.update(init_label_params(
        header.num_labels, config.feature_dim, config.label_embed_dim, config.le_depth, rng))
    return ParameterStore(arrays)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a fixed set of parameter names, with the
    fixed constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    The update is elementwise, so the whole group runs as one flat vector
    (parameters in `names` order) and is sliced back per name."""

    def __init__(self, names: Sequence[str], lr: float):
        self.names = list(names)
        self.lr = lr
        self.step_count = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def step(self, store: ParameterStore, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        if not self.names:
            return
        grad = np.concatenate([grads[name].ravel() for name in self.names])
        if self._m is None:
            self._m = np.zeros_like(grad)
            self._v = np.zeros_like(grad)
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
                      batch: FeatureBatch) -> tuple[Tensor, LossBreakdown]:
    """One step's objective node and breakdown for the configured loss mode."""
    counter = FloorCount()
    feats = encode(batch, FULL_MASK, leaves)
    probs = classify(feats, leaves)
    ce = cross_entropy(probs, batch.labels, counter=counter)

    if config.loss_mode == "sslcl":
        masks = augmentation_views(config.modality_setting) if config.augmentation else []
        views = [encode(batch, mask, leaves) for mask in masks]
        table = embed_labels(leaves, config.le_depth)
        ctx = build_context(feats, table, batch.labels, config.measure)
        node, breakdown = sslcl_loss(
            ctx, views, config.hp, use_negative=config.use_negative_loss, counter=counter)
        total = ad.add(node, ad.scale(ce, config.hp.ce_weight))
    elif config.loss_mode == "supcon":
        contrast = supcon_loss(feats, batch.labels, config.hp.supcon_temperature)
        total = ad.add(contrast, ad.scale(ce, config.hp.ce_weight))
        breakdown = LossBreakdown(supcon_term=contrast.item())
    else:
        total = ce
        breakdown = LossBreakdown()
    breakdown.ce_loss = ce.item()
    breakdown.train_loss = total.item()
    breakdown.floored_logs = counter.count
    return total, breakdown


def predict(store: ParameterStore, header: DatasetHeader, records, config: RunConfig) -> np.ndarray:
    """Predicted labels; head argmax by default, similarity argmax as the
    diagnostic mode (its batch assignment comes from the head, since true
    labels are unavailable at inference)."""
    batch = records_to_batch(header, records)
    consts = store.constants()
    feats = encode(batch, FULL_MASK, consts)
    probs = classify(feats, consts)
    head_preds = np.argmax(probs.values, axis=1)
    if config.predictor == "head":
        return head_preds
    table = embed_labels(consts, config.le_depth)
    ctx = build_context(feats, table, head_preds, config.measure)
    return np.argmax(sim_matrix(ctx).values, axis=1)


@dataclass
class TrainResult:
    store: ParameterStore
    metrics_lines: list[str]
    epoch_scores: list[dict]


def train(config: RunConfig, dataset: FeatureDataset, *, seed: int,
          eval_dataset: FeatureDataset | None = None) -> TrainResult:
    """Optimize against the configured objective; fully deterministic per seed."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(seed)
    store = init_params(dataset.header, config, rng)
    opt_encoder = Adam(store.encoder_names, config.encoder_lr)
    opt_label = Adam(store.label_names, config.label_net_lr)

    lines: list[str] = []
    epoch_scores: list[dict] = []
    step = 0
    last_record: dict | None = None
    for epoch in range(config.epochs):
        for batch in batch_iter(dataset, config.batch_size, seed=[seed, epoch], shuffle=True):
            tape = Tape()
            leaves = store.leaves(tape)
            try:
                total, breakdown = compute_step_loss(config, leaves, batch)
                grads = tape.gradients(total)
            except ad.NonFiniteError as err:
                context = f"; last step terms: {json.dumps(last_record)}" if last_record else ""
                raise NonFiniteLossError(
                    f"aborted at step {step} (epoch {epoch}): {err}{context}") from err
            opt_encoder.step(store, grads)
            opt_label.step(store, grads)
            record = breakdown.step_record(step, epoch)
            lines.append(json.dumps(record))
            last_record = record
            step += 1
        train_wf1, _ = weighted_f1(
            predict(store, dataset.header, dataset.records, config),
            [r.label for r in dataset.records], dataset.header.num_labels)
        if eval_dataset is not None and len(eval_dataset):
            eval_wf1, _ = weighted_f1(
                predict(store, eval_dataset.header, eval_dataset.records, config),
                [r.label for r in eval_dataset.records], eval_dataset.header.num_labels)
        else:
            eval_wf1 = None
        epoch_record = {"epoch": epoch, "train_wf1": train_wf1, "eval_wf1": eval_wf1}
        lines.append(json.dumps(epoch_record))
        epoch_scores.append(epoch_record)
    return TrainResult(store=store, metrics_lines=lines, epoch_scores=epoch_scores)


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
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    arrays = {
        name: np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in obj["parameters"].items()
    }
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
    tolerance: float = GRAD_TOL

    @property
    def max_rel_err(self) -> float:
        return max((row["max_rel_err"] for row in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def summary(self) -> str:
        lines = [f"{row['mode']:<22} {row['group']:<8} max_rel_err={row['max_rel_err']:.3e}"
                 for row in self.rows]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: overall max relative error {self.max_rel_err:.3e} "
                     f"(tolerance {self.tolerance:g})")
        return "\n".join(lines)


def _gradcheck_config(base: RunConfig, mode: str, rng: np.random.Generator) -> RunConfig:
    return replace(base, feature_dim=int(rng.integers(2, 6)), hidden_dim=int(rng.integers(2, 5)),
                   loss_mode="sslcl" if mode.startswith("sslcl") else mode,
                   augmentation=mode == "sslcl+augmentation", modality_setting="trimodal")


def _random_instance(config: RunConfig, num_labels: int, rng: np.random.Generator
                     ) -> tuple[DatasetHeader, FeatureBatch, ParameterStore]:
    n = int(rng.integers(1 if config.loss_mode == "sslcl" else 2, 7))
    header = DatasetHeader(text_dim=4, audio_dim=3, visual_dim=3,
                           num_labels=num_labels,
                           label_names=tuple(f"class{k}" for k in range(num_labels)))
    labels = rng.integers(0, num_labels, size=n)
    batch = FeatureBatch(
        ids=[f"g{i}" for i in range(n)],
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
                group = "label" if name.startswith("label.") else (
                    "head" if name.startswith("head.") else "encoder")
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
