"""Experiment harness: multi-seed scoring, the batch-size stability sweep,
the similarity/component/depth ablations, and deterministic report files.

Training is organized by canonical config: each unique config is one
task that trains all of its seeds (several as one stacked run) and scores
them in one call. Arms that canonicalize to the same config share a single
task, which is also how the harness proves that "remove the label-label
loss" and "set its weight to zero" are the same experiment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._files import write_text
from .data import FeatureDataset, split_dataset
from .trainer import ParameterStore, RunConfig, config_to_flat, score, train_seeds

DEFAULT_SWEEP_SIZES = (1, 2, 4, 8, 16, 32)
SWEEP_MODES = ("sslcl", "supcon", "ce-only")


def canonical_config_json(config: RunConfig) -> str:
    return json.dumps(config_to_flat(config), sort_keys=True)


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(canonical_config_json(config).encode()).hexdigest()[:12]


def train_and_score(config: RunConfig, dataset: FeatureDataset, seed: int) -> tuple[float, list[float]]:
    """Train the one seed `seed` (config.seeds is ignored) in the plain loop
    and score it as train_and_score_seeds does: (weighted F1, per-class F1)."""
    return train_and_score_seeds(replace(config, seeds=(seed,)), dataset)[0]


def train_and_score_seeds(config: RunConfig, dataset: FeatureDataset) -> list[tuple[float, list[float]]]:
    """Train every seed of config.seeds on the fixed 70/15/15 split and score
    (weighted F1, per-class F1) on test, one entry per seed."""
    splits = split_dataset(dataset, config.split_seed)
    results = train_seeds(config, splits.train, eval_dataset=splits.val)
    return score(ParameterStore.stack([r.store for r in results]), splits.test, config)


# The (configs, dataset) that `_run_config` reads: set once per pool worker
# by the pool's initializer, or for the duration of a serial run.
_task_inputs: tuple[dict[str, RunConfig], FeatureDataset] | None = None


def _set_task_inputs(inputs: tuple[dict[str, RunConfig], FeatureDataset] | None) -> None:
    global _task_inputs
    _task_inputs = inputs


def _run_config(key: str) -> list[tuple[float, list[float]]]:
    configs, dataset = _task_inputs
    return train_and_score_seeds(configs[key], dataset)


def _run_arms(arms: dict[str, RunConfig], dataset: FeatureDataset,
              jobs: int) -> dict[str, CellResult]:
    """One cell per named arm over the arms' seeds. Each unique config among
    the arms is trained once, in one task: several seeds as one stacked run.

    A task's cost grows slowly with the seed count: at small batch a step
    is bound by per-op overhead, which stacking shares among the seeds.
    With jobs > 1 the tasks run in min(jobs, configs) worker processes. Each
    worker receives the configs and the dataset once, at start-up, and holds
    its own copy of the dataset; a task is sent as its config key only.
    Every seed's result is a pure function of (config, dataset, seed), so
    the results are byte-identical to jobs=1, which runs the tasks in this
    process. When a task raises, the pending tasks are cancelled and the
    workers joined before the error propagates; a worker that dies raises
    BrokenProcessPool.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    configs = {canonical_config_json(arm): arm for arm in arms.values()}
    keys = sorted(configs)
    inputs = (configs, dataset)
    workers = min(jobs, len(keys))
    if workers <= 1:
        _set_task_inputs(inputs)
        try:
            scores = [_run_config(key) for key in keys]
        finally:
            _set_task_inputs(None)
    else:
        # Imported here: multiprocessing would add ~1.5 MB of RSS and 20
        # modules to every process that imports sslcl only to train.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        # fork: workers start as copies of this process, without re-importing
        # numpy and sslcl. Neither the CLI nor the library runs a Python
        # thread here (OpenBLAS shuts its own threads down at fork), and the
        # pool forks its workers before it starts its manager thread.
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                                   initializer=_set_task_inputs, initargs=(inputs,))
        try:
            scores = list(pool.map(_run_config, keys))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    by_key = dict(zip(keys, scores))
    cells = {}
    for name, arm in arms.items():
        per_seed = by_key[canonical_config_json(arm)]
        cells[name] = CellResult(name=name, config_hash=config_hash(arm),
                                 scores=[wf1 for wf1, _ in per_seed],
                                 per_class=[per_class for _, per_class in per_seed])
    return cells


@dataclass
class CellResult:
    """Aggregate of one experimental arm over all seeds."""

    name: str
    config_hash: str
    scores: list[float]
    per_class: list[list[float]]

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def sd(self) -> float:
        return float(np.std(self.scores, ddof=1)) if len(self.scores) > 1 else 0.0

    @property
    def per_class_mean(self) -> list[float]:
        return [float(v) for v in np.mean(self.per_class, axis=0)]


@dataclass
class SweepResult:
    sizes: list[int]
    modes: list[str]
    cells: dict[tuple[str, int], CellResult]

    def mean(self, mode: str, size: int) -> float:
        return self.cells[(mode, size)].mean

    def stability(self, mode: str, small: int = 2, large: int = 32) -> float:
        """wF1(small batch) minus wF1(large batch); near zero means stable."""
        return self.mean(mode, small) - self.mean(mode, large)


def batch_size_sweep(config: RunConfig, dataset: FeatureDataset,
                     sizes: Sequence[int] = DEFAULT_SWEEP_SIZES,
                     modes: Sequence[str] = SWEEP_MODES, jobs: int = 1,
                     equalize_steps: bool = False) -> SweepResult:
    """Train every (loss mode, batch size, seed) cell on the same split.

    equalize_steps=True holds the optimizer-step budget constant across
    batch sizes by deriving each cell's epoch count from the base config;
    without it, small-batch cells get far more updates per epoch, which
    confounds batch-size effects with optimization budget (there is no
    early stopping to absorb the difference). Sizes and modes must not repeat.
    """
    for name, values in (("batch size", sizes), ("loss mode", modes)):
        if len(set(values)) != len(values):
            raise ValueError(f"each {name} may appear once, got {list(values)}")
    n_train = len(split_dataset(dataset, config.split_seed).train)
    base_steps = config.epochs * int(np.ceil(n_train / config.batch_size))
    arms = {}
    for mode in modes:
        for size in sizes:
            epochs = (max(1, round(base_steps / np.ceil(n_train / size))) if equalize_steps
                      else config.epochs)
            arms[f"{mode}@bs{size}"] = replace(config, loss_mode=mode, batch_size=size,
                                               epochs=epochs)
    cells = _run_arms(arms, dataset, jobs)
    return SweepResult(sizes=list(sizes), modes=list(modes),
                       cells={(mode, size): cells[f"{mode}@bs{size}"]
                              for mode in modes for size in sizes})


def sweep_to_csv(sweep: SweepResult, num_labels: int) -> str:
    cols = ["mode", "batch_size", "config_hash", "mean_wf1", "sd_wf1"]
    cols += [f"f1_class{k}" for k in range(num_labels)]
    lines = [",".join(cols)]
    for mode in sweep.modes:
        for size in sweep.sizes:
            cell = sweep.cells[(mode, size)]
            row = [mode, str(size), cell.config_hash, repr(cell.mean), repr(cell.sd)]
            row += [repr(v) for v in cell.per_class_mean]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# --- ablations ---------------------------------------------------------------

def ablation_arms(config: RunConfig) -> dict[str, RunConfig]:
    """Named arm configs: similarity measures, component removals, LE depths."""
    return {
        "full": config,
        "measure=dot": replace(config, measure="dot"),
        "measure=cosine": replace(config, measure="cosine"),
        "-augmentation": replace(config, augmentation=False),
        "-negative": replace(config, use_negative_loss=False),
        "-label-label": replace(config, hp=replace(config.hp, label_loss_weight=0.0)),
        "le=embedding-only": replace(config, le_depth="embedding-only"),
        "le=three-layer": replace(config, le_depth="three-layer"),
    }


@dataclass
class AblationReport:
    arms: dict[str, CellResult]
    arm_configs: dict[str, dict]

    def delta_vs_full(self, name: str) -> float:
        return self.arms[name].mean - self.arms["full"].mean


def ablation_suite(config: RunConfig, dataset: FeatureDataset, jobs: int = 1) -> AblationReport:
    arms = ablation_arms(config)
    return AblationReport(arms=_run_arms(arms, dataset, jobs),
                          arm_configs={name: config_to_flat(c) for name, c in arms.items()})


def ablation_to_csv(report: AblationReport, num_labels: int) -> str:
    cols = ["arm", "config_hash", "mean_wf1", "sd_wf1", "delta_vs_full"]
    cols += [f"f1_class{k}" for k in range(num_labels)]
    lines = [",".join(cols)]
    for name in report.arms:
        cell = report.arms[name]
        row = [name, cell.config_hash, repr(cell.mean), repr(cell.sd),
               repr(report.delta_vs_full(name))]
        row += [repr(v) for v in cell.per_class_mean]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def ablation_summary(report: AblationReport) -> str:
    """Human-readable digest with the soft ordering checks spelled out."""
    full = report.arms["full"].mean
    lines = [f"seeds: {report.arm_configs['full']['seeds']}",
             f"full configuration: mean w-F1 {full:.4f}", ""]
    for name, cell in report.arms.items():
        delta = report.delta_vs_full(name)
        lines.append(f"{name:<20} mean {cell.mean:.4f}  sd {cell.sd:.4f}  delta {delta:+.4f}")
    lines.append("")
    soft_checks = {
        "soft-hgr >= dot": full >= report.arms["measure=dot"].mean,
        "soft-hgr >= cosine": full >= report.arms["measure=cosine"].mean,
        "-augmentation <= full": report.arms["-augmentation"].mean <= full,
        "-negative <= full": report.arms["-negative"].mean <= full,
        "-label-label <= full": report.arms["-label-label"].mean <= full,
    }
    for label, ok in soft_checks.items():
        lines.append(f"soft check {label}: {'satisfied' if ok else 'VIOLATED (warning)'}")
    return "\n".join(lines) + "\n"


def sweep_summary(sweep: SweepResult) -> str:
    lines = ["batch-size sweep (mean w-F1 per cell)"]
    header = "mode      " + "".join(f"  bs={s:<5}" for s in sweep.sizes)
    lines.append(header)
    for mode in sweep.modes:
        row = f"{mode:<10}" + "".join(f"  {sweep.mean(mode, s):.4f} " for s in sweep.sizes)
        lines.append(row)
    if 2 in sweep.sizes and 32 in sweep.sizes:
        lines.append("")
        for mode in sweep.modes:
            lines.append(f"stability s({mode}) = wF1(bs=2) - wF1(bs=32) = "
                         f"{sweep.stability(mode):+.4f}")
    return "\n".join(lines) + "\n"


def sweep_svg(sweep: SweepResult) -> str:
    """Minimal hand-rolled line plot: mean w-F1 against batch size per mode."""
    width, height, margin = 640, 400, 50
    values = [sweep.mean(m, s) for m in sweep.modes for s in sweep.sizes]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    lo, hi = lo - 0.1 * span, hi + 0.1 * span
    colors = {"sslcl": "#1f77b4", "supcon": "#d62728", "ce-only": "#7f7f7f"}

    def x_at(i):
        return margin + i * (width - 2 * margin) / max(len(sweep.sizes) - 1, 1)

    def y_at(v):
        return height - margin - (v - lo) / (hi - lo) * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for i, size in enumerate(sweep.sizes):
        parts.append(f'<text x="{x_at(i):.1f}" y="{height - margin + 20}" '
                     f'text-anchor="middle" font-size="12">{size}</text>')
    for j, mode in enumerate(sweep.modes):
        pts = " ".join(f"{x_at(i):.1f},{y_at(sweep.mean(mode, s)):.1f}"
                       for i, s in enumerate(sweep.sizes))
        color = colors.get(mode, "#2ca02c")
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - margin + 5}" y="{margin + 16 * j}" '
                     f'font-size="12" fill="{color}">{mode}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_report(out_dir, sweep: SweepResult, num_labels: int, *, svg: bool = False) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "sweep.csv", sweep_to_csv(sweep, num_labels))
    write_text(out / "summary.txt", sweep_summary(sweep))
    if svg:
        write_text(out / "sweep.svg", sweep_svg(sweep))


def write_ablation_report(out_dir, report: AblationReport, num_labels: int) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "ablation.csv", ablation_to_csv(report, num_labels))
    write_text(out / "summary.txt", ablation_summary(report))
    write_text(out / "arms.json", json.dumps(report.arm_configs, indent=2))
