"""Command-line entry point: data generation, training, evaluation,
gradient checking and the sweep/ablation experiments.

Exit codes: 0 success, 1 config/usage validation error, 2 runtime failure.
The effective config is echoed into every artifact a command writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._files import write_text
from .data import (PRESETS, SyntheticSpec, generate_synthetic, load_features, preset_spec,
                   save_jsonl, split_dataset)
from .evaluation import (DEFAULT_SWEEP_SIZES, SWEEP_MODES, ablation_suite, batch_size_sweep,
                         train_and_score_seeds, write_ablation_report, write_sweep_report)
from .trainer import (ConfigError, NonFiniteLossError, RunConfig, config_from_flat,
                      config_to_flat, gradcheck, init_params, load_checkpoint, save_checkpoint,
                      score, write_metrics_log)

SEED_ENV_VAR = "SSLCL_SEED"
JOBS_HELP = ("worker processes (at least 1); results are byte-identical to --jobs 1, "
             "and each worker holds one copy of the dataset")


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _build_config(args) -> tuple[RunConfig, str | None]:
    """Defaults, then the config file, then --set overrides, then the env
    seed override. Returns the config and an optional data path."""
    flat: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        flat.update(loaded)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        flat[key.strip()] = _parse_set_value(raw)
    data_path = flat.pop("data", None)
    if getattr(args, "data", None):
        data_path = args.data
    env_seeds = os.environ.get(SEED_ENV_VAR)
    if env_seeds:
        try:
            flat["seeds"] = [int(s) for s in env_seeds.split(",")]
        except ValueError as err:
            raise ConfigError(f"{SEED_ENV_VAR} must be comma-separated integers") from err
    return config_from_flat(flat), data_path


def _require_data(data_path: str | None):
    if not data_path:
        raise ConfigError("a dataset is required: pass --data or a 'data' config key")
    return load_features(data_path)


def _cmd_gen_data(args) -> int:
    spec = preset_spec(args.preset, args.n, args.seed, class_separation=args.class_separation)
    dataset = generate_synthetic(spec)
    save_jsonl(dataset, args.out)
    print(f"wrote {len(dataset)} records ({spec.num_labels} classes) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config, data_path = _build_config(args)
    dataset = _require_data(data_path)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results, scores = train_and_score_seeds(config, dataset)
    for seed, result, (wf1, _) in zip(config.seeds, results, scores):
        write_metrics_log(out_dir / f"metrics_seed{seed}.jsonl", config, result)
        save_checkpoint(out_dir / f"checkpoint_seed{seed}.json", result.store, config)
        print(f"seed {seed}: test w-F1 {wf1:.4f}")
    mean = sum(wf1 for wf1, _ in scores) / len(scores)
    print(f"mean test w-F1 over {len(scores)} seed(s): {mean:.4f}")
    return 0


def _check_checkpoint_fits(store, header, config: RunConfig) -> None:
    """Raise ConfigError naming the first parameter whose name or shape
    differs from what the checkpoint's config builds for this data."""
    built = init_params(header, config, np.random.default_rng(0)).arrays
    expected = {name: list(arr.shape) for name, arr in built.items()}
    found = {name: list(arr.shape) for name, arr in store.arrays.items()}
    for name in list(expected) + [n for n in found if n not in expected]:
        if found.get(name) != expected.get(name):
            raise ConfigError(f"checkpoint does not fit the data: {name} has shape "
                              f"{found.get(name)}, the data needs {expected.get(name)}")


def _cmd_eval(args) -> int:
    store, config = load_checkpoint(args.checkpoint)
    if args.predictor:
        config = replace(config, predictor=args.predictor)
    dataset = load_features(args.data)
    _check_checkpoint_fits(store, dataset.header, config)
    if args.split != "all":
        dataset = getattr(split_dataset(dataset, config.split_seed), args.split)
    [(wf1, per_class)] = score(store, dataset, config)
    print(f"w-F1 on {args.split} ({len(dataset)} records): {wf1:.4f}")
    for name, f1 in zip(dataset.header.label_names, per_class):
        print(f"  {name}: F1 {f1:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    config, _ = _build_config(args)
    report = gradcheck(config)
    print(report.summary())
    return 0 if report.passed else 2


def _cmd_sweep_batch(args) -> int:
    config, data_path = _build_config(args)
    dataset = _require_data(data_path)
    sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else DEFAULT_SWEEP_SIZES
    modes = tuple(args.modes.split(",")) if args.modes else SWEEP_MODES
    sweep = batch_size_sweep(config, dataset, sizes=sizes, modes=modes, jobs=args.jobs)
    out = Path(args.out)
    write_sweep_report(out, sweep, dataset.header.num_labels, svg=args.svg)
    write_text(out / "base_config.json", json.dumps(config_to_flat(config), indent=2))
    print((out / "summary.txt").read_text(encoding="utf-8"))
    return 0


def _cmd_ablate(args) -> int:
    config, data_path = _build_config(args)
    dataset = _require_data(data_path)
    report = ablation_suite(config, dataset, jobs=args.jobs)
    out = Path(args.out)
    write_ablation_report(out, report, dataset.header.num_labels)
    write_text(out / "base_config.json", json.dumps(config_to_flat(config), indent=2))
    print((out / "summary.txt").read_text(encoding="utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sslcl")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic imbalanced dataset")
    gen.add_argument("--preset", choices=sorted(PRESETS), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--class-separation", type=float, default=SyntheticSpec.class_separation)
    gen.set_defaults(func=_cmd_gen_data)

    def add_config_args(p, with_data=True):
        p.add_argument("--config", default=None, help="JSON config file (flat keys)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key; repeatable")
        if with_data:
            p.add_argument("--data", default=None, help="feature JSONL path")

    tr = sub.add_parser("train", help="train on the fixed split and save artifacts")
    add_config_args(tr)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    ev.add_argument("--predictor", choices=("head", "similarity"), default=None)
    ev.set_defaults(func=_cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    add_config_args(gc, with_data=False)
    gc.set_defaults(func=_cmd_gradcheck)

    sw = sub.add_parser("sweep-batch", help="batch-size stability sweep")
    add_config_args(sw)
    sw.add_argument("--out", required=True)
    sw.add_argument("--sizes", default=None, help="comma-separated batch sizes")
    sw.add_argument("--modes", default=None, help="comma-separated loss modes")
    sw.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    sw.add_argument("--svg", action="store_true", help="also emit a line plot")
    sw.set_defaults(func=_cmd_sweep_batch)

    ab = sub.add_parser("ablate", help="similarity/component/depth ablations")
    add_config_args(ab)
    ab.add_argument("--out", required=True)
    ab.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    ab.set_defaults(func=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 1
    except (NonFiniteLossError, BrokenExecutor, OSError, ArithmeticError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
