"""Correctness checks of the benchmark. Each returns None when the check
holds and a one-line reason when it does not."""

from __future__ import annotations

import numpy as np

LOSS_RTOL = 1e-8   # step-0 loss against the extended-precision evaluator
GRAD_TOL = 1e-4    # the package's gradcheck tolerance
FD_STEP = 1e-6
KINK_TOL = 1e-5    # relative disagreement of the h and h/2 differences
REL_FLOOR = 1e-3   # relative-error floor for gradients near zero, as in gradcheck
F1_ATOL = 1e-12
HGR_RTOL = 1e-9    # relative to the magnitude of the Soft-HGR terms


def loss_matches(program: float, reference: float) -> str | None:
    rel = abs(program - reference) / max(abs(reference), np.finfo(float).tiny)
    if not rel <= LOSS_RTOL:
        return f"step-0 L_Train {program!r} vs evaluator {reference!r}: relative error {rel:.3e}"
    return None


def pick_coordinates(shapes: dict[str, tuple], per_param: int, rng) -> list[tuple[str, int]]:
    """A few flat coordinates of every parameter, drawn from rng."""
    coords = []
    for name in sorted(shapes):
        size = int(np.prod(shapes[name]))
        for idx in rng.choice(size, size=min(per_param, size), replace=False):
            coords.append((name, int(idx)))
    return coords


def central_differences(loss, params: dict[str, np.ndarray], coords) -> dict:
    """(name, flat index) -> central differences at steps h and h/2.

    loss is the extended-precision evaluator, so a step far below the
    package's 1e-5 keeps round-off small and rarely straddles a ReLU kink;
    the second step tells a kink (where the two disagree) from a gradient."""
    params = {name: np.array(arr, dtype=np.longdouble, order="C") for name, arr in params.items()}
    numeric = {}
    for name, idx in coords:
        flat = params[name].reshape(-1)
        original = flat[idx]
        diffs = []
        for h in (FD_STEP, FD_STEP / 2):
            flat[idx] = original + h
            up = loss(params)
            flat[idx] = original - h
            down = loss(params)
            diffs.append(float((up - down) / (2 * h)))
        flat[idx] = original
        numeric[(name, idx)] = tuple(diffs)
    return numeric


def gradients_match(analytic: dict[str, np.ndarray], numeric: dict) -> str | None:
    """Tape gradients against central differences, with the package's
    relative-error rule. Coordinates whose two differences disagree sit on
    a kink and are left out; more than a quarter left out fails."""
    worst, where, kinks = 0.0, None, 0
    for (name, idx), (num, num_half) in numeric.items():
        if abs(num - num_half) > KINK_TOL * max(abs(num_half), REL_FLOOR):
            kinks += 1
            continue
        ana = float(np.asarray(analytic[name]).reshape(-1)[idx])
        rel = abs(ana - num_half) / max(abs(ana), abs(num_half), REL_FLOOR)
        if not rel <= worst:
            worst, where = rel, (name, idx, ana, num_half)
    if kinks * 4 > len(numeric):
        return f"central differences inconsistent at {kinks} of {len(numeric)} coordinates"
    if not worst < GRAD_TOL:
        name, idx, ana, num = where
        return (f"gradient of {name}[{idx}]: tape {ana!r} vs central difference {num!r} "
                f"(relative error {worst:.3e} >= {GRAD_TOL})")
    return None


def f1_matches(program: float, own: float, what: str) -> str | None:
    if not abs(program - own) <= F1_ATOL:
        return f"{what}: weighted_f1 {program!r} vs confusion-matrix count {own!r}"
    return None


def beats_majority(model: float, majority: float) -> str | None:
    if not model > majority:
        return f"test w-F1 {model:.4f} does not beat the majority-class predictor's {majority:.4f}"
    return None


def soft_hgr_identity(sims: np.ndarray, assigned, value, scale) -> str | None:
    """sum_i S[i, z_i] of the program's N x K matrix against the
    covariance-form batch Soft-HGR."""
    total = float(np.asarray(sims)[np.arange(len(assigned)), np.asarray(assigned)].sum())
    if not abs(total - float(value)) <= HGR_RTOL * float(scale):
        return f"sum_i S[i, z_i] = {total!r} vs covariance-form Soft-HGR {float(value)!r}"
    return None


def ablation_reproduces(csv_mean: float, serial_scores) -> str | None:
    serial = float(np.mean(serial_scores))
    if serial != csv_mean:
        return f"serial retrain of 'full' gives mean w-F1 {serial!r}, ablation.csv has {csv_mean!r}"
    return None
