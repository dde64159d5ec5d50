"""Tests of the benchmark itself: the evaluator against hand-computed cases,
each correctness check failing on a planted fault, and the tracer.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from sslcl import autodiff, data, encoder, label_embedding, similarity, trainer  # noqa: E402


@pytest.fixture(scope="module")
def instance():
    """A small batch, initial parameters and the config that made them."""
    dataset = data.generate_synthetic(data.preset_spec("meld-like", 60, seed=4))
    config = trainer.RunConfig(batch_size=12, epochs=1)
    store = trainer.init_params(dataset.header, config, np.random.default_rng(4))
    batch = next(data.batch_iter(dataset, 12, seed=[4, 0]))
    return config, store, batch


def evaluator_loss(params, batch):
    return oracle.train_loss(params, batch.text, batch.audio, batch.visual, batch.labels)


# --- the evaluator against hand-computed cases -------------------------------

def test_weighted_f1_hand_case():
    # class 0: P=1, R=1/2, F1=2/3; class 1: P=2/3, R=1, F1=4/5; equal support
    assert oracle.weighted_f1([0, 1, 1, 1], [0, 0, 1, 1], 2) == pytest.approx(
        0.5 * 2 / 3 + 0.5 * 0.8, abs=1e-15)
    assert oracle.weighted_f1([2, 2], [0, 1], 3) == 0.0


def test_soft_hgr_hand_case():
    # Centered features f = (1,0), (0,1), (-1,-1); centered labels g0 = (.5,0),
    # g1 = (-.5,0); z = (0,0,1); inv = 1/2. Paired term 1/2 (.5 + 0 + .5) = .5;
    # sum_{i,l} (f_i.f_l)(g_zi.g_zl) = 2, times inv^2 = .5; value .5 - .25.
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    table = np.array([[1.0, 0.0], [0.0, 0.0]])
    value, scale = oracle.soft_hgr_covariance_form(feats, table, [0, 0, 1])
    assert float(value) == pytest.approx(0.25, abs=1e-18)
    # a = 1/2 (1 * .5 + 1 * .5 + sqrt(2) * .5); scale = a + a^2 / 2.
    a = 0.5 * (0.5 + 0.5 + math.sqrt(2) * 0.5)
    assert float(scale) == pytest.approx(a + 0.5 * a * a, rel=1e-15)
    sims = oracle.soft_hgr_matrix(oracle._ld(feats), oracle._ld(table), [0, 0, 1])
    assert float(sims[[0, 1, 2], [0, 0, 1]].sum()) == pytest.approx(0.25, abs=1e-18)
    # A view equal to the full-view row scores like that row's own entry.
    views = oracle.soft_hgr_views(oracle._ld(feats), oracle._ld(feats), oracle._ld(table), [0, 0, 1])
    assert np.allclose(views.astype(float), sims[[0, 1, 2], [0, 0, 1]].astype(float), atol=1e-18)


def test_label_label_hand_case():
    # Orthogonal rows: every dot product is 0, so p(i, j) = 1/2 and the loss
    # is 2 log 2.
    assert float(oracle.label_label(oracle._ld(np.eye(2)))) == pytest.approx(2 * math.log(2))


def test_focal_terms_hand_case():
    # Two labels at equal similarity, no views: p = 1/2 for both.
    pos, neg = oracle.focal_terms(oracle._ld([[0.0, 0.0]]), [], np.array([0]),
                                  alpha=2.0, beta=0.5, use_negative=True)
    assert float(pos[0]) == pytest.approx(0.25 * math.log(2))
    assert float(neg[0]) == pytest.approx(math.log(2) * math.sqrt(0.5))
    # One view at the same similarity joins the denominator: p = 1/3 each.
    pos, _ = oracle.focal_terms(oracle._ld([[0.0, 0.0]]), [oracle._ld([0.0])], np.array([0]),
                                alpha=2.0, beta=0.5, use_negative=False)
    assert float(pos[0]) == pytest.approx(2 * math.log(3) * (2 / 3) ** 2)


def test_evaluator_matches_the_program(instance):
    config, store, batch = instance
    total, _ = trainer.compute_step_loss(config, store.constants(), batch)
    assert checks.loss_matches(total.item(), float(evaluator_loss(store.arrays, batch))) is None


# --- every check fails on a planted fault ------------------------------------

def test_loss_check_rejects_a_relative_error_of_1e_6(instance):
    config, store, batch = instance
    reference = float(evaluator_loss(store.arrays, batch))
    assert checks.loss_matches(reference * (1 + 1e-6), reference) is not None
    assert checks.loss_matches(reference * (1 + 1e-12), reference) is None


def test_gradient_check_rejects_one_perturbed_coordinate(instance):
    config, store, batch = instance
    tape = autodiff.Tape()
    total, _ = trainer.compute_step_loss(config, store.leaves(tape), batch)
    analytic = tape.gradients(total)
    coords = checks.pick_coordinates({k: v.shape for k, v in store.arrays.items()}, 1,
                                     np.random.default_rng(0))
    numeric = checks.central_differences(lambda p: evaluator_loss(p, batch), store.arrays, coords)
    assert checks.gradients_match(analytic, numeric) is None
    name, idx = coords[0]
    broken = {k: np.array(v, order="C") for k, v in analytic.items()}
    broken[name].reshape(-1)[idx] += 2 * checks.GRAD_TOL * max(abs(broken[name].reshape(-1)[idx]), 1)
    assert "gradient of" in checks.gradients_match(broken, numeric)


def test_gradient_check_fails_when_most_coordinates_sit_on_kinks():
    numeric = {("w", i): (1.0, 0.5) for i in range(4)}
    assert "inconsistent" in checks.gradients_match({"w": np.full(4, 0.5)}, numeric)
    numeric[("w", 0)] = (0.5, 0.5)
    numeric[("w", 1)] = (0.5, 0.5)
    numeric[("w", 2)] = (0.5, 0.5)
    assert checks.gradients_match({"w": np.full(4, 0.5)}, numeric) is None


def test_majority_check_rejects_a_model_no_better_than_the_majority_class():
    golds = [0, 0, 0, 1, 2]
    majority = oracle.weighted_f1([0] * 5, golds, 3)
    assert checks.beats_majority(majority, majority) is not None
    assert checks.beats_majority(oracle.weighted_f1([0, 0, 0, 1, 1], golds, 3), majority) is None


def test_f1_check_rejects_a_miscount():
    own = oracle.weighted_f1([0, 1, 1], [0, 1, 0], 2)
    assert checks.f1_matches(own, own, "head") is None
    assert checks.f1_matches(own + 1e-9, own, "head") is not None


def test_ablation_check_rejects_a_parallel_result_that_differs_from_serial():
    serial = [0.5123, 0.6071]
    mean = float(np.mean(serial))
    assert checks.ablation_reproduces(mean, serial) is None
    assert checks.ablation_reproduces(np.nextafter(mean, 1.0), serial) is not None


@pytest.mark.parametrize("one_label", [False, True])
def test_soft_hgr_identity_rejects_a_perturbed_matrix(instance, one_label):
    # With one label assigned to every row the batch Soft-HGR is exactly 0 and
    # the program's sum is round-off, which the check must still accept.
    config, store, batch = instance
    assigned = np.zeros(batch.size, dtype=int) if one_label else batch.labels
    consts = store.constants()
    feats = encoder.encode(batch, encoder.FULL_MASK, consts)
    ctx = similarity.build_context(feats, label_embedding.embed_labels(consts, config.le_depth),
                                   assigned, config.measure)
    sims = np.array(similarity.sim_matrix(ctx).values)
    value, scale = oracle.soft_hgr_covariance_form(
        oracle.encode(store.arrays, batch.text, batch.audio, batch.visual),
        oracle.label_table(store.arrays, config.le_depth), assigned)
    assert checks.soft_hgr_identity(sims, assigned, value, scale) is None
    sims[0, assigned[0]] += 1e-6 * float(scale)
    assert checks.soft_hgr_identity(sims, assigned, value, scale) is not None


# --- the tracer --------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = [(0, "a", 0, 100, None, 1, {}), (1, "b", 10, 40, 0, 1, {}),
             (2, "c", 20, 30, 1, 1, {}), (3, "b", 50, 60, 0, 1, {})]
    assert tracing.self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}


def test_tracer_measures_training_and_restores_the_program(monkeypatch):
    original = similarity.sim_matrix
    monkeypatch.setitem(tracing.SPAN_TARGETS, "gone.layer", ("sslcl.similarity", "no_such_fn", None))
    dataset = data.generate_synthetic(data.preset_spec("meld-like", 40, seed=2))
    config = trainer.RunConfig(batch_size=8, epochs=1)
    tracer = tracing.Tracer().install()
    try:
        result = trainer.train(config, dataset, seed=2)
        trainer.predict(result.store, dataset.header, dataset.records,
                        replace(config, predictor="similarity"))
    finally:
        tracer.uninstall()
    assert similarity.sim_matrix is original
    assert "sslcl.similarity.no_such_fn" in tracer.missing
    layer = tracing.layer_metrics(tracer.spans(), tracer.op_counts())
    assert layer["autodiff.ops_per_step"] == 235.0
    assert layer["autodiff.op_bytes_per_step"] > 0
    assert layer["similarity.score_ms"] > 0
    assert layer["trainer.step_ms"] > layer["autodiff.backward_ms_per_step"] > 0
    assert layer["evaluation.tasks"] == 0.0
    assert set(layer) == set(tracing.UNITS)
