import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslcl.autodiff import Tape, Tensor
from sslcl.data import batch_iter, generate_synthetic, preset_spec
from sslcl.losses import (FloorCount, HyperParams, batched_sample_losses,
                          cross_entropy, label_label_loss, sample_weights, sslcl_loss,
                          supcon_loss)
from sslcl.similarity import MEASURES, build_context, sim_matrix
from sslcl.trainer import RunConfig, compute_step_loss, init_params

from oracles import (cross_entropy_ld, label_label_ld, negative_loss_ld,
                     positive_loss_ld, supcon_ld)


def _instance(rng, n=None, k=None, d=None, n_views=0):
    n = n or int(rng.integers(2, 7))
    k = k or int(rng.integers(2, 5))
    d = d or int(rng.integers(2, 6))
    feats = rng.standard_normal((n, d))
    table = rng.standard_normal((k, d))
    labels = rng.integers(0, k, size=n)
    views = [rng.standard_normal((n, d)) for _ in range(n_views)]
    return feats, table, labels, views


def _ctx(feats, table, labels, measure="soft-hgr"):
    return build_context(Tensor(feats), Tensor(table), labels, measure=measure)


def _pos(ctx, hp, views=()):
    return batched_sample_losses(ctx, [Tensor(v) for v in views], hp)[0].values


def _neg(ctx, hp):
    return batched_sample_losses(ctx, [], hp)[1].values


class TestPositiveLoss:
    def test_uniform_similarities_empty_views(self):
        # All-equal similarities and no views: p = 1/K for the single term.
        k = 4
        ctx = _ctx(np.zeros((3, 2)), np.zeros((k, 2)), [0, 1, 2])
        hp = HyperParams(alpha=2.0)
        expected = -np.log(1 / k) * (1 - 1 / k) ** 2
        for value in _pos(ctx, hp):
            assert abs(value - expected) < 1e-12

    def test_alpha_zero_reduces_to_log_softmax(self):
        rng = np.random.default_rng(40)
        feats, table, labels, _ = _instance(rng, n=3, k=3, d=2)
        ctx = _ctx(feats, table, labels)
        hp = HyperParams(alpha=1e-12)  # strictly positive per contract; 0 in the limit
        sims = sim_matrix(ctx).values
        got = _pos(ctx, hp)
        for i in range(3):
            exps = np.exp(sims[i] - sims[i].max())
            p = exps[labels[i]] / exps.sum()
            assert abs(got[i] - (-np.log(p))) < 1e-9

    def test_matches_oracle_trimodal_views(self):
        rng = np.random.default_rng(41)
        hp = HyperParams()
        for _ in range(40):
            feats, table, labels, views = _instance(rng, n_views=3)
            got = _pos(_ctx(feats, table, labels), hp, views)
            for i in range(len(labels)):
                expected = float(positive_loss_ld(
                    feats, table, labels, [v[i] for v in views], i, hp.alpha, "soft-hgr"))
                assert abs(got[i] - expected) < 1e-10

    def test_monotone_in_own_similarity(self):
        # Raising the own-label similarity (via the label row) lowers the loss.
        rng = np.random.default_rng(43)
        feats, table, labels, _ = _instance(rng, n=4, k=3, d=3)
        hp = HyperParams()
        base = _pos(_ctx(feats, table, labels, "dot"), hp)[0]
        boosted = table.copy()
        boosted[labels[0]] += 0.5 * feats[0]
        up = _pos(_ctx(feats, boosted, labels, "dot"), hp)[0]
        assert up < base


class TestNegativeLoss:
    def test_uniform_two_classes(self):
        hp = HyperParams(beta=0.5)
        ctx = _ctx(np.zeros((2, 2)), np.zeros((2, 2)), [0, 1])
        expected = -np.log(0.5) * 0.5 ** 0.5
        for value in _neg(ctx, hp):
            assert abs(value - expected) < 1e-12

    def test_vanishes_when_own_label_dominates(self):
        hp = HyperParams()
        feats = np.array([[30.0, 0.0], [0.0, 30.0]])
        table = np.array([[1.0, 0.0], [0.0, 1.0]])
        ctx = _ctx(feats, table, [0, 1], measure="dot")
        assert np.all(_neg(ctx, hp) < 1e-6)

    def test_matches_oracle(self):
        rng = np.random.default_rng(44)
        hp = HyperParams()
        for _ in range(40):
            feats, table, labels, _ = _instance(rng)
            got = _neg(_ctx(feats, table, labels), hp)
            for i in range(len(labels)):
                expected = float(negative_loss_ld(feats, table, labels, i, hp.beta, "soft-hgr"))
                assert abs(got[i] - expected) < 1e-10


class TestLabelPermutation:
    """Renaming the label ids (the table rows moved to match) and reordering
    the samples reorders the per-sample losses the same way and changes
    nothing else, up to the rounding of the reordered sums: relative
    tolerance 1e-9."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 8), k=st.integers(2, 5), d=st.integers(1, 5),
           n_views=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           measure=st.sampled_from(MEASURES))
    def test_batched_sample_losses_are_equivariant(self, n, k, d, n_views, seed, measure):
        rng = np.random.default_rng(seed)
        feats, table, labels, views = _instance(rng, n=n, k=k, d=d, n_views=n_views)
        hp = HyperParams()
        pos, neg = batched_sample_losses(_ctx(feats, table, labels, measure),
                                         [Tensor(v) for v in views], hp)
        rename = rng.permutation(k)        # old label j is now rename[j]
        order = rng.permutation(n)         # new sample i is old sample order[i]
        renamed_table = np.empty_like(table)
        renamed_table[rename] = table
        ctx = _ctx(feats[order], renamed_table, rename[labels[order]], measure)
        pos_p, neg_p = batched_sample_losses(ctx, [Tensor(v[order]) for v in views], hp)
        np.testing.assert_allclose(pos_p.values, pos.values[order], rtol=1e-9, atol=0)
        np.testing.assert_allclose(neg_p.values, neg.values[order], rtol=1e-9, atol=0)


class TestLabelLabelLoss:
    def test_two_orthogonal_embeddings(self):
        # Zero dot product: each pair probability is 1/2, loss is -2 log(1/2).
        table = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert abs(label_label_loss(table).item() - 2 * np.log(2.0)) < 1e-12

    def test_strictly_positive_for_orthogonal_embeddings(self):
        # Orthogonal rows leave every pairwise dot at 0: p = 1/K per pair,
        # so the loss is positive but bounded.
        k = 4
        value = label_label_loss(Tensor(np.eye(k) * 10.0)).item()
        expected = -k * (k - 1) * np.log(1 - 1 / k)
        assert value > 0
        assert abs(value - expected) < 1e-10

    def test_vanishes_for_strongly_repelled_embeddings(self):
        # Large negative dots drive every pair probability to 0.
        table = np.array([[20.0, 0.0], [-20.0, 0.0]])
        assert 0 <= label_label_loss(Tensor(table)).item() < 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            k, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            table = rng.standard_normal((k, d))
            expected = float(label_label_ld(table))
            assert abs(label_label_loss(Tensor(table)).item() - expected) < 1e-10

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            label_label_loss(Tensor([[1.0, 2.0]]))


class TestSampleWeights:
    def test_single_class_batch_gives_unit_weights(self):
        weights = sample_weights(np.array([2, 2, 2, 2]), gamma=1.3)
        np.testing.assert_array_equal(weights, np.ones(4))

    def test_gamma_zero_disables_weighting(self):
        weights = sample_weights(np.array([0, 0, 0, 5]), gamma=0.0)
        np.testing.assert_array_equal(weights, np.ones(4))

    def test_minority_upweighted(self):
        weights = sample_weights(np.array([1, 3, 1, 1]), gamma=1.0)
        np.testing.assert_allclose(weights, [4 / 3, 4.0, 4 / 3, 4 / 3], atol=1e-15)


class TestSslclLoss:
    def test_breakdown_is_exactly_assembled(self):
        rng = np.random.default_rng(46)
        feats, table, labels, views = _instance(rng, n=5, k=3, d=3, n_views=3)
        ctx = _ctx(feats, table, labels)
        hp = HyperParams()
        node, breakdown = sslcl_loss(ctx, [Tensor(v) for v in views], hp)
        assembled = float(np.dot(breakdown.sample_weights,
                                 breakdown.positive_terms + breakdown.negative_terms)
                          + hp.label_loss_weight * breakdown.label_loss)
        assert breakdown.sslcl_loss == assembled == node.item()

    def test_negative_term_can_be_dropped(self):
        rng = np.random.default_rng(48)
        feats, table, labels, _ = _instance(rng, n=3, k=3, d=2)
        ctx = _ctx(feats, table, labels)
        _, neg = batched_sample_losses(ctx, [], HyperParams(), use_negative=False)
        np.testing.assert_array_equal(neg.values, np.zeros(3))

    def test_all_terms_nonnegative(self):
        rng = np.random.default_rng(49)
        hp = HyperParams()
        for _ in range(20):
            feats, table, labels, views = _instance(rng, n_views=3)
            ctx = _ctx(feats, table, labels)
            node, breakdown = sslcl_loss(ctx, [Tensor(v) for v in views], hp)
            assert np.all(breakdown.positive_terms >= 0)
            assert np.all(breakdown.negative_terms >= 0)
            assert breakdown.label_loss >= 0
            assert node.item() >= 0


class TestCrossEntropy:
    def test_one_hot_correct_predictions(self):
        probs = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, [0, 1]).item() == 0.0

    def test_uniform_predictions(self):
        n, k = 5, 4
        probs = Tensor(np.full((n, k), 1.0 / k))
        assert abs(cross_entropy(probs, [0] * n).item() - n * np.log(k)) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(k), size=n)
            labels = rng.integers(0, k, size=n)
            expected = float(cross_entropy_ld(probs, labels))
            assert abs(cross_entropy(Tensor(probs), labels).item() - expected) < 1e-12

    def test_floored_log_counted(self):
        counter = FloorCount()
        probs = Tensor([[1.0, 0.0], [0.5, 0.5]])
        value = cross_entropy(probs, [1, 0], counter=counter)
        assert counter.count == 1
        assert np.isfinite(value.item())


def _step_breakdown(**config_kwargs):
    """Breakdown of one compute_step_loss call on a meld-like batch of 8."""
    dataset = generate_synthetic(preset_spec("meld-like", 60, seed=3))
    batch = next(batch_iter(dataset, 8, seed=0))
    config = RunConfig(**config_kwargs)
    store = init_params(dataset.header, config, np.random.default_rng(0))
    return compute_step_loss(config, store.constants(), batch)[1]


class TestTotalLoss:
    """L_Train = L_SSLCL + ce_weight * L_CE, as the trainer assembles it."""

    def test_ce_weight_zero(self):
        breakdown = _step_breakdown(hp=HyperParams(ce_weight=1e-300))  # stays positive
        assert breakdown.ce_loss > 0
        assert breakdown.train_loss == breakdown.sslcl_loss

    def test_pure_ce(self):
        breakdown = _step_breakdown(loss_mode="ce-only")
        assert breakdown.sslcl_loss == 0.0
        assert breakdown.train_loss == breakdown.ce_loss > 0

    def test_linear_in_ce_weight(self):
        parts = set()
        for eta in (0.5, 1.0, 2.0):
            breakdown = _step_breakdown(hp=HyperParams(ce_weight=eta))
            assert breakdown.train_loss == breakdown.sslcl_loss + eta * breakdown.ce_loss
            parts.add((breakdown.sslcl_loss, breakdown.ce_loss))
        # The weight scales the cross entropy only; neither term moves with it.
        assert len(parts) == 1


class TestSupConLoss:
    def test_all_singleton_classes_give_zero(self):
        rng = np.random.default_rng(51)
        feats = Tensor(rng.standard_normal((4, 3)))
        assert supcon_loss(feats, [0, 1, 2, 3], 0.07).item() == 0.0

    def test_two_same_class_samples_give_zero(self):
        feats = Tensor([[1.0, 2.0], [1.0, 2.0]])
        assert abs(supcon_loss(feats, [1, 1], 0.07).item()) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(2, 5))
            feats = rng.standard_normal((n, d))
            labels = rng.integers(0, 3, size=n)
            expected = float(supcon_ld(feats, labels, 0.07))
            assert abs(supcon_loss(Tensor(feats), labels, 0.07).item() - expected) < 1e-10

    def test_singleton_anchor_gets_zero_gradient_signal(self):
        # One minority singleton in the batch: the loss must not move it.
        rng = np.random.default_rng(53)
        tape = Tape()
        feats = tape.leaf("feats", rng.standard_normal((3, 2)))
        loss = supcon_loss(feats, [0, 0, 1], 0.07)
        grads = tape.gradients(loss)["feats"]
        # The singleton is still pushed away as a negative of others' anchors,
        # but as an anchor it contributes nothing: removing it from the batch
        # leaves the others' pairwise terms intact. Check its anchor term is 0
        # by comparing against the batch without it contributing as anchor.
        assert np.isfinite(grads).all()
        tape2 = Tape()
        feats2 = tape2.leaf("feats", np.array([[10.0, 0.0], [-10.0, 0.0]]))
        loss2 = supcon_loss(feats2, [0, 1], 0.07)
        assert loss2.item() == 0.0
        assert np.all(tape2.gradients(loss2)["feats"] == 0.0)

    def test_single_sample_batch_is_zero(self):
        assert supcon_loss(Tensor([[1.0, 2.0]]), [0], 0.07).item() == 0.0


class TestStackedTerms:
    """Stacked inputs: one batch per seed along a leading axis."""

    def test_sample_weights_weigh_each_batch_on_its_own(self):
        labels = np.array([[1, 3, 1, 1], [0, 0, 0, 5], [2, 2, 2, 2]])
        weights = sample_weights(labels, gamma=1.3)
        for row, batch in zip(weights, labels):
            np.testing.assert_array_equal(row, sample_weights(batch, gamma=1.3))

    def test_floored_logs_are_counted_per_seed(self):
        probs = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [1.0, 0.0]]])
        labels = np.array([[1, 0], [0, 1]])
        counter = FloorCount(np.zeros(2, dtype=np.intp))
        value = cross_entropy(Tensor(probs), labels, counter=counter)
        assert value.shape == (2,)
        np.testing.assert_array_equal(counter.count, [1, 2])
        for seed in range(2):
            alone = FloorCount()
            assert cross_entropy(Tensor(probs[seed]), labels[seed], counter=alone).item() \
                == value.values[seed]
            assert alone.count == counter.count[seed]
