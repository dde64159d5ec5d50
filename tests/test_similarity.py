import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslcl import autodiff as ad
from sslcl.autodiff import Tape, Tensor
from sslcl.data import batch_iter, generate_synthetic, preset_spec
from sslcl.similarity import build_context, sim_matrix, view_sim_vector
from sslcl.trainer import RunConfig, compute_step_loss, init_params

from oracles import pair_sim_ld, soft_hgr_batch_ld, soft_hgr_pair_ld, view_sim_ld


def _random_instance(rng, n=None, k=None, d=None):
    n = n or int(rng.integers(2, 7))
    k = k or int(rng.integers(2, 5))
    d = d or int(rng.integers(2, 6))
    feats = rng.standard_normal((n, d))
    table = rng.standard_normal((k, d))
    labels = rng.integers(0, k, size=n)
    return feats, table, labels


def _own_label_sum(ctx):
    """Sum of sim_matrix's entries at the batch's own labels: the batch
    Soft-HGR similarity, by the decomposition."""
    mat = sim_matrix(ctx).values
    return float(np.sum(mat[np.arange(ctx.size), ctx.labels]))


class TestSoftHgrBatch:
    """The own-label sum of sim_matrix against the batch Soft-HGR."""

    def test_zero_features_give_zero(self):
        ctx = build_context(Tensor(np.zeros((3, 2))), Tensor(np.ones((2, 2))), [0, 1, 0])
        assert _own_label_sum(ctx) == 0.0

    def test_hand_case_n2_d1(self):
        # Centered features [1, -1] paired with centered embeddings [1, -1]:
        # paired term 2, covariances both 2, similarity 2 - 0.5 * 4 = 0.
        feats = np.array([[1.5], [-0.5]])
        table = np.array([[1.0], [-1.0]])
        ctx = build_context(Tensor(feats), Tensor(table), [0, 1])
        assert abs(_own_label_sum(ctx) - 0.0) < 1e-12

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            feats, table, labels = _random_instance(rng)
            ctx = build_context(Tensor(feats), Tensor(table), labels)
            expected = float(soft_hgr_batch_ld(feats, table, labels))
            assert abs(_own_label_sum(ctx) - expected) < 1e-10

    def test_role_symmetry(self):
        # Swapping the two centered sides leaves the batch similarity unchanged.
        rng = np.random.default_rng(22)
        n, d = 5, 3
        feats = rng.standard_normal((n, d))
        table = rng.standard_normal((n, d))
        identity = np.arange(n)
        forward = _own_label_sum(build_context(Tensor(feats), Tensor(table), identity))
        swapped = _own_label_sum(build_context(Tensor(table), Tensor(feats), identity))
        assert abs(forward - swapped) < 1e-10


class TestDecomposition:
    """Entry (i, j) of sim_matrix is the per-pair Soft-HGR similarity."""

    def test_pair_sum_recovers_batch(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            feats, table, labels = _random_instance(rng)
            ctx = build_context(Tensor(feats), Tensor(table), labels)
            expected = float(soft_hgr_batch_ld(feats, table, labels))
            assert abs(_own_label_sum(ctx) - expected) < 1e-10

    def test_pair_hand_case(self):
        feats = np.array([[1.5], [-0.5]])
        table = np.array([[1.0], [-1.0]])
        ctx = build_context(Tensor(feats), Tensor(table), [0, 1])
        mat = sim_matrix(ctx).values
        for i in range(2):
            assert abs(mat[i, [0, 1][i]] - 0.0) < 1e-12

    def test_pair_matches_extended_precision(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            feats, table, labels = _random_instance(rng)
            ctx = build_context(Tensor(feats), Tensor(table), labels)
            i = int(rng.integers(0, len(labels)))
            j = int(rng.integers(0, table.shape[0]))
            expected = float(soft_hgr_pair_ld(
                feats, table, labels, i, np.asarray(table, np.longdouble)[j]
                - np.asarray(table, np.longdouble).mean(axis=0)))
            assert abs(sim_matrix(ctx).values[i, j] - expected) < 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(25)
        feats, table, labels = _random_instance(rng, n=4, k=3, d=3)
        offset = rng.standard_normal(3) * 10
        ctx = build_context(Tensor(feats), Tensor(table), labels)
        ctx_shifted = build_context(Tensor(feats + offset), Tensor(table), labels)
        np.testing.assert_allclose(sim_matrix(ctx_shifted).values, sim_matrix(ctx).values,
                                   rtol=0, atol=1e-10)


class TestPairSimilarityDispatch:
    """sim_matrix entries under each measure."""

    def test_dot(self):
        ctx = build_context(Tensor([[1.0, 2.0], [0.0, 0.0]]),
                            Tensor([[3.0, 4.0], [1.0, 1.0]]), [0, 1], measure="dot")
        assert sim_matrix(ctx).values[0, 0] == 11.0

    def test_cosine_parallel_vectors(self):
        ctx = build_context(Tensor([[2.0, 0.0], [0.0, 1.0]]),
                            Tensor([[4.0, 0.0], [1.0, 1.0]]), [0, 1], measure="cosine")
        assert abs(sim_matrix(ctx).values[0, 0] - 1.0) < 1e-9

    def test_cosine_zero_vector_uses_floor(self):
        ctx = build_context(Tensor([[0.0, 0.0], [1.0, 0.0]]),
                            Tensor([[1.0, 1.0], [2.0, 0.0]]), [0, 1], measure="cosine")
        assert sim_matrix(ctx).values[0, 0] == 0.0

    def test_all_measures_match_oracle(self):
        rng = np.random.default_rng(27)
        for measure in ("soft-hgr", "dot", "cosine"):
            feats, table, labels = _random_instance(rng, n=4, k=3, d=3)
            ctx = build_context(Tensor(feats), Tensor(table), labels, measure=measure)
            mat = sim_matrix(ctx).values
            for i in range(4):
                for j in range(3):
                    expected = float(pair_sim_ld(feats, table, labels, i, j, measure))
                    assert abs(mat[i, j] - expected) < 1e-10


class TestSimMatrix:
    def test_matches_pairwise(self):
        rng = np.random.default_rng(28)
        for measure in ("soft-hgr", "dot", "cosine"):
            feats, table, labels = _random_instance(rng)
            ctx = build_context(Tensor(feats), Tensor(table), labels, measure=measure)
            mat = sim_matrix(ctx).values
            for i in range(feats.shape[0]):
                for j in range(table.shape[0]):
                    expected = float(pair_sim_ld(feats, table, labels, i, j, measure))
                    assert abs(mat[i, j] - expected) < 1e-10

    def test_single_sample_falls_back_to_dot(self):
        feats = np.array([[1.0, 2.0]])
        table = np.array([[3.0, 4.0], [1.0, 0.0]])
        ctx = build_context(Tensor(feats), Tensor(table), [0])
        np.testing.assert_allclose(sim_matrix(ctx).values, [[11.0, 1.0]], atol=1e-14)


class TestSoftHgrTranslation:
    """Soft-HGR centers both sides, so one row vector added to every feature
    row, or to every label-table row, leaves `sim_matrix` unchanged up to
    the rounding of the centering: relative tolerance 1e-9 of the largest
    entry."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 8), k=st.integers(2, 5), d=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["features", "table"]),
           size=st.sampled_from([1e-3, 1.0, 10.0]))
    def test_sim_matrix_ignores_a_common_row_shift(self, n, k, d, seed, side, size):
        rng = np.random.default_rng(seed)
        feats, table, labels = _random_instance(rng, n=n, k=k, d=d)
        base = sim_matrix(build_context(Tensor(feats), Tensor(table), labels)).values
        shift = size * rng.standard_normal(d)
        if side == "features":
            feats = feats + shift
        else:
            table = table + shift
        moved = sim_matrix(build_context(Tensor(feats), Tensor(table), labels)).values
        np.testing.assert_allclose(moved, base, rtol=0, atol=1e-9 * np.abs(base).max())


class TestViewSimilarities:
    def test_view_vector_matches_oracle(self):
        rng = np.random.default_rng(30)
        for measure in ("soft-hgr", "dot", "cosine"):
            feats, table, labels = _random_instance(rng, n=4, k=3, d=3)
            views = rng.standard_normal((4, 3))
            ctx = build_context(Tensor(feats), Tensor(table), labels, measure=measure)
            out = view_sim_vector(ctx, Tensor(views)).values
            for i in range(4):
                expected = float(view_sim_ld(feats, table, labels, views[i],
                                             int(labels[i]), measure))
                assert abs(out[i] - expected) < 1e-10

    def test_view_gradients_flow_to_both_sides(self):
        rng = np.random.default_rng(31)
        tape = Tape()
        feats = tape.leaf("feats", rng.standard_normal((3, 2)))
        table = tape.leaf("table", rng.standard_normal((2, 2)))
        views = tape.leaf("views", rng.standard_normal((3, 2)))
        ctx = build_context(feats, table, [0, 1, 0])
        loss = ad.sum_all(view_sim_vector(ctx, views))
        grads = tape.gradients(loss)
        assert np.any(grads["feats"] != 0)
        assert np.any(grads["table"] != 0)
        assert np.any(grads["views"] != 0)


def _recorded_ops(tape):
    return [record[0] for record in tape._records]


class TestRecordedOps:
    """A context records only the ops its similarities read."""

    @pytest.mark.parametrize("measure", ["dot", "cosine"])
    def test_raw_measure_step_records_no_centering(self, measure):
        dataset = generate_synthetic(preset_spec("meld-like", 40, seed=3))
        batch = next(batch_iter(dataset, 8, seed=0))
        config = RunConfig(measure=measure)
        store = init_params(dataset.header, config, np.random.default_rng(0))
        tape = Tape()
        compute_step_loss(config, store.leaves(tape), batch)
        assert "center_rows" not in _recorded_ops(tape)

    def test_one_row_soft_hgr_records_no_centering(self):
        rng = np.random.default_rng(32)
        tape = Tape()
        feats = tape.leaf("feats", rng.standard_normal((1, 3)))
        table = tape.leaf("table", rng.standard_normal((4, 3)))
        ctx = build_context(feats, table, [2])
        sim_matrix(ctx)
        view_sim_vector(ctx, tape.leaf("view", rng.standard_normal((1, 3))))
        assert "center_rows" not in _recorded_ops(tape)

    def test_soft_hgr_centers_each_side_once(self):
        rng = np.random.default_rng(33)
        tape = Tape()
        feats = tape.leaf("feats", rng.standard_normal((5, 3)))
        table = tape.leaf("table", rng.standard_normal((4, 3)))
        ctx = build_context(feats, table, [0, 1, 2, 3, 0])
        sim_matrix(ctx)
        for name in ("v1", "v2"):
            view_sim_vector(ctx, tape.leaf(name, rng.standard_normal((5, 3))))
        assert _recorded_ops(tape).count("center_rows") == 2
