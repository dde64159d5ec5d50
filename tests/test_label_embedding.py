import numpy as np
import pytest

from sslcl.autodiff import Tape, Tensor
from sslcl.label_embedding import embed_labels, init_label_params


def _constants(arrays):
    return {k: Tensor(v) for k, v in arrays.items()}


class TestTwoLayer:
    def test_negative_embedding_row_collapses_to_bias(self):
        arrays = init_label_params(3, 4, 6, "two-layer", np.random.default_rng(1))
        arrays["label.embed"][1] = -np.abs(arrays["label.embed"][1]) - 1.0
        arrays["label.project_b"] = np.arange(4.0)
        table = embed_labels(_constants(arrays), "two-layer")
        np.testing.assert_array_equal(table.values[1], np.arange(4.0))

    def test_zero_projection_collapses_all_labels(self):
        arrays = init_label_params(3, 4, 6, "two-layer", np.random.default_rng(2))
        arrays["label.project_w"] = np.zeros((4, 6))
        arrays["label.project_b"] = np.full(4, 0.25)
        table = embed_labels(_constants(arrays), "two-layer")
        np.testing.assert_array_equal(table.values, np.full((3, 4), 0.25))

    def test_matches_hand_rolled_matmul(self):
        rng = np.random.default_rng(3)
        arrays = init_label_params(3, 4, 6, "two-layer", rng)
        table = embed_labels(_constants(arrays), "two-layer").values
        hidden = np.maximum(arrays["label.embed"], 0.0)
        expected = hidden @ arrays["label.project_w"].T + arrays["label.project_b"]
        np.testing.assert_allclose(table, expected, atol=1e-12)

    def test_shape_is_k_by_d(self):
        for depth, embed_dim in (("two-layer", 8), ("three-layer", 8), ("embedding-only", 4)):
            arrays = init_label_params(5, 4, embed_dim, depth, np.random.default_rng(4))
            assert embed_labels(_constants(arrays), depth).shape == (5, 4)


class TestVariants:
    def test_embedding_only_is_relu_of_table(self):
        arrays = init_label_params(3, 4, 4, "embedding-only", np.random.default_rng(6))
        table = embed_labels(_constants(arrays), "embedding-only").values
        np.testing.assert_array_equal(table, np.maximum(arrays["label.embed"], 0.0))

    def test_three_layer_adds_hidden_stage(self):
        rng = np.random.default_rng(7)
        arrays = init_label_params(3, 4, 6, "three-layer", rng)
        assert arrays["label.hidden_w"].shape == (6, 6)
        assert arrays["label.project_w"].shape == (4, 6)
        table = embed_labels(_constants(arrays), "three-layer").values
        hidden = np.maximum(arrays["label.embed"], 0.0)
        hidden = np.maximum(hidden @ arrays["label.hidden_w"].T + arrays["label.hidden_b"], 0.0)
        expected = hidden @ arrays["label.project_w"].T + arrays["label.project_b"]
        np.testing.assert_allclose(table, expected, atol=1e-12)

    def test_unknown_depth_rejected(self):
        with pytest.raises(ValueError):
            init_label_params(3, 4, 6, "four-layer", np.random.default_rng(8))


class TestGradients:
    def test_finite_differences_per_parameter(self):
        rng = np.random.default_rng(9)
        proj = rng.standard_normal((3, 4))
        for depth, embed_dim in (("two-layer", 6), ("three-layer", 6), ("embedding-only", 4)):
            arrays = init_label_params(3, 4, embed_dim, depth, rng)
            # Shift the table away from ReLU kinks so finite differences hold.
            arrays["label.embed"] += np.sign(arrays["label.embed"]) * 0.05
            tape = Tape()
            leaves = {k: tape.leaf(k, v) for k, v in arrays.items()}
            from sslcl import autodiff as ad
            loss = ad.sum_all(ad.mul(embed_labels(leaves, depth), Tensor(proj)))
            grads = tape.gradients(loss)
            h = 1e-6
            for name, arr in arrays.items():
                flat = arr.ravel()
                for j in range(min(flat.size, 8)):
                    orig = flat[j]
                    flat[j] = orig + h
                    up = ad.sum_all(ad.mul(embed_labels(_constants(arrays), depth),
                                           Tensor(proj))).item()
                    flat[j] = orig - h
                    down = ad.sum_all(ad.mul(embed_labels(_constants(arrays), depth),
                                             Tensor(proj))).item()
                    flat[j] = orig
                    numeric = (up - down) / (2 * h)
                    analytic = grads[name].ravel()[j]
                    denom = max(abs(numeric), abs(analytic), 1e-3)
                    assert abs(analytic - numeric) / denom < 1e-4
