import numpy as np
import pytest

from sslcl import autodiff as ad
from sslcl.autodiff import NonFiniteError, Tape, Tensor


def _fd_gradients(build, arrays, h=1e-6):
    """Central finite differences of build(constants) over every array entry."""
    grads = {}
    for name, arr in arrays.items():
        flat = arr.ravel()
        num = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = build({k: Tensor(v) for k, v in arrays.items()}).item()
            flat[j] = orig - h
            down = build({k: Tensor(v) for k, v in arrays.items()}).item()
            flat[j] = orig
            num[j] = (up - down) / (2 * h)
        grads[name] = num.reshape(arr.shape)
    return grads


def _check_grads(build, arrays, tol=5e-6):
    tape = Tape()
    leaves = {k: tape.leaf(k, v) for k, v in arrays.items()}
    loss = build(leaves)
    analytic = tape.gradients(loss)
    numeric = _fd_gradients(build, arrays)
    for name in arrays:
        np.testing.assert_allclose(analytic[name], numeric[name], rtol=tol, atol=tol)


class TestCenterRows:
    def test_symmetric_two_rows(self):
        out = ad.center_rows(Tensor([[1.0, 3.0], [3.0, 1.0]]))
        np.testing.assert_array_equal(out.values, [[-1.0, 1.0], [1.0, -1.0]])

    def test_single_row_is_identity(self):
        row = [[2.5, -7.0]]
        np.testing.assert_array_equal(ad.center_rows(Tensor(row)).values, row)

    def test_column_means_vanish(self):
        rng = np.random.default_rng(3)
        out = ad.center_rows(Tensor(rng.standard_normal((4, 3))))
        assert np.all(np.abs(out.values.mean(axis=0)) < 1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        proj = rng.standard_normal((5, 3))
        _check_grads(lambda p: ad.sum_all(ad.mul(ad.center_rows(p["m"]), Tensor(proj))),
                     {"m": rng.standard_normal((5, 3))})


class TestStableSoftmax:
    """ad.softmax_rows, the max-shifted softmax the classifier head runs."""

    def test_uniform(self):
        np.testing.assert_allclose(ad.softmax_rows(Tensor(np.zeros((2, 3)))).values,
                                   np.full((2, 3), 1 / 3), atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = ad.softmax_rows(Tensor([[1000.0, 1000.0, 0.0], [0.0, 0.0, 0.0]])).values
        np.testing.assert_allclose(out[0, :2], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(out[1], [1 / 3] * 3, atol=1e-15)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(6)
        mat = rng.standard_normal((3, 6))
        exps = np.exp(mat.astype(np.longdouble))
        expected = (exps / exps.sum(axis=1, keepdims=True)).astype(np.float64)
        out = ad.softmax_rows(Tensor(mat)).values
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((3, 5))
        for shift in (-100.0, 3.7, 250.0):
            # Each row moves by its own constant; the softmax must not see it.
            offsets = shift * np.array([[1.0], [0.5], [-2.0]])
            np.testing.assert_allclose(ad.softmax_rows(Tensor(mat + offsets)).values,
                                       ad.softmax_rows(Tensor(mat)).values, atol=1e-12)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            ad.softmax_rows(Tensor([[1.0, 2.0], [1.0, np.inf]]))

    def test_gradient(self):
        # Rows at the overflow scale: the backward must use the shifted values.
        rng = np.random.default_rng(8)
        proj = rng.standard_normal((2, 4))
        _check_grads(lambda p: ad.sum_all(ad.mul(ad.softmax_rows(p["m"]), Tensor(proj))),
                     {"m": rng.standard_normal((2, 4)) + np.array([[1000.0], [-700.0]])})


class TestGradients:
    def test_sum_of_parameter_is_ones(self):
        tape = Tape()
        vec = tape.leaf("v", np.array([1.0, -2.0, 3.0]))
        grads = tape.gradients(ad.sum_all(vec))
        np.testing.assert_array_equal(grads["v"], np.ones(3))

    def test_unused_parameter_gets_exact_zero(self):
        tape = Tape()
        used = tape.leaf("used", np.array([2.0]))
        unused = tape.leaf("unused", np.array([[1.0, 2.0]]))
        grads = tape.gradients(ad.sum_all(ad.scale(used, 3.0)))
        assert np.all(grads["unused"] == 0.0)
        assert grads["unused"].shape == unused.values.shape

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        vec = tape.leaf("v", np.ones(3))
        with pytest.raises(ValueError):
            tape.gradients(ad.scale(vec, 2.0))

    def test_linearity(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((3, 3))
        proj1 = rng.standard_normal((3, 3))
        proj2 = rng.standard_normal((3, 3))
        a, b = 1.7, -0.4

        def loss1(leaf):
            return ad.sum_all(ad.mul(ad.exp(ad.scale(leaf, 0.3)), Tensor(proj1)))

        def loss2(leaf):
            return ad.sum_all(ad.mul(ad.matmul(leaf, leaf), Tensor(proj2)))

        tape = Tape()
        leaf = tape.leaf("m", arr)
        combined = ad.add(ad.scale(loss1(leaf), a), ad.scale(loss2(leaf), b))
        g_combined = tape.gradients(combined)["m"]
        t1 = Tape()
        g1 = t1.gradients(loss1(t1.leaf("m", arr)))["m"]
        t2 = Tape()
        g2 = t2.gradients(loss2(t2.leaf("m", arr)))["m"]
        np.testing.assert_allclose(g_combined, a * g1 + b * g2, atol=1e-10)

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf("a", np.ones(2))
        b = t2.leaf("b", np.ones(2))
        with pytest.raises(ValueError):
            ad.add(a, b)

    def test_duplicate_leaf_name_rejected(self):
        tape = Tape()
        tape.leaf("w", np.ones(2))
        with pytest.raises(ValueError):
            tape.leaf("w", np.ones(2))


class TestPrimitiveGradients:
    """Finite-difference checks for each primitive inside a tiny composition."""

    def test_elementwise_chain(self):
        rng = np.random.default_rng(10)
        proj = rng.standard_normal((4, 3))

        def build(p):
            x = ad.mul(p["a"], p["b"])
            x = ad.div(x, ad.add_const(ad.mul(p["b"], p["b"]), 2.0))
            x = ad.exp(ad.scale(x, 0.5))
            x = ad.log(ad.add_const(x, 1.0))
            return ad.sum_all(ad.mul(x, Tensor(proj)))

        _check_grads(build, {"a": rng.standard_normal((4, 3)),
                             "b": rng.standard_normal((4, 3))})

    def test_matrix_ops(self):
        rng = np.random.default_rng(11)
        proj = rng.standard_normal((4, 2))

        def build(p):
            prod = ad.matmul(p["a"], ad.transpose(p["b"]))
            shifted = ad.add_rowvec(prod, p["v"])
            scaled = ad.mul_colvec(shifted, p["w"])
            return ad.sum_all(ad.mul(scaled, Tensor(proj)))

        _check_grads(build, {"a": rng.standard_normal((4, 3)),
                             "b": rng.standard_normal((2, 3)),
                             "v": rng.standard_normal(2),
                             "w": rng.standard_normal(4)})

    def test_gather_concat_reductions(self):
        rng = np.random.default_rng(12)
        idx = np.array([2, 0, 2, 1])
        proj = rng.standard_normal(4)

        def build(p):
            picked = ad.gather_rows(p["table"], idx)
            joined = ad.concat_cols([picked, ad.relu(p["other"])])
            per_row = ad.rowsum(joined)
            mean_vec = ad.colmean(joined)
            return ad.add(ad.dot(per_row, Tensor(proj)), ad.sum_all(mean_vec))

        _check_grads(build, {"table": rng.standard_normal((3, 2)),
                             "other": rng.standard_normal((4, 3))})

    def test_pow_clamp_outer_stack(self):
        rng = np.random.default_rng(13)

        def build(p):
            sq = ad.pow_const(ad.clamp_min(ad.mul(p["u"], p["u"]), 1e-12), 0.75)
            grid = ad.outer(sq, p["v"])
            s1 = ad.sum_all(grid)
            s2 = ad.dot(p["v"], p["v"])
            return ad.add(ad.add(s1, s2), ad.scale(s1, -0.5))

        _check_grads(build, {"u": rng.standard_normal(3) + 2.0,
                             "v": rng.standard_normal(4)})

    def test_softmax_rows_gradient(self):
        rng = np.random.default_rng(14)
        proj = rng.standard_normal((3, 4))
        _check_grads(lambda p: ad.sum_all(ad.mul(ad.softmax_rows(p["m"]), Tensor(proj))),
                     {"m": rng.standard_normal((3, 4))})


class TestFiniteness:
    def test_exp_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            ad.exp(Tensor([1000.0]))

    def test_log_of_zero_raises(self):
        with pytest.raises(NonFiniteError):
            ad.log(Tensor([0.0]))

    def test_div_by_zero_raises(self):
        with pytest.raises(NonFiniteError):
            ad.div(Tensor([1.0]), Tensor([0.0]))
