import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _check_grads(build, arrays, tol=5e-6, constants=()):
    """Tape gradients against central differences; names in `constants`
    enter the tape as constants instead of leaves."""
    tape = Tape()
    nodes = {k: Tensor(v) if k in constants else tape.leaf(k, v) for k, v in arrays.items()}
    loss = build(nodes)
    analytic = tape.gradients(loss)
    assert set(analytic) == set(arrays) - set(constants)
    numeric = _fd_gradients(build, arrays)
    for name in analytic:
        np.testing.assert_allclose(analytic[name], numeric[name], rtol=tol, atol=tol)


class TestCenterRows:
    def test_symmetric_two_rows(self):
        out = ad.center_rows(Tensor([[1.0, 3.0], [3.0, 1.0]]))
        np.testing.assert_array_equal(out.values, [[-1.0, 1.0], [1.0, -1.0]])

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

    def test_second_call_on_a_walked_tape_raises(self):
        tape = Tape()
        vec = tape.leaf("v", np.array([1.0, -2.0]))
        loss = ad.sum_all(ad.scale(vec, 3.0))
        np.testing.assert_array_equal(tape.gradients(loss)["v"], [3.0, 3.0])
        with pytest.raises(ValueError, match="consumed"):
            tape.gradients(loss)

    def test_walk_frees_the_forward_arrays_without_the_collector(self):
        gc.disable()
        try:
            tape = Tape()
            x = tape.leaf("x", np.array([0.5, -1.0, 2.0]))
            mid = ad.exp(ad.scale(x, 2.0))
            mid_values = weakref.ref(mid.values)
            loss = ad.sum_all(mid)
            del mid
            grads = tape.gradients(loss)
            assert mid_values() is None
            assert tape._records == []
        finally:
            gc.enable()
        np.testing.assert_allclose(grads["x"], 2.0 * np.exp(2.0 * x.values), rtol=1e-15)

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


class TestFinitenessContract:
    """Every forward value is checked when it is made; a backward step that
    raises a floating-point error names its op, and the returned gradients
    are checked once per `gradients` call."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_values_whose_sum_overflows_pass(self):
        out = ad.add_const(Tensor([1e308, 1e308]), 0.0)
        np.testing.assert_array_equal(out.values, [1e308, 1e308])

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf],
                                        [np.inf, -np.inf]],
                             ids=["nan", "+inf", "-inf", "+inf-and--inf"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_values_raise(self, values):
        with pytest.raises(NonFiniteError, match=r"^add_const produced non-finite values$"):
            ad.add_const(Tensor(values), 0.0)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    def test_non_finite_vjp_output_names_the_op(self):
        # Forward 1 / 1e-200 = 1e200 is finite; d/dy = -x / y**2 is not.
        tape = Tape()
        x = tape.leaf("x", np.array([1.0]))
        y = tape.leaf("y", np.array([1e-200]))
        loss = ad.sum_all(ad.scale(ad.div(x, y), 1e-300))
        with pytest.raises(NonFiniteError,
                           match=r"^backward of div produced non-finite values$"):
            tape.gradients(loss)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_vjp_outputs_whose_sum_overflows_name_the_op(self):
        # Each path carries a finite 1e308 to x; their sum is inf.
        tape = Tape()
        x = tape.leaf("x", np.array([1e-10]))
        loss = ad.sum_all(ad.add(ad.scale(x, 1e308), ad.scale(x, 1e308)))
        with pytest.raises(NonFiniteError,
                           match=r"^backward of scale produced non-finite values$"):
            tape.gradients(loss)

    def test_flagged_vjp_with_finite_outputs_passes(self):
        # d/dy = -x / (y * y): y * y overflows to inf, but the gradient is a
        # finite -0.0, so the walk's overflow flag must not abort it.
        tape = Tape()
        x = tape.leaf("x", np.array([1.0]))
        y = tape.leaf("y", np.array([1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grads = tape.gradients(ad.sum_all(ad.div(x, y)))
        np.testing.assert_array_equal(grads["x"], [1e-200])
        np.testing.assert_array_equal(grads["y"], [-0.0])

    def test_unflagged_non_finite_gradient_names_the_parameter(self):
        # A VJP that returns a stored infinity raises no floating-point flag;
        # only the check on the returned gradients sees it.
        stored = np.array([np.inf])
        tape = Tape()
        x = tape.leaf("x", np.array([1.0]))
        out = ad._make("leaky", x.values.copy(), (x,), lambda g: (stored,))
        with pytest.raises(NonFiniteError,
                           match=r"^backward produced non-finite values for x$"):
            tape.gradients(ad.sum_all(out))

    def test_non_finite_vjp_output_for_a_constant_is_ignored(self):
        tape = Tape()
        x = tape.leaf("x", np.array([1.0]))
        grads = tape.gradients(ad.sum_all(ad.div(x, Tensor([1e-200]))))
        np.testing.assert_array_equal(grads["x"], [1e200])


# op, operand shapes; dot's output is a scalar.
BINARY_OPS = {
    "add": (ad.add, (3, 2), (3, 2)),
    "sub": (ad.sub, (3, 2), (3, 2)),
    "mul": (ad.mul, (3, 2), (3, 2)),
    "div": (ad.div, (3, 2), (3, 2)),
    "matmul": (ad.matmul, (3, 4), (4, 2)),
    "dot": (ad.dot, (5,), (5,)),
    "outer": (ad.outer, (3,), (4,)),
    "add_rowvec": (ad.add_rowvec, (3, 4), (4,)),
    "mul_colvec": (ad.mul_colvec, (3, 4), (3,)),
}


class TestConstantOperands:
    """A two-operand op computes no gradient for an operand that needs none."""

    @staticmethod
    def _operands(name):
        op, shape_a, shape_b = BINARY_OPS[name]
        rng = np.random.default_rng(sorted(BINARY_OPS).index(name))
        # Away from zero, so div's denominator stays well inside float range.
        a = rng.uniform(0.5, 2.0, shape_a) * rng.choice([-1.0, 1.0], shape_a)
        b = rng.uniform(0.5, 2.0, shape_b) * rng.choice([-1.0, 1.0], shape_b)
        return op, a, b

    @staticmethod
    def _loss(out):
        proj = np.random.default_rng(99).standard_normal(out.shape)
        return ad.sum_all(ad.mul(out, Tensor(proj)))

    @pytest.mark.parametrize("param_side", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("name", sorted(BINARY_OPS))
    def test_parameter_gradient_is_unchanged_by_a_constant_partner(self, name, param_side):
        op, a, b = self._operands(name)
        both = Tape()
        leaves = (both.leaf("a", a), both.leaf("b", b))
        with_leaf = both.gradients(self._loss(op(*leaves)))
        one = Tape()
        operands = [Tensor(a), Tensor(b)]
        operands[param_side] = one.leaf("ab"[param_side], (a, b)[param_side])
        with_constant = one.gradients(self._loss(op(*operands)))
        key = "ab"[param_side]
        assert list(with_constant) == [key]
        assert np.array_equal(with_constant[key], with_leaf[key])

    @pytest.mark.parametrize("param_side", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("name", sorted(BINARY_OPS))
    def test_vjp_returns_none_for_the_constant(self, name, param_side):
        op, a, b = self._operands(name)
        tape = Tape()
        operands = [Tensor(a), Tensor(b)]
        operands[param_side] = tape.leaf("p", (a, b)[param_side])
        out = op(*operands)
        op_name, recorded_out, inputs, vjp = tape._records[-1]
        assert op_name == name and recorded_out is out
        grads = vjp(np.ones(out.shape))
        assert grads[1 - param_side] is None
        assert grads[param_side] is not None


_dims = st.integers(min_value=1, max_value=5)
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestRowColumnProperties:
    """add_rowvec, mul_colvec and gather_rows against central differences,
    over random shapes and values, with either operand a constant."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(n=_dims, d=_dims, seed=_seeds,
           constants=st.sampled_from([(), ("mat",), ("vec",)]))
    def test_add_rowvec(self, n, d, seed, constants):
        rng = np.random.default_rng(seed)
        proj = rng.standard_normal((n, d))
        _check_grads(lambda p: ad.sum_all(ad.mul(ad.add_rowvec(p["mat"], p["vec"]), Tensor(proj))),
                     {"mat": rng.standard_normal((n, d)), "vec": rng.standard_normal(d)},
                     constants=constants)

    @settings(max_examples=25, deadline=None, database=None)
    @given(n=_dims, d=_dims, seed=_seeds,
           constants=st.sampled_from([(), ("mat",), ("vec",)]))
    def test_mul_colvec(self, n, d, seed, constants):
        rng = np.random.default_rng(seed)
        proj = rng.standard_normal((n, d))
        _check_grads(lambda p: ad.sum_all(ad.mul(ad.mul_colvec(p["mat"], p["vec"]), Tensor(proj))),
                     {"mat": rng.standard_normal((n, d)), "vec": rng.standard_normal(n)},
                     constants=constants)

    @settings(max_examples=25, deadline=None, database=None)
    @given(k=_dims, d=_dims, seed=_seeds, picks=st.lists(st.integers(0, 99), min_size=1, max_size=8),
           constants=st.sampled_from([(), ("table",), ("other",)]))
    def test_gather_rows(self, k, d, seed, picks, constants):
        # Repeated indices scatter-add into the same source row; the gathered
        # rows meet a second operand so that either side can be the constant.
        rng = np.random.default_rng(seed)
        idx = np.array(picks) % k
        _check_grads(lambda p: ad.sum_all(ad.mul(ad.gather_rows(p["table"], idx), p["other"])),
                     {"table": rng.standard_normal((k, d)),
                      "other": rng.standard_normal((len(idx), d))},
                     constants=constants)


# op -> (build(params, consts), parameter base shapes, constant base arrays);
# every array gets a leading stack axis, and consts named "shared_*" do not.
STACKED_OPS = {
    "add": (lambda p, c: ad.add(p["a"], p["b"]), {"a": (3, 2), "b": (3, 2)}, {}),
    "sub": (lambda p, c: ad.sub(p["a"], p["b"]), {"a": (3, 2), "b": (3, 2)}, {}),
    "mul": (lambda p, c: ad.mul(p["a"], p["b"]), {"a": (3, 2), "b": (3, 2)}, {}),
    "div": (lambda p, c: ad.div(p["a"], p["b"]), {"a": (3, 2), "b": (3, 2)}, {}),
    "mul_shared": (lambda p, c: ad.mul(Tensor(c["shared_m"]), p["a"]), {"a": (3, 2)},
                   {"shared_m": (3, 2)}),
    "scale": (lambda p, c: ad.scale(p["a"], 0.7), {"a": (3, 2)}, {}),
    "add_const": (lambda p, c: ad.add_const(p["a"], c["k"]), {"a": (3, 2)}, {"k": (3, 2)}),
    "add_rowvec": (lambda p, c: ad.add_rowvec(p["a"], p["v"]), {"a": (3, 4), "v": (4,)}, {}),
    "mul_colvec": (lambda p, c: ad.mul_colvec(p["a"], p["v"]), {"a": (3, 4), "v": (3,)}, {}),
    "matmul": (lambda p, c: ad.matmul(p["a"], p["b"]), {"a": (3, 4), "b": (4, 2)}, {}),
    "matmul_gram": (lambda p, c: ad.matmul(p["a"], ad.transpose(p["a"])), {"a": (3, 4)}, {}),
    "matmul_shared": (lambda p, c: ad.matmul(p["a"], Tensor(c["shared_m"])), {"a": (3, 4)},
                      {"shared_m": (4, 4)}),
    "transpose": (lambda p, c: ad.transpose(p["a"]), {"a": (3, 4)}, {}),
    "outer": (lambda p, c: ad.outer(p["u"], p["v"]), {"u": (3,), "v": (4,)}, {}),
    "dot": (lambda p, c: ad.dot(p["u"], p["v"]), {"u": (5,), "v": (5,)}, {}),
    "concat_cols": (lambda p, c: ad.concat_cols([p["a"], p["b"]]), {"a": (3, 2), "b": (3, 4)}, {}),
    "gather_rows": (lambda p, c: ad.gather_rows(p["t"], c["idx"]), {"t": (4, 3)}, {"idx": None}),
    "relu": (lambda p, c: ad.relu(p["a"]), {"a": (3, 2)}, {}),
    "exp": (lambda p, c: ad.exp(p["a"]), {"a": (3, 2)}, {}),
    "log": (lambda p, c: ad.log(ad.mul(p["a"], p["a"])), {"a": (3, 2)}, {}),
    "pow_const": (lambda p, c: ad.pow_const(ad.mul(p["a"], p["a"]), -0.5), {"a": (3, 2)}, {}),
    "clamp_min": (lambda p, c: ad.clamp_min(p["a"], 0.1), {"a": (3, 2)}, {}),
    "sum_all": (lambda p, c: ad.sum_all(p["a"], stacked=c["stacked"]), {"a": (3, 2)}, {}),
    "rowsum": (lambda p, c: ad.rowsum(p["a"]), {"a": (3, 4)}, {}),
    "colmean": (lambda p, c: ad.colmean(p["a"]), {"a": (3, 4)}, {}),
    "center_rows": (lambda p, c: ad.center_rows(p["a"]), {"a": (3, 4)}, {}),
    "softmax_rows": (lambda p, c: ad.softmax_rows(p["a"]), {"a": (3, 4)}, {}),
}


class TestStackedOps:
    """Each slice of a stacked op, and of its gradients, equals the op on that
    slice alone, bit for bit."""

    @pytest.mark.parametrize("stack", [1, 3])
    @pytest.mark.parametrize("name", sorted(STACKED_OPS))
    def test_slices_equal_unstacked_calls(self, name, stack):
        build, shapes, const_shapes = STACKED_OPS[name]
        rng = np.random.default_rng(sorted(STACKED_OPS).index(name))
        params = {k: rng.uniform(0.5, 2.0, (stack,) + shape) * rng.choice([-1.0, 1.0], shape)
                  for k, shape in shapes.items()}
        consts = {k: rng.standard_normal(shape if k.startswith("shared_") else (stack,) + shape)
                  for k, shape in const_shapes.items() if shape is not None}
        if "idx" in const_shapes:
            consts["idx"] = rng.integers(0, shapes["t"][0], size=(stack, 6))

        tape = Tape()
        out = build({k: tape.leaf(k, v) for k, v in params.items()}, {**consts, "stacked": True})
        proj = rng.standard_normal(out.shape)
        loss = ad.sum_all(ad.mul(out, Tensor(proj)), stacked=True)
        assert loss.shape == (stack,)
        grads = tape.gradients(loss, stacked=True)
        for s in range(stack):
            one = Tape()
            sliced = {k: v if k.startswith("shared_") else v[s] for k, v in consts.items()}
            out_s = build({k: one.leaf(k, v[s]) for k, v in params.items()},
                          {**sliced, "stacked": False})
            assert np.array_equal(out_s.values, out.values[s])
            grads_s = one.gradients(ad.sum_all(ad.mul(out_s, Tensor(proj[s]))))
            for key in params:
                assert np.array_equal(grads_s[key], grads[key][s]), key

    def test_stacked_loss_needs_the_flag(self):
        tape = Tape()
        vec = tape.leaf("v", np.ones((2, 3)))
        with pytest.raises(ValueError, match="must be scalar"):
            tape.gradients(ad.sum_all(vec, stacked=True))
        with pytest.raises(ValueError, match="one value per slice"):
            Tape().gradients(Tensor(1.0), stacked=True)

    def test_only_a_constant_may_omit_the_stack_axis(self):
        tape = Tape()
        stacked = tape.leaf("s", np.ones((2, 3, 3)))
        shared = tape.leaf("m", np.ones((3, 3)))
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.mul(shared, stacked)
        with pytest.raises(ValueError, match="incompatible shapes"):
            ad.matmul(stacked, shared)
        assert ad.matmul(stacked, Tensor(np.ones((3, 3)))).shape == (2, 3, 3)
