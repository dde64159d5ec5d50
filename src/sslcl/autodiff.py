"""Reverse-mode automatic differentiation over dense float64 arrays.

A small Wengert-list engine: operations execute eagerly on numpy arrays
and append their vector-Jacobian products to the tape that owns the
participating leaves. Walking the records in exact reverse order of
forward execution yields gradients for every registered parameter.
A two-operand op notes when it is recorded which operands need a
gradient; its VJP computes nothing for a constant operand and returns
None in its place. Only the shapes the losses in this package need are
supported (scalars, vectors, matrices); there is no general broadcasting.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or infinity, or was fed non-finite input."""


def _as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """Dense float64 array plus the bookkeeping the tape needs."""

    __slots__ = ("values", "tape", "requires_grad")

    def __init__(self, values, tape: "Tape | None" = None, requires_grad: bool = False):
        self.values = _as_array(values)
        self.tape = tape
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered op record plus the parameter registry.

    Gradients come from walking the records in exact reverse order of
    forward execution; a registered parameter that never reaches the loss
    gets an exactly-zero gradient. The walk consumes the records, so a
    tape yields gradients once.
    """

    def __init__(self):
        self._records: list[tuple[str, Tensor, tuple[Tensor, ...], Callable]] = []
        self._params: dict[str, Tensor] = {}
        self._consumed = False

    def leaf(self, name: str, values) -> Tensor:
        """Register a learnable parameter and return its graph node."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        node = Tensor(values, tape=self, requires_grad=True)
        self._params[name] = node
        return node

    def gradients(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Return d(loss)/d(param) for every registered parameter.

        The loss must be a scalar node from this tape's forward pass. Each
        record is dropped before its VJP runs and each adjoint once its VJP
        has read it, so the forward arrays are freed during the walk and the
        tape is single-use. The walk runs with floating-point errors raised:
        a flagged VJP is re-run quietly and names its op only if an output
        for a grad-requiring input is non-finite (div's VJP can overflow in
        an intermediate and still return a finite gradient), and a flagged
        adjoint sum names its op too. The returned gradients are checked
        last, for a non-finite value that no flag reported.
        """
        if loss.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        if loss.tape is not None and loss.tape is not self:
            raise ValueError("loss was computed on a different tape")
        if self._consumed:
            raise ValueError("tape was consumed by an earlier gradients call")
        self._consumed = True
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            grads = self._backward(loss)
        for name, grad in grads.items():
            if not _all_finite(grad):
                raise NonFiniteError(f"backward produced non-finite values for {name}")
        return grads

    def _backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        # Keyed by the node itself: Tensor hashes and compares by identity.
        adjoint: dict[Tensor, np.ndarray] = {loss: np.asarray(1.0)}
        get, pop = adjoint.get, adjoint.pop
        records = self._records
        while records:
            op_name, out, inputs, vjp = records.pop()
            out_grad = pop(out, None)
            if out_grad is None:
                continue
            try:
                in_grads = vjp(out_grad)
            except FloatingPointError:
                # A raised flag alone is no failure: re-run quietly and fail
                # only on a non-finite gradient that a parameter needs.
                with np.errstate(all="ignore"):
                    in_grads = vjp(out_grad)
                    if any(grad is not None and node.requires_grad and not _all_finite(grad)
                           for node, grad in zip(inputs, in_grads)):
                        raise NonFiniteError(
                            f"backward of {op_name} produced non-finite values") from None
            for node, grad in zip(inputs, in_grads):
                if grad is None or not node.requires_grad:
                    continue
                seen = get(node)
                if seen is not None:
                    try:
                        grad = seen + grad
                    except FloatingPointError:
                        raise NonFiniteError(
                            f"backward of {op_name} produced non-finite values") from None
                adjoint[node] = grad
        grads = {}
        for name, node in self._params.items():
            grad = get(node)
            grads[name] = np.zeros_like(node.values) if grad is None else np.array(grad)
        return grads


_sum = np.add.reduce  # values.sum() without its Python wrapper


def _all_finite(values: np.ndarray) -> bool:
    """Exactly np.isfinite(values).all(), but one cheap reduction when true.

    NaN and infinity propagate through a sum, so a finite sum means every
    element is finite; a sum that overflows from finite terms falls back to
    the elementwise test. numpy warns when the sum overflows or meets both
    infinities; the result is still exact.
    """
    return math.isfinite(_sum(values, None)) or bool(np.isfinite(values).all())


def _lift(x) -> Tensor:
    return x if type(x) is Tensor else Tensor(x)


_FLOAT64 = np.dtype(np.float64)


def _make(op_name: str, out_values: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    if type(out_values) is not np.ndarray or out_values.dtype is not _FLOAT64:
        out_values = _as_array(out_values)
    if not _all_finite(out_values):
        raise NonFiniteError(f"{op_name} produced non-finite values")
    tape = None
    requires = False
    for t in inputs:
        if t.requires_grad:
            requires = True
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif t.tape is not tape:
                raise ValueError("operands belong to different tapes")
    out = Tensor.__new__(Tensor)
    out.values = out_values
    out.tape = tape
    out.requires_grad = requires
    if requires and tape is not None:
        tape._records.append((op_name, out, inputs, vjp))
    return out


def _check_same_shape(a: Tensor, b: Tensor, op_name: str) -> None:
    if a.values.shape != b.values.shape:
        raise ValueError(f"{op_name}: shape mismatch {a.shape} vs {b.shape}")


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "add")
    need_a, need_b = a.requires_grad, b.requires_grad
    return _make("add", a.values + b.values, (a, b),
                 lambda g: (g if need_a else None, g if need_b else None))


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "sub")
    need_a, need_b = a.requires_grad, b.requires_grad
    return _make("sub", a.values - b.values, (a, b),
                 lambda g: (g if need_a else None, -g if need_b else None))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "mul")
    av, bv = a.values, b.values
    need_a, need_b = a.requires_grad, b.requires_grad
    return _make("mul", av * bv, (a, b),
                 lambda g: (g * bv if need_a else None, g * av if need_b else None))


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "div")
    av, bv = a.values, b.values
    with np.errstate(divide="ignore", invalid="ignore"):
        out = av / bv
    need_a, need_b = a.requires_grad, b.requires_grad
    return _make("div", out, (a, b),
                 lambda g: (g / bv if need_a else None,
                            -g * av / (bv * bv) if need_b else None))


def scale(a, factor: float) -> Tensor:
    a = _lift(a)
    factor = float(factor)
    return _make("scale", a.values * factor, (a,), lambda g: (g * factor,))


def add_const(a, constant) -> Tensor:
    a = _lift(a)
    cv = _as_array(constant)
    out = a.values + cv
    if out.shape != a.shape:
        raise ValueError("add_const must not change the operand's shape")
    return _make("add_const", out, (a,), lambda g: (g,))


def add_rowvec(mat, vec) -> Tensor:
    """(N, d) + (d,), the vector added to every row."""
    mat, vec = _lift(mat), _lift(vec)
    if mat.values.ndim != 2 or vec.values.ndim != 1 or mat.shape[1] != vec.shape[0]:
        raise ValueError(f"add_rowvec: incompatible shapes {mat.shape}, {vec.shape}")
    need_mat, need_vec = mat.requires_grad, vec.requires_grad
    return _make("add_rowvec", mat.values + vec.values, (mat, vec),
                 lambda g: (g if need_mat else None, g.sum(axis=0) if need_vec else None))


def mul_colvec(mat, vec) -> Tensor:
    """(N, d) * (N,), each row scaled by its own factor."""
    mat, vec = _lift(mat), _lift(vec)
    if mat.values.ndim != 2 or vec.values.ndim != 1 or mat.shape[0] != vec.shape[0]:
        raise ValueError(f"mul_colvec: incompatible shapes {mat.shape}, {vec.shape}")
    mv, wv = mat.values, vec.values
    need_mat, need_vec = mat.requires_grad, vec.requires_grad
    return _make("mul_colvec", mv * wv[:, None], (mat, vec),
                 lambda g: (g * wv[:, None] if need_mat else None,
                            (g * mv).sum(axis=1) if need_vec else None))


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape}, {b.shape}")
    av, bv = a.values, b.values
    need_a, need_b = a.requires_grad, b.requires_grad
    return _make("matmul", av @ bv, (a, b),
                 lambda g: (g @ bv.T if need_a else None, av.T @ g if need_b else None))


def transpose(a) -> Tensor:
    a = _lift(a)
    if a.values.ndim != 2:
        raise ValueError("transpose expects a matrix")
    return _make("transpose", a.values.T, (a,), lambda g: (g.T,))


def outer(u, v) -> Tensor:
    u, v = _lift(u), _lift(v)
    if u.values.ndim != 1 or v.values.ndim != 1:
        raise ValueError("outer expects two vectors")
    uv, vv = u.values, v.values
    need_u, need_v = u.requires_grad, v.requires_grad
    return _make("outer", np.outer(uv, vv), (u, v),
                 lambda g: (g @ vv if need_u else None, uv @ g if need_v else None))


def dot(u, v) -> Tensor:
    u, v = _lift(u), _lift(v)
    if u.values.ndim != 1 or v.values.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"dot: incompatible shapes {u.shape}, {v.shape}")
    uv, vv = u.values, v.values
    need_u, need_v = u.requires_grad, v.requires_grad
    return _make("dot", uv @ vv, (u, v),
                 lambda g: (g * vv if need_u else None, g * uv if need_v else None))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(_lift(p) for p in parts)
    if not parts or any(p.values.ndim != 2 for p in parts):
        raise ValueError("concat_cols expects a non-empty list of matrices")
    widths = [p.shape[1] for p in parts]
    offsets = list(accumulate(widths, initial=0))

    def vjp(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make("concat_cols", np.concatenate([p.values for p in parts], axis=1), parts, vjp)


def gather_rows(mat, indices) -> Tensor:
    """Select rows of a matrix; backward scatter-adds into the source."""
    mat = _lift(mat)
    idx = np.asarray(indices, dtype=np.intp)
    if mat.values.ndim != 2 or idx.ndim != 1:
        raise ValueError("gather_rows expects a matrix and a 1-d index array")
    mv = mat.values

    def vjp(g):
        out = np.zeros_like(mv)
        np.add.at(out, idx, g)
        return (out,)

    return _make("gather_rows", mv[idx], (mat,), vjp)


def relu(a) -> Tensor:
    a = _lift(a)
    av = a.values
    mask = av > 0
    return _make("relu", np.maximum(av, 0.0), (a,), lambda g: (g * mask,))


def exp(a) -> Tensor:
    a = _lift(a)
    with np.errstate(over="ignore"):
        ev = np.exp(a.values)
    return _make("exp", ev, (a,), lambda g: (g * ev,))


def log(a) -> Tensor:
    a = _lift(a)
    av = a.values
    if (av <= 0.0).any():
        raise NonFiniteError("log of a non-positive value")
    return _make("log", np.log(av), (a,), lambda g: (g / av,))


def pow_const(a, exponent: float) -> Tensor:
    a = _lift(a)
    c = float(exponent)
    av = a.values
    with np.errstate(divide="ignore", over="ignore"):
        out = av ** c
    return _make("pow_const", out, (a,), lambda g: (g * c * av ** (c - 1.0),))


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    a = _lift(a)
    floor = float(floor)
    av = a.values
    mask = av > floor
    return _make("clamp_min", np.maximum(av, floor), (a,), lambda g: (g * mask,))


def sum_all(a) -> Tensor:
    a = _lift(a)
    av = a.values
    return _make("sum_all", av.sum(), (a,), lambda g: (np.full(av.shape, float(g)),))


def rowsum(mat) -> Tensor:
    mat = _lift(mat)
    if mat.values.ndim != 2:
        raise ValueError("rowsum expects a matrix")
    mv = mat.values
    width = mv.shape[1]
    # repeat, not np.broadcast_to: the same values in one call, without the
    # Python-level set-up that dominates broadcast_to at these sizes.
    return _make("rowsum", mv.sum(axis=1), (mat,),
                 lambda g: (g[:, None].repeat(width, axis=1),))


def colmean(mat) -> Tensor:
    mat = _lift(mat)
    if mat.values.ndim != 2:
        raise ValueError("colmean expects a matrix")
    mv = mat.values
    n = mv.shape[0]
    return _make("colmean", mv.mean(axis=0), (mat,),
                 lambda g: ((g[None, :] / n).repeat(n, axis=0),))


def center_rows(mat) -> Tensor:
    """Subtract the column mean from every row."""
    mat = _lift(mat)
    if mat.values.ndim != 2:
        raise ValueError("center_rows expects a matrix")
    mv = mat.values
    centered = mv - mv.mean(axis=0, keepdims=True)
    return _make("center_rows", centered, (mat,),
                 lambda g: (g - g.mean(axis=0, keepdims=True),))


def softmax_rows(mat) -> Tensor:
    """Row-wise stable softmax of a matrix."""
    mat = _lift(mat)
    if mat.values.ndim != 2:
        raise ValueError("softmax_rows expects a matrix")
    if not _all_finite(mat.values):
        raise NonFiniteError("softmax_rows input is not finite")
    shifted = mat.values - mat.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    return _make("softmax_rows", s, (mat,),
                 lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),))
