"""Reverse-mode automatic differentiation over dense float64 arrays.

A small Wengert-list engine: operations execute eagerly on numpy arrays
and append their vector-Jacobian products to the tape that owns the
participating leaves. Walking the records in exact reverse order of
forward execution yields gradients for every registered parameter.
Only the shapes the losses in this package need are supported (scalars,
vectors, matrices); there is no general broadcasting.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or infinity, or was fed non-finite input."""


class DegenerateBatchError(ValueError):
    """A statistic that needs at least two rows was asked for fewer."""


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

    Gradients come from replaying the records in exact reverse order of
    forward execution; a registered parameter that never reaches the loss
    gets an exactly-zero gradient.
    """

    def __init__(self):
        self._records: list[tuple[str, Tensor, tuple[Tensor, ...], Callable]] = []
        self._params: dict[str, Tensor] = {}

    def leaf(self, name: str, values) -> Tensor:
        """Register a learnable parameter and return its graph node."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        node = Tensor(values, tape=self, requires_grad=True)
        self._params[name] = node
        return node

    def gradients(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Return d(loss)/d(param) for every registered parameter.

        The loss must be a scalar node from this tape's forward pass.
        Every VJP maps a non-finite adjoint to a non-finite output and every
        differentiable node drains into a parameter, so checking the returned
        gradients catches any non-finite VJP output or accumulated adjoint;
        only then are the records walked again with a check after each VJP,
        to name the op.
        """
        if loss.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        if loss.tape is not None and loss.tape is not self:
            raise ValueError("loss was computed on a different tape")
        with np.errstate(all="ignore"):
            grads = self._backward(loss, check=False)
        if all(_all_finite(g) for g in grads.values()):
            return grads
        return self._backward(loss, check=True)

    def _backward(self, loss: Tensor, *, check: bool) -> dict[str, np.ndarray]:
        adjoint: dict[int, np.ndarray] = {id(loss): np.asarray(1.0)}
        for op_name, out, inputs, vjp in reversed(self._records):
            out_grad = adjoint.get(id(out))
            if out_grad is None:
                continue
            for node, grad in zip(inputs, vjp(out_grad)):
                if grad is None or not node.requires_grad:
                    continue
                seen = adjoint.get(id(node))
                adjoint[id(node)] = grad if seen is None else seen + grad
                # The accumulated adjoint, not only this VJP's output: two
                # finite outputs can overflow when added. `seen` was finite.
                if check and not _all_finite(adjoint[id(node)]):
                    raise NonFiniteError(f"backward of {op_name} produced non-finite values")
        return {
            name: np.array(adjoint.get(id(node), np.zeros_like(node.values)))
            for name, node in self._params.items()
        }


def _all_finite(values: np.ndarray) -> bool:
    """Exactly np.isfinite(values).all(), but one cheap reduction when true.

    NaN and infinity propagate through a sum, so a finite sum means every
    element is finite; a sum that overflows from finite terms falls back to
    the elementwise test. numpy warns when the sum overflows or meets both
    infinities; the result is still exact.
    """
    return math.isfinite(values.sum()) or bool(np.isfinite(values).all())


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _join_tape(inputs: Iterable[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ValueError("operands belong to different tapes")
    return tape


def _make(op_name: str, out_values: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    out_values = _as_array(out_values)
    if not _all_finite(out_values):
        raise NonFiniteError(f"{op_name} produced non-finite values")
    tape = _join_tape(inputs)
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_values, tape=tape, requires_grad=requires)
    if tape is not None and requires:
        tape._records.append((op_name, out, inputs, vjp))
    return out


def _check_same_shape(a: Tensor, b: Tensor, op_name: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op_name}: shape mismatch {a.shape} vs {b.shape}")


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "add")
    return _make("add", a.values + b.values, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "sub")
    return _make("sub", a.values - b.values, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "mul")
    av, bv = a.values, b.values
    return _make("mul", av * bv, (a, b), lambda g: (g * bv, g * av))


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_same_shape(a, b, "div")
    av, bv = a.values, b.values
    with np.errstate(divide="ignore", invalid="ignore"):
        out = av / bv
    return _make("div", out, (a, b), lambda g: (g / bv, -g * av / (bv * bv)))


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
    return _make("add_rowvec", mat.values + vec.values, (mat, vec),
                 lambda g: (g, g.sum(axis=0)))


def mul_colvec(mat, vec) -> Tensor:
    """(N, d) * (N,), each row scaled by its own factor."""
    mat, vec = _lift(mat), _lift(vec)
    if mat.values.ndim != 2 or vec.values.ndim != 1 or mat.shape[0] != vec.shape[0]:
        raise ValueError(f"mul_colvec: incompatible shapes {mat.shape}, {vec.shape}")
    mv, wv = mat.values, vec.values
    return _make("mul_colvec", mv * wv[:, None], (mat, vec),
                 lambda g: (g * wv[:, None], (g * mv).sum(axis=1)))


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape}, {b.shape}")
    av, bv = a.values, b.values
    return _make("matmul", av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


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
    return _make("outer", np.outer(uv, vv), (u, v), lambda g: (g @ vv, uv @ g))


def dot(u, v) -> Tensor:
    u, v = _lift(u), _lift(v)
    if u.values.ndim != 1 or v.values.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"dot: incompatible shapes {u.shape}, {v.shape}")
    uv, vv = u.values, v.values
    return _make("dot", uv @ vv, (u, v), lambda g: (g * vv, g * uv))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(_lift(p) for p in parts)
    if not parts or any(p.values.ndim != 2 for p in parts):
        raise ValueError("concat_cols expects a non-empty list of matrices")
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

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
    if np.any(av <= 0.0):
        raise NonFiniteError("log of a non-positive value")
    return _make("log", np.log(av), (a,), lambda g: (g / av,))


def pow_const(a, exponent: float) -> Tensor:
    a = _lift(a)
    c = float(exponent)
    av = a.values
    with np.errstate(divide="ignore", over="ignore"):
        out = av ** c

    def vjp(g):
        with np.errstate(divide="ignore", over="ignore"):
            return (g * c * av ** (c - 1.0),)

    return _make("pow_const", out, (a,), vjp)


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
    return _make("rowsum", mv.sum(axis=1), (mat,),
                 lambda g: (np.broadcast_to(g[:, None], mv.shape),))


def colmean(mat) -> Tensor:
    mat = _lift(mat)
    if mat.values.ndim != 2:
        raise ValueError("colmean expects a matrix")
    mv = mat.values
    n = mv.shape[0]
    return _make("colmean", mv.mean(axis=0), (mat,),
                 lambda g: (np.broadcast_to(g[None, :] / n, mv.shape),))


def center_rows(mat) -> Tensor:
    """Subtract the column mean from every row.

    A single-row matrix is returned unchanged: the one-sample mean would
    zero it out and the downstream covariance is undefined there anyway.
    """
    mat = _lift(mat)
    if mat.values.ndim != 2:
        raise ValueError("center_rows expects a matrix")
    mv = mat.values
    if mv.shape[0] == 1:
        return _make("center_rows", mv.copy(), (mat,), lambda g: (g,))
    centered = mv - mv.mean(axis=0, keepdims=True)
    return _make("center_rows", centered, (mat,),
                 lambda g: (g - g.mean(axis=0, keepdims=True),))


def softmax_rows(mat) -> Tensor:
    """Row-wise stable softmax of a matrix."""
    mat = _lift(mat)
    if mat.values.ndim != 2:
        raise ValueError("softmax_rows expects a matrix")
    if not np.all(np.isfinite(mat.values)):
        raise NonFiniteError("softmax_rows input is not finite")
    shifted = mat.values - mat.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    return _make("softmax_rows", s, (mat,),
                 lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),))
