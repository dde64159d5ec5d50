"""Reverse-mode automatic differentiation over dense float64 arrays.

A small Wengert-list engine: operations execute eagerly on numpy arrays
and append their vector-Jacobian products to the tape that owns the
participating leaves. Walking the records in exact reverse order of
forward execution yields gradients for every registered parameter.
A two-operand op notes when it is recorded which operands need a
gradient; its VJP computes nothing for a constant operand and returns
None in its place. Only the shapes the losses in this package need are
supported (scalars, vectors, matrices); there is no general broadcasting.

Every op also takes an optional leading stack axis S: S independent
problems of the same shape (one per training seed) advance in one call.
Matrix ops act on the last two axes, row reductions on axis -1 and column
reductions on axis -2, and each slice of the output equals, bit for bit,
the op applied to that slice alone. A constant operand may omit the stack
axis; it is then shared by every slice. A stacked loss holds one value per
slice, and each slice's parameters get the gradient of their own loss.
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


def keep_freed_memory() -> None:
    """Have glibc keep the heap a step frees (blocks up to 32 MB, trimmed past 64 MB: its own
    dynamic maxima) rather than page-fault it back in next step. Process-wide."""
    import ctypes  # imported only by a process that trains
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # None outside glibc-like libcs
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


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
        self._groups: dict[str, str] = {}
        self._consumed = False

    def leaf(self, name: str, values, group: str | None = None) -> Tensor:
        """Register a learnable parameter and return its graph node; a
        group, when given, is named with the parameter in backward errors."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        node = Tensor(values, tape=self, requires_grad=True)
        self._params[name] = node
        if group is not None:
            self._groups[name] = group
        return node

    def gradients(self, loss: Tensor, stacked: bool = False) -> dict[str, np.ndarray]:
        """Return d(loss)/d(param) for every registered parameter.

        The loss must be a scalar node from this tape's forward pass, or with
        stacked=True a vector of one loss per slice of a stacked pass. Each
        record is dropped before its VJP runs and each adjoint once its VJP
        has read it, so the forward arrays are freed during the walk and the
        tape is single-use. The walk runs with floating-point errors raised:
        a flagged VJP is re-run quietly and names its op only if an output
        for a grad-requiring input is non-finite (div's VJP can overflow in
        an intermediate and still return a finite gradient), and a flagged
        adjoint sum names its op too. The returned gradients are checked
        last, for a non-finite value that no flag reported.
        """
        if loss.values.ndim != (1 if stacked else 0):
            raise ValueError(f"loss must be {'one value per slice' if stacked else 'scalar'}, "
                             f"got shape {loss.shape}")
        if loss.tape is not None and loss.tape is not self:
            raise ValueError("loss was computed on a different tape")
        if self._consumed:
            raise ValueError("tape was consumed by an earlier gradients call")
        self._consumed = True
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            grads = self._backward(loss)
        for name, grad in grads.items():
            if not _all_finite(grad):
                group = self._groups.get(name)
                what = name if group is None else f"{group} parameter {name}"
                raise NonFiniteError(f"backward produced non-finite values for {what}")
        return grads

    def _backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        # Keyed by the node itself: Tensor hashes and compares by identity.
        adjoint: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.values)}
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


def _shared_constant(const: Tensor, other: Tensor) -> bool:
    """True when `const` needs no gradient and is `other` without its stack axis."""
    return not const.requires_grad and const.values.shape == other.values.shape[1:]


def _shared_matrix(const: Tensor, other: Tensor) -> bool:
    """True when `const` is a matrix that needs no gradient and `other` is stacked."""
    return not const.requires_grad and const.values.ndim == 2 and other.values.ndim == 3


def _check_same_shape(a: Tensor, b: Tensor, op_name: str) -> None:
    if (a.values.shape != b.values.shape and not _shared_constant(a, b)
            and not _shared_constant(b, a)):
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
    """(..., N, d) + (..., d), the vector added to every row."""
    mat, vec = _lift(mat), _lift(vec)
    mv, vv = mat.values, vec.values
    if mv.ndim < 2 or mv.ndim != vv.ndim + 1 or mv.shape[:-2] + mv.shape[-1:] != vv.shape:
        raise ValueError(f"add_rowvec: incompatible shapes {mat.shape}, {vec.shape}")
    need_mat, need_vec = mat.requires_grad, vec.requires_grad
    return _make("add_rowvec", mv + vv[..., None, :], (mat, vec),
                 lambda g: (g if need_mat else None, g.sum(axis=-2) if need_vec else None))


def mul_colvec(mat, vec) -> Tensor:
    """(..., N, d) * (..., N), each row scaled by its own factor."""
    mat, vec = _lift(mat), _lift(vec)
    mv, wv = mat.values, vec.values
    if mv.ndim < 2 or mv.shape[:-1] != wv.shape:
        raise ValueError(f"mul_colvec: incompatible shapes {mat.shape}, {vec.shape}")
    need_mat, need_vec = mat.requires_grad, vec.requires_grad
    return _make("mul_colvec", mv * wv[..., None], (mat, vec),
                 lambda g: (g * wv[..., None] if need_mat else None,
                            (g * mv).sum(axis=-1) if need_vec else None))


def matmul(a, b) -> Tensor:
    """(..., n, k) @ (..., k, m); a constant matrix may be shared by every slice."""
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    if (av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]
            or (av.shape[:-2] != bv.shape[:-2] and not _shared_matrix(a, b)
                and not _shared_matrix(b, a))):
        raise ValueError(f"matmul: incompatible shapes {a.shape}, {b.shape}")
    need_a, need_b = a.requires_grad, b.requires_grad
    return _make("matmul", av @ bv, (a, b),
                 lambda g: (g @ bv.mT if need_a else None, av.mT @ g if need_b else None))


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _lift(a)
    if a.values.ndim < 2:
        raise ValueError("transpose expects a matrix")
    return _make("transpose", a.values.mT, (a,), lambda g: (g.mT,))


def outer(u, v) -> Tensor:
    """(..., n) and (..., m) to (..., n, m)."""
    u, v = _lift(u), _lift(v)
    uv, vv = u.values, v.values
    if uv.ndim < 1 or uv.shape[:-1] != vv.shape[:-1]:
        raise ValueError(f"outer: incompatible shapes {u.shape}, {v.shape}")
    need_u, need_v = u.requires_grad, v.requires_grad
    # The VJPs are matrix-vector products, written as matmuls against a
    # one-column (or one-row) matrix so that they also run per slice.
    return _make("outer", uv[..., :, None] * vv[..., None, :], (u, v),
                 lambda g: ((g @ vv[..., :, None])[..., 0] if need_u else None,
                            (uv[..., None, :] @ g)[..., 0, :] if need_v else None))


def dot(u, v) -> Tensor:
    """Inner product over the last axis: one value per slice."""
    u, v = _lift(u), _lift(v)
    uv, vv = u.values, v.values
    if uv.ndim < 1 or uv.shape != vv.shape:
        raise ValueError(f"dot: incompatible shapes {u.shape}, {v.shape}")
    need_u, need_v = u.requires_grad, v.requires_grad
    return _make("dot", np.vecdot(uv, vv), (u, v),
                 lambda g: (g[..., None] * vv if need_u else None,
                            g[..., None] * uv if need_v else None))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(_lift(p) for p in parts)
    if not parts or any(p.values.ndim < 2 for p in parts):
        raise ValueError("concat_cols expects a non-empty list of matrices")
    widths = [p.shape[-1] for p in parts]
    offsets = list(accumulate(widths, initial=0))

    def vjp(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make("concat_cols", np.concatenate([p.values for p in parts], axis=-1), parts, vjp)


def gather_rows(mat, indices) -> Tensor:
    """Select rows of a matrix; backward scatter-adds into the source. A
    stacked (S, K, d) source takes one index row per slice, (S, N)."""
    mat = _lift(mat)
    idx = np.asarray(indices, dtype=np.intp)
    mv = mat.values
    if idx.ndim not in (1, 2) or mv.ndim != idx.ndim + 1 or mv.shape[:-2] != idx.shape[:-1]:
        raise ValueError("gather_rows expects a matrix and a 1-d index array per slice")
    where = (idx,) if idx.ndim == 1 else (np.arange(len(idx))[:, None], idx)

    def vjp(g):
        out = np.zeros_like(mv)
        np.add.at(out, where, g)
        return (out,)

    return _make("gather_rows", mv[where], (mat,), vjp)


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


def sum_all(a, stacked: bool = False) -> Tensor:
    """Sum of every entry, or with stacked=True one sum per slice of the
    leading stack axis."""
    a = _lift(a)
    av = a.values
    axes = tuple(range(int(stacked), av.ndim))

    def vjp(g):
        out = np.empty_like(av)
        out[...] = np.reshape(g, np.shape(g) + (1,) * len(axes))
        return (out,)

    return _make("sum_all", av.sum(axis=axes), (a,), vjp)


def rowsum(mat) -> Tensor:
    """Sum over the last axis."""
    mat = _lift(mat)
    if mat.values.ndim < 2:
        raise ValueError("rowsum expects a matrix")
    mv = mat.values
    width = mv.shape[-1]
    # repeat, not np.broadcast_to: the same values in one call, without the
    # Python-level set-up that dominates broadcast_to at these sizes.
    return _make("rowsum", mv.sum(axis=-1), (mat,),
                 lambda g: (g[..., None].repeat(width, axis=-1),))


def colmean(mat) -> Tensor:
    """Mean over the second-to-last axis (the rows)."""
    mat = _lift(mat)
    if mat.values.ndim < 2:
        raise ValueError("colmean expects a matrix")
    mv = mat.values
    n = mv.shape[-2]
    return _make("colmean", mv.mean(axis=-2), (mat,),
                 lambda g: ((g[..., None, :] / n).repeat(n, axis=-2),))


def center_rows(mat) -> Tensor:
    """Subtract the column mean from every row."""
    mat = _lift(mat)
    if mat.values.ndim < 2:
        raise ValueError("center_rows expects a matrix")
    mv = mat.values
    centered = mv - mv.mean(axis=-2, keepdims=True)
    return _make("center_rows", centered, (mat,),
                 lambda g: (g - g.mean(axis=-2, keepdims=True),))


def softmax_rows(mat) -> Tensor:
    """Row-wise stable softmax of a matrix."""
    mat = _lift(mat)
    if mat.values.ndim < 2:
        raise ValueError("softmax_rows expects a matrix")
    if not _all_finite(mat.values):
        raise NonFiniteError("softmax_rows input is not finite")
    shifted = mat.values - mat.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return _make("softmax_rows", s, (mat,),
                 lambda g: (s * (g - (g * s).sum(axis=-1, keepdims=True)),))
