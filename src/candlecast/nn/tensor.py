"""Reverse-mode autodiff on float64 numpy arrays.

A Tensor wraps an ndarray plus, when gradients are tracked, the closure
that routes an upstream gradient to its parents.  Calling ``backward()``
on a scalar loss walks the recorded graph once in reverse topological
order.  Reductions keep numpy's deterministic accumulation order, so a
fixed seed reproduces training bit for bit.

Broadcasting ops un-broadcast their gradients (sum over expanded axes),
so biases and scalar constants mix freely with batched activations.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import DataError, UntrainedModelError

# False inside ``no_grad()``: ops then return plain values with no parents.
_grad_enabled = True


@contextmanager
def no_grad():
    """Inference scope: ops record no graph, so forward activations are
    freed as soon as the next op has consumed them.  Values are unchanged."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def infer(model, fn, arrays, chunk: int | None = None) -> np.ndarray:
    """``fn`` over aligned ``arrays`` in slices of ``chunk`` instances (one
    pass when None) with no graph, outputs joined on the batch axis.  An
    empty input is one empty pass.  A model not marked trained raises
    UntrainedModelError.  The chunk size sets the BLAS summation order, so
    a fixed one gives bit-identical output run to run."""
    if not model.trained:
        raise UntrainedModelError(f"{model.name} has not been trained; "
                                  "run its training loop first")
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    n = len(arrays[0])
    step = chunk or max(n, 1)
    with no_grad():
        return np.concatenate([fn(*(a[s:s + step] for a in arrays)).data
                               for s in range(0, max(n, 1), step)])


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self.name = name

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g) -> None:
        if self.grad is None:
            # g + 0.0, broadcast into a fresh array: -0.0 becomes +0.0
            # exactly as zeros + g would
            self.grad = np.add(g, 0.0, out=np.empty(self.data.shape))
        else:
            self.grad += g

    def backward(self, grad=None) -> None:
        """Accumulate d(self)/d(parameter) into every reachable ``grad``."""
        if not self.requires_grad:
            raise DataError("backward on a value with no tracked parameters "
                            "(no forward trace to follow)")
        if grad is None:
            if self.data.size != 1:
                raise DataError(f"implicit backward needs a scalar, got shape {self.shape}")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}{tag})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __pow__(self, e):
        return pow_const(self, e)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes or None)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name: str = "") -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum the gradient of a broadcast result back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        a._accumulate(_unbroadcast(g / b.data, a.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(out_data, (a, b), backward)


def pow_const(a, e) -> Tensor:
    a = as_tensor(a)
    e = float(e)
    out_data = a.data ** e

    def backward(g):
        a._accumulate(g * e * a.data ** (e - 1.0))

    return _node(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DataError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DataError(f"matmul dims do not agree: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _node(out_data, (a, b), backward)


# -- elementwise nonlinearities -------------------------------------------

def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return _node(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(g):
        a._accumulate(g / a.data)

    return _node(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function on a float64 array; exp only ever sees -|z|, so
    large magnitudes cannot overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = stable_sigmoid(a.data)

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.fmax(a.data, 0.0) + 0.0      # NaN, -inf and -0.0 all give +0.0

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _node(out_data, (a,), backward)


def clamp(a, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        a._accumulate(g * mask)

    return _node(out_data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically shifted softmax; the shift is constant w.r.t. gradients,
    which leaves the derivative unchanged (softmax is shift-invariant)."""
    a = as_tensor(a)
    shift = Tensor(np.max(a.data, axis=axis, keepdims=True))
    e = exp(a - shift)
    return div(e, sum_(e, axis=axis, keepdims=True))


# -- shape ops -------------------------------------------------------------

def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        a._accumulate(g if axis is None or keepdims else np.expand_dims(g, axis))

    return _node(out_data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(sum_(a, axis, keepdims), 1.0 / float(n))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _node(out_data, (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.transpose(axes)
    inverse = None if axes is None else tuple(np.argsort(axes))

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return _node(out_data, (a,), backward)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        a._accumulate(full)

    return _node(out_data, (a,), backward)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            p._accumulate(piece)

    return _node(out_data, tuple(parts), backward)
