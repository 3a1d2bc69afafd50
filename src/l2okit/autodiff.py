"""Minimal reverse-mode autodiff over dense float64 vectors and matrices.

A Tape records primitive operations in insertion order; backward() walks
the node list in exact reverse order, so gradients are deterministic
bit-for-bit. Broadcasting is restricted to matrix-plus-row-vector and
array-plus-scalar so every gradient rule stays auditable.

A Value keeps a vjp only for the parents that lead to a trainable leaf,
so backward never computes gradients into batch data, labels or other
constants. Callers may build their own fused nodes by passing
(parent, vjp) pairs to Value; model.py does so for the LSTM cell and
optimizees.py for each loss. Meta-training uses only add, scale and
those fused nodes (imitation adds sub, square and vsum); the other
primitives serve gradchecks and the tests' reference chains.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np
from scipy.special import expit


class Tape:
    """Ordered list of Values; topological order equals insertion order.

    The tape holds its Values and each Value holds only a weak reference
    back, so a tape and all its arrays are freed by reference counting as
    soon as its last outside reference goes, not by the cyclic collector.
    """

    def __init__(self):
        self._nodes: list[Value] = []
        self._ref = weakref.ref(self)

    def _register(self, v: "Value") -> None:
        v.node_id = len(self._nodes)
        self._nodes.append(v)

    def leaf(self, data, trainable: bool = False) -> "Value":
        v = Value(self, data)
        v.trainable = trainable
        return v

    def constant(self, data) -> "Value":
        return self.leaf(data, trainable=False)

    def __len__(self) -> int:
        return len(self._nodes)


class Value:
    """One tape node: a float64 array plus the vjp links to its parents."""

    __slots__ = ("_tape_ref", "data", "grad", "node_id", "trainable", "_parents")

    def __init__(self, tape: Tape, data, parents=()):
        self._tape_ref = tape._ref
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.trainable = False
        # a parent with neither parents nor trainability is a constant:
        # its gradient is never read, so its vjp is not kept
        self._parents: tuple[tuple[Value, Callable], ...] = tuple(
            [(p, vjp) for p, vjp in parents if p.trainable or p._parents])
        tape._register(self)

    @property
    def tape(self) -> Tape:
        """The tape this Value is on; ValueError once that tape is freed."""
        tape = self._tape_ref()
        if tape is None:
            raise ValueError("value's tape has been freed")
        return tape

    @property
    def shape(self):
        return self.data.shape

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def _same_tape(*vals: Value) -> Tape:
    ref = vals[0]._tape_ref
    for v in vals[1:]:
        if v._tape_ref is not ref:
            raise ValueError("cross-tape operation: values belong to different tapes")
    return vals[0].tape


def add(a: Value, b: Value) -> Value:
    tape = _same_tape(a, b)
    if b.data.shape == a.data.shape:
        out = Value(tape, a.data + b.data,
                    [(a, lambda g: g), (b, lambda g: g)])
    elif b.data.ndim == 0:
        out = Value(tape, a.data + b.data,
                    [(a, lambda g: g), (b, lambda g: g.sum())])
    elif a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        out = Value(tape, a.data + b.data,
                    [(a, lambda g: g), (b, lambda g: g.sum(axis=0))])
    else:
        raise ValueError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    return out


def sub(a: Value, b: Value) -> Value:
    tape = _same_tape(a, b)
    if b.data.shape == a.data.shape:
        out = Value(tape, a.data - b.data,
                    [(a, lambda g: g), (b, lambda g: -g)])
    elif b.data.ndim == 0:
        out = Value(tape, a.data - b.data,
                    [(a, lambda g: g), (b, lambda g: -g.sum())])
    elif a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        out = Value(tape, a.data - b.data,
                    [(a, lambda g: g), (b, lambda g: -g.sum(axis=0))])
    else:
        raise ValueError(f"sub: incompatible shapes {a.data.shape} and {b.data.shape}")
    return out


def mul(a: Value, b: Value) -> Value:
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shapes must match, got {a.data.shape} and {b.data.shape}")
    return Value(tape, a.data * b.data,
                 [(a, lambda g: g * b.data), (b, lambda g: g * a.data)])


def matmul(a: Value, b: Value) -> Value:
    tape = _same_tape(a, b)
    A, B = a.data, b.data
    # divergence probing feeds non-finite operands through here; the
    # resulting nan/inf is data, not an error
    with np.errstate(invalid="ignore"):
        out_data = A @ B
    if A.ndim == 2 and B.ndim == 2:
        parents = [(a, lambda g: g @ B.T), (b, lambda g: A.T @ g)]
    elif A.ndim == 2 and B.ndim == 1:
        parents = [(a, lambda g: np.outer(g, B)), (b, lambda g: A.T @ g)]
    elif A.ndim == 1 and B.ndim == 2:
        parents = [(a, lambda g: B @ g), (b, lambda g: np.outer(A, g))]
    elif A.ndim == 1 and B.ndim == 1:
        parents = [(a, lambda g: g * B), (b, lambda g: g * A)]
    else:
        raise ValueError(f"matmul: unsupported ranks {A.ndim} and {B.ndim}")
    return Value(tape, out_data, parents)


def sigmoid(a: Value) -> Value:
    out_data = expit(a.data)
    return Value(a.tape, out_data, [(a, lambda g: g * out_data * (1.0 - out_data))])


def tanh(a: Value) -> Value:
    out_data = np.tanh(a.data)
    return Value(a.tape, out_data, [(a, lambda g: g * (1.0 - out_data * out_data))])


def square(a: Value) -> Value:
    return Value(a.tape, a.data * a.data, [(a, lambda g: g * (2.0 * a.data))])


def vsum(a: Value) -> Value:
    """Sum of all elements; returns a scalar (0-d) Value."""
    return Value(a.tape, a.data.sum(), [(a, lambda g: np.full_like(a.data, float(g)))])


def scale(a: Value, c: float) -> Value:
    c = float(c)
    return Value(a.tape, a.data * c, [(a, lambda g: g * c)])


def concat(a: Value, b: Value) -> Value:
    """Concatenate two 1-d vectors."""
    tape = _same_tape(a, b)
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ValueError("concat: only 1-d vectors supported")
    na = a.data.shape[0]
    return Value(tape, np.concatenate([a.data, b.data]),
                 [(a, lambda g: g[:na]), (b, lambda g: g[na:])])


def take(a: Value, key) -> Value:
    """Basic (non-overlapping) slice of an array; gradient scatters back."""
    out_data = a.data[key]

    def vjp(g):
        z = np.zeros_like(a.data)
        z[key] = g
        return z

    return Value(a.tape, out_data, [(a, vjp)])


def reshape(a: Value, shape) -> Value:
    old = a.data.shape
    return Value(a.tape, a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def log(a: Value) -> Value:
    with np.errstate(invalid="ignore", divide="ignore"):
        out_data = np.log(a.data)
    return Value(a.tape, out_data, [(a, lambda g: g / a.data)])


def exp(a: Value) -> Value:
    out_data = np.exp(a.data)
    return Value(a.tape, out_data, [(a, lambda g: g * out_data)])


def softplus(a: Value) -> Value:
    """log(1 + e^x), computed stably; gradient is sigmoid(x)."""
    out_data = np.logaddexp(0.0, a.data)
    return Value(a.tape, out_data, [(a, lambda g: g * expit(a.data))])


def logsumexp_rows(a: Value) -> Value:
    """Row-wise log-sum-exp of a 2-d array; gradient is the row softmax.

    The stabilizing max is a constant, so the value and gradient are exact.
    """
    if a.data.ndim != 2:
        raise ValueError("logsumexp_rows: expects a 2-d array")
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1)
    out_data = m[:, 0] + np.log(s)
    sm = e / s[:, None]
    return Value(a.tape, out_data, [(a, lambda g: g[:, None] * sm)])


def detach(v: Value) -> Value:
    """Same data, but backward treats the result as a constant leaf."""
    return v.tape.constant(v.data)


def backward(tape: Tape, root: Value) -> None:
    """Accumulate d(root)/d(node) into .grad of every node on a path from
    a trainable leaf to root. Other nodes, constants included, keep grad
    None (root itself always gets 1).

    Grads are reset first, so repeated calls are bit-identical.
    """
    if root._tape_ref is not tape._ref:
        raise ValueError("backward: root is not on this tape")
    if root.data.ndim != 0:
        raise ValueError("backward: root must be a scalar")
    for v in tape._nodes:
        v.grad = None
    root.grad = np.ones_like(root.data)
    for v in reversed(tape._nodes[: root.node_id + 1]):
        if v.grad is None:
            continue
        for parent, vjp in v._parents:
            contrib = vjp(v.grad)
            if parent.grad is None:
                # equals zeros + contrib bit for bit, -0.0 -> +0.0 included
                parent.grad = contrib + 0.0
            else:
                parent.grad = parent.grad + contrib


def fd_error(analytic: np.ndarray, loss_at, p0: np.ndarray,
             eps: float = 1e-5) -> float:
    """Max relative error of analytic against the central differences of
    loss_at, a function from a parameter array shaped like p0 to a float,
    around p0. Error metric per coordinate: |analytic - fd| / max(1, |fd|)."""
    p0 = np.asarray(p0, dtype=np.float64)
    fd = np.zeros_like(p0)
    flat = p0.ravel()
    for j in range(flat.size):
        e = np.zeros_like(flat)
        e[j] = eps
        hi = loss_at((flat + e).reshape(p0.shape))
        lo = loss_at((flat - e).reshape(p0.shape))
        fd.ravel()[j] = (hi - lo) / (2.0 * eps)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))


def grad_check(f, p0: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    (see fd_error).

    f(tape, p) must build and return a scalar Value from the parameter
    vector leaf p.
    """
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")
    p0 = np.asarray(p0, dtype=np.float64)
    tape = Tape()
    p = tape.leaf(p0, trainable=True)
    out = f(tape, p)
    backward(tape, out)
    analytic = p.grad if p.grad is not None else np.zeros_like(p0)

    def eval_at(vec):
        t = Tape()
        val = f(t, t.leaf(vec)).data
        if not np.isfinite(val):
            raise FloatingPointError("grad_check: non-finite value at probe point")
        return float(val)

    return fd_error(analytic, eval_at, p0, eps)
