"""A generic reverse-mode tape over dense float64 arrays: the tests'
bitwise reference for l2okit.autodiff.backward.

A Tape records operations in insertion order; backward() walks the node
list in exact reverse order, so gradients are deterministic bit-for-bit.
Every gradient sums its contributions in that order, and the first one
is added to zeros (`+ 0.0`), which turns -0.0 into +0.0. A tape is
backpropagated once: backward drops each node's vjps as soon as they
have run. The primitives here are add, sub, square, vsum and scale; add
and sub take operands of one shape only, so no gradient rule has to undo
a broadcast. refchain.py adds the rest that the reference chains need.

A Value keeps a vjp only for the parents that lead to a trainable leaf,
so backward never computes gradients into batch data, labels or other
constants. A caller builds a fused node by passing (parent, vjp) pairs
to Value. Each primitive's float operations must stay as they are, or
the reference stops meaning anything.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from l2okit.autodiff import fd_error
from l2okit.seeding import rng_for


class Tape:
    """Ordered list of Values; topological order equals insertion order.

    The tape holds its Values and each Value holds only a weak reference
    back, so a tape and all its arrays are freed by reference counting as
    soon as its last outside reference goes, not by the cyclic collector.
    """

    def __init__(self):
        self._nodes: list[Value] = []
        self._ref = weakref.ref(self)
        self._consumed = False

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


def _operand_tape(a: Value, b: Value, op: str) -> Tape:
    """The tape of a binary operation's operands, which must share their
    tape and their shape."""
    if b._tape_ref is not a._tape_ref:
        raise ValueError("cross-tape operation: values belong to different tapes")
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shapes must match, got {a.data.shape} and {b.data.shape}")
    return a.tape


def add(a: Value, b: Value) -> Value:
    tape = _operand_tape(a, b, "add")
    return Value(tape, a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def sub(a: Value, b: Value) -> Value:
    tape = _operand_tape(a, b, "sub")
    return Value(tape, a.data - b.data, [(a, lambda g: g), (b, lambda g: -g)])


def square(a: Value) -> Value:
    return Value(a.tape, a.data * a.data, [(a, lambda g: g * (2.0 * a.data))])


def vsum(a: Value) -> Value:
    """Sum of all elements; returns a scalar (0-d) Value."""
    return Value(a.tape, a.data.sum(), [(a, lambda g: np.full_like(a.data, float(g)))])


def scale(a: Value, c: float) -> Value:
    c = float(c)
    return Value(a.tape, a.data * c, [(a, lambda g: g * c)])


def backward(tape: Tape, root: Value) -> None:
    """Accumulate d(root)/d(node) into .grad of every node on a path from
    a trainable leaf to root. Other nodes, constants included, keep grad
    None (root itself always gets 1).

    backward consumes the tape: as soon as a node's parent vjps have run,
    the node drops them, and with them the activations they hold. Every
    Value keeps its data and its grad, and the tape keeps its nodes; a
    second backward on the same tape raises ValueError.
    """
    if root._tape_ref is not tape._ref:
        raise ValueError("backward: root is not on this tape")
    if root.data.ndim != 0:
        raise ValueError("backward: root must be a scalar")
    if tape._consumed:
        raise ValueError("backward: tape has already been backpropagated")
    tape._consumed = True
    root.grad = np.ones_like(root.data)
    for v in reversed(tape._nodes[: root.node_id + 1]):
        parents, v._parents = v._parents, ()
        if v.grad is None:
            continue
        for parent, vjp in parents:
            contrib = vjp(v.grad)
            if parent.grad is None:
                # equals zeros + contrib bit for bit, -0.0 -> +0.0 included
                parent.grad = contrib + 0.0
            else:
                parent.grad = parent.grad + contrib


def grad_check(f, p0: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    (see l2okit.autodiff.fd_error).

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


def primitive_cases(seed: int = 0) -> dict:
    """name -> (f, p0), one finite-difference case per primitive of this
    module on random inputs in [-2, 2]; sub takes the trainable operand
    on either side."""
    rng = rng_for(seed, "gradcheck-prims")
    v, c = rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6)
    return {
        "add_same": (lambda t, p: vsum(add(p, t.constant(c))), v),
        "sub_same": (lambda t, p: vsum(sub(t.constant(c), p)), v),
        "sub_left": (lambda t, p: vsum(sub(p, t.constant(c))), v),
        "square": (lambda t, p: vsum(square(p)), v),
        "scale": (lambda t, p: scale(vsum(p), -1.7), v),
    }
