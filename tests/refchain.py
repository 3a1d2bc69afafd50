"""Tape primitives for the tests' bitwise reference chains.

test_model.py builds the LSTM step and test_optimizees.py each optimizee
loss as a chain of these primitives; autodiff.backward through a chain is
the oracle for the fused nodes and the closed-form gradients. Each
primitive is one ad.Value with hand-written vjps, and its float
operations must stay as they are, or the oracles stop meaning anything.
The reference LSTM chain keeps the state as four arrays h1, c1, h2, c2;
split_state and join_state convert to and from the packed L2OState.
"""

import numpy as np
from scipy.special import expit

from l2okit import autodiff as ad
from l2okit.model import L2OState

STATE_PARTS = ("h1", "c1", "h2", "c2")


def split_state(state):
    """The packed state's four (dim, hidden) views h1, c1, h2, c2."""
    return (*state.hc1, *state.hc2)


def join_state(h1, c1, h2, c2):
    return L2OState(np.stack((h1, c1)), np.stack((h2, c2)))


def add_bias(a, b):
    """a plus a 0-d b, or a 2-d a plus a row vector b."""
    if b.data.ndim == 0:
        vjp_b = lambda g: g.sum()
    elif a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        vjp_b = lambda g: g.sum(axis=0)
    else:
        raise ValueError(f"add_bias: incompatible shapes {a.data.shape} and {b.data.shape}")
    return ad.Value(a.tape, a.data + b.data, [(a, lambda g: g), (b, vjp_b)])


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shapes must match, got {a.data.shape} and {b.data.shape}")
    return ad.Value(a.tape, a.data * b.data,
                    [(a, lambda g: g * b.data), (b, lambda g: g * a.data)])


def matmul(a, b):
    """A 2-d a times a 2-d or 1-d b."""
    A, B = a.data, b.data
    if A.ndim != 2 or B.ndim not in (1, 2):
        raise ValueError(f"matmul: unsupported ranks {A.ndim} and {B.ndim}")
    # divergence probing feeds non-finite operands through here; the
    # resulting nan/inf is data, not an error
    with np.errstate(invalid="ignore"):
        out = A @ B
    vjp_a = (lambda g: g @ B.T) if B.ndim == 2 else (lambda g: np.outer(g, B))
    return ad.Value(a.tape, out, [(a, vjp_a), (b, lambda g: A.T @ g)])


def sigmoid(a):
    out = expit(a.data)
    return ad.Value(a.tape, out, [(a, lambda g: g * out * (1.0 - out))])


def tanh(a):
    out = np.tanh(a.data)
    return ad.Value(a.tape, out, [(a, lambda g: g * (1.0 - out * out))])


def take(a, key):
    """Basic (non-overlapping) slice of an array; gradient scatters back."""
    def vjp(g):
        z = np.zeros_like(a.data)
        z[key] = g
        return z

    return ad.Value(a.tape, a.data[key], [(a, vjp)])


def reshape(a, shape):
    old = a.data.shape
    return ad.Value(a.tape, a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def softplus(a):
    """log(1 + e^x), computed stably; gradient is sigmoid(x)."""
    return ad.Value(a.tape, np.logaddexp(0.0, a.data),
                    [(a, lambda g: g * expit(a.data))])


def logsumexp_rows(a):
    """Row-wise log-sum-exp of a 2-d array; gradient is the row softmax.
    The stabilizing max is a constant, so the value and gradient are exact."""
    if a.data.ndim != 2:
        raise ValueError("logsumexp_rows: expects a 2-d array")
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1)
    sm = e / s[:, None]
    return ad.Value(a.tape, m[:, 0] + np.log(s), [(a, lambda g: g[:, None] * sm)])
