"""The tests' bitwise reference chains, on the generic tape of reftape.py.

This module adds the primitives that the chains need besides reftape's,
builds the LSTM step from them (l2o_step), and runs whole reference
segments: segment and imitation_segment are metatrain's
segment_loss_and_grads and imitation's imitation_loss_and_grads on the
generic tape, with that chain in place of the recorded step.
test_optimizees.py builds each optimizee loss as a chain too. reftape's
backward through a chain is the oracle for l2okit.autodiff.backward and
for the closed-form loss gradients. Each primitive is one rt.Value with
hand-written vjps, and its float operations must stay as they are, or
the oracles stop meaning anything. The reference LSTM chain keeps the
state as four arrays h1, c1, h2, c2; split_state and join_state convert
to and from the package's one (2, 2, hidden, dim) state array.
"""

import numpy as np
from scipy.special import expit

import reftape as rt
from l2okit.model import TENSOR_NAMES, preprocess

STATE_PARTS = ("h1", "c1", "h2", "c2")


def split_state(state):
    """The state array's four parts h1, c1, h2, c2, each transposed to a
    C-ordered (dim, hidden) copy."""
    return tuple(np.ascontiguousarray(part.T) for part in (*state[0], *state[1]))


def join_state(h1, c1, h2, c2):
    """A fresh state array from four (dim, hidden) parts: layer 1's h and
    c, then layer 2's, each transposed to (hidden, dim)."""
    return np.array([[h1.T, c1.T], [h2.T, c2.T]])


def add_bias(a, b):
    """a plus a 0-d b, or a 2-d a plus a row vector b."""
    if b.data.ndim == 0:
        vjp_b = lambda g: g.sum()
    elif a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        vjp_b = lambda g: g.sum(axis=0)
    else:
        raise ValueError(f"add_bias: incompatible shapes {a.data.shape} and {b.data.shape}")
    return rt.Value(a.tape, a.data + b.data, [(a, lambda g: g), (b, vjp_b)])


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shapes must match, got {a.data.shape} and {b.data.shape}")
    return rt.Value(a.tape, a.data * b.data,
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
    return rt.Value(a.tape, out, [(a, vjp_a), (b, lambda g: A.T @ g)])


def sigmoid(a):
    out = expit(a.data)
    return rt.Value(a.tape, out, [(a, lambda g: g * out * (1.0 - out))])


def tanh(a):
    out = np.tanh(a.data)
    return rt.Value(a.tape, out, [(a, lambda g: g * (1.0 - out * out))])


def take(a, key):
    """Basic (non-overlapping) slice of an array; gradient scatters back."""
    def vjp(g):
        z = np.zeros_like(a.data)
        z[key] = g
        return z

    return rt.Value(a.tape, a.data[key], [(a, vjp)])


def reshape(a, shape):
    old = a.data.shape
    return rt.Value(a.tape, a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def softplus(a):
    """log(1 + e^x), computed stably; gradient is sigmoid(x)."""
    return rt.Value(a.tape, np.logaddexp(0.0, a.data),
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
    return rt.Value(a.tape, m[:, 0] + np.log(s), [(a, lambda g: g[:, None] * sm)])


# -- the LSTM step as a chain: 17 nodes per cell and 3 for the projection ---

def matmul_rows(a, b):
    """model._gates_mm and model._project with one row per coordinate:
    einsum products whose elements each reduce in a fixed order, so a
    row has the bits that the package's (4 * hidden, dim) layout gives
    the same coordinate's column."""
    A, B = a.data, b.data
    if B.ndim == 2:
        return rt.Value(a.tape, np.einsum("ik,kj->ij", A, B, optimize=False),
                        [(a, lambda g: g @ B.T), (b, lambda g: A.T @ g)])
    return rt.Value(a.tape, np.einsum("ik,k->i", A, B, optimize=False),
                    [(a, lambda g: np.outer(g, B)), (b, lambda g: A.T @ g)])


def cell(x, h, c, wx, wh, b, hidden):
    z = add_bias(rt.add(matmul_rows(x, wx), matmul_rows(h, wh)), b)
    i = sigmoid(take(z, (slice(None), slice(0, hidden))))
    f = sigmoid(take(z, (slice(None), slice(hidden, 2 * hidden))))
    g = tanh(take(z, (slice(None), slice(2 * hidden, 3 * hidden))))
    o = sigmoid(take(z, (slice(None), slice(3 * hidden, 4 * hidden))))
    c_new = rt.add(mul(f, c), mul(i, g))
    h_new = mul(o, tanh(c_new))
    return h_new, c_new


def l2o_step(tape, leaves, phi, state, g):
    """The step on Values: (update, (h1, c1, h2, c2))."""
    x = tape.constant(preprocess(g, phi.preprocess_p))
    h1, c1, h2, c2 = state
    h1, c1 = cell(x, h1, c1, leaves["wx1"], leaves["wh1"], leaves["b1"], phi.hidden)
    h2, c2 = cell(h1, h2, c2, leaves["wx2"], leaves["wh2"], leaves["b2"], phi.hidden)
    update = rt.scale(add_bias(matmul_rows(h2, leaves["w_out"]), leaves["b_out"]),
                      phi.out_scale)
    return update, (h1, c1, h2, c2)


# -- whole reference segments -------------------------------------------------

def fused_loss(inst, tape, theta, batch):
    """The loss at theta as one node whose vjp is inst's loss_vjp."""
    with np.errstate(over="ignore", invalid="ignore"):
        loss, vjp = inst.loss_vjp(theta.data, batch)
    return rt.Value(tape, loss, [(theta, vjp)])


def _start(tape, phi, state):
    leaves = {name: tape.leaf(getattr(phi, name), trainable=True) for name in TENSOR_NAMES}
    return leaves, tuple(tape.constant(a) for a in split_state(state))


def _finish(tape, leaves, loss_acc, st):
    """Backpropagate and return (loss, grads, state) as the package does:
    zeros for a leaf that the loss does not reach."""
    rt.backward(tape, loss_acc)
    grads = {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
             for name, leaf in leaves.items()}
    return float(loss_acc.data), grads, join_state(*(v.data for v in st))


def segment(phi, inst, theta, state, batches, n_steps, step_override=None,
            loss=fused_loss):
    """segment_loss_and_grads on the generic tape, with loss(inst, tape,
    theta, batch) as each step's loss node."""
    tape = rt.Tape()
    leaves, st = _start(tape, phi, state)
    th = tape.constant(np.asarray(theta, dtype=np.float64))
    loss_acc = None
    for _, batch in zip(range(n_steps), batches):
        loss_t, g = inst.loss_and_grad(th.data, batch)
        if not np.isfinite(loss_t) or not np.all(np.isfinite(th.data)):
            return None, None, th.data, join_state(*(v.data for v in st)), True
        ext = None if step_override is None else step_override(g)
        if ext is not None:
            th = rt.add(th, tape.constant(ext))
        else:
            update, st = l2o_step(tape, leaves, phi, st, g)
            th = rt.add(th, update)
        fv = loss(inst, tape, th, batch)
        if not np.isfinite(fv.data):
            return None, None, th.data, join_state(*(v.data for v in st)), True
        loss_acc = fv if loss_acc is None else rt.add(loss_acc, fv)
    value, grads, state = _finish(tape, leaves, loss_acc, st)
    return value, grads, th.data, state, False


def imitation_segment(phi, steps, state):
    """imitation_loss_and_grads on the generic tape."""
    tape = rt.Tape()
    leaves, st = _start(tape, phi, state)
    loss_acc = None
    for g, target in steps:
        update, st = l2o_step(tape, leaves, phi, st, g)
        term = rt.vsum(rt.square(rt.sub(update, tape.constant(target))))
        loss_acc = term if loss_acc is None else rt.add(loss_acc, term)
    return _finish(tape, leaves, loss_acc, st)


def scaled_loss_on_tape(loss_on_tape, weight):
    """A replacement for an instance's loss_on_tape that records weight *
    its loss: the value times weight, and a vjp that passes seed * weight
    on, as rt.scale of the loss node does."""
    def record(tape, theta, batch):
        loss = loss_on_tape(tape, theta, batch)
        vjp = tape[-1]
        tape[-1] = lambda seed: vjp(seed * weight)
        return loss * weight

    return record
