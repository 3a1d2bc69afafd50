"""The reverse pass of one truncated meta-training segment.

Both losses that meta-training differentiates, the meta-loss and the
imitation loss, are chains of optimizee steps whose vjps are written by
hand, so a segment's tape is a plain list that its forward pass appends
to, in step order. It holds three kinds of entries:

- a step record (a tuple), from model.l2o_step_tape;
- a loss vjp (a callable: seed -> seed * df/dtheta), from
  OptimizeeInstance.loss_on_tape, for the loss at the parameters that
  the steps before it reached. theta is the sum of the updates so far,
  so an update's gradient is the sum of the vjps of the losses after it;
- an update gradient (an array), from the imitation loss: the gradient
  of the step just before it, and of no other step.

backward walks the tape once, in reverse, carrying the theta gradient
and the state gradient, and drops each entry once it has run, so a
segment's memory peaks at its forward tape. It repeats the arithmetic of
a generic reverse-mode tape over the same chain, which tests/reftape.py
keeps as the bitwise reference: each gradient starts at zeros and sums
its contributions in reverse step order.
"""

from __future__ import annotations

import numpy as np

from .model import L2OParams, step_vjp


def backward(tape: list, phi: L2OParams) -> L2OParams:
    """The gradient of a segment's summed loss with respect to phi, as an
    L2OParams with phi's layout, zeros where the loss does not reach it.

    backward consumes the tape: it replaces each entry with None once it
    has run, so the tape keeps its length, and a second backward on the
    same tape raises ValueError.
    """
    if tape and tape[-1] is None:
        raise ValueError("backward: tape has already been backpropagated")
    # theta and the state are constants up to the first L2O step, so no
    # entry before it reaches phi
    first = next((k for k, e in enumerate(tape) if isinstance(e, tuple)), len(tape))
    grads = L2OParams(phi.hidden, phi.preprocess_p, phi.out_scale)
    g = 0.0  # the theta gradient
    # the state gradient; no later step reads the last step's new state
    ghc = np.zeros((2, 2, *tape[first][-1].shape)) if first < len(tape) else None
    for k in reversed(range(len(tape))):
        entry, tape[k] = tape[k], None
        if k < first:
            continue
        if isinstance(entry, tuple):
            step_vjp(entry, g, ghc, phi, grads, recurrent=k > first)
        elif isinstance(entry, np.ndarray):
            g = entry
        else:
            g = g + entry(1.0)
    return grads


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
