"""The learned optimizer: a coordinate-wise two-layer LSTM.

Each optimizee coordinate is processed independently with shared weights,
so the parameter count is independent of the optimizee dimension. The
gradient is preprocessed into a (log-magnitude, sign) pair, fed through
two LSTM layers, and projected to a single scaled update per coordinate.

A layer's state is one packed (2, dim, hidden) array, h at index 0 and c
at index 1, on both paths. One cell function computes the forward pass
into buffers that its caller passes in: the packed output state and a
pair of (dim, 4 * hidden) buffers for the gate arithmetic. A rollout's
stepper passes its own state as both input and output, with one
workspace that it keeps for the whole rollout, so a step allocates no
array of the state's size. Meta-training passes fresh buffers and wraps
each call, and the output projection likewise, in a single tape node
whose vjp is written by hand and whose data is the packed output.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .seeding import rng_for

TENSOR_NAMES = ("wx1", "wh1", "b1", "wx2", "wh2", "b2", "w_out", "b_out")

CHECKPOINT_MAGIC = b"L2O1"

# Gate column layout inside the 4*hidden blocks: input, forget, cell, output.


@dataclass
class L2OParams:
    hidden: int
    preprocess_p: float
    out_scale: float
    wx1: np.ndarray   # (2, 4h)
    wh1: np.ndarray   # (h, 4h)
    b1: np.ndarray    # (4h,)
    wx2: np.ndarray   # (h, 4h)
    wh2: np.ndarray   # (h, 4h)
    b2: np.ndarray    # (4h,)
    w_out: np.ndarray  # (h,)
    b_out: np.ndarray  # scalar ()

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSOR_NAMES}

    def copy(self) -> "L2OParams":
        return L2OParams(self.hidden, self.preprocess_p, self.out_scale,
                         *[getattr(self, n).copy() for n in TENSOR_NAMES])

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors().values())


@dataclass
class L2OState:
    hc1: np.ndarray  # (2, dim, h): layer 1's h, then its c
    hc2: np.ndarray  # (2, dim, h): layer 2's h, then its c


def zero_state(dim: int, hidden: int) -> L2OState:
    return L2OState(np.zeros((2, dim, hidden)), np.zeros((2, dim, hidden)))


def init_l2o(seed: int, hidden: int = 20, preprocess_p: float = 10.0,
             out_scale: float = 0.01) -> L2OParams:
    """Uniform(-1/sqrt(fan_in)) weights, forget-gate bias 1, zero output
    projection so the freshly initialized optimizer emits zero updates."""
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    rng = rng_for(seed, "init-l2o")

    def uniform(fan_in, shape):
        s = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-s, s, shape)

    h = hidden
    b1 = np.zeros(4 * h)
    b1[h:2 * h] = 1.0
    b2 = np.zeros(4 * h)
    b2[h:2 * h] = 1.0
    return L2OParams(
        hidden=h, preprocess_p=preprocess_p, out_scale=out_scale,
        wx1=uniform(2, (2, 4 * h)),
        wh1=uniform(h, (h, 4 * h)),
        b1=b1,
        wx2=uniform(h, (h, 4 * h)),
        wh2=uniform(h, (h, 4 * h)),
        b2=b2,
        w_out=np.zeros(h),
        b_out=np.zeros(()),
    )


def preprocess(g: np.ndarray, p: float) -> np.ndarray:
    """Per coordinate: (log|g|/p, sign g) when |g| >= e^-p, else (-1, e^p g)."""
    if p <= 0:
        raise ValueError("preprocess: p must be > 0")
    g = np.asarray(g, dtype=np.float64)
    out = np.empty((g.shape[0], 2))
    big = np.abs(g) >= np.exp(-p)
    with np.errstate(divide="ignore"):
        out[:, 0] = np.where(big, np.log(np.abs(np.where(big, g, 1.0))) / p, -1.0)
    out[:, 1] = np.where(big, np.sign(g), np.exp(p) * g)
    return out


def _mm_rows(a, b, out=None):
    """Matrix product evaluated with a fixed per-row accumulation order.

    BLAS matmul may compute different rows with differently ordered
    accumulations, which breaks bitwise permutation equivariance of the
    coordinate-wise optimizer. Unoptimized einsum reduces every output
    element in the same sequential order, so row results depend only on
    that row's inputs. b may be a matrix or a vector.
    """
    if b.ndim == 2:
        return np.einsum("ik,kj->ij", a, b, out=out, optimize=False)
    return np.einsum("ik,k->i", a, b, out=out, optimize=False)


def workspace(dim: int, hidden: int) -> np.ndarray:
    """The cell's two (dim, 4 * hidden) buffers, z and scratch, as one array."""
    return np.empty((2, dim, 4 * hidden))


def _cell(x, hc, wx, wh, b, hidden, out, z, scratch):
    """One LSTM cell on a packed state. Writes the new packed state into
    out, which may be hc itself, and the gates i, f, g, o into z's column
    blocks; scratch takes the second matmul, then i * g and tanh of the new c.
    Returns the activations (i, f, g, o, tanh c), views of z and scratch,
    that the cell's vjp reuses."""
    h, c = hc
    _mm_rows(x, wx, out=z)
    z += _mm_rows(h, wh, out=scratch)
    z += b
    i, f, g, o = (z[:, k * hidden:(k + 1) * hidden] for k in range(4))
    expit(z[:, :2 * hidden], out=z[:, :2 * hidden])
    np.tanh(g, out=g)
    expit(o, out=o)
    tc = scratch[:, :hidden]
    np.multiply(f, c, out=out[1])
    out[1] += np.multiply(i, g, out=tc)
    np.tanh(out[1], out=tc)
    np.multiply(o, tc, out=out[0])
    return i, f, g, o, tc


def _project(h, w_out, b_out, out_scale):
    return out_scale * (_mm_rows(h, w_out) + b_out)


def l2o_step_np(phi: L2OParams, state: L2OState, g: np.ndarray, work=None):
    """Evaluative forward pass; returns (update, new_state). Given work, a
    workspace(dim, hidden), the step updates state in place and returns it
    as new_state; without one, state is left unchanged and new_state is
    fresh. The update is a fresh array either way."""
    if state.hc1.shape[1] != g.shape[0]:
        raise ValueError("l2o_step: state/gradient dimension mismatch")
    x = preprocess(g, phi.preprocess_p)
    if work is None:
        new = L2OState(np.empty(state.hc1.shape), np.empty(state.hc2.shape))
        work = workspace(g.shape[0], phi.hidden)
    else:
        new = state
    _cell(x, state.hc1, phi.wx1, phi.wh1, phi.b1, phi.hidden, new.hc1, *work)
    _cell(new.hc1[0], state.hc2, phi.wx2, phi.wh2, phi.b2, phi.hidden, new.hc2, *work)
    update = _project(new.hc2[0], phi.w_out, phi.b_out, phi.out_scale)
    return update, new


def phi_leaves(tape: ad.Tape, phi: L2OParams) -> dict[str, ad.Value]:
    """Put every trainable tensor of phi on the tape as a leaf."""
    return {name: tape.leaf(arr, trainable=True) for name, arr in phi.tensors().items()}


def leaf_grads(leaves: dict[str, ad.Value]) -> dict[str, np.ndarray]:
    """name -> gradient of each phi leaf after backward; zeros for a leaf
    the loss does not reach."""
    return {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for name, leaf in leaves.items()}


def _once(fn):
    """Memoize fn on the identity of its argument. backward calls the vjps
    of one node's parents in a row with the same gradient array, so they
    share one evaluation of the node's backward pass. The memo lives in
    those vjps, so it dies with them when backward drops the node's
    parents."""
    memo = [None, None]

    def call(g):
        if memo[0] is not g:
            memo[0], memo[1] = g, fn(g)
        return memo[1]

    return call


def _pad_h(gh):
    """A packed-state gradient whose c part is zero."""
    out = np.zeros((2,) + gh.shape)
    out[0] = gh
    return out


def _cell_node(x: ad.Value, hc: ad.Value, wx: ad.Value, wh: ad.Value,
               b: ad.Value, hidden: int) -> ad.Value:
    """The LSTM cell as one tape node over packed states. x is the layer
    below's packed state, whose h part is the input, or for the bottom layer
    the preprocessed gradient, a (dim, 2) constant.

    The vjp repeats, operation for operation, the backward pass of the same
    cell written as 17 tape primitives (two einsum matmuls, two adds, four
    column takes, the gate nonlinearities, the c and h products), so the
    gradients are the same bits; tests/test_model.py keeps that chain as
    the reference. The chain added each first gradient contribution to
    zeros, which turns -0.0 into +0.0; `+ 0.0` on the gate gradient gz
    repeats that. The chain's other such steps cannot change a bit here:
    their values are only multiplied by non-negative gate factors before
    gz, or added to the incoming c gradient, which backward has already
    seeded the same way.
    """
    below = x.data.ndim == 3
    xd = x.data[0] if below else x.data
    h, c = hc.data
    wxd, whd = wx.data, wh.data
    hc_new, z = np.empty(hc.data.shape), np.empty((h.shape[0], 4 * hidden))
    i, f, gg, o, tc = _cell(xd, hc.data, wxd, whd, b.data, hidden, hc_new, z,
                            np.empty_like(z))
    tc = tc.copy()  # the vjp keeps z's gates and tanh c, not all of scratch

    @_once
    def grads(g):
        gh, gc = g
        # the new c's gradient: from outside, plus through h = o * tanh(c)
        gcn = gc + gh * o * (1.0 - tc * tc)
        # the pre-activation gradient, gate blocks i, f, g, o
        gz = np.empty((h.shape[0], 4 * hidden))
        np.multiply(gcn * gg * i, 1.0 - i, out=gz[:, :hidden])
        np.multiply(gcn * c * f, 1.0 - f, out=gz[:, hidden:2 * hidden])
        np.multiply(gcn * i, 1.0 - gg * gg, out=gz[:, 2 * hidden:3 * hidden])
        np.multiply(gh * tc * o, 1.0 - o, out=gz[:, 3 * hidden:])
        gz += 0.0
        return gz, gcn

    parents = [(wx, lambda g: xd.T @ grads(g)[0]),
               (wh, lambda g: h.T @ grads(g)[0]),
               (b, lambda g: grads(g)[0].sum(axis=0)),
               (hc, lambda g: np.stack((grads(g)[0] @ whd.T, grads(g)[1] * f)))]
    if below:
        parents.append((x, lambda g: _pad_h(grads(g)[0] @ wxd.T)))
    return ad.Value(hc.tape, hc_new, parents)


def _projection_node(hc: ad.Value, w_out: ad.Value, b_out: ad.Value,
                     out_scale: float) -> ad.Value:
    """The update from the upper layer's h as one tape node. The vjp
    repeats the backward of the einsum matmul, bias add and scale it
    replaces; `+ 0.0` repeats the scale's zero-seeded first contribution."""
    h = hc.data[0]
    w = w_out.data
    grad_pre = _once(lambda g: g * out_scale + 0.0)
    return ad.Value(hc.tape, _project(h, w, b_out.data, out_scale),
                    [(w_out, lambda g: h.T @ grad_pre(g)),
                     (b_out, lambda g: grad_pre(g).sum()),
                     (hc, lambda g: _pad_h(np.outer(grad_pre(g), w)))])


def l2o_step_tape(tape: ad.Tape, leaves: dict[str, ad.Value], phi: L2OParams,
                  state: tuple[ad.Value, ad.Value], g: np.ndarray):
    """Differentiable forward pass over the packed states (hc1, hc2). The
    gradient g enters as a constant (no second derivatives). Returns
    (update Value, new state Values)."""
    x = tape.constant(preprocess(g, phi.preprocess_p))
    hc1, hc2 = state
    hc1 = _cell_node(x, hc1, leaves["wx1"], leaves["wh1"], leaves["b1"], phi.hidden)
    hc2 = _cell_node(hc1, hc2, leaves["wx2"], leaves["wh2"], leaves["b2"], phi.hidden)
    update = _projection_node(hc2, leaves["w_out"], leaves["b_out"], phi.out_scale)
    return update, (hc1, hc2)


def state_constants(tape: ad.Tape, state: L2OState):
    return tape.constant(state.hc1), tape.constant(state.hc2)


def state_from_values(state_vals) -> L2OState:
    return L2OState(*(v.data for v in state_vals))


def save_checkpoint(phi: L2OParams, path) -> None:
    """Flat binary: magic "L2O1"; hidden (int64 LE), preprocess_p and
    out_scale (float64 LE); then each tensor in TENSOR_NAMES order as
    ndim, dims (int64 LE each) followed by float64 LE data."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<q", phi.hidden))
        fh.write(struct.pack("<dd", phi.preprocess_p, phi.out_scale))
        for name in TENSOR_NAMES:
            # np.ascontiguousarray would promote 0-d tensors to 1-d
            arr = np.asarray(getattr(phi, name), dtype=np.float64, order="C")
            fh.write(struct.pack("<q", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<q", d))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> L2OParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not an L2O checkpoint (magic {magic!r})")
        hidden = struct.unpack("<q", fh.read(8))[0]
        p, out_scale = struct.unpack("<dd", fh.read(16))
        tensors = {}
        for name in TENSOR_NAMES:
            ndim = struct.unpack("<q", fh.read(8))[0]
            shape = tuple(struct.unpack("<q", fh.read(8))[0] for _ in range(ndim))
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
            tensors[name] = data.astype(np.float64)
    return L2OParams(hidden, p, out_scale, *[tensors[n] for n in TENSOR_NAMES])
