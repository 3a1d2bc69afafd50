"""The learned optimizer: a coordinate-wise two-layer LSTM.

Each optimizee coordinate is processed independently with shared weights,
so the parameter count is independent of the optimizee dimension. The
gradient is preprocessed into a (log-magnitude, sign) pair, fed through
two LSTM layers, and projected to a single scaled update per coordinate.

The LSTM state is one (2, 2, hidden, dim) array: layer, then h or c,
each with one column per coordinate. One cell function computes a
layer's forward pass in that layout, into buffers that its caller
passes in: the layer's new state and two (4 * hidden, dim) buffers for
the gate arithmetic. Its products run their inner loop along the
coordinates, so stacking more coordinates (several runs' gradients in
one call) makes each loop longer, and every coordinate keeps the bits
it would have alone. l2o_step_np, the evaluative step, updates its
state in place in a workspace that a rollout's stepper keeps, so a step
allocates no array of the state's size. l2o_step_tape, meta-training's
step, runs the same cell into fresh buffers and appends to a segment's
tape what the hand-written backward of the step, step_vjp, reads back,
transposed to one row per coordinate; autodiff.backward walks that tape.

The sigmoid is scipy's expit ufunc, here and in optimizees, and every
artifact pins its bits. It is loaded from the one extension module that
defines it, scipy/special/_special_ufuncs, without running
scipy.special's __init__, whose array-API backends make up nearly all of
the time and memory its import takes (about 0.2 s and 15 MB with scipy
1.17 on an x86-64 desktop core). The extension gives the same ufunc object,
so no result changes. It goes into sys.modules under its own name once
it has loaded with expit, so a later `import scipy.special` reuses it.
Where the extension is missing or defines no expit, as on older scipy,
expit comes from `from scipy.special import expit`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import struct
import sys
from operator import attrgetter

import numpy as np

from .seeding import rng_for

_UFUNCS = "scipy.special._special_ufuncs"


def _load_ufuncs():
    """scipy's _special_ufuncs extension, loaded from its file without
    importing its parent packages; None where it is missing, fails to
    load or has no expit. It is in sys.modules only if it is returned."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        _UFUNCS, [os.path.join(d, "special") for d in scipy.submodule_search_locations])
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        module = None
    if hasattr(module, "expit"):
        sys.modules[_UFUNCS] = module
        return module
    sys.modules.pop(_UFUNCS, None)  # a single-phase extension registers itself as it loads
    return None


def _load_expit():
    module = sys.modules.get(_UFUNCS) or _load_ufuncs()
    if hasattr(module, "expit"):
        return module.expit
    from scipy.special import expit
    return expit


expit = _load_expit()

TENSOR_NAMES = ("wx1", "wh1", "b1", "wx2", "wh2", "b2", "w_out", "b_out")
LAYERS = (("wx1", "wh1", "b1"), ("wx2", "wh2", "b2"))  # (wx, wh, b), lower layer first

CHECKPOINT_MAGIC = b"L2O1"

# Gate column layout inside the 4*hidden blocks: input, forget, cell, output.


def tensor_shapes(hidden: int) -> tuple[tuple[int, ...], ...]:
    """Each phi tensor's shape at this hidden size, in TENSOR_NAMES order."""
    h, h4 = hidden, 4 * hidden
    return ((2, h4), (h, h4), (h4,), (h, h4), (h, h4), (h4,), (h,), ())


class L2OParams:
    """phi: the hidden size, the preprocessing and output constants, and
    one float64 vector flat, zeros by default. Each tensor in
    TENSOR_NAMES is an attribute holding a C-ordered view of flat, the
    tensors in that order, so one array operation on flat acts on all."""

    def __init__(self, hidden: int, preprocess_p: float, out_scale: float,
                 flat: np.ndarray | None = None):
        shapes = tensor_shapes(hidden)
        sizes = [math.prod(s) for s in shapes]
        self.hidden, self.preprocess_p, self.out_scale = hidden, preprocess_p, out_scale
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        parts = np.split(self.flat, np.cumsum(sizes)[:-1])
        for name, part, shape in zip(TENSOR_NAMES, parts, shapes):
            setattr(self, name, part.reshape(shape))

    def copy(self) -> "L2OParams":
        return L2OParams(self.hidden, self.preprocess_p, self.out_scale, self.flat.copy())

    def __reduce__(self):
        # pickle and deepcopy would otherwise copy each view apart from flat
        return L2OParams, (self.hidden, self.preprocess_p, self.out_scale, self.flat)

    def layer(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layer n's (wx, wh, b); n = 0 is the lower layer."""
        return attrgetter(*LAYERS[n])(self)


def zero_state(dim: int, hidden: int) -> np.ndarray:
    """The LSTM state, (2, 2, hidden, dim): layer, then h or c."""
    return np.zeros((2, 2, hidden, dim))


def init_l2o(seed: int, hidden: int = 20, preprocess_p: float = 10.0,
             out_scale: float = 0.01) -> L2OParams:
    """Uniform(-1/sqrt(fan_in)) weights, forget-gate bias 1, zero output
    projection so the freshly initialized optimizer emits zero updates."""
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    if not 0 < preprocess_p < math.inf:
        raise ValueError(f"preprocess_p must be > 0 and finite, got {preprocess_p!r}")
    if not math.isfinite(out_scale):
        raise ValueError(f"out_scale must be finite, got {out_scale!r}")
    rng = rng_for(seed, "init-l2o")
    phi = L2OParams(hidden, preprocess_p, out_scale)
    for arr, fan_in in ((phi.wx1, 2), (phi.wh1, hidden), (phi.wx2, hidden),
                        (phi.wh2, hidden)):
        s = 1.0 / np.sqrt(fan_in)
        arr[...] = rng.uniform(-s, s, arr.shape)
    phi.b1[hidden:2 * hidden] = 1.0
    phi.b2[hidden:2 * hidden] = 1.0
    return phi


def preprocess(g: np.ndarray, p: float) -> np.ndarray:
    """Per coordinate: (log|g|/p, sign g) when |g| >= e^-p, else (-1, e^p g);
    p > 0, as init_l2o and load_checkpoint check."""
    g = np.asarray(g, dtype=np.float64)
    out = np.empty((g.shape[0], 2))
    big = np.abs(g) >= np.exp(-p)
    with np.errstate(divide="ignore"):
        out[:, 0] = np.where(big, np.log(np.abs(np.where(big, g, 1.0))) / p, -1.0)
    out[:, 1] = np.where(big, np.sign(g), np.exp(p) * g)
    return out


def _gates_mm(w, x, out):
    """w.T @ x into out, (4 * hidden, coordinates), for w (k, 4 * hidden)
    and x (k, coordinates) C-ordered.

    Unoptimized einsum's inner loop runs along the coordinates, each
    element adding its k products in order, so a column's bits depend
    only on that column's inputs and not on how many coordinates are
    stacked beside it. BLAS matmul may order different elements' sums
    differently, which breaks bitwise permutation equivariance of the
    coordinate-wise optimizer.
    """
    return np.einsum("kj,ki->ji", w, x, out=out, optimize=False)


def workspace(dim: int, hidden: int) -> np.ndarray:
    """The cell's two (4 * hidden, dim) buffers, z and scratch, as one array."""
    return np.empty((2, 4 * hidden, dim))


def _cell(x, hc, wx, wh, b, hidden, out, z, scratch):
    """One LSTM cell on a layer's state hc, h then c, each (hidden, dim),
    and its input x, (inputs, dim). Writes the layer's new state into
    out, which may be hc itself, and the gates i, f, g, o into z's row
    blocks; scratch takes the second matmul, then i * g and tanh of the
    new c. Returns tanh of the new c, a view of scratch."""
    _gates_mm(wx, x, z)
    z += _gates_mm(wh, hc[0], scratch)
    z += b[:, None]
    i, f, g, o = (z[k * hidden:(k + 1) * hidden] for k in range(4))
    expit(z[:2 * hidden], out=z[:2 * hidden])
    np.tanh(g, out=g)
    expit(o, out=o)
    tc = scratch[:hidden]
    np.multiply(f, hc[1], out=out[1])
    out[1] += np.multiply(i, g, out=tc)
    np.tanh(out[1], out=tc)
    np.multiply(o, tc, out=out[0])
    return tc


def _project(h, w_out, b_out, out_scale):
    """The update from the upper layer's new h, (dim, hidden) C-ordered:
    each coordinate's dot product over its own row."""
    return out_scale * (np.einsum("ik,k->i", h, w_out, optimize=False) + b_out)


def l2o_step_np(phi: L2OParams, state: np.ndarray, g: np.ndarray,
                work: np.ndarray) -> np.ndarray:
    """Evaluative forward pass: updates state in place, with work, a
    workspace(dim, hidden), for the gate arithmetic. Returns the update,
    a fresh array."""
    if state.shape[3] != g.shape[0]:
        raise ValueError("l2o_step: state/gradient dimension mismatch")
    inp = np.ascontiguousarray(preprocess(g, phi.preprocess_p).T)
    for n in (0, 1):
        hc = state[n]
        _cell(inp, hc, *phi.layer(n), phi.hidden, hc, *work)
        inp = hc[0]  # the layer's new h, the next layer's input
    return _project(np.ascontiguousarray(inp.T), phi.w_out, phi.b_out, phi.out_scale)


def l2o_step_tape(tape: list, phi: L2OParams, state: np.ndarray, g: np.ndarray):
    """Recording forward pass: l2o_step_np's arithmetic into fresh arrays,
    appending to tape the step record that step_vjp reads back. The
    gradient g enters as a constant (no second derivatives). Returns
    (update, new_state) and leaves state unchanged.

    The record holds each layer's input, input state, gates and tanh of
    its new c, then the upper layer's new h, each C-ordered with one row
    per coordinate: (dim, inputs), (2, dim, hidden), (dim, 4 * hidden),
    (dim, hidden) and (dim, hidden)."""
    inp = preprocess(g, phi.preprocess_p)
    x = np.ascontiguousarray(inp.T)
    new = np.empty(state.shape)
    z, scratch = workspace(g.shape[0], phi.hidden)
    cells = []
    for n in (0, 1):
        hc = state[n]
        tc = _cell(x, hc, *phi.layer(n), phi.hidden, new[n], z, scratch)
        cells.append((inp, hc.transpose(0, 2, 1).copy(), z.T.copy(), tc.T.copy()))
        x = new[n, 0]
        inp = x.T.copy()
    update = _project(inp, phi.w_out, phi.b_out, phi.out_scale)
    tape.append((*cells, inp))
    return update, new


def step_vjp(step, g, ghc, phi: L2OParams, grads: L2OParams, recurrent: bool):
    """Backward of one step that l2o_step_tape recorded. g is the gradient
    of its update and ghc of its output state, zeros where no later step
    reads it. Adds each phi tensor's contribution into the same tensor of
    grads, which has phi's layout, and, if recurrent, overwrites ghc with
    the gradient of the input state; not recurrent, the input is the
    segment's constant start.

    The vjps repeat, operation for operation, the backward pass of the
    same step as tape primitives, the chain that tests/refchain.py keeps
    as the reference, so the gradients are the same bits. The chain adds
    each first gradient contribution to zeros, which turns -0.0 into
    +0.0; the zero-started grads and state gradient, and `+ 0.0` on the
    projection's, the gates' and the input state's gradients, repeat
    that. The chain's other such steps cannot change a bit here: their
    values are only multiplied by non-negative gate factors before the
    gates' gradient, or added to the incoming c gradient, which is
    seeded the same way.
    """
    *cells, h2 = step
    hidden = phi.hidden
    gp = g * phi.out_scale + 0.0
    grads.w_out += h2.T @ gp
    grads.b_out += gp.sum()
    gin = np.outer(gp, phi.w_out)  # the gradient of the layer's new h from above
    for n in (1, 0):
        x, hc, z, tc = cells[n]
        wx, wh, _ = phi.layer(n)
        ghc[n, 0] += gin
        gh, gc = ghc[n, 0], ghc[n, 1]
        i, f, gg, o = (z[:, j * hidden:(j + 1) * hidden] for j in range(4))
        # the new c's gradient: from outside, plus through h = o * tanh(c)
        gcn = gc + gh * o * (1.0 - tc * tc)
        # the pre-activation gradient, gate blocks i, f, g, o
        gz = np.empty_like(z)
        np.multiply(gcn * gg * i, 1.0 - i, out=gz[:, :hidden])
        np.multiply(gcn * hc[1] * f, 1.0 - f, out=gz[:, hidden:2 * hidden])
        np.multiply(gcn * i, 1.0 - gg * gg, out=gz[:, 2 * hidden:3 * hidden])
        np.multiply(gh * tc * o, 1.0 - o, out=gz[:, 3 * hidden:])
        gz += 0.0
        for arr, contrib in zip(grads.layer(n), (x.T @ gz, hc[0].T @ gz, gz.sum(axis=0))):
            arr += contrib
        if recurrent:
            np.add(gz @ wh.T, 0.0, out=gh)
            np.add(gcn * f, 0.0, out=gc)
        if n == 1:
            gin = gz @ wx.T  # into the layer below's new h


def save_checkpoint(phi: L2OParams, path) -> None:
    """Flat binary: magic "L2O1"; hidden (int64 LE), preprocess_p and
    out_scale (float64 LE); then each tensor in TENSOR_NAMES order as
    ndim, dims (int64 LE each) followed by float64 LE data."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<q", phi.hidden))
        fh.write(struct.pack("<dd", phi.preprocess_p, phi.out_scale))
        for name in TENSOR_NAMES:
            arr = getattr(phi, name)
            fh.write(struct.pack("<q", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<q", d))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> L2OParams:
    """Read a save_checkpoint file. A file shorter than its header says,
    whose preprocess_p is not > 0 and finite, whose out_scale is not
    finite, or whose tensor shapes are not the ones its hidden size
    gives, raises ValueError naming path."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not an L2O checkpoint (magic {magic!r})")
        data = fh.read()
    pos = 0

    def read(size):
        # checked before slicing, as a corrupt header can claim any size
        nonlocal pos
        if size > len(data) - pos:
            raise ValueError(f"{path}: truncated checkpoint")
        pos += size
        return data[pos - size:pos]

    hidden = struct.unpack("<q", read(8))[0]
    if hidden < 1:
        raise ValueError(f"{path}: hidden must be >= 1, got {hidden}")
    p, out_scale = struct.unpack("<dd", read(16))
    if not 0 < p < math.inf:
        raise ValueError(f"{path}: preprocess_p must be > 0 and finite, got {p!r}")
    if not math.isfinite(out_scale):
        raise ValueError(f"{path}: out_scale must be finite, got {out_scale!r}")
    chunks = []  # every header and length is checked before flat is allocated
    for name, want in zip(TENSOR_NAMES, tensor_shapes(hidden)):
        ndim = struct.unpack("<q", read(8))[0]
        if ndim != len(want):
            raise ValueError(f"{path}: {name} has {ndim} dims, expected {len(want)}")
        shape = struct.unpack(f"<{ndim}q", read(8 * ndim))
        if shape != want:
            raise ValueError(f"{path}: {name} has shape {shape}, expected {want}")
        chunks.append(read(8 * math.prod(shape)))
    flat = np.frombuffer(b"".join(chunks), dtype="<f8").astype(np.float64)
    return L2OParams(hidden, p, out_scale, flat)
