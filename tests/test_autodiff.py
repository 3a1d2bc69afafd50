"""l2okit.autodiff's reverse pass, and the generic tape in reftape.py that
the tests keep as its bitwise reference."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refchain as rc
import reftape as rt
from l2okit import autodiff as ad
from l2okit import metatrain
from l2okit.model import TENSOR_NAMES, L2OParams, init_l2o, l2o_step_tape, zero_state
from l2okit.optimizees import OptimizeeSpec, sample_instance


def scalar_quadratic(tape, p):
    return rt.vsum(rt.square(p))


def test_sum_of_squares_gradient():
    tape = rt.Tape()
    x = tape.leaf(np.array([1.0, 2.0]), trainable=True)
    root = rt.vsum(rt.square(x))
    rt.backward(tape, root)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_sigmoid_chain_hand_value():
    # d/dw sigmoid(w*x) at w=0, x=3 is 3 * sigma'(0) = 0.75
    tape = rt.Tape()
    w = tape.leaf(np.array(0.0), trainable=True)
    root = rc.sigmoid(rt.scale(w, 3.0))
    rt.backward(tape, root)
    assert w.grad == pytest.approx(0.75, abs=1e-15)


def test_backward_rejects_nonscalar_root():
    tape = rt.Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="scalar"):
        rt.backward(tape, rt.square(x))


def test_backward_rejects_foreign_root():
    tape = rt.Tape()
    other = rt.Tape()
    y = other.leaf(np.array(1.0))
    with pytest.raises(ValueError, match="not on this tape"):
        rt.backward(tape, y)


def test_cross_tape_operation_rejected():
    a = rt.Tape().leaf(np.array([1.0]))
    b = rt.Tape().leaf(np.array([1.0]))
    with pytest.raises(ValueError, match="cross-tape"):
        rt.add(a, b)


def test_operation_on_freed_tape_rejected():
    a = rt.Tape().leaf(np.array([1.0]))
    with pytest.raises(ValueError, match="tape has been freed"):
        rt.square(a)
    with pytest.raises(ValueError, match="tape has been freed"):
        rt.add(a, a)


def _sigmoid_tanh_graph(x0, y0):
    tape = rt.Tape()
    x = tape.leaf(x0, trainable=True)
    y = tape.leaf(y0, trainable=True)
    root = rt.vsum(rc.mul(rc.sigmoid(x), rc.tanh(rt.add(x, y))))
    return tape, (x, y), root


def test_backward_is_deterministic():
    # a tape is backpropagated once, so the same graph is built on two
    # fresh tapes and its leaf gradients compared bit for bit
    rng = np.random.default_rng(0)
    x0, y0 = rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5)
    grads = []
    for _ in range(2):
        tape, leaves, root = _sigmoid_tanh_graph(x0, y0)
        rt.backward(tape, root)
        grads.append([leaf.grad.tobytes() for leaf in leaves])
    assert grads[0] == grads[1]


def test_second_backward_on_a_consumed_tape_is_rejected():
    # backward replaces each entry with None once it has run: the tape
    # keeps its length, and cannot be backpropagated again
    phi = init_l2o(1, hidden=4)
    phi.w_out[:] = 0.5
    rng = np.random.default_rng(1)
    tape, state = [], zero_state(5, 4)
    for _ in range(3):
        _, state = l2o_step_tape(tape, phi, state, rng.uniform(-2, 2, 5))
        tape.append(rng.uniform(-1, 1, 5))
    n_entries = len(tape)
    grads = ad.backward(tape, phi)
    assert len(tape) == n_entries and all(entry is None for entry in tape)
    kept = grads.flat.tobytes()
    with pytest.raises(ValueError, match="already been backpropagated"):
        ad.backward(tape, phi)
    assert len(tape) == n_entries
    assert grads.flat.tobytes() == kept
    assert np.any(grads.wx1 != 0)


def test_backward_returns_a_gradient_with_phi_layout():
    phi = init_l2o(2, hidden=3)
    phi.w_out[:] = 0.5
    rng = np.random.default_rng(2)
    tape = []  # a non-zero start state, so that every tensor's gradient is non-zero
    update, _ = l2o_step_tape(tape, phi, rng.normal(0, 0.5, (2, 2, 3, 4)),
                              rng.uniform(-2, 2, 4))
    tape.append(np.ones_like(update))
    grads = ad.backward(tape, phi)
    assert isinstance(grads, L2OParams)
    assert (grads.hidden, grads.preprocess_p, grads.out_scale) == (
        phi.hidden, phi.preprocess_p, phi.out_scale)
    assert grads.flat.shape == phi.flat.shape and grads.flat.dtype == np.float64
    assert not np.shares_memory(grads.flat, phi.flat)
    pos = 0
    for name in TENSOR_NAMES:
        arr = getattr(grads, name)
        assert arr.shape == getattr(phi, name).shape, name
        assert np.array_equal(arr.ravel(), grads.flat[pos:pos + arr.size]), name
        assert np.shares_memory(arr, grads.flat) and np.any(arr != 0), name
        pos += arr.size


@given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_backward_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2, 2, 4)

    def grad_of(combine):
        tape = rt.Tape()
        x = tape.leaf(x0, trainable=True)
        f = rt.vsum(rt.square(x))
        g = rt.vsum(rc.sigmoid(x))
        rt.backward(tape, combine(f, g))
        return x.grad if x.grad is not None else np.zeros_like(x0)

    combined = grad_of(lambda f, g: rt.add(rt.scale(f, a), rt.scale(g, b)))
    separate = a * grad_of(lambda f, g: f) + b * grad_of(lambda f, g: g)
    np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-12)


def test_add_and_sub_require_matching_shapes():
    tape = rt.Tape()
    mat = tape.leaf(np.ones((3, 4)))
    row = tape.leaf(np.ones(4))
    scalar = tape.leaf(np.array(2.0))
    for op in (rt.add, rt.sub):
        with pytest.raises(ValueError, match="shapes must match"):
            op(mat, row)
        with pytest.raises(ValueError, match="shapes must match"):
            op(row, scalar)


# the refchain primitives; reftape's own are rt.primitive_cases
PRIMITIVE_CASES = {
    "mul": lambda t, p, c: rt.vsum(rc.mul(p, t.constant(c + 3.0))),
    "sigmoid": lambda t, p, c: rt.vsum(rc.sigmoid(p)),
    "tanh": lambda t, p, c: rt.vsum(rc.tanh(p)),
    "softplus": lambda t, p, c: rt.vsum(rc.softplus(p)),
    "take": lambda t, p, c: rt.vsum(rt.square(rc.take(p, slice(1, 4)))),
    "reshape_matmul": lambda t, p, c: rt.vsum(
        rc.matmul(rc.reshape(p, (2, 3)), t.constant(c[:3]))),
}


@pytest.mark.parametrize(
    "name", sorted(PRIMITIVE_CASES) + sorted(rt.primitive_cases()))
@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_primitive_fd_agreement(name, seed):
    if name in PRIMITIVE_CASES:
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(-2, 2, 6)
        c = rng.uniform(-2, 2, 6)
        f = lambda t, p: PRIMITIVE_CASES[name](t, p, c)
    else:
        f, p0 = rt.primitive_cases(seed)[name]
    assert rt.grad_check(f, p0) < 1e-6


def test_logsumexp_rows_fd():
    rng = np.random.default_rng(3)
    p0 = rng.uniform(-2, 2, 8)
    err = rt.grad_check(
        lambda t, p: rt.vsum(rc.logsumexp_rows(rc.reshape(p, (2, 4)))), p0)
    assert err < 1e-6


def test_matmul_all_rank_combinations_fd():
    # refchain's matmul takes a 2-d left operand only, as the chains do
    rng = np.random.default_rng(5)
    m = rng.uniform(-1, 1, (3, 4))
    assert rt.grad_check(
        lambda t, p: rt.vsum(rc.matmul(rc.reshape(p, (3, 4)), t.constant(m.T))),
        m.ravel().copy()) < 1e-6
    assert rt.grad_check(
        lambda t, p: rt.vsum(rc.matmul(t.constant(m), rc.take(p, slice(0, 4)))),
        rng.uniform(-1, 1, 12)) < 1e-6


def test_bias_broadcast_gradients():
    rng = np.random.default_rng(6)
    mat = rng.uniform(-1, 1, (3, 4))
    err = rt.grad_check(
        lambda t, p: rt.vsum(rt.square(rc.add_bias(t.constant(mat), p))),
        rng.uniform(-1, 1, 4))
    assert err < 1e-6
    err = rt.grad_check(
        lambda t, p: rt.vsum(rt.square(rc.add_bias(t.constant(mat[0]), rt.vsum(p)))),
        rng.uniform(-1, 1, 3))
    assert err < 1e-6


def test_grad_check_quadratic_exact():
    err = rt.grad_check(scalar_quadratic, np.array([1.0, -1.0]), eps=1e-5)
    assert err < 1e-8


def test_grad_check_rejects_bad_eps():
    with pytest.raises(ValueError):
        rt.grad_check(scalar_quadratic, np.array([1.0]), eps=0.0)


def test_grad_check_nonfinite_probe():
    def f(tape, p):
        with np.errstate(invalid="ignore"):
            out = np.log(p.data)
        return rt.vsum(rt.Value(tape, out, [(p, lambda g: g / p.data)]))

    with pytest.raises(FloatingPointError):
        rt.grad_check(f, np.array([1e-9]), eps=1e-5)



def _unpruned_backward(tape, root):
    # backward without pruning: every recorded vjp runs and each first
    # contribution is added to zeros
    for v in tape._nodes:
        v.grad = None
    root.grad = np.ones_like(root.data)
    for v in reversed(tape._nodes[: root.node_id + 1]):
        if v.grad is None:
            continue
        for parent, vjp in v._parents:
            contrib = vjp(v.grad)
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad = parent.grad + contrib


def _mixed_loss(tape, x0, w0, batch, labels, keep_all):
    """A loss over trainable x, w and u with batch constants, labels, a
    branch cut off the tape and a constants-only term; u's gradient holds
    a -0.0 before accumulation. With keep_all every would-be constant is
    a trainable leaf instead, so nothing is pruned.
    Returns (leaves, constants, constants-only term, loss)."""
    consts = []

    def const(a):
        consts.append(tape.leaf(a, trainable=keep_all))
        return consts[-1]

    x = tape.leaf(x0, trainable=True)
    w = tape.leaf(w0, trainable=True)
    u = tape.leaf(np.array([0.5, -2.0, 1.0]), trainable=True)
    hid = rc.tanh(rc.add_bias(rc.matmul(const(batch), rc.reshape(w, (3, 4))), x))
    side = rc.mul(const(rt.square(hid).data), hid)
    offset = rt.vsum(rt.square(const(labels)))
    masked = rt.scale(rt.vsum(rc.mul(u, const(np.array([0.0, -0.0, 1.5])))), -1.0)
    loss = rt.add(rt.vsum(rc.mul(rt.add(side, hid), const(labels))), offset)
    return (x, w, u), consts, offset, rt.add(loss, masked)


def test_tape_is_freed_when_its_function_returns():
    # a Value refers to its tape weakly, so no reference cycle keeps a
    # finished tape and its arrays alive until the cyclic collector runs
    def run():
        tape = rt.Tape()
        x = tape.leaf(np.array([0.5, -1.0, 2.0]), trainable=True)
        root = rt.vsum(rc.mul(rc.sigmoid(x), rc.tanh(x)))
        rt.backward(tape, root)
        return weakref.ref(tape), weakref.ref(root.data), x.grad

    gc.disable()
    try:
        tape_ref, data_ref, grad = run()
        assert tape_ref() is None and data_ref() is None
    finally:
        gc.enable()
    assert grad.shape == (3,)


def test_segment_tapes_are_freed_without_the_cyclic_collector(monkeypatch):
    # a segment's tape is a list of step records and loss vjps with no
    # reference back to it, so each step's activations and each loss's
    # vjp go when the segment returns
    refs = []
    record_step = metatrain.l2o_step_tape

    def recorded_step(tape, phi, state, g):
        out = record_step(tape, phi, state, g)
        (x, _, z1, tc1), (_, _, z2, tc2), _ = tape[-1]
        refs.extend(weakref.ref(a) for a in (x, z1, tc1, z2, tc2))
        return out

    phi = init_l2o(3, hidden=4)
    phi.w_out[:] = 0.5
    inst = sample_instance(OptimizeeSpec(family="tiny_mlp", n_points=32,
                                         batch_size=8), 2)
    record_loss = inst.loss_on_tape

    def recorded_loss(tape, theta, batch):
        loss = record_loss(tape, theta, batch)
        refs.append(weakref.ref(tape[-1]))
        return loss

    monkeypatch.setattr(metatrain, "l2o_step_tape", recorded_step)
    monkeypatch.setattr(inst, "loss_on_tape", recorded_loss)
    gc.disable()
    try:
        _, grads, _, _, diverged = metatrain.segment_loss_and_grads(
            phi, inst, inst.init_params(1), zero_state(inst.dim, 4),
            inst.batches(0), 3)
        assert not diverged and len(refs) == 3 * 6
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert np.any(grads.wx1 != 0)


def test_backward_skips_constants_and_matches_unpruned(monkeypatch):
    rng = np.random.default_rng(7)
    args = (rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 12),
            rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (5, 4)))

    ref_tape = rt.Tape()
    ref_leaves, _, _, ref_loss = _mixed_loss(ref_tape, *args, keep_all=True)
    _unpruned_backward(ref_tape, ref_loss)

    called = []
    plain_init = rt.Value.__init__

    def counting_init(self, tape, data, parents=()):
        def count(parent, vjp):
            def counted(g):
                called.append(parent)
                return vjp(g)
            return counted
        plain_init(self, tape, data, [(p, count(p, vjp)) for p, vjp in parents])

    monkeypatch.setattr(rt.Value, "__init__", counting_init)
    tape = rt.Tape()
    leaves, consts, offset, loss = _mixed_loss(tape, *args, keep_all=False)
    rt.backward(tape, loss)

    assert called
    assert all(c.grad is None for c in consts) and offset.grad is None
    assert not any(p is c for p in called for c in consts)
    assert not any(p is offset for p in called)
    for got, want in zip(leaves, ref_leaves):
        assert got.grad.shape == want.grad.shape
        assert got.grad.tobytes() == want.grad.tobytes()
