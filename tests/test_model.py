import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refchain as rc
from l2okit import autodiff as ad
from l2okit import imitation, metatrain
from l2okit.metatrain import TrajStep
from l2okit.model import (L2OParams, L2OState, TENSOR_NAMES, init_l2o,
                          l2o_step_np, load_checkpoint, preprocess,
                          save_checkpoint, zero_state)
from l2okit.optimizees import OptimizeeSpec, sample_instance
from l2okit.seeding import rng_for


def random_phi(seed=0, hidden=20):
    phi = init_l2o(seed, hidden=hidden)
    rng = rng_for(seed, "test-proj")
    phi.w_out[:] = rng.normal(0, 0.5, hidden)
    phi.b_out[...] = rng.normal()
    return phi


def test_preprocess_examples():
    out = preprocess(np.array([1.0]), 10.0)
    np.testing.assert_allclose(out, [[0.0, 1.0]])
    out = preprocess(np.array([0.0]), 10.0)
    np.testing.assert_allclose(out, [[-1.0, 0.0]])
    out = preprocess(np.array([np.exp(-5.0)]), 10.0)
    np.testing.assert_allclose(out, [[-0.5, 1.0]], atol=1e-12)


def test_preprocess_small_branch():
    g = np.array([1e-6, -1e-6])
    out = preprocess(g, 10.0)
    np.testing.assert_allclose(out[:, 0], [-1.0, -1.0])
    np.testing.assert_allclose(out[:, 1], np.exp(10.0) * g)


def test_preprocess_rejects_bad_p():
    with pytest.raises(ValueError):
        preprocess(np.array([1.0]), 0.0)


def test_init_zero_output_policy():
    phi = init_l2o(3)
    update, _ = l2o_step_np(phi, zero_state(5, phi.hidden),
                            np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
    np.testing.assert_array_equal(update, np.zeros(5))


def test_init_deterministic_and_forget_bias():
    a, b = init_l2o(11), init_l2o(11)
    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    h = a.hidden
    assert np.all(a.b1[h:2 * h] == 1.0)
    assert np.all(a.b2[h:2 * h] == 1.0)
    assert np.all(a.b1[:h] == 0.0)
    c = init_l2o(12)
    assert not np.array_equal(a.wx1, c.wx1)


def test_init_rejects_bad_hidden():
    with pytest.raises(ValueError):
        init_l2o(0, hidden=0)


@given(seed=st.integers(0, 10**6), d=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance_bitwise(seed, d):
    rng = np.random.default_rng(seed)
    phi = random_phi(seed % 17)
    g = rng.normal(0, 1.0, d)
    perm = rng.permutation(d)
    state = zero_state(d, phi.hidden)
    state.h1[:] = rng.normal(size=state.h1.shape)
    state.c1[:] = rng.normal(size=state.c1.shape)
    u, _ = l2o_step_np(phi, state, g)
    pstate = zero_state(d, phi.hidden)
    pstate.h1[:] = state.h1[perm]
    pstate.c1[:] = state.c1[perm]
    pu, _ = l2o_step_np(phi, pstate, g[perm])
    assert np.array_equal(pu, u[perm])


def test_identical_coordinates_get_identical_updates():
    phi = random_phi(5)
    u, _ = l2o_step_np(phi, zero_state(2, phi.hidden), np.array([0.5, 0.5]))
    assert u[0] == u[1]


def test_dimension_independence():
    phi = random_phi(6)
    for d in (1, 3, 50):
        u, st = l2o_step_np(phi, zero_state(d, phi.hidden), np.linspace(-1, 1, d))
        assert u.shape == (d,)
        assert st.h1.shape == (d, phi.hidden)


def test_state_dimension_mismatch_rejected():
    phi = random_phi(7)
    with pytest.raises(ValueError, match="dimension"):
        l2o_step_np(phi, zero_state(3, phi.hidden), np.zeros(4))


# -- reference: the LSTM step as a chain of tape primitives -----------------
# Each cell is 17 nodes and the projection 3, with the state as four
# separate (dim, hidden) Values. The fused cell node must reproduce its
# gradients bit for bit.

def _matmul_rows_ref(a, b):
    A, B = a.data, b.data
    if B.ndim == 2:
        return ad.Value(a.tape, np.einsum("ik,kj->ij", A, B, optimize=False),
                        [(a, lambda g: g @ B.T), (b, lambda g: A.T @ g)])
    return ad.Value(a.tape, np.einsum("ik,k->i", A, B, optimize=False),
                    [(a, lambda g: np.outer(g, B)), (b, lambda g: A.T @ g)])


def _cell_ref(x, h, c, wx, wh, b, hidden):
    z = rc.add_bias(ad.add(_matmul_rows_ref(x, wx), _matmul_rows_ref(h, wh)), b)
    i = rc.sigmoid(rc.take(z, (slice(None), slice(0, hidden))))
    f = rc.sigmoid(rc.take(z, (slice(None), slice(hidden, 2 * hidden))))
    g = rc.tanh(rc.take(z, (slice(None), slice(2 * hidden, 3 * hidden))))
    o = rc.sigmoid(rc.take(z, (slice(None), slice(3 * hidden, 4 * hidden))))
    c_new = ad.add(rc.mul(f, c), rc.mul(i, g))
    h_new = rc.mul(o, rc.tanh(c_new))
    return h_new, c_new


def _step_ref(tape, leaves, phi, state, g):
    x = tape.constant(preprocess(g, phi.preprocess_p))
    h1, c1, h2, c2 = state
    h1, c1 = _cell_ref(x, h1, c1, leaves["wx1"], leaves["wh1"], leaves["b1"], phi.hidden)
    h2, c2 = _cell_ref(h1, h2, c2, leaves["wx2"], leaves["wh2"], leaves["b2"], phi.hidden)
    update = ad.scale(rc.add_bias(_matmul_rows_ref(h2, leaves["w_out"]), leaves["b_out"]),
                      phi.out_scale)
    return update, (h1, c1, h2, c2)


def _state_constants_ref(tape, state):
    return tuple(tape.constant(a) for a in (state.h1, state.c1, state.h2, state.c2))


def _state_from_values_ref(vals):
    return L2OState(*(v.data for v in vals))


def _use_reference_step(monkeypatch, module):
    monkeypatch.setattr(module, "l2o_step_tape", _step_ref)
    monkeypatch.setattr(module, "state_constants", _state_constants_ref)
    monkeypatch.setattr(module, "state_from_values", _state_from_values_ref)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("zero_projection", [False, True])
@pytest.mark.parametrize("path", ["segment", "imitation"])
def test_fused_cell_matches_primitive_chain_bitwise(monkeypatch, path, zero_projection):
    # a freshly initialized phi has w_out = 0, so every gradient into the
    # cells is an exact zero and the sign of zero is exercised too
    phi = init_l2o(8, hidden=5) if zero_projection else random_phi(8, hidden=5)
    phi.out_scale = 0.3
    dim = 7
    omega = np.array([0.5, 2.0, 1.25])
    rng = np.random.default_rng(8)
    state = L2OState(*(rng.normal(0, 0.5, (dim, phi.hidden)) for _ in range(4)))
    inst = sample_instance(OptimizeeSpec(family="quadratic", dim=dim), 3)
    theta0 = inst.init_params(4)
    steps = [TrajStep(rng.normal(size=dim), rng.normal(0, 0.01, dim))
             for _ in omega]

    def run():
        if path == "segment":
            loss, grads, _, st, diverged = metatrain.segment_loss_and_grads(
                phi, inst, theta0, state, omega)
            assert not diverged
            return loss, grads, st
        return imitation.imitation_loss_and_grads(phi, steps, omega, state)

    fused = run()
    _use_reference_step(monkeypatch, metatrain if path == "segment" else imitation)
    ref = run()
    assert _same_bits(fused[0], ref[0])
    for name in TENSOR_NAMES:
        assert _same_bits(fused[1][name], ref[1][name]), name
    for part in ("h1", "c1", "h2", "c2"):
        assert _same_bits(getattr(fused[2], part), getattr(ref[2], part)), part


def test_gradient_flow_through_all_tensors():
    from l2okit.gradchecks import check_lstm_cell

    assert check_lstm_cell() < 1e-4


def test_checkpoint_roundtrip_bytes(tmp_path):
    phi = random_phi(9)
    p1 = tmp_path / "a.l2o"
    p2 = tmp_path / "b.l2o"
    save_checkpoint(phi, p1)
    loaded = load_checkpoint(p1)
    assert loaded.hidden == phi.hidden
    assert loaded.preprocess_p == phi.preprocess_p
    assert loaded.out_scale == phi.out_scale
    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(loaded, name), getattr(phi, name))
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.l2o"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_copy_is_deep():
    phi = random_phi(10)
    clone = phi.copy()
    clone.wx1[0, 0] += 1.0
    assert phi.wx1[0, 0] != clone.wx1[0, 0]


def test_param_count_independent_of_dimension():
    phi = random_phi(11)
    n = phi.n_params()
    # running on different d must not change the parameter count
    l2o_step_np(phi, zero_state(3, phi.hidden), np.zeros(3))
    l2o_step_np(phi, zero_state(30, phi.hidden), np.zeros(30))
    assert phi.n_params() == n
