import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refchain as rc
from helpers import same_bits
from l2okit import imitation, metatrain
from l2okit.model import (TENSOR_NAMES, L2OParams, init_l2o, l2o_step_np, l2o_step_tape,
                          load_checkpoint, preprocess, save_checkpoint, workspace,
                          zero_state)
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
    # p is checked once, where phi is made, not on every preprocess call
    with pytest.raises(ValueError):
        init_l2o(0, preprocess_p=0.0)


def test_init_zero_output_policy():
    phi = init_l2o(3)
    update = metatrain.stepper(phi, 5)(np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
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


@pytest.mark.parametrize("setting, value, match", [
    ("preprocess_p", math.inf, "preprocess_p must be > 0 and finite, got inf"),
    ("out_scale", math.nan, "out_scale must be finite, got nan"),
    ("out_scale", -math.inf, "out_scale must be finite, got -inf"),
], ids=["preprocess-p-inf", "out-scale-nan", "out-scale-minus-inf"])
def test_init_rejects_non_finite_header_floats(setting, value, match):
    # the two floats a checkpoint header stores, checked as load_checkpoint does
    with pytest.raises(ValueError, match=match):
        init_l2o(0, **{setting: value})


@given(seed=st.integers(0, 10**6), d=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance_bitwise(seed, d):
    rng = np.random.default_rng(seed)
    phi = random_phi(seed % 17)
    g = rng.normal(0, 1.0, d)
    perm = rng.permutation(d)
    state = zero_state(d, phi.hidden)
    h1, c1 = state[0]
    h1[:] = rng.normal(size=h1.shape)
    c1[:] = rng.normal(size=c1.shape)
    # permuted before the in-place step overwrites state
    pstate = state[..., perm].copy()
    work = workspace(d, phi.hidden)
    u = l2o_step_np(phi, state, g, work)
    pu = l2o_step_np(phi, pstate, g[perm], work)
    assert np.array_equal(pu, u[perm])


def test_identical_coordinates_get_identical_updates():
    phi = random_phi(5)
    u = metatrain.stepper(phi, 2)(np.array([0.5, 0.5]))
    assert u[0] == u[1]


def test_dimension_independence():
    phi = random_phi(6)
    for d in (1, 3, 50):
        u, st = l2o_step_tape([], phi, zero_state(d, phi.hidden), np.linspace(-1, 1, d))
        assert u.shape == (d,)
        assert st.shape == (2, 2, phi.hidden, d)


@pytest.mark.parametrize("d", [1, 42])
def test_step_returns_packed_layers_and_keeps_its_input_state(d):
    phi = random_phi(10)
    rng = np.random.default_rng(d)
    state = rc.join_state(*(rng.normal(0, 0.5, (d, phi.hidden)) for _ in range(4)))
    before = state.tobytes()
    _, st = l2o_step_tape([], phi, state, rng.normal(size=d))
    assert st.shape == (2, 2, phi.hidden, d)
    assert st.flags.c_contiguous
    assert not np.shares_memory(st, state)
    assert state.tobytes() == before


def recorded_stepper(monkeypatch, phi, dim):
    """metatrain.stepper(phi, dim) and the (state, work) arguments of each
    l2o_step_np call that it makes."""
    calls = []

    def recording(phi, state, g, work):
        calls.append((state, work))
        return l2o_step_np(phi, state, g, work)

    monkeypatch.setattr(metatrain, "l2o_step_np", recording)
    return metatrain.stepper(phi, dim), calls


@pytest.mark.parametrize("d", [1, 42, 1002])
def test_stepper_matches_chained_fresh_steps_and_keeps_earlier_updates(monkeypatch, d):
    phi = random_phi(11)
    rng = np.random.default_rng(d)
    step, calls = recorded_stepper(monkeypatch, phi, d)
    state, updates, kept = zero_state(d, phi.hidden), [], []
    for _ in range(30):
        g = rng.normal(size=d) * 10.0 ** rng.uniform(-6, 1)
        update = step(g)
        expected, state = l2o_step_tape([], phi, state, g)
        assert update.tobytes() == expected.tobytes()
        assert calls[-1][0].tobytes() == state.tobytes()
        updates.append(update)
        kept.append(update.tobytes())
    # one state and one workspace for the whole rollout, and fresh updates
    assert all(c[0] is calls[0][0] and c[1] is calls[0][1] for c in calls)
    assert [u.tobytes() for u in updates] == kept


def test_stepper_step_allocates_less_than_one_gate_array():
    dim, hidden = 2000, 20
    phi = random_phi(12, hidden=hidden)
    step = metatrain.stepper(phi, dim)
    g = np.random.default_rng(12).normal(size=dim)
    step(g)
    tracemalloc.start()
    try:
        step(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * 4 * hidden * 8


def test_state_dimension_mismatch_rejected():
    phi = random_phi(7)
    with pytest.raises(ValueError, match="dimension"):
        l2o_step_np(phi, zero_state(3, phi.hidden), np.zeros(4), workspace(3, phi.hidden))


@pytest.mark.parametrize("zero_projection", [False, True])
@pytest.mark.parametrize("path", ["segment", "imitation"])
def test_fused_cell_matches_primitive_chain_bitwise(path, zero_projection):
    # the package's segment against the whole segment on the reference
    # tape, whose LSTM step is refchain's chain of primitives; a freshly
    # initialized phi has w_out = 0, so every gradient into the cells is
    # an exact zero and the sign of zero is exercised too
    phi = init_l2o(8, hidden=5) if zero_projection else random_phi(8, hidden=5)
    phi.out_scale = 0.3
    dim = 7
    rng = np.random.default_rng(8)
    state = rc.join_state(*(rng.normal(0, 0.5, (dim, phi.hidden)) for _ in range(4)))
    inst = sample_instance(OptimizeeSpec(family="quadratic", dim=dim), 3)
    theta0 = inst.init_params(4)
    steps = [(rng.normal(size=dim), rng.normal(0, 0.01, dim)) for _ in range(3)]

    def run(segment, imitation_segment):
        if path == "segment":
            loss, grads, _, st, diverged = segment(phi, inst, theta0, state,
                                                   inst.batches(0), len(steps))
            assert not diverged
            return loss, grads, st
        return imitation_segment(phi, steps, state)

    fused = run(metatrain.segment_loss_and_grads, imitation.imitation_loss_and_grads)
    ref = run(rc.segment, rc.imitation_segment)
    assert same_bits(fused[0], ref[0])
    for name in TENSOR_NAMES:
        assert same_bits(getattr(fused[1], name), ref[1][name]), name
    for part, a, b in zip(rc.STATE_PARTS, rc.split_state(fused[2]),
                          rc.split_state(ref[2])):
        assert same_bits(a, b), part


def test_mm_rows_operands_are_c_contiguous(tmp_path, monkeypatch):
    # the einsum products' bits can depend on their operands' memory
    # order (a Fortran-ordered h gives _project other bits at hidden 20),
    # so byte identity and criterion 8 rest on every phi tensor, state
    # array and workspace buffer being C-ordered
    phi = init_l2o(12, hidden=5)
    save_checkpoint(phi, tmp_path / "phi.l2o")
    stepped = phi.copy()
    metatrain.MetaAdam().step(stepped, L2OParams(phi.hidden, phi.preprocess_p,
                                                 phi.out_scale, np.ones_like(phi.flat)))
    for params in (phi, load_checkpoint(tmp_path / "phi.l2o"), phi.copy(), stepped):
        for name in TENSOR_NAMES:
            assert getattr(params, name).flags.c_contiguous, name
    g = np.random.default_rng(12).normal(size=7)
    state0 = zero_state(7, phi.hidden)
    _, state1 = l2o_step_tape([], phi, state0, g)
    _, recorded = l2o_step_tape([], phi, state1, g)
    step, calls = recorded_stepper(monkeypatch, phi, 7)
    step(g)
    stepped_state, work = calls[0]
    for state in (state0, state1, recorded, stepped_state):
        for part, arr in zip(rc.STATE_PARTS, (*state[0], *state[1])):
            assert arr.flags.c_contiguous, part
    for buf in work:
        assert buf.flags.c_contiguous


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


# 28 header bytes (magic, hidden, p, out_scale), then wx1's ndim and dims
# from byte 28 and its data from byte 52; -1 cuts into b_out's data
@pytest.mark.parametrize("cut", [4, 10, 20, 30, 44, 60, -1])
def test_checkpoint_rejects_truncated_file(tmp_path, cut):
    path = tmp_path / "cut.l2o"
    save_checkpoint(random_phi(9), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_checkpoint(path)


def test_copy_is_deep():
    phi = random_phi(10)
    clone = phi.copy()
    clone.wx1[0, 0] += 1.0
    assert phi.wx1[0, 0] != clone.wx1[0, 0]


def test_every_tensor_is_a_c_ordered_view_of_flat(tmp_path):
    # hidden 7 puts most tensors at offsets that are not 64-byte aligned
    phi = random_phi(12, hidden=7)
    save_checkpoint(phi, tmp_path / "phi.l2o")
    clones = (phi.copy(), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi)))
    for params in (phi, load_checkpoint(tmp_path / "phi.l2o"), *clones):
        flat = params.flat
        assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
        pos = 0
        for name in TENSOR_NAMES:
            arr = getattr(params, name)
            assert np.shares_memory(arr, flat) and arr.flags.c_contiguous, name
            assert arr.ctypes.data == flat.ctypes.data + 8 * pos, name  # in order
            pos += arr.size
        assert pos == flat.size
    for clone in clones:
        assert np.array_equal(clone.flat, phi.flat)
        for name in TENSOR_NAMES:
            assert not np.shares_memory(getattr(clone, name), phi.flat), name


def test_param_count_independent_of_dimension():
    phi = random_phi(11)
    n = phi.flat.size
    # running on different d must not change the parameter count
    metatrain.stepper(phi, 3)(np.zeros(3))
    metatrain.stepper(phi, 30)(np.zeros(30))
    assert phi.flat.size == n


# -- expit: scipy's ufunc, loaded from its extension --------------------------

UFUNCS = "scipy.special._special_ufuncs"
TESTS = os.path.dirname(os.path.abspath(__file__))


def run_python(code):
    """Run code in a fresh interpreter that imports l2okit from this tree,
    so no module that this test process already holds is reused."""
    path = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_runs_load_expit_without_importing_scipy_special(tmp_path):
    run_python(f"""
import sys
import numpy as np
import l2okit.cli
from l2okit import model, optimizees
out = {str(tmp_path)!r}
assert l2okit.cli.main(["eval", "--family", "tiny_mlp", "--optimizer", "adam",
                        "--n-eval", "20", "--eval-seeds", "0", "--out", out + "/e"]) == 0
assert l2okit.cli.main(["train", "--mode", "vanilla", "--family", "tiny_mlp",
                        "--epochs", "2", "--n-train", "20", "--out", out + "/t"]) == 0
assert "scipy.special" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
assert model.expit is optimizees.expit
import scipy.special
import refchain
assert scipy.special.expit is model.expit
x = np.array([-745.2, 709.8, np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324,
              1e-310, -1e-310, 2.2250738585072014e-308])
assert model.expit(x).tobytes() == refchain.expit(x).tobytes()
""")


@pytest.mark.parametrize("stand_in", [None, "", "raise ImportError('stand-in')\n"],
                         ids=["missing", "no-expit", "fails-to-load"])
def test_expit_falls_back_to_scipy_special(tmp_path, stand_in):
    # the finder's first answer for the extension is none or a stand-in
    # that registers itself in sys.modules, as a single-phase extension
    # does, before it is done
    spec = "None"
    if stand_in is not None:
        path = tmp_path / "stand_in.py"
        path.write_text("import sys\nsys.modules[__name__] = type(sys)(__name__)\n"
                        + stand_in)
        spec = f"importlib.util.spec_from_file_location(name, {str(path)!r})"
    run_python(f"""
import importlib.machinery, importlib.util, sys
real = importlib.machinery.PathFinder.find_spec.__func__
asked = []

def find_spec(cls, name, path=None, target=None):
    if name == {UFUNCS!r} and not asked:
        asked.append(name)
        return {spec}
    return real(cls, name, path, target)

importlib.machinery.PathFinder.find_spec = classmethod(find_spec)
from l2okit import model
assert asked == [{UFUNCS!r}]
import scipy.special
assert model.expit is scipy.special.expit
assert sys.modules[{UFUNCS!r}].expit is model.expit
""")
