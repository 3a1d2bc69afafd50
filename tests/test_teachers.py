import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2okit.teachers import TeacherKind, default_ensemble, init_state, teacher_step


def test_kind_validation():
    with pytest.raises(ValueError):
        TeacherKind("nope")
    with pytest.raises(ValueError):
        TeacherKind("sgd", lr=0.0)


def test_sgd_step():
    kind = TeacherKind("sgd", lr=0.01)
    update, state = teacher_step(kind, init_state(2), np.array([1.0, -2.0]))
    np.testing.assert_allclose(update, [-0.01, 0.02])
    assert state.t == 1


def test_adam_first_step_bias_correction():
    kind = TeacherKind("adam", lr=0.01)
    update, _ = teacher_step(kind, init_state(2), np.array([1.0, -1.0]))
    np.testing.assert_allclose(update, [-0.01, 0.01], atol=1e-6)


def test_adagrad_first_step():
    kind = TeacherKind("adagrad", lr=0.01)
    update, _ = teacher_step(kind, init_state(1), np.array([4.0]))
    np.testing.assert_allclose(update, [-0.01], atol=1e-6)


def _closed_form_adam_two_steps(g, lr, b1, b2, eps):
    m1 = (1 - b1) * g
    v1 = (1 - b2) * g * g
    u1 = -lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
    m2 = b1 * m1 + (1 - b1) * g
    v2 = b2 * v1 + (1 - b2) * g * g
    u2 = -lr * (m2 / (1 - b1 ** 2)) / (np.sqrt(v2 / (1 - b2 ** 2)) + eps)
    return u1, u2


def test_adam_two_step_closed_form():
    g = np.array([0.7, -1.3, 2.1])
    kind = TeacherKind("adam", lr=0.01)
    u1_ref, u2_ref = _closed_form_adam_two_steps(g, 0.01, 0.9, 0.999, 1e-8)
    u1, state = teacher_step(kind, init_state(3), g)
    u2, _ = teacher_step(kind, state, g)
    np.testing.assert_allclose(u1, u1_ref, atol=1e-12)
    np.testing.assert_allclose(u2, u2_ref, atol=1e-12)


def test_sgd_adagrad_two_step_closed_forms():
    g = np.array([0.5, -2.0])
    sgd = TeacherKind("sgd", lr=0.01)
    u1, st = teacher_step(sgd, init_state(2), g)
    u2, _ = teacher_step(sgd, st, g)
    np.testing.assert_allclose(u1, -0.01 * g, atol=1e-15)
    np.testing.assert_allclose(u2, -0.01 * g, atol=1e-15)

    ada = TeacherKind("adagrad", lr=0.01)
    u1, st = teacher_step(ada, init_state(2), g)
    u2, _ = teacher_step(ada, st, g)
    np.testing.assert_allclose(u1, -0.01 * g / np.sqrt(g * g + 1e-10), atol=1e-12)
    np.testing.assert_allclose(u2, -0.01 * g / np.sqrt(2 * g * g + 1e-10), atol=1e-12)


def test_rmsprop_step():
    kind = TeacherKind("rmsprop", lr=0.01)
    g = np.array([3.0])
    update, state = teacher_step(kind, init_state(1), g)
    np.testing.assert_allclose(update, -0.01 * g / np.sqrt(0.1 * g * g + 1e-10))
    assert state.acc == pytest.approx([0.1 * 9.0])


def test_adagrad_accumulator_monotone():
    kind = TeacherKind("adagrad", lr=0.01)
    rng = np.random.default_rng(0)
    state = init_state(4)
    prev = state.acc.copy()
    for t in range(1000):
        _, state = teacher_step(kind, state, rng.normal(size=4))
        assert np.all(state.acc >= prev)
        assert np.all(state.acc >= 0)
        assert state.t == t + 1
        prev = state.acc.copy()


@given(seed=st.integers(0, 10**6),
       kind_name=st.sampled_from(["sgd", "adam", "adagrad", "rmsprop"]))
@settings(max_examples=40, deadline=None)
def test_step_is_pure(seed, kind_name):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=3)
    kind = TeacherKind(kind_name, lr=0.05)
    state = init_state(3)
    _, state = teacher_step(kind, state, rng.normal(size=3))
    u1, s1 = teacher_step(kind, state, g)
    u2, s2 = teacher_step(kind, state, g)
    assert np.array_equal(u1, u2)
    for field in ("m", "v", "acc"):
        assert np.array_equal(getattr(s1, field), getattr(s2, field))


def test_dimension_mismatch_rejected():
    kind = TeacherKind("adam")
    with pytest.raises(ValueError, match="dimension"):
        teacher_step(kind, init_state(2), np.zeros(3))


@pytest.mark.parametrize("kind", default_ensemble(lr=0.01))
def test_descent_on_fixture_quadratic(kind):
    from l2okit.optimizees import OptimizeeSpec, sample_instance

    inst = sample_instance(OptimizeeSpec(family="quadratic", dim=5), 17)
    theta = inst.init_params(3)
    batch = next(inst.batches(0))
    start, _ = inst.loss_and_grad(theta, batch)
    state = init_state(5)
    for _ in range(100):
        _, g = inst.loss_and_grad(theta, batch)
        update, state = teacher_step(kind, state, g)
        theta = theta + update
    end, _ = inst.loss_and_grad(theta, batch)
    assert end < start


def test_default_ensemble_composition():
    kinds = [k.kind for k in default_ensemble()]
    assert kinds == ["adam", "sgd", "adagrad"]
    assert all(k.lr == 0.01 for k in default_ensemble())
