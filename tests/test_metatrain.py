import tracemalloc
import warnings

import numpy as np
import pytest

from l2okit.gradchecks import check_meta_loss
from l2okit.metatrain import (MetaAdam, MetaLossSpec, TrainConfig,
                              ValidationSet, l2o_stepper, meta_update,
                              rollout, rollout_l2o, segment_loss_and_grads,
                              train_epoch, validate)
from l2okit.model import TENSOR_NAMES, init_l2o, zero_state
from l2okit.optimizees import OptimizeeSpec, QuadraticInstance, sample_instance

QUAD = OptimizeeSpec(family="quadratic", dim=3)


def quad_instance(seed=0):
    return sample_instance(QUAD, seed)


def perturbed_phi(seed=0, hidden=6):
    phi = init_l2o(seed, hidden=hidden)
    rng = np.random.default_rng(seed)
    phi.w_out[:] = rng.normal(0, 0.3, hidden)
    phi.b_out[...] = rng.normal(0, 0.3)
    return phi


def test_meta_loss_spec_validation():
    with pytest.raises(ValueError):
        MetaLossSpec(horizon=0)
    with pytest.raises(ValueError):
        MetaLossSpec(horizon=5, segment=6)
    with pytest.raises(ValueError):
        MetaLossSpec(horizon=3, segment=3, omega=np.ones(4)).weights()
    with pytest.raises(ValueError):
        MetaLossSpec(horizon=3, segment=3,
                     omega=np.array([1.0, -1.0, 1.0])).weights()
    np.testing.assert_array_equal(MetaLossSpec(horizon=4, segment=4).weights(),
                                  np.ones(4))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(master_seed=0, epochs=1, meta_lr=0.0)


def test_identity_policy_rollout_is_constant():
    # a freshly initialized optimizer has a zero output projection
    phi = init_l2o(0, hidden=6)
    inst = quad_instance(1)
    theta0 = inst.init_params(2)
    step, updates = l2o_stepper(phi, inst.dim), []

    def recorded_step(g):
        updates.append(step(g))
        return updates[-1]

    traj = rollout(recorded_step, inst, theta0, 10)
    assert len(traj.losses) == len(updates) == 10
    assert all(v == traj.losses[0] for v in traj.losses)
    assert all(np.all(u == 0) for u in updates)


def test_rollout_records_analytic_gradient():
    inst = QuadraticInstance(OptimizeeSpec(family="quadratic", dim=2),
                             np.eye(2), np.zeros(2))
    theta0 = np.array([1.0, -2.0])
    seen = []
    rollout(lambda g: seen.append(g) or np.zeros_like(g), inst, theta0, 1)
    # f = ||theta||^2 / 2, so the step function is handed g = theta
    np.testing.assert_allclose(seen[0], theta0, atol=1e-12)


def test_rollout_rejects_bad_horizon():
    with pytest.raises(ValueError):
        rollout(lambda g: -g, quad_instance(), np.zeros(3), 0)


def test_rollout_divergence_is_data():
    inst = quad_instance(3)
    traj = rollout_l2o(init_l2o(0, hidden=4), inst, np.full(3, np.inf), 5)
    assert traj.diverged_at == 0
    assert traj.losses == []


def test_rollout_memory_does_not_grow_with_dimension_times_steps():
    # 2,000 kept (g, update) pairs at dim 1,002 would take 32 MB; a
    # rollout keeps one loss per step
    dim, n = 1002, 2000
    inst = sample_instance(OptimizeeSpec(family="quadratic", dim=dim, n_rows=4), 0)
    theta0 = inst.init_params(1)
    tracemalloc.start()
    try:
        traj = rollout(lambda g: -1e-3 * g, inst, theta0, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.losses) == n and traj.diverged_at is None
    assert peak < 2 * n * dim * 8 / 16


def test_rollout_record_final():
    inst = quad_instance(4)
    theta0 = inst.init_params(0)
    traj = rollout_l2o(init_l2o(0, hidden=4), inst, theta0, 3, record_final=True)
    assert traj.final_loss is not None
    # identity policy keeps theta fixed, so the final loss matches step 0
    assert traj.final_loss == pytest.approx(traj.losses[0])


def test_meta_loss_value_identity_policy():
    # zero updates keep theta at theta0, so the single-segment meta-loss
    # is horizon * f(theta0)
    phi = init_l2o(5, hidden=6)
    inst = quad_instance(6)
    theta0 = inst.init_params(1)
    f0, _ = inst.loss_and_grad(theta0, inst.next_batch())
    mls = MetaLossSpec(horizon=6, segment=6)
    total = meta_update(phi, inst, theta0, mls, MetaAdam(lr=1e-3), 0)
    assert total == pytest.approx(6 * f0, rel=1e-12)


def test_meta_gradient_fd_horizon_1():
    assert check_meta_loss(horizon=1) < 1e-4


def test_meta_gradient_fd_horizon_5():
    assert check_meta_loss(horizon=5) < 1e-4


def test_segments_are_truncated():
    # scaling segment-1 weights must not change segment-2 gradients,
    # because neither theta nor the LSTM state carries gradient across
    # the boundary
    phi = perturbed_phi(7)
    inst = quad_instance(8)
    theta0 = inst.init_params(2)

    def run(seg1_omega):
        state = zero_state(inst.dim, phi.hidden)
        _, _, theta, state, _ = segment_loss_and_grads(
            phi, inst, theta0, state, seg1_omega)
        _, grads2, _, _, _ = segment_loss_and_grads(
            phi, inst, theta, state, np.ones(4), t_base=4)
        return grads2

    g_a = run(np.ones(4))
    g_b = run(3.0 * np.ones(4))
    for name in TENSOR_NAMES:
        assert np.array_equal(g_a[name], g_b[name])


def test_meta_adam_first_step_magnitude():
    phi = perturbed_phi(9)
    before = phi.wx1.copy()
    adam = MetaAdam(lr=1e-3)
    grads = {n: np.ones_like(getattr(phi, n)) for n in TENSOR_NAMES}
    adam.step(phi, grads)
    # bias-corrected Adam moves every coordinate by about lr on step one
    np.testing.assert_allclose(before - phi.wx1, 1e-3, rtol=1e-4)


def test_meta_adam_missing_grads_treated_as_zero():
    phi = perturbed_phi(10)
    before = {n: getattr(phi, n).copy() for n in TENSOR_NAMES}
    MetaAdam(lr=1e-3).step(phi, {})
    for n in TENSOR_NAMES:
        assert np.array_equal(before[n], getattr(phi, n))


def test_divergent_segment_skips_update_and_records_event():
    phi = perturbed_phi(11)
    before = {n: getattr(phi, n).copy() for n in TENSOR_NAMES}
    inst = quad_instance(12)
    events = []
    total = meta_update(phi, inst, np.full(3, np.nan),
                        MetaLossSpec(horizon=4, segment=2), MetaAdam(), 0,
                        events=events)
    assert total == 0.0
    assert events == [("divergence", 0, 0)]
    for n in TENSOR_NAMES:
        assert np.array_equal(before[n], getattr(phi, n))


def test_divergence_event_names_epoch_and_segment_start():
    # a huge external step at optimizee step 2 makes the second segment
    # of epoch 7 diverge; the first segment's update still applies
    phi = perturbed_phi(11)
    tc = TrainConfig(master_seed=5, epochs=8)
    adam = MetaAdam()
    events = []

    def override(t, theta, g):
        return np.full_like(theta, 1e300) if t == 2 else None

    # the on-tape loss overflows to inf: that is the divergence under
    # test, recorded as an event and not raised or warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kind, total = train_epoch(phi, 7, MetaLossSpec(horizon=4, segment=2),
                                  adam, inst=quad_instance(12), tc=tc,
                                  events=events, step_override=override)
    assert events == [("divergence", 7, 2)]
    assert kind == "Lf" and np.isfinite(total) and total > 0
    assert adam.t == 1


def test_train_epoch_bitwise_deterministic():
    tc = TrainConfig(master_seed=99, epochs=1)
    mls = MetaLossSpec(horizon=8, segment=4)

    def run():
        phi = perturbed_phi(13)
        inst = quad_instance(14)
        adam = MetaAdam(lr=tc.meta_lr)
        losses = [train_epoch(phi, e, mls, adam, inst=inst, tc=tc) for e in range(3)]
        return phi, losses

    phi_a, losses_a = run()
    phi_b, losses_b = run()
    assert losses_a == losses_b
    for n in TENSOR_NAMES:
        assert np.array_equal(getattr(phi_a, n), getattr(phi_b, n))


def test_train_epoch_varies_theta0_across_epochs():
    tc = TrainConfig(master_seed=0, epochs=1)
    inst = quad_instance(15)
    from l2okit.seeding import derive_seed
    t0 = inst.init_params(derive_seed(tc.master_seed, "epoch-theta0", 0))
    t1 = inst.init_params(derive_seed(tc.master_seed, "epoch-theta0", 1))
    assert not np.array_equal(t0, t1)


def test_validate_deterministic_and_ordered():
    tc = TrainConfig(master_seed=7, epochs=1)
    vs = ValidationSet.create(QUAD, tc)
    phi = init_l2o(0, hidden=6)
    a = validate(phi, 10, vs)
    b = validate(phi, 10, vs)
    assert a == b
    assert np.isfinite(a) and a > 0


def test_validate_penalty_on_divergence():
    tc = TrainConfig(master_seed=7, epochs=1, n_val_instances=2)
    vs = ValidationSet.create(QUAD, tc)
    vs.theta0s = [np.full(3, np.inf) for _ in vs.theta0s]
    assert validate(init_l2o(0, hidden=4), 5, vs, penalty=123.0) == 123.0


def test_validate_rejects_empty_set():
    with pytest.raises(ValueError):
        validate(init_l2o(0, hidden=4), 5, ValidationSet([], [], []))


def test_short_training_run_improves_quadratic():
    tc = TrainConfig(master_seed=3, epochs=40)
    mls = MetaLossSpec(horizon=20, segment=20)
    phi = init_l2o(1, hidden=8)
    inst = quad_instance(16)
    adam = MetaAdam(lr=tc.meta_lr)
    vs = ValidationSet.create(QUAD, tc)
    before = validate(phi, 20, vs)
    for epoch in range(tc.epochs):
        _, loss = train_epoch(phi, epoch, mls, adam, inst=inst, tc=tc)
        assert np.isfinite(loss)
    after = validate(phi, 20, vs)
    assert np.isfinite(after)
    assert after < before
