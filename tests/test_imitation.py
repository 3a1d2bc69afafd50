from functools import partial

import numpy as np
import pytest

from l2okit.experiments import train_fixed
from l2okit.gradchecks import check_imitation_loss
from l2okit.imitation import (ImitationConfig, SelfImprovingSchedule,
                              il_epoch, imitation_loss_and_grads,
                              imitation_update, self_improving_epoch,
                              teacher_trajectory)
from l2okit.metatrain import (MetaAdam, MetaLossSpec, TrainConfig, TrajStep,
                              Trajectory, train_epoch)
from l2okit.model import TENSOR_NAMES, init_l2o, zero_state
from l2okit.optimizees import OptimizeeSpec, QuadraticInstance, sample_instance
from l2okit.seeding import rng_for
from l2okit.teachers import TeacherKind, default_ensemble

QUAD = OptimizeeSpec(family="quadratic", dim=3)


def fixture_quadratic():
    return QuadraticInstance(OptimizeeSpec(family="quadratic", dim=1),
                             np.array([[2.0]]), np.array([4.0]))


def test_imitation_config_validation():
    with pytest.raises(ValueError):
        ImitationConfig(r=1.5)
    with pytest.raises(ValueError):
        ImitationConfig(teachers=())


def test_sgd_teacher_trajectory_hand_values():
    # f(theta) = (2 theta - 4)^2, so g = 8 theta - 16; from theta = 0 with
    # lr 0.01: update_0 = 0.16, theta_1 = 0.16, update_1 = 0.1472
    inst = fixture_quadratic()
    traj = teacher_trajectory(TeacherKind("sgd", lr=0.01), inst,
                              np.array([0.0]), 2)
    np.testing.assert_allclose(traj.steps[0].update, [0.16], atol=1e-14)
    np.testing.assert_allclose(traj.steps[1].update, [0.1472], atol=1e-14)
    assert traj.produced_by == "teacher:sgd"


def test_teacher_trajectory_is_off_policy():
    # the replayed trajectory depends only on the instance and teacher,
    # never on phi, so two separate draws are bitwise identical
    inst = sample_instance(QUAD, 5)
    theta0 = inst.init_params(1)
    inst.reseed_batches(9)
    a = teacher_trajectory(TeacherKind("adam", lr=0.01), inst, theta0, 6)
    inst.reseed_batches(9)
    b = teacher_trajectory(TeacherKind("adam", lr=0.01), inst, theta0, 6)
    for sa, sb in zip(a.steps, b.steps):
        assert np.array_equal(sa.g, sb.g)
        assert np.array_equal(sa.update, sb.update)


def test_imitation_loss_single_step_value():
    # zero-initialized phi emits zero updates, so the loss is just the
    # squared norm of the teacher update: 0.2^2 = 0.04
    phi = init_l2o(0, hidden=6)
    steps = [TrajStep(g=np.array([1.0]), update=np.array([0.2]))]
    loss, grads, _ = imitation_loss_and_grads(phi, steps, np.ones(1),
                                              zero_state(1, phi.hidden))
    assert loss == pytest.approx(0.04, abs=1e-15)
    assert set(grads) == set(TENSOR_NAMES)


def test_imitation_loss_zero_at_minimizer():
    # at the minimizer the gradient vanishes, the SGD teacher emits zero
    # updates, and the zero-initialized phi matches them exactly
    inst = fixture_quadratic()
    traj = teacher_trajectory(TeacherKind("sgd", lr=0.01), inst,
                              inst.minimizer(), 3)
    phi = init_l2o(0, hidden=6)
    loss = imitation_update(phi, traj, np.ones(3), MetaAdam(lr=1e-3))
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_imitation_gradient_fd():
    assert check_imitation_loss() < 1e-4


def test_imitation_update_validation():
    phi = init_l2o(0, hidden=4)
    with pytest.raises(ValueError):
        imitation_update(phi, Trajectory([], "teacher:sgd"), np.ones(0),
                         MetaAdam())
    traj = teacher_trajectory(TeacherKind("sgd", lr=0.01), fixture_quadratic(),
                              np.array([0.0]), 4)
    with pytest.raises(ValueError):
        imitation_update(phi, traj, np.ones(3), MetaAdam())


def rand_phi(seed, hidden=6):
    phi = init_l2o(seed, hidden=hidden)
    rng = np.random.default_rng(seed)
    phi.w_out[:] = rng.normal(0, 0.3, hidden)
    phi.b_out[...] = rng.normal(0, 0.3)
    return phi


def test_r_zero_is_bitwise_vanilla():
    tc = TrainConfig(master_seed=11, epochs=5)
    mls = MetaLossSpec(horizon=8, segment=4)
    ic = ImitationConfig(r=0.0)

    phi_il = rand_phi(1)
    inst = sample_instance(QUAD, 2)
    train_fixed(phi_il, partial(il_epoch, inst=inst, tc=tc, ic=ic), tc, mls)

    phi_plain = rand_phi(1)
    inst2 = sample_instance(QUAD, 2)
    adam = MetaAdam(lr=tc.meta_lr)
    for epoch in range(5):
        train_epoch(phi_plain, epoch, mls, adam, inst=inst2, tc=tc)

    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(phi_il, name), getattr(phi_plain, name))


def test_r_one_runs_only_imitation():
    tc = TrainConfig(master_seed=12, epochs=4)
    mls = MetaLossSpec(horizon=6, segment=6)
    log = []
    body = partial(il_epoch, inst=sample_instance(QUAD, 3), tc=tc,
                   ic=ImitationConfig(r=1.0))
    train_fixed(rand_phi(2), body, tc, mls, epoch_log=log)
    assert all(kind.startswith("IL:") for _, kind, _, _ in log)


def test_episode_kind_matches_seeded_draws():
    tc = TrainConfig(master_seed=13, epochs=30)
    mls = MetaLossSpec(horizon=4, segment=4)
    ic = ImitationConfig(r=0.3)
    log = []
    body = partial(il_epoch, inst=sample_instance(QUAD, 4), tc=tc, ic=ic)
    train_fixed(rand_phi(3), body, tc, mls, epoch_log=log)
    for epoch, kind, _, _ in log:
        expected_il = rng_for(tc.master_seed, "il-u", epoch).random() < 0.3
        assert kind.startswith("IL:") == expected_il


def test_imitation_fraction_and_teacher_uniformity():
    # exercise the seeded episode-choice streams over 10^4 epochs
    master = 17
    n = 10_000
    il_flags = np.array([rng_for(master, "il-u", e).random() < 0.3
                         for e in range(n)])
    frac = il_flags.mean()
    assert 0.29 < frac < 0.31
    idxs = np.array([int(rng_for(master, "il-teacher", e).integers(3))
                     for e in np.flatnonzero(il_flags)])
    for j in range(3):
        share = np.mean(idxs == j)
        assert 0.31 < share < 0.35


def test_teacher_divergence_is_logged_not_raised():
    tc = TrainConfig(master_seed=14, epochs=1)
    mls = MetaLossSpec(horizon=4, segment=4)
    # an absurd teacher lr blows up the quadratic immediately
    ic = ImitationConfig(r=1.0, teachers=(TeacherKind("sgd", lr=1e160),))
    events = []
    phi = rand_phi(4)
    kind, loss = il_epoch(phi, 0, mls, MetaAdam(), inst=sample_instance(QUAD, 5),
                          tc=tc, ic=ic, events=events)
    assert kind == "IL:sgd"
    assert np.isnan(loss)
    assert events and events[0][0] == "teacher-divergence"


def test_si_probs_are_a_simplex():
    sis = SelfImprovingSchedule(anneal_epochs=100)
    for epoch in (0, 1, 37, 99, 100, 250):
        p = sis.probs(epoch)
        assert p.shape == (4,)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_si_default_start_is_uniform():
    p = SelfImprovingSchedule(anneal_epochs=100).probs(0)
    np.testing.assert_allclose(p, 0.25)


def test_si_anneal_hand_values():
    sis = SelfImprovingSchedule(anneal_epochs=100, start_prob=0.33)
    p = sis.probs(50)
    assert p[1] == pytest.approx(0.165)
    assert p[0] == pytest.approx(0.505)
    np.testing.assert_allclose(sis.probs(100), [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(sis.probs(400), [1.0, 0.0, 0.0, 0.0])


def test_si_pure_l2o_phase_is_bitwise_vanilla():
    # past the annealing endpoint every step is the learned optimizer's,
    # so the epoch must match plain meta-training exactly
    tc = TrainConfig(master_seed=15, epochs=1)
    mls = MetaLossSpec(horizon=8, segment=4)
    sis = SelfImprovingSchedule(anneal_epochs=100)

    phi_si = rand_phi(5)
    _, loss_si = self_improving_epoch(phi_si, 150, mls, MetaAdam(lr=tc.meta_lr),
                                      inst=sample_instance(QUAD, 6), tc=tc,
                                      sis=sis)

    phi_plain = rand_phi(5)
    _, loss_plain = train_epoch(phi_plain, 150, mls, MetaAdam(lr=tc.meta_lr),
                                inst=sample_instance(QUAD, 6), tc=tc)

    assert loss_si == loss_plain
    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(phi_si, name), getattr(phi_plain, name))


def test_si_mixed_phase_differs_from_vanilla():
    tc = TrainConfig(master_seed=16, epochs=1)
    mls = MetaLossSpec(horizon=8, segment=4)
    sis = SelfImprovingSchedule(anneal_epochs=100, start_prob=0.33)

    phi_si = rand_phi(6)
    self_improving_epoch(phi_si, 0, mls, MetaAdam(lr=tc.meta_lr),
                         inst=sample_instance(QUAD, 7), tc=tc, sis=sis)
    phi_plain = rand_phi(6)
    train_epoch(phi_plain, 0, mls, MetaAdam(lr=tc.meta_lr),
                inst=sample_instance(QUAD, 7), tc=tc)
    assert any(not np.array_equal(getattr(phi_si, n), getattr(phi_plain, n))
               for n in TENSOR_NAMES)


def test_si_epoch_deterministic():
    tc = TrainConfig(master_seed=18, epochs=1)
    mls = MetaLossSpec(horizon=8, segment=4)
    sis = SelfImprovingSchedule(anneal_epochs=100)

    def run():
        phi = rand_phi(7)
        self_improving_epoch(phi, 3, mls, MetaAdam(lr=tc.meta_lr),
                             inst=sample_instance(QUAD, 8), tc=tc, sis=sis)
        return phi

    a, b = run(), run()
    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(a, name), getattr(b, name))
