import warnings
from functools import partial

import numpy as np
import pytest

from helpers import fixture_quadratic, rand_phi
from l2okit.config import ConfigError, build_config
from l2okit.experiments import train_fixed
from l2okit.gradchecks import check_imitation_loss
from l2okit.imitation import (il_epoch, imitation_loss_and_grads,
                              self_improving_epoch, si_probs, teacher_trajectory)
from l2okit.metatrain import MetaAdam, train_epoch
from l2okit.model import TENSOR_NAMES, init_l2o, zero_state
from l2okit.optimizees import OptimizeeSpec, sample_instance
from l2okit.seeding import rng_for
from l2okit.teachers import TeacherKind, default_ensemble

QUAD = OptimizeeSpec(family="quadratic", dim=3)


def test_sgd_teacher_trajectory_hand_values():
    # f(theta) = (2 theta - 4)^2, so g = 8 theta - 16; from theta = 0 with
    # lr 0.01: update_0 = 0.16, theta_1 = 0.16, update_1 = 0.1472
    inst = fixture_quadratic()
    steps, _ = teacher_trajectory(TeacherKind("sgd", lr=0.01), inst,
                                  np.array([0.0]), inst.batches(0), 2)
    np.testing.assert_allclose(steps[0][1], [0.16], atol=1e-14)
    np.testing.assert_allclose(steps[1][1], [0.1472], atol=1e-14)


def test_teacher_trajectory_is_off_policy():
    # the replayed trajectory depends only on the instance and teacher,
    # never on phi, so two separate draws are bitwise identical
    inst = sample_instance(QUAD, 5)
    theta0 = inst.init_params(1)
    a, _ = teacher_trajectory(TeacherKind("adam", lr=0.01), inst, theta0,
                              inst.batches(9), 6)
    b, _ = teacher_trajectory(TeacherKind("adam", lr=0.01), inst, theta0,
                              inst.batches(9), 6)
    for (ga, ua), (gb, ub) in zip(a, b):
        assert np.array_equal(ga, gb)
        assert np.array_equal(ua, ub)


def test_imitation_loss_single_step_value():
    # zero-initialized phi emits zero updates, so the loss is just the
    # squared norm of the teacher update: 0.2^2 = 0.04
    phi = init_l2o(0, hidden=6)
    steps = [(np.array([1.0]), np.array([0.2]))]
    loss, grads, _ = imitation_loss_and_grads(phi, steps, zero_state(1, phi.hidden))
    assert loss == pytest.approx(0.04, abs=1e-15)
    for name in TENSOR_NAMES:
        assert getattr(grads, name).shape == getattr(phi, name).shape


def test_imitation_loss_zero_at_minimizer():
    # at the minimizer the gradient vanishes, the SGD teacher emits zero
    # updates, and the zero-initialized phi matches them exactly
    inst = fixture_quadratic()
    steps, _ = teacher_trajectory(TeacherKind("sgd", lr=0.01), inst,
                                  inst.minimizer(), inst.batches(0), 3)
    phi = init_l2o(0, hidden=6)
    loss, _, _ = imitation_loss_and_grads(phi, steps, zero_state(1, phi.hidden))
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_imitation_gradient_fd():
    assert check_imitation_loss() < 1e-4


def test_r_zero_is_bitwise_vanilla():
    phi_il = rand_phi(1)
    inst = sample_instance(QUAD, 2)
    body = partial(il_epoch, adam=MetaAdam(lr=1e-3), segment=4, inst=inst, seed=11,
                   r=0.0, teachers=default_ensemble(), events=[])
    train_fixed(phi_il, body, 8, range(5), [])

    phi_plain = rand_phi(1)
    inst2 = sample_instance(QUAD, 2)
    adam = MetaAdam(lr=1e-3)
    for epoch in range(5):
        train_epoch(phi_plain, epoch, 8, adam=adam, segment=4, inst=inst2, seed=11,
                    events=[])

    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(phi_il, name), getattr(phi_plain, name))


def test_r_one_runs_only_imitation():
    log = []
    body = partial(il_epoch, adam=MetaAdam(lr=1e-3), segment=6,
                   inst=sample_instance(QUAD, 3), seed=12, r=1.0,
                   teachers=default_ensemble(), events=[])
    train_fixed(rand_phi(2), body, 6, range(4), log)
    assert all(kind.startswith("IL:") for _, kind, _, _ in log)


def test_episode_kind_matches_seeded_draws():
    log = []
    body = partial(il_epoch, adam=MetaAdam(lr=1e-3), segment=4,
                   inst=sample_instance(QUAD, 4), seed=13, r=0.3,
                   teachers=default_ensemble(), events=[])
    train_fixed(rand_phi(3), body, 4, range(30), log)
    for epoch, kind, _, _ in log:
        expected_il = rng_for(13, "il-u", epoch).random() < 0.3
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
    events = []
    phi = rand_phi(4)
    # an absurd teacher lr blows up the quadratic immediately
    kind, loss = il_epoch(phi, 0, 4, adam=MetaAdam(), segment=4,
                          inst=sample_instance(QUAD, 5), seed=14, r=1.0,
                          teachers=(TeacherKind("sgd", lr=1e160),), events=events)
    assert kind == "IL:sgd"
    assert np.isnan(loss)
    assert events and events[0][0] == "teacher-divergence"


def test_imitation_segment_that_overflows_skips_update_and_records_event():
    # over one step the teacher's only loss is finite, but its update of
    # about 1e160 overflows the squared error: the segment diverges
    events, adam = [], MetaAdam()
    phi = rand_phi(8)
    before = {n: getattr(phi, n).tobytes() for n in TENSOR_NAMES}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kind, loss = il_epoch(phi, 0, 1, adam=adam, segment=1,
                              inst=sample_instance(QUAD, 9), seed=19, r=1.0,
                              teachers=(TeacherKind("sgd", lr=1e160),),
                              events=events)
    assert events == [("divergence", 0, 0)]
    assert kind == "IL:sgd" and loss == 0.0
    assert adam.t == 0
    assert {n: getattr(phi, n).tobytes() for n in TENSOR_NAMES} == before


def test_si_probs_are_a_simplex():
    for epoch in (0, 1, 37, 99, 100, 250):
        p = si_probs(epoch, 3, 100, None)
        assert p.shape == (4,)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_si_default_start_is_uniform():
    p = si_probs(0, 3, 100, None)
    np.testing.assert_allclose(p, 0.25)


@pytest.mark.parametrize("settings, match", [
    ({"anneal_epochs": 0}, "anneal_epochs must be >= 1"),
    ({"si_start_prob": -0.1}, "si_start_prob must be in"),
    ({"si_start_prob": 0.34}, "si_start_prob must be in"),   # 3 * 0.34 > 1
], ids=["anneal-epochs-0", "negative-start", "start-above-1/3"])
def test_si_schedule_rejects_settings_that_break_probs(settings, match):
    # RunConfig.validate checks the settings si_probs relies on
    with pytest.raises(ConfigError, match=match):
        build_config({"mode": "self-improving", **settings})
    # the largest valid start gives the teachers all the mass at epoch 0
    assert build_config({"mode": "self-improving",
                         "si_start_prob": 1 / 3}).si_start_prob == 1 / 3
    np.testing.assert_allclose(si_probs(0, 3, 100, 1 / 3),
                               [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_si_anneal_hand_values():
    p = si_probs(50, 3, 100, 0.33)
    assert p[1] == pytest.approx(0.165)
    assert p[0] == pytest.approx(0.505)
    np.testing.assert_allclose(si_probs(100, 3, 100, 0.33), [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(si_probs(400, 3, 100, 0.33), [1.0, 0.0, 0.0, 0.0])


# the self-improving settings of a run with the default teachers, 100
# annealing epochs and the default start
SI_100 = {"teachers": default_ensemble(), "anneal_epochs": 100, "start_prob": None}


def test_si_pure_l2o_phase_is_bitwise_vanilla():
    # past the annealing endpoint every step is the learned optimizer's,
    # so the epoch must match plain meta-training exactly
    phi_si = rand_phi(5)
    _, loss_si = self_improving_epoch(phi_si, 150, 8, **SI_100,
                                      adam=MetaAdam(lr=1e-3), segment=4,
                                      inst=sample_instance(QUAD, 6), seed=15,
                                      events=[])

    phi_plain = rand_phi(5)
    _, loss_plain = train_epoch(phi_plain, 150, 8, adam=MetaAdam(lr=1e-3), segment=4,
                                inst=sample_instance(QUAD, 6), seed=15, events=[])

    assert loss_si == loss_plain
    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(phi_si, name), getattr(phi_plain, name))


def test_si_mixed_phase_differs_from_vanilla():
    phi_si = rand_phi(6)
    self_improving_epoch(phi_si, 0, 8, **{**SI_100, "start_prob": 0.33},
                         adam=MetaAdam(lr=1e-3), segment=4,
                         inst=sample_instance(QUAD, 7), seed=16, events=[])
    phi_plain = rand_phi(6)
    train_epoch(phi_plain, 0, 8, adam=MetaAdam(lr=1e-3), segment=4,
                inst=sample_instance(QUAD, 7), seed=16, events=[])
    assert any(not np.array_equal(getattr(phi_si, n), getattr(phi_plain, n))
               for n in TENSOR_NAMES)


def test_si_epoch_deterministic():
    def run():
        phi = rand_phi(7)
        self_improving_epoch(phi, 3, 8, **SI_100, adam=MetaAdam(lr=1e-3), segment=4,
                             inst=sample_instance(QUAD, 8), seed=18, events=[])
        return phi

    a, b = run(), run()
    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(a, name), getattr(b, name))
