import itertools
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import refchain as rc
from helpers import rand_phi, valid_instances
from l2okit import autodiff as ad
from l2okit import evaluation, metatrain
from l2okit.config import RunConfig
from l2okit.evaluation import EvalConfig, run_eval
from l2okit.gradchecks import check_meta_loss
from l2okit.imitation import imitation_loss_and_grads, teacher_trajectory
from l2okit.metatrain import (MetaAdam, rollout, segment_loss_and_grads,
                              stepper, train_epoch, validate)
from l2okit.model import TENSOR_NAMES, L2OParams, init_l2o, zero_state
from l2okit.optimizees import (Batch, OptimizeeSpec, QuadraticInstance, instance_dim,
                               sample_instance)
from l2okit.teachers import TeacherKind, adam_update

QUAD = OptimizeeSpec(family="quadratic", dim=3)


def quad_instance(seed=0):
    return sample_instance(QUAD, seed)


def test_identity_policy_rollout_is_constant():
    # a freshly initialized optimizer has a zero output projection
    phi = init_l2o(0, hidden=6)
    inst = quad_instance(1)
    theta0 = inst.init_params(2)
    step, updates = stepper(phi, inst.dim), []

    def recorded_step(g):
        updates.append(step(g))
        return updates[-1]

    [(losses, _)] = rollout(recorded_step, [(inst, theta0, inst.batches(0))], 10)
    assert len(losses) == len(updates) == 10
    assert all(v == losses[0] for v in losses)
    assert all(np.all(u == 0) for u in updates)


def test_rollout_records_analytic_gradient():
    inst = QuadraticInstance(OptimizeeSpec(family="quadratic", dim=2),
                             np.eye(2), np.zeros(2))
    theta0 = np.array([1.0, -2.0])
    seen = []
    rollout(lambda g: seen.append(g) or np.zeros_like(g), [(inst, theta0, inst.batches(0))],
            1)
    # f = ||theta||^2 / 2, so the step function is handed g = theta
    np.testing.assert_allclose(seen[0], theta0, atol=1e-12)


def test_rollout_rejects_bad_horizon():
    inst = quad_instance()
    with pytest.raises(ValueError):
        rollout(lambda g: -g, [(inst, np.zeros(3), inst.batches(0))], 0)


def test_rollout_divergence_is_data():
    inst = quad_instance(3)
    [(losses, diverged_at)] = rollout(stepper(init_l2o(0, hidden=4), inst.dim),
                                      [(inst, np.full(3, np.inf), inst.batches(0))], 5)
    assert diverged_at == 0
    assert losses == []


def test_rollout_memory_does_not_grow_with_dimension_times_steps():
    # 2,000 kept (g, update) pairs at dim 1,002 would take 32 MB; a
    # rollout keeps one loss per step
    dim, n = 1002, 2000
    inst = sample_instance(OptimizeeSpec(family="quadratic", dim=dim, n_rows=4), 0)
    theta0 = inst.init_params(1)
    tracemalloc.start()
    try:
        [(losses, diverged_at)] = rollout(lambda g: -1e-3 * g,
                                          [(inst, theta0, inst.batches(0))], n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(losses) == n and diverged_at is None
    assert peak < 2 * n * dim * 8 / 16


# runs of four dimensions, one of them a tiny_mlp, for one stack
STACK_SPECS = (OptimizeeSpec(family="quadratic", dim=3),
               OptimizeeSpec(family="quadratic", dim=7),
               OptimizeeSpec(family="quadratic", dim=42),
               OptimizeeSpec(family="tiny_mlp", hidden=4, n_points=32, batch_size=8))
STACK_OPTIMIZERS = {"l2o": rand_phi(5), **{kind: TeacherKind(kind, lr=0.01) for kind in
                                           ("sgd", "adam", "adagrad", "rmsprop")}}


def poisoned(batches, t):
    """batches, with non-finite targets from step t on."""
    for step, batch in enumerate(batches):
        yield batch if step < t else Batch(batch.x, np.full_like(batch.y, np.inf))


def stack_runs(diverges_at):
    """A fresh (inst, theta0, batches) per STACK_SPECS entry; the second
    run's loss turns non-finite at step diverges_at, unless it is None."""
    runs = []
    for k, spec in enumerate(STACK_SPECS):
        inst = sample_instance(spec, k)
        theta0, batches = inst.start(k, "eval")
        if k == 1 and diverges_at is not None:
            batches = poisoned(batches, diverges_at)
        runs.append((inst, theta0, batches))
    return runs


@pytest.mark.parametrize("diverges_at", [None, 9])
@pytest.mark.parametrize("name", STACK_OPTIMIZERS)
def test_stacked_runs_step_as_each_would_alone_bitwise(name, diverges_at):
    # one stepper call over the coordinates of all runs still in; a run
    # that diverges leaves the stack, and the runs after it move up
    optimizer, n = STACK_OPTIMIZERS[name], 25
    runs = stack_runs(diverges_at)
    stacked = rollout(stepper(optimizer, sum(inst.dim for inst, _, _ in runs)), runs, n)
    alone = [rollout(stepper(optimizer, run[0].dim), [run], n)[0]
             for run in stack_runs(diverges_at)]
    assert [at for _, at in stacked] == [None, diverges_at, None, None]
    assert all(len(losses) == n for losses, at in stacked if at is None)
    assert repr(stacked) == repr(alone)


def test_stacked_sgd_run_that_diverges_leaves_the_others_as_they_were():
    # one row makes SGD's stable step size differ across seeds: at lr 0.1
    # the third run diverges mid-rollout, the others converge
    spec, n = OptimizeeSpec(family="quadratic", dim=10, n_rows=1), 600
    sgd = TeacherKind("sgd", lr=0.1)

    def runs():
        insts = [sample_instance(spec, s) for s in range(4)]
        return [(inst, *inst.start(s, "eval")) for s, inst in enumerate(insts)]

    stacked = rollout(stepper(sgd, 4 * spec.dim), runs(), n)
    alone = [rollout(stepper(sgd, spec.dim), [run], n)[0] for run in runs()]
    assert [at for _, at in stacked] == [None, None, 484, None]
    assert repr(stacked) == repr(alone)


def test_groups_of_wide_runs_hold_one_run_at_a_time(monkeypatch):
    # a run of POOL_MIN_DIM coordinates or more is a group of its own, so
    # on one thread validate and run_eval step one run's state at a time
    monkeypatch.setattr(metatrain, "usable_cpus", lambda: 1)
    spec = OptimizeeSpec(family="quadratic", dim=2000, n_rows=2)
    phi, instances = init_l2o(0), valid_instances(spec, 0, 5)

    def peak(fn):
        fn()  # warm up
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def evaluate(seeds):
        return lambda: run_eval(phi, EvalConfig(optimizee=spec, n_eval=5, seeds=seeds))

    one = peak(lambda: validate(phi, 4, instances[:1], 0))
    assert peak(lambda: validate(phi, 4, instances, 0)) <= 1.5 * one
    one = peak(evaluate((0,)))
    assert peak(evaluate(tuple(range(5)))) <= 1.5 * one


def test_validate_bits_do_not_depend_on_groups_or_threads(monkeypatch):
    # six dim-100 instances step as one stack in the calling thread; with
    # POOL_MIN_DIM at 1 they are six groups of one, run on one thread and
    # on three
    phi = rand_phi(4)
    instances = valid_instances(OptimizeeSpec(family="quadratic", dim=100), 4, 6)
    values = []
    for cpus, min_dim in ((1, 200), (3, 200), (1, 1), (3, 1)):
        monkeypatch.setattr(metatrain, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(metatrain, "POOL_MIN_DIM", min_dim)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the threads as often as possible
        try:
            values.append(validate(phi, 30, instances, 4))
        finally:
            sys.setswitchinterval(interval)
    assert len({v.hex() for v in values}) == 1


TINY_MLP = OptimizeeSpec(family="tiny_mlp")


def test_narrow_runs_step_as_one_stack_in_the_calling_thread(monkeypatch):
    # below POOL_MIN_DIM no thread pays for itself, however many CPUs
    monkeypatch.setattr(metatrain, "usable_cpus", lambda: 3)
    assert instance_dim(TINY_MLP) == 42
    groups = []

    def recorded_eval_group(optimizer, cfg, seeds):
        groups.append((seeds, threading.current_thread()))
        return eval_group(optimizer, cfg, seeds)

    def recorded_rollout(step_fn, runs, n):
        groups.append((len(runs), threading.current_thread()))
        return rollout(step_fn, runs, n)

    eval_group = evaluation.eval_group
    monkeypatch.setattr(evaluation, "eval_group", recorded_eval_group)
    run_eval(init_l2o(0), EvalConfig(optimizee=TINY_MLP, n_eval=5, seeds=tuple(range(10))))
    assert groups == [(list(range(10)), threading.main_thread())]
    groups.clear()
    monkeypatch.setattr(metatrain, "rollout", recorded_rollout)
    validate(init_l2o(0), 4, valid_instances(TINY_MLP, 0, 6), 0)
    assert groups == [(6, threading.main_thread())]


def test_one_wide_item_makes_every_item_a_group_of_its_own(monkeypatch):
    monkeypatch.setattr(metatrain, "usable_cpus", lambda: 3)
    groups = []

    def fn(group):
        groups.append(group)
        time.sleep(0.01 * (5 - group[0]))   # the first items finish last
        return [10 * item for item in group]

    items, wide = [0, 1, 2, 3, 4], metatrain.POOL_MIN_DIM
    assert metatrain.in_groups(fn, items, [42, 42, wide, 42, 1]) == [0, 10, 20, 30, 40]
    assert sorted(groups) == [[item] for item in items]
    groups.clear()
    assert metatrain.in_groups(fn, items, [42, 42, wide - 1, 42, 1]) == [0, 10, 20, 30, 40]
    assert groups == [items]


def test_validate_is_the_mean_over_rollouts_of_n_valid_plus_one_steps():
    # validate scores sum_{t=1..N} f(theta_t): the losses of steps 1..N
    # of an (N + 1)-step rollout from each validation instance's start
    phi = rand_phi(4)
    instances = valid_instances(QUAD, 4, 3)
    n_valid, scores = 5, []
    for i, inst in enumerate(instances):
        theta0, batches = inst.start(4, "valid", i)
        [(losses, diverged_at)] = rollout(stepper(phi, inst.dim),
                                          [(inst, theta0, batches)], n_valid + 1)
        assert diverged_at is None and len(losses) == n_valid + 1
        scores.append(sum(losses[1:]))
    assert validate(phi, n_valid, instances, 4) == pytest.approx(np.mean(scores),
                                                                 rel=1e-12)
    # identity policy keeps theta fixed, so the final loss matches step 0
    inst = quad_instance(4)
    [(losses, _)] = rollout(stepper(init_l2o(0, hidden=4), inst.dim),
                            [(inst, inst.init_params(0), inst.batches(0))], 4)
    assert losses[-1] == pytest.approx(losses[0])


def test_epoch_memory_is_bounded_by_the_segment_not_the_horizon():
    # each segment's tape is freed before the next is built, so one
    # paper-profile tiny_mlp epoch peaks the same at horizons 100 and 1,000
    cfg = RunConfig(profile="paper")
    peaks = {}
    for horizon in (100, 1000):
        phi = init_l2o(0, hidden=cfg.hidden, out_scale=cfg.out_scale)
        inst = sample_instance(cfg.optimizee_spec(), 1)
        tracemalloc.start()
        try:
            _, loss = train_epoch(phi, 0, horizon, adam=MetaAdam(), segment=20,
                                  inst=inst, seed=0, events=[])
            _, peaks[horizon] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss) and loss > 0
    assert peaks[1000] <= 1.5 * peaks[100]


@pytest.mark.parametrize("loss", ["meta", "imitation"])
def test_segment_memory_peaks_at_its_forward_tape(monkeypatch, loss):
    # backward drops each step's record, and the gates it holds, as soon
    # as it has run, so a 20-step segment at dim 1,002 peaks within 15% of
    # the tape it has built when backward starts; keeping every record
    # alive until the tape is dropped nearly doubles it
    inst = sample_instance(OptimizeeSpec(family="tiny_mlp", hidden=200), 1)
    phi = init_l2o(0, hidden=20)
    phi.w_out[:] = 0.01
    theta, batches = inst.init_params(2), inst.batches(0)
    steps, _ = teacher_trajectory(TeacherKind("adam", lr=0.01), inst, theta,
                                  batches, 20)
    at_entry = []
    plain = ad.backward

    def traced(tape, phi):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return plain(tape, phi)

    monkeypatch.setattr(ad, "backward", traced)
    state = zero_state(inst.dim, phi.hidden)
    tracemalloc.start()
    try:
        if loss == "meta":
            out = segment_loss_and_grads(phi, inst, theta, state, batches, 20)
            assert not out[-1]
        else:
            out = imitation_loss_and_grads(phi, steps, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(out[0]) and len(at_entry) == 1
    assert peak < 1.15 * at_entry[0]


def test_meta_loss_value_identity_policy():
    # zero updates keep theta at theta0, so the single-segment meta-loss
    # is horizon * f(theta0)
    phi = init_l2o(5, hidden=6)
    inst = quad_instance(6)
    theta0 = inst.init_params(1)
    f0, _ = inst.loss_and_grad(theta0, next(inst.batches(0)))
    inst.init_params = lambda seed: theta0
    _, total = train_epoch(phi, 0, 6, adam=MetaAdam(lr=1e-3), segment=6, inst=inst,
                           seed=0, events=[])
    assert total == pytest.approx(6 * f0, rel=1e-12)


def test_meta_gradient_fd_horizon_1():
    assert check_meta_loss(horizon=1) < 1e-4


def test_meta_gradient_fd_horizon_5():
    assert check_meta_loss(horizon=5) < 1e-4


def test_every_step_draws_exactly_one_batch(monkeypatch):
    # a batch drawn past a segment's last step would shift the batches of
    # every later segment of the epoch
    phi = rand_phi(3)
    inst = quad_instance(2)
    theta0, state = inst.init_params(1), zero_state(inst.dim, phi.hidden)
    drawn = []
    plain = inst.batches

    def counted(seed):
        for batch in plain(seed):
            drawn.append(batch)
            yield batch

    rollout(stepper(phi, inst.dim), [(inst, theta0, counted(0))], 4)
    assert len(drawn) == 4
    segment_loss_and_grads(phi, inst, theta0, state, counted(0), 3)
    assert len(drawn) == 4 + 3
    monkeypatch.setattr(inst, "batches", counted)
    train_epoch(phi, 0, 6, adam=MetaAdam(), segment=4, inst=inst, seed=0, events=[])
    assert len(drawn) == 4 + 3 + 6


def test_segments_are_truncated(monkeypatch):
    # scaling segment 1's loss nodes must not change segment 2's
    # gradients, because neither theta nor the LSTM state carries
    # gradient across the boundary
    phi = rand_phi(7)
    inst = quad_instance(8)
    theta0 = inst.init_params(2)
    loss_on_tape = inst.loss_on_tape

    def run(seg1_scale):
        monkeypatch.setattr(inst, "loss_on_tape",
                            rc.scaled_loss_on_tape(loss_on_tape, seg1_scale))
        state = zero_state(inst.dim, phi.hidden)
        batches = inst.batches(0)
        loss1, _, theta, state, _ = segment_loss_and_grads(
            phi, inst, theta0, state, batches, 4)
        monkeypatch.setattr(inst, "loss_on_tape", loss_on_tape)
        _, grads2, _, _, _ = segment_loss_and_grads(
            phi, inst, theta, state, batches, 4)
        return loss1, grads2

    loss_a, g_a = run(1.0)
    loss_b, g_b = run(3.0)
    assert loss_b == pytest.approx(3.0 * loss_a, rel=1e-12)
    for name in TENSOR_NAMES:
        assert np.array_equal(getattr(g_a, name), getattr(g_b, name))


def overriding(steps, dim):
    """A step_override that takes over the given steps of a segment with a
    fresh adam teacher, and leaves the others to the L2O."""
    teacher = stepper(TeacherKind("adam", lr=0.05), dim)
    step = itertools.count()
    return lambda g: teacher(g) if next(step) in steps else None


@pytest.mark.parametrize("overridden", [(0, 2, 5), (1, 3, 4), tuple(range(6))])
def test_overridden_steps_match_the_reference_segment_bitwise(overridden):
    # teacher updates enter as constants: the reverse loop skips their
    # steps, and every loss before the first L2O step, whose theta and
    # state do not depend on phi
    phi = rand_phi(11, hidden=5)
    inst = sample_instance(OptimizeeSpec(family="tiny_mlp", hidden=4, n_points=32,
                                         batch_size=8), 3)
    theta0 = inst.init_params(4)
    rng = np.random.default_rng(11)
    state = rc.join_state(*(rng.normal(0, 0.5, (inst.dim, phi.hidden)) for _ in range(4)))
    runs = []
    for segment in (segment_loss_and_grads, rc.segment):
        runs.append(segment(phi, inst, theta0, state, inst.batches(5), 6,
                            step_override=overriding(overridden, inst.dim)))
    (loss, grads, theta, st, diverged), ref = runs
    assert not diverged and not ref[4]
    assert np.asarray(loss).tobytes() == np.asarray(ref[0]).tobytes()
    for name in TENSOR_NAMES:
        assert getattr(grads, name).shape == getattr(phi, name).shape
        assert getattr(grads, name).tobytes() == np.asarray(ref[1][name]).tobytes(), name
    assert theta.tobytes() == ref[2].tobytes()
    assert st.tobytes() == ref[3].tobytes()
    if len(overridden) == 6:
        # no step reaches phi, so every gradient is zeros and meta-Adam
        # still takes its step
        assert not np.any(grads.flat)
        adam = MetaAdam()
        stepped = phi.copy()
        adam.step(stepped, grads)
        assert adam.t == 1
        for name in TENSOR_NAMES:
            assert getattr(stepped, name).tobytes() == getattr(phi, name).tobytes()
    else:
        assert np.any(grads.wx1 != 0)


def test_meta_adam_first_step_magnitude():
    phi = rand_phi(9)
    before = phi.wx1.copy()
    adam = MetaAdam(lr=1e-3)
    grads = L2OParams(phi.hidden, phi.preprocess_p, phi.out_scale, np.ones_like(phi.flat))
    adam.step(phi, grads)
    # bias-corrected Adam moves every coordinate by about lr on step one
    np.testing.assert_allclose(before - phi.wx1, 1e-3, rtol=1e-4)


def test_meta_adam_steps_phi_flat_as_per_tensor_adam_would():
    # one adam_update over phi.flat gives the bits of one per tensor, the
    # moments starting at zeros; some gradients are +0.0 and -0.0
    phi = rand_phi(9, hidden=5)
    ref = {n: getattr(phi, n).copy() for n in TENSOR_NAMES}
    m = {n: np.zeros_like(arr) for n, arr in ref.items()}
    v = {n: np.zeros_like(arr) for n, arr in ref.items()}
    adam = MetaAdam(lr=1e-3)
    rng = np.random.default_rng(9)
    for t in (1, 2, 3):
        grads = L2OParams(phi.hidden, phi.preprocess_p, phi.out_scale,
                          rng.normal(0, 1, phi.flat.size))
        grads.flat[::7] = 0.0
        grads.flat[3::11] = -0.0
        adam.step(phi, grads)
        for n in TENSOR_NAMES:
            update, m[n], v[n] = adam_update(m[n], v[n], getattr(grads, n), t, 1e-3)
            ref[n] += update
        for n in TENSOR_NAMES:
            assert getattr(phi, n).tobytes() == ref[n].tobytes(), (t, n)
    assert adam.t == 3


def test_divergent_segment_skips_update_and_records_event():
    phi = rand_phi(11)
    before = {n: getattr(phi, n).copy() for n in TENSOR_NAMES}
    inst = quad_instance(12)
    inst.init_params = lambda seed: np.full(3, np.nan)
    events = []
    _, total = train_epoch(phi, 0, 4, adam=MetaAdam(), segment=2, inst=inst, seed=0,
                           events=events)
    assert total == 0.0
    assert events == [("divergence", 0, 0)]
    for n in TENSOR_NAMES:
        assert np.array_equal(before[n], getattr(phi, n))


def test_divergence_event_names_epoch_and_segment_start():
    # a huge external step at optimizee step 2 makes the second segment
    # of epoch 7 diverge; the first segment's update still applies
    phi = rand_phi(11)
    adam = MetaAdam()
    events = []

    calls = 0

    def override(g):
        nonlocal calls
        calls += 1
        return np.full_like(g, 1e300) if calls == 3 else None

    # the on-tape loss overflows to inf: that is the divergence under
    # test, recorded as an event and not raised or warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kind, total = train_epoch(phi, 7, 4, adam=adam, segment=2,
                                  inst=quad_instance(12), seed=5,
                                  events=events, step_override=override)
    assert events == [("divergence", 7, 2)]
    assert kind == "Lf" and np.isfinite(total) and total > 0
    assert adam.t == 1


def test_train_epoch_bitwise_deterministic():
    def run():
        phi = rand_phi(13)
        inst = quad_instance(14)
        adam = MetaAdam(lr=1e-3)
        losses = [train_epoch(phi, e, 8, adam=adam, segment=4, inst=inst, seed=99,
                              events=[])
                  for e in range(3)]
        return phi, losses

    phi_a, losses_a = run()
    phi_b, losses_b = run()
    assert losses_a == losses_b
    for n in TENSOR_NAMES:
        assert np.array_equal(getattr(phi_a, n), getattr(phi_b, n))


def test_train_epoch_varies_theta0_across_epochs():
    inst = quad_instance(15)
    from l2okit.seeding import derive_seed
    t0 = inst.init_params(derive_seed(0, "epoch-theta0", 0))
    t1 = inst.init_params(derive_seed(0, "epoch-theta0", 1))
    assert not np.array_equal(t0, t1)


def test_validate_deterministic_and_ordered():
    instances = valid_instances(QUAD, 7, 5)
    phi = init_l2o(0, hidden=6)
    a = validate(phi, 10, instances, 7)
    b = validate(phi, 10, instances, 7)
    assert a == b
    assert np.isfinite(a) and a > 0


def test_validate_penalty_on_divergence():
    instances = valid_instances(QUAD, 7, 2)
    for inst in instances:
        inst.init_params = lambda seed: np.full(3, np.inf)
    assert validate(init_l2o(0, hidden=4), 5, instances, 7, penalty=123.0) == 123.0


def test_validate_rejects_empty_set():
    with pytest.raises(ValueError):
        validate(init_l2o(0, hidden=4), 5, [], 0)


def test_short_training_run_improves_quadratic():
    phi = init_l2o(1, hidden=8)
    inst = quad_instance(16)
    adam = MetaAdam(lr=1e-3)
    instances = valid_instances(QUAD, 3, 5)
    before = validate(phi, 20, instances, 3)
    for epoch in range(40):
        _, loss = train_epoch(phi, epoch, 20, adam=adam, segment=20, inst=inst,
                              seed=3, events=[])
        assert np.isfinite(loss)
    after = validate(phi, 20, instances, 3)
    assert np.isfinite(after)
    assert after < before
