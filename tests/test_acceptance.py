"""End-to-end acceptance suite.

Each test prints a single `criterion N: PASS/FAIL (...)` line summarizing
the check it performed (run pytest with -s or inspect captured output).
The heavyweight directional experiment behind criteria 6 and 7 runs once
per session through a module-scoped fixture.
"""

import time
from functools import partial

import numpy as np
import pytest

from helpers import FakePhi, rand_phi, tagging_trainer
from l2okit.cli import main
from l2okit.config import build_config
from l2okit.curriculum import CurriculumConfig, curriculum_train
from l2okit.evaluation import EvalConfig, run_eval
from l2okit.experiments import FLAGSHIP_FLAGS, train, train_fixed
from l2okit.gradchecks import (check_imitation_loss, check_meta_loss)
from l2okit.imitation import (il_epoch, self_improving_epoch, si_probs,
                              teacher_trajectory)
from l2okit.metatrain import MetaAdam, train_epoch
from l2okit.model import TENSOR_NAMES, init_l2o, l2o_step_np, workspace, zero_state
from l2okit.optimizees import OptimizeeSpec, sample_instance
from l2okit.seeding import rng_for
from l2okit.teachers import TeacherKind, default_ensemble, init_state, teacher_step

QUAD = OptimizeeSpec(family="quadratic", dim=3)
TINY = OptimizeeSpec(family="tiny_mlp")


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


# -- criterion 1: gradient exactness ----------------------------------------

def test_criterion_1_gradient_exactness():
    t0 = time.time()
    e1 = check_meta_loss(horizon=1)
    e5 = check_meta_loss(horizon=5)
    ei = check_imitation_loss()
    elapsed = time.time() - t0
    worst = max(e1, e5, ei)
    report(1, worst < 1e-4 and elapsed < 30.0,
           f"meta N=1 {e1:.2e}, meta N=5 frozen {e5:.2e}, "
           f"imitation {ei:.2e}, {elapsed:.1f}s")


# -- criterion 2: analytical optimizer oracles -------------------------------

def test_criterion_2_optimizer_oracles():
    g = np.array([0.7, -1.3, 2.1])
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8

    m1 = (1 - b1) * g
    v1 = (1 - b2) * g * g
    adam_u1 = -lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
    m2 = b1 * m1 + (1 - b1) * g
    v2 = b2 * v1 + (1 - b2) * g * g
    adam_u2 = -lr * (m2 / (1 - b1 ** 2)) / (np.sqrt(v2 / (1 - b2 ** 2)) + eps)

    u1, st = teacher_step(TeacherKind("adam", lr=lr), init_state(3), g)
    u2, _ = teacher_step(TeacherKind("adam", lr=lr), st, g)
    err = max(np.abs(u1 - adam_u1).max(), np.abs(u2 - adam_u2).max())

    u1, st = teacher_step(TeacherKind("sgd", lr=lr), init_state(3), g)
    u2, _ = teacher_step(TeacherKind("sgd", lr=lr), st, g)
    err = max(err, np.abs(u1 + lr * g).max(), np.abs(u2 + lr * g).max())

    aeps = 1e-10
    ada_u1 = -lr * g / np.sqrt(g * g + aeps)
    ada_u2 = -lr * g / np.sqrt(2 * g * g + aeps)
    u1, st = teacher_step(TeacherKind("adagrad", lr=lr), init_state(3), g)
    u2, _ = teacher_step(TeacherKind("adagrad", lr=lr), st, g)
    err = max(err, np.abs(u1 - ada_u1).max(), np.abs(u2 - ada_u2).max())

    rng = np.random.default_rng(0)
    state = init_state(4)
    monotone = True
    prev = state.acc.copy()
    for _ in range(1000):
        _, state = teacher_step(TeacherKind("adagrad", lr=lr), state,
                                rng.normal(size=4))
        monotone &= bool(np.all(state.acc >= prev))
        prev = state.acc.copy()

    report(2, err < 1e-12 and monotone,
           f"two-step closed-form error {err:.2e}, accumulator monotone {monotone}")


# -- criterion 3: scheduler trace oracle --------------------------------------

def _run_scripted(script):
    it = iter(script)
    cc = CurriculumConfig(ladder=(10, 20, 40), n_period=3, t_period=25)
    return curriculum_train(FakePhi(), cc, tagging_trainer,
                            lambda phi, n_valid: next(it))


def test_criterion_3_scheduler_trace_oracle():
    t0 = time.time()

    # A: improvement stops in stage 1 -> stop, best snapshot from stage 0
    res = _run_scripted([5.0, 4.0, 3.5, 3.8, 6.0, 6.5, 7.0, 6.8])
    ok_a = ([r.kind for r in res.trace] ==
            ["period"] * 4 + ["rebaseline"] + ["period"] * 3 + ["stop"]
            and res.stopped_by == "stop" and res.best_stage == 0
            and res.best_phi.tag == 50 and res.total_epochs == 175)

    # B: every stage improves at least once -> ladder exhaustion
    res = _run_scripted([5.0, 4.0, 3.9, 4.1,
                         6.0, 5.5, 5.7, 5.8,
                         7.0, 6.5, 6.9, 7.1])
    kinds = [r.kind for r in res.trace]
    ok_b = (kinds == ["period"] * 4 + ["rebaseline"] + ["period"] * 3
            + ["rebaseline"] + ["period"] * 3 + ["exhausted"]
            and res.stopped_by == "exhausted" and res.best_stage == 2)
    # stage 1's floor must come from the rebaselined 6.0, not stage 0's 4.0
    stage1 = [r for r in res.trace if r.kind == "period" and r.stage == 1]
    ok_b = ok_b and stage1[0].improved and stage1[0].l_min == 5.5

    # C: minimum-periods guard, then a stage with zero improvement
    res = _run_scripted([5.0, 5.5, 5.2, 6.0, 6.1, 6.2, 6.3])
    stage0 = [r for r in res.trace if r.kind == "period" and r.stage == 0]
    ok_c = (len(stage0) == 3 and res.stopped_by == "stop"
            and res.best_phi.tag == 0)

    elapsed = time.time() - t0
    report(3, ok_a and ok_b and ok_c and elapsed < 1.0,
           f"traces A={ok_a} B={ok_b} C={ok_c}, {elapsed:.2f}s")


# -- criterion 4: imitation episode statistics --------------------------------

def test_criterion_4_episode_statistics():
    master = 17
    flags = np.array([rng_for(master, "il-u", e).random() < 0.3
                      for e in range(10_000)])
    frac = float(flags.mean())

    phi_il = rand_phi(1)
    body = partial(il_epoch, adam=MetaAdam(lr=1e-3), segment=4,
                   inst=sample_instance(QUAD, 2), seed=11, r=0.0,
                   teachers=default_ensemble(), events=[])
    train_fixed(phi_il, body, 8, range(5), [])
    phi_plain = rand_phi(1)
    adam = MetaAdam(lr=1e-3)
    inst = sample_instance(QUAD, 2)
    for epoch in range(5):
        train_epoch(phi_plain, epoch, 8, adam=adam, segment=4, inst=inst, seed=11,
                    events=[])
    identical = all(np.array_equal(getattr(phi_il, n), getattr(phi_plain, n))
                    for n in TENSOR_NAMES)

    report(4, 0.29 < frac < 0.31 and identical,
           f"teacher-episode fraction {frac:.4f}, r=0 byte-identical {identical}")


# -- criterion 5: self-improving schedule -------------------------------------

def test_criterion_5_self_improving_schedule():
    teachers = default_ensemble()

    def probs(epoch):
        return si_probs(epoch, len(teachers), 100, None)

    sums_ok = all(abs(probs(e).sum() - 1.0) < 1e-12 and
                  np.all(probs(e) >= 0) for e in range(0, 301))
    endpoint = probs(100)[0] == 1.0 and np.all(probs(100)[1:] == 0.0)

    phi_si = rand_phi(5)
    self_improving_epoch(phi_si, 150, 8, adam=MetaAdam(lr=1e-3), segment=4,
                         inst=sample_instance(QUAD, 6), seed=15, teachers=teachers,
                         anneal_epochs=100, start_prob=None, events=[])
    phi_plain = rand_phi(5)
    train_epoch(phi_plain, 150, 8, adam=MetaAdam(lr=1e-3), segment=4,
                inst=sample_instance(QUAD, 6), seed=15, events=[])
    identical = all(np.array_equal(getattr(phi_si, n), getattr(phi_plain, n))
                    for n in TENSOR_NAMES)

    report(5, sums_ok and endpoint and identical,
           f"simplex {sums_ok}, endpoint p0=1 {endpoint}, "
           f"p0=1 byte-identical {identical}")


# -- criteria 6 and 7: directional experiment ---------------------------------

EXP_SEED = 6
AUG_ITERATIONS = 500 * 100  # augmented-horizon baseline: epochs x horizon


@pytest.fixture(scope="module")
def directional_experiment():
    t0 = time.time()
    vanilla = train(build_config(flag_values={"mode": "vanilla", "seed": EXP_SEED}))
    cl_il = train(build_config(flag_values={"mode": "cl-il", **FLAGSHIP_FLAGS,
                                            "seed": EXP_SEED}))

    ec = EvalConfig(optimizee=TINY, n_eval=500, seeds=tuple(range(10)),
                    log_every=10)
    return {"result": cl_il.curriculum, "vanilla": run_eval(vanilla.phi, ec),
            "cl_il": run_eval(cl_il.phi, ec), "elapsed": time.time() - t0}


def test_criterion_6_directional_reproduction(directional_experiment):
    exp = directional_experiment
    rv, rc = exp["vanilla"], exp["cl_il"]
    wins = rc.paired_wins(rv)
    median_ok = rc.final_median < rv.final_median
    div_ok = rc.divergence_rate <= rv.divergence_rate
    ok = median_ok and div_ok and wins >= 7 and exp["elapsed"] < 900
    report(6, ok,
           f"median cl-il {rc.final_median:.4f} vs vanilla {rv.final_median:.4f}, "
           f"divergence {rc.divergence_rate:.2f} vs {rv.divergence_rate:.2f}, "
           f"paired wins {wins}/10, {exp['elapsed']:.0f}s")


def test_criterion_7_curriculum_cost(directional_experiment):
    result = directional_experiment["result"]
    iters = result.train_iterations
    ratio = iters / AUG_ITERATIONS
    report(7, ratio < 1.0 / 3.0,
           f"curriculum used {iters} optimizee steps vs augmented baseline "
           f"{AUG_ITERATIONS}, measured ratio {ratio:.3f}, "
           f"stopped by {result.stopped_by}")


# -- criterion 8: bitwise permutation equivariance ----------------------------

def test_criterion_8_permutation_equivariance():
    failures = 0
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        phi = init_l2o(trial % 23)
        phi.w_out[:] = rng.normal(0, 0.5, phi.hidden)
        phi.b_out[...] = rng.normal()
        d = int(rng.integers(2, 12))
        g = rng.normal(size=d)
        perm = rng.permutation(d)
        state = zero_state(d, phi.hidden)
        for arr in (*state[0], *state[1]):
            arr[:] = rng.normal(size=arr.shape)
        # permuted before the in-place step overwrites state
        pstate = state[..., perm].copy()
        work = workspace(d, phi.hidden)
        u = l2o_step_np(phi, state, g, work)
        pu = l2o_step_np(phi, pstate, g[perm], work)
        if not np.array_equal(pu, u[perm]):
            failures += 1
    report(8, failures == 0, f"{failures}/1000 triples not bitwise equal")


# -- criterion 9: training determinism ----------------------------------------

def test_criterion_9_train_determinism(tmp_path):
    out = tmp_path / "run"
    args = ["train", "--mode", "cl-il", "--family", "quadratic",
            "--ladder", "4,8", "--n-period", "1", "--t-period", "2",
            "--epochs", "30", "--seed", "3", "--out", str(out)]
    names = ("checkpoint.l2o", "epochs.csv", "trace.csv", "config.txt",
             "manifest.json")
    assert main(args) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert main(args) == 0
    same = all((out / name).read_bytes() == first[name] for name in names)
    report(9, same, "repeated train run artifacts byte-identical: "
           f"{same}")


# -- criterion 10: teacher off-policy invariance -------------------------------

def test_criterion_10_off_policy_invariance():
    kinds = default_ensemble(lr=0.01)
    same = True
    for kind in kinds:
        trajs = []
        for phi_seed in (101, 202):
            _ = rand_phi(phi_seed)  # learner parameters play no role
            inst = sample_instance(TINY, 9)
            theta0 = inst.init_params(4)
            trajs.append(teacher_trajectory(kind, inst, theta0, inst.batches(5),
                                            12)[0])
        for (ga, ua), (gb, ub) in zip(*trajs):
            same &= bool(np.array_equal(ga, gb))
            same &= bool(np.array_equal(ua, ub))
    report(10, same, f"teacher trajectories bitwise identical across "
           f"learner parameter draws: {same}")
