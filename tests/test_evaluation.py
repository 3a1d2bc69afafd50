import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from l2okit import evaluation, metatrain
from l2okit.evaluation import (COMPARE_COLUMNS, EvalConfig, EvalReport,
                               compare, run_eval, write_curves_csv,
                               write_summary_csv)
from l2okit.metatrain import stepper
from l2okit.model import init_l2o, load_checkpoint, save_checkpoint
from l2okit.optimizees import OptimizeeSpec, sample_instance
from l2okit.seeding import derive_seed
from l2okit.teachers import TeacherKind

QUAD = OptimizeeSpec(family="quadratic", dim=4)


def quad_cfg(**kw):
    args = dict(optimizee=QUAD, n_eval=30, seeds=(0, 1, 2), log_every=5)
    args.update(kw)
    return EvalConfig(**args)


def test_config_validation():
    with pytest.raises(ValueError):
        quad_cfg(n_eval=0)
    with pytest.raises(ValueError):
        quad_cfg(seeds=())
    with pytest.raises(ValueError):
        quad_cfg(seeds=(1, 1))
    with pytest.raises(ValueError):
        quad_cfg(log_every=0)


def test_stepper_rejects_unknown():
    with pytest.raises(TypeError):
        stepper(object(), 3)


def test_identity_policy_curves_are_constant():
    phi = init_l2o(0, hidden=6)
    report = run_eval(phi, quad_cfg())
    for seed in report.seeds:
        losses = [p[1] for p in report.curves[seed]]
        assert all(v == losses[0] for v in losses)
    assert report.divergence_rate == 0.0


def test_identity_policy_log_auc_closed_form():
    phi = init_l2o(0, hidden=6)
    cfg = quad_cfg()
    report = run_eval(phi, cfg)
    c = report.agg_mean[0]
    assert report.log_auc() == pytest.approx(math.log10(c) * (cfg.n_eval - 1),
                                             rel=1e-12)


@pytest.mark.parametrize("exposed", ["trapezoid", "trapz"])
def test_log_auc_trapezoid_fallback(monkeypatch, exposed):
    """numpy >= 2.0 has np.trapezoid (2.4 dropped np.trapz); numpy < 2.0
    has only np.trapz. log_auc must work, bit for bit, with either."""
    rule = getattr(np, "trapezoid", None) or np.trapz
    report = run_eval(TeacherKind("adam", lr=0.01), quad_cfg())
    y = np.log10(np.asarray(report.agg_mean))
    expected = float(rule(y, np.asarray(report.agg_steps, dtype=np.float64)))
    for name in ("trapezoid", "trapz"):
        monkeypatch.delattr(np, name, raising=False)
    monkeypatch.setattr(np, exposed, rule, raising=False)
    assert report.log_auc().hex() == expected.hex()


def test_sgd_eval_matches_manual_gradient_descent():
    kind = TeacherKind("sgd", lr=0.01)
    cfg = quad_cfg(seeds=(7,), n_eval=20, log_every=1,
                   optimizer_name="sgd")
    report = run_eval(kind, cfg)

    inst = sample_instance(QUAD, derive_seed(7, "eval-inst"))
    theta = inst.init_params(derive_seed(7, "eval-theta0"))
    batches = inst.batches(derive_seed(7, "eval-batches"))
    manual = []
    for _ in range(20):
        loss, g = inst.loss_and_grad(theta, next(batches))
        manual.append(loss)
        theta = theta - 0.01 * g
    got = [p[1] for p in report.curves[7]]
    np.testing.assert_allclose(got, manual, rtol=1e-10)


def test_forced_divergence_tracked_and_penalized():
    kind = TeacherKind("sgd", lr=1e160)
    report = run_eval(kind, quad_cfg(optimizer_name="sgd-big"))
    assert report.divergence_rate == 1.0
    assert math.isinf(report.final_median)
    assert all(math.isinf(v) for v in report.final_losses().values())
    assert all(d is not None for d in report.diverged_at.values())


def test_final_losses_pairing_includes_all_seeds():
    report = run_eval(init_l2o(0, hidden=4), quad_cfg())
    finals = report.final_losses()
    assert set(finals) == {0, 1, 2}
    assert all(math.isfinite(v) for v in finals.values())


def ended_at(finals):
    """A report whose seed s ends at final loss finals[s], or diverged at
    step 0 where that is None; only final_losses reads it."""
    return EvalReport(
        optimizer_name="x", optimizee=OptimizeeSpec(family="quadratic", dim=3),
        n_eval=1, log_every=1, seeds=tuple(finals),
        curves={s: [] if v is None else [(0, v)] for s, v in finals.items()},
        diverged_at={s: 0 if v is None else None for s, v in finals.items()},
        agg_steps=[], agg_mean=[], agg_std=[], final_median=0.0, final_mean=0.0,
        final_std=0.0, divergence_rate=0.0)


def test_paired_wins_a_seed_diverged_in_own_never_wins():
    own = ended_at({0: None, 1: None, 2: 1.0})
    assert own.paired_wins(ended_at({0: 5.0, 1: None, 2: 2.0})) == 1
    assert own.paired_wins(ended_at({0: math.inf, 1: 1e308, 2: 0.5})) == 0


def test_paired_wins_a_seed_diverged_in_ref_loses_to_any_finite_loss():
    ref = ended_at({0: None, 1: None})
    assert ended_at({0: 1e308, 1: -1.0}).paired_wins(ref) == 2
    assert ended_at({0: None, 1: math.inf}).paired_wins(ref) == 0


def test_paired_wins_a_tie_counts_for_neither_side():
    a, b = ended_at({0: 0.5, 1: 0.5, 2: 0.1}), ended_at({0: 0.5, 1: 0.7, 2: 0.1})
    assert a.paired_wins(b) == 1
    assert b.paired_wins(a) == 0


def test_paired_wins_rejects_reports_over_other_seeds():
    with pytest.raises(ValueError, match="seeds"):
        ended_at({0: 1.0, 1: 1.0}).paired_wins(ended_at({0: 1.0, 2: 1.0}))
    with pytest.raises(ValueError, match="seeds"):
        ended_at({0: 1.0}).paired_wins(ended_at({0: 1.0, 1: 1.0}))


def test_aggregate_recompute():
    report = run_eval(TeacherKind("adam", lr=0.01), quad_cfg(log_every=3))
    for i, t in enumerate(report.agg_steps):
        alive = [dict(report.curves[s])[t] for s in report.seeds
                 if report.diverged_at[s] is None or report.diverged_at[s] > t]
        assert report.agg_mean[i] == pytest.approx(np.mean(alive), rel=1e-12)
        assert report.agg_std[i] == pytest.approx(np.std(alive), abs=1e-12)


def test_aggregate_drops_a_seed_only_after_it_diverges(monkeypatch):
    # the three seeds step as one stack, whose stepper blows seed 0's
    # theta up at step 12, so seed 0 diverges at step 13; seeds 1 and 2
    # run plain SGD to the end
    sgd = TeacherKind("sgd", lr=0.01)

    def blows_up_seed_0_at_step_12():
        step, calls = stepper(sgd, 3 * QUAD.dim), []

        def run(g, keep=None):
            calls.append(g)
            update = step(g, keep)
            if len(calls) == 13:
                update[:QUAD.dim] = np.inf
            return update
        return run

    # run_eval's up-front check of the optimizer builds a stepper of
    # dimension 1; the group of three seeds takes the one above
    monkeypatch.setattr(evaluation, "stepper", lambda opt, dim: (
        blows_up_seed_0_at_step_12() if dim == 3 * QUAD.dim else stepper(opt, dim)))
    report = run_eval(sgd, quad_cfg(log_every=3))
    assert report.diverged_at == {0: 13, 1: None, 2: None}
    assert report.divergence_rate == pytest.approx(1 / 3)
    assert report.agg_steps == list(range(0, 30, 3)) + [29]
    assert report.curves[0][-1][0] == 12
    for i, t in enumerate(report.agg_steps):
        alive = [dict(report.curves[s])[t] for s in report.seeds if s != 0 or t < 13]
        assert len(alive) == (3 if t <= 12 else 2)
        assert report.agg_mean[i] == pytest.approx(np.mean(alive), rel=1e-12)
        assert report.agg_std[i] == pytest.approx(np.std(alive), abs=1e-12)


def test_last_step_always_logged():
    report = run_eval(init_l2o(0, hidden=4), quad_cfg(n_eval=23, log_every=10))
    assert report.curves[0][-1][0] == 22
    assert report.agg_steps[-1] == 22


def test_json_roundtrip_and_bitwise_reproducibility():
    cfg = quad_cfg(optimizer_name="adam", log_every=7)
    a = run_eval(TeacherKind("adam", lr=0.01), cfg)
    b = run_eval(TeacherKind("adam", lr=0.01), cfg)
    assert a.to_json() == b.to_json()
    back = EvalReport.from_json(a.to_json())
    assert back.to_json() == a.to_json()
    assert back.final_median == a.final_median
    assert back.log_auc() == a.log_auc()


def test_compare_winner_selection():
    cfg = quad_cfg()
    good = run_eval(TeacherKind("adam", lr=0.01), quad_cfg(optimizer_name="adam"))
    bad = run_eval(init_l2o(0, hidden=4), quad_cfg(optimizer_name="identity"))
    table = compare([good, bad])
    assert set(table["winners"]) == set(COMPARE_COLUMNS)
    assert table["winners"]["median_final"] == "adam"
    assert table["winners"]["log_auc"] == "adam"


def test_compare_rejects_mismatched_reports():
    a = run_eval(TeacherKind("adam", lr=0.01), quad_cfg())
    other = quad_cfg(n_eval=10)
    b = run_eval(TeacherKind("adam", lr=0.01), other)
    with pytest.raises(ValueError):
        compare([a, b])
    with pytest.raises(ValueError):
        compare([])


def test_csv_outputs_are_deterministic(tmp_path):
    report = run_eval(TeacherKind("adagrad", lr=0.01),
                      quad_cfg(optimizer_name="adagrad"))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_curves_csv(report, p1)
    write_curves_csv(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "step,seed,loss"

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_summary_csv([report], s1)
    write_summary_csv([report], s2)
    assert s1.read_bytes() == s2.read_bytes()


def test_csv_losses_roundtrip_exactly(tmp_path):
    report = run_eval(TeacherKind("adam", lr=0.01), quad_cfg())
    path = tmp_path / "curves.csv"
    write_curves_csv(report, path)
    rows = path.read_text().splitlines()[1:]
    for row in rows:
        step, seed, loss = row.split(",")
        assert float(loss) == dict(report.curves[int(seed)])[int(step)]


def test_std_stays_finite_where_squaring_overflows():
    small = [0.1, 0.25, 3.0]
    assert evaluation._std(small) == float(np.std(small))
    huge = [1e200, 3e200, -2e200]   # squared deviations overflow
    assert evaluation._std(huge) == pytest.approx(np.std([1.0, 3.0, -2.0]) * 1e200)


# dim 200 reaches POOL_MIN_DIM; one row makes SGD's stable step size differ
# enough across seeds that seed 2 diverges mid-run and seeds 0 and 3 converge
WIDE_QUAD = OptimizeeSpec(family="quadratic", dim=200, n_rows=1)


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(metatrain, "usable_cpus", lambda: n)


def test_eval_runs_where_os_has_no_sched_getaffinity(monkeypatch):
    # CPython defines os.sched_getaffinity on Linux, not on macOS or Windows
    cfg = EvalConfig(optimizee=OptimizeeSpec(family="quadratic", dim=10), n_eval=30,
                     seeds=(0, 1))
    with_affinity = run_eval(TeacherKind("adam", lr=0.01), cfg).to_json()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert run_eval(TeacherKind("adam", lr=0.01), cfg).to_json() == with_affinity
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert metatrain.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert metatrain.usable_cpus() == 1


def wide_l2o_checkpoint(tmp_path):
    phi = init_l2o(5, hidden=4)
    rng = np.random.default_rng(5)
    phi.w_out[:] = rng.normal(0, 0.3, phi.hidden)
    save_checkpoint(phi, tmp_path / "phi.l2o")
    return load_checkpoint(tmp_path / "phi.l2o")


@pytest.mark.parametrize("case", ["l2o-checkpoint", "teacher", "one-seed-diverges"])
def test_report_bytes_do_not_depend_on_the_number_of_threads(monkeypatch, tmp_path,
                                                             case):
    if case == "l2o-checkpoint":
        optimizer, n_eval, seeds = wide_l2o_checkpoint(tmp_path), 200, (0, 1, 2, 3)
    elif case == "teacher":
        optimizer, n_eval, seeds = TeacherKind("adam", lr=0.01), 300, (0, 1, 2, 3)
    else:
        optimizer, n_eval, seeds = TeacherKind("sgd", lr=0.00515), 4000, (0, 2, 3)
    cfg = EvalConfig(optimizee=WIDE_QUAD, n_eval=n_eval, seeds=seeds, log_every=50)
    # each seed reaches POOL_MIN_DIM, so each is a group of its own, on a
    # thread of its own when there are CPUs for it
    seed_threads = []

    def recorded_eval_group(*args):
        seed_threads.append(threading.current_thread())
        return eval_group(*args)

    eval_group = evaluation.eval_group
    monkeypatch.setattr(evaluation, "eval_group", recorded_eval_group)
    out = {}
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        seed_threads.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the threads as often as possible
        try:
            report = run_eval(optimizer, cfg)
        finally:
            sys.setswitchinterval(interval)
        on_main = {t is threading.main_thread() for t in seed_threads}
        assert len(seed_threads) == len(seeds)
        assert on_main == ({True} if cpus == 1 else {False})
        write_curves_csv(report, tmp_path / f"curves-{cpus}.csv")
        out[cpus] = (report.to_json(), (tmp_path / f"curves-{cpus}.csv").read_bytes())
    assert out[1] == out[3]
    if case == "one-seed-diverges":
        assert report.diverged_at == {0: None, 2: 3572, 3: None}
        # seed 2's losses pass 1e154 before it diverges
        assert max(report.agg_mean) > 1e154
        assert all(np.isfinite(report.agg_std))


def test_run_eval_leaves_no_thread_running(monkeypatch):
    use_cpus(monkeypatch, 3)
    before = set(threading.enumerate())
    run_eval(TeacherKind("adam", lr=0.01),
             EvalConfig(optimizee=WIDE_QUAD, n_eval=50, seeds=(0, 1, 2, 3)))
    assert set(threading.enumerate()) == before


def test_unsupported_optimizer_fails_before_the_pool(monkeypatch):
    use_cpus(monkeypatch, 3)

    def no_pool(*args, **kwargs):
        raise AssertionError("pool started for an unsupported optimizer")

    monkeypatch.setattr(metatrain, "ThreadPoolExecutor", no_pool)
    with pytest.raises(TypeError, match="unsupported optimizer"):
        run_eval(object(), EvalConfig(optimizee=WIDE_QUAD, n_eval=5, seeds=(0, 1)))
