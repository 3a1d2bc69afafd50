from functools import partial

import numpy as np
import pytest

import l2okit.experiments as experiments
from helpers import FakePhi, tagging_trainer, valid_instances
from l2okit.config import RunConfig
from l2okit.curriculum import CurriculumConfig, curriculum_train, n_valid_for
from l2okit.metatrain import MetaAdam, train_epoch, validate
from l2okit.model import init_l2o
from l2okit.optimizees import OptimizeeSpec, sample_instance


def scripted(values):
    """validate_fn that replays a fixed list of losses in call order."""
    it = iter(values)

    def validate_fn(phi, n_valid):
        return next(it)

    return validate_fn


def test_config_validation():
    with pytest.raises(ValueError):
        CurriculumConfig(ladder=(20, 20))
    with pytest.raises(ValueError):
        CurriculumConfig(ladder=(40, 20))
    with pytest.raises(ValueError):
        CurriculumConfig(n_period=0)
    with pytest.raises(ValueError):
        CurriculumConfig(t_period=0)


def test_n_valid_is_next_ladder_entry():
    cc = CurriculumConfig(ladder=(100, 200, 500))
    assert n_valid_for(cc, 0) == 200
    assert n_valid_for(cc, 1) == 500
    # final stage extrapolates the last ratio: 500^2 / 200
    assert n_valid_for(cc, 2) == 1250
    with pytest.raises(ValueError):
        n_valid_for(cc, 3)
    with pytest.raises(ValueError):
        n_valid_for(CurriculumConfig(ladder=(50,)), 0)


def test_final_stage_extrapolation_rounds():
    cc = CurriculumConfig(ladder=(20, 40, 100, 200))
    assert n_valid_for(cc, 3) == 400


CC = CurriculumConfig(ladder=(10, 20, 40), n_period=2, t_period=5)


def test_stop_after_stage_without_improvement():
    # stage 0: 5.0 improves, 4.0 improves, 4.5 does not -> advance
    # rebaseline at horizon 40: 6.0
    # stage 1: 6.5, 7.0 -> no improvement in the stage -> stop
    script = [5.0, 4.0, 4.5, 6.0, 6.5, 7.0]
    res = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script))
    assert res.stopped_by == "stop"
    assert res.best_stage == 0
    assert res.total_epochs == 25
    kinds = [r.kind for r in res.trace]
    assert kinds == ["period", "period", "period", "rebaseline",
                     "period", "period", "stop"]
    # the best snapshot is the one trained in stage 0, period 2
    assert res.best_phi.tag == 5
    assert res.train_iterations == 3 * 5 * 10 + 2 * 5 * 20


def test_min_periods_honored_even_after_early_improvement_stops():
    # first period improves, second does not, but n_period=2 forces the
    # second period to run before the stage can end
    script = [5.0, 5.5, 6.0, 6.5, 7.0]
    res = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script))
    stage0 = [r for r in res.trace if r.kind == "period" and r.stage == 0]
    assert len(stage0) == 2


def test_stage_extends_while_last_period_improves():
    # improvements at periods 1..4 keep stage 0 running past n_period
    script = [5.0, 4.0, 3.0, 2.0, 2.5, 9.0, 9.5, 10.0]
    res = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script))
    stage0 = [r for r in res.trace if r.kind == "period" and r.stage == 0]
    assert len(stage0) == 5
    assert res.stopped_by == "stop"
    assert res.best_phi.tag == 15  # trained in period 4 of stage 0


def test_ladder_exhaustion():
    script = [5.0, 4.0, 4.5,        # stage 0
              6.0,                  # rebaseline at stage 1
              5.5, 5.8,             # stage 1: improved once
              7.0,                  # rebaseline at stage 2
              6.5, 6.8]             # stage 2: improved once -> exhausted
    res = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script))
    assert res.stopped_by == "exhausted"
    assert res.best_stage == 2
    assert res.trace[-1].kind == "exhausted"
    assert res.total_epochs == 35
    assert res.train_iterations == (3 * 5 * 10) + (2 * 5 * 20) + (2 * 5 * 40)


def test_rebaseline_uses_new_horizon_floor():
    # after advancing, 5.9 must be compared against the rebaselined 6.0,
    # not against stage 0's 4.0
    script = [5.0, 4.0, 4.5, 6.0, 5.9, 6.1, 8.0, 8.5, 9.0]
    res = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script))
    rows = [r for r in res.trace if r.kind == "period" and r.stage == 1]
    assert rows[0].improved is True
    assert rows[0].l_min == 5.9


def test_budget_cutoff():
    script = [5.0, 4.0, 3.0, 2.0]
    res = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script),
                           epoch_budget=7)
    assert res.stopped_by == "budget"
    assert res.total_epochs == 5
    assert res.trace[-1].kind == "budget"
    assert res.best_phi.tag == 0


def test_l_min_is_monotone_along_each_stage():
    script = [5.0, 4.0, 4.5, 6.0, 5.5, 5.8, 7.0, 6.5, 6.8]
    res = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script))
    for stage in (0, 1, 2):
        mins = [r.l_min for r in res.trace
                if r.kind == "period" and r.stage == stage]
        assert mins == sorted(mins, reverse=True)


def test_scripted_run_is_deterministic():
    script = [5.0, 4.0, 4.5, 6.0, 6.5, 7.0]
    a = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script))
    b = curriculum_train(FakePhi(), CC, tagging_trainer, scripted(script))
    assert [vars(r) for r in a.trace] == [vars(r) for r in b.trace]
    assert a.train_iterations == b.train_iterations


def test_input_phi_is_not_mutated():
    phi0 = FakePhi(tag=-1)
    curriculum_train(phi0, CC, tagging_trainer,
                     scripted([5.0, 4.0, 4.5, 6.0, 6.5, 7.0]))
    assert phi0.tag == -1


def test_real_binding_restarts_each_stage_from_best_snapshot(monkeypatch):
    """On real L2O parameters: each new stage trains from the bytes of the
    best snapshot, and best_phi re-validates to the final floor exactly."""
    def phi_bytes(phi):
        return phi.flat.tobytes()

    periods = []  # (bytes at period start, bytes at period end)

    def recording(phi0, cc, train_period_fn, validate_fn, **kw):
        def train(phi, n_train, epoch_base):
            start = phi_bytes(phi)
            train_period_fn(phi, n_train, epoch_base)
            periods.append((start, phi_bytes(phi)))
        return curriculum_train(phi0, cc, train, validate_fn, **kw)

    monkeypatch.setattr(experiments, "curriculum_train", recording)
    spec = OptimizeeSpec(family="logistic_blobs")
    # a large meta step stops validation improving within a few periods,
    # so the run crosses stages well inside the budget
    cfg = RunConfig(family="logistic_blobs", seed=0, epochs=100, n_val_instances=2,
                    meta_lr=1.0, ladder=(2, 4, 8), n_period=1, t_period=2, segment=2)
    body = partial(train_epoch, adam=MetaAdam(lr=cfg.meta_lr), segment=cfg.segment,
                   inst=sample_instance(spec, 1), seed=0, events=[])
    res = experiments.train_curriculum(init_l2o(0, hidden=4), body, cfg, [])

    rows = [r for r in res.trace if r.kind == "period"]
    assert len(rows) == len(periods)
    best = None
    for i, (row, (start, end)) in enumerate(zip(rows, periods)):
        if i > 0 and row.stage != rows[i - 1].stage:
            assert start == best
        if row.improved:
            best = end
    assert {r.stage for r in rows} == {0, 1, 2}
    assert phi_bytes(res.best_phi) == best
    last = res.trace[-1]
    assert validate(res.best_phi, last.n_valid, valid_instances(spec, 0, 2), 0,
                    cfg.divergence_penalty) == last.l_min
